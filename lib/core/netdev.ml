type conv_ops = {
  cv_read : count:int -> string;
  cv_write : string -> (int, string) result;
  cv_local : unit -> string;
  cv_remote : unit -> string;
  cv_status : unit -> string;
  cv_stats : unit -> string;
  cv_close : unit -> unit;
}

type listener_ops = {
  ln_accept : unit -> (conv_ops * string, string) result;
  ln_set_backlog : int -> (unit, string) result;
      (* the ctl message "backlog n"; protocols without a bounded
         accept queue answer Error *)
  ln_status : unit -> string;
      (* announced-state detail for the status file, e.g.
         "Announced backlog 16 queued 0 refused 0" *)
  ln_close : unit -> unit;
}

type proto = {
  pr_name : string;
  pr_connect : string -> (conv_ops * string, string) result;
  pr_announce : string -> (listener_ops, string) result;
}

type conn_state =
  | Idle
  | Announced of listener_ops * string  (* announce address *)
  | Connected of conv_ops * string  (* remote address *)
  | Hungup

type conn = {
  id : int;
  dev : dev;
  mutable state : conn_state;
  mutable users : int;  (* open file handles on this conn's files *)
}

and dev = {
  eng : Sim.Engine.t;
  proto : proto;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
}

type file =
  | Root
  | Clone
  | ConnDir of conn
  | Ctl of conn
  | Data of conn
  | Listen of conn
  | Local of conn
  | Remote of conn
  | Status of conn
  | Stats of conn

type node = { mutable f : file; mutable opened : bool }

(* ---- qids ---- *)

let conn_files =
  [ "ctl"; "data"; "listen"; "local"; "remote"; "status"; "stats" ]

let conn_file c = function
  | "ctl" -> Ctl c
  | "data" -> Data c
  | "listen" -> Listen c
  | "local" -> Local c
  | "remote" -> Remote c
  | "status" -> Status c
  | "stats" -> Stats c
  | name -> invalid_arg ("Netdev.conn_file: " ^ name)

let file_slot = function
  | Ctl _ -> 1
  | Data _ -> 2
  | Listen _ -> 3
  | Local _ -> 4
  | Remote _ -> 5
  | Status _ -> 6
  | Stats _ -> 7
  | Root | Clone | ConnDir _ -> 0

let qid_of = function
  | Root -> { Ninep.Fcall.qpath = Int32.logor Ninep.Fcall.qdir_bit 1l; qvers = 0l }
  | Clone -> { Ninep.Fcall.qpath = 2l; qvers = 0l }
  | ConnDir c ->
    {
      Ninep.Fcall.qpath =
        Int32.logor Ninep.Fcall.qdir_bit (Int32.of_int (0x100 * (c.id + 1)));
      qvers = 0l;
    }
  | (Ctl c | Data c | Listen c | Local c | Remote c | Status c | Stats c) as f
    ->
    {
      Ninep.Fcall.qpath = Int32.of_int ((0x100 * (c.id + 1)) + file_slot f);
      qvers = 0l;
    }

let file_name = function
  | Root -> "."
  | Clone -> "clone"
  | ConnDir c -> string_of_int c.id
  | Ctl _ -> "ctl"
  | Data _ -> "data"
  | Listen _ -> "listen"
  | Local _ -> "local"
  | Remote _ -> "remote"
  | Status _ -> "status"
  | Stats _ -> "stats"

let stat_of f =
  let dir = match f with Root | ConnDir _ -> true | _ -> false in
  {
    Ninep.Fcall.d_name = file_name f;
    d_uid = "network";
    d_gid = "network";
    d_qid = qid_of f;
    d_mode =
      (if dir then Int32.logor Ninep.Fcall.dmdir 0o555l else 0o666l);
    d_atime = 0l;
    d_mtime = 0l;
    d_length = 0L;
    d_type = Char.code 'I';
    d_dev = 0;
  }

(* ---- connection lifecycle ---- *)

let alloc_conn dev =
  let id = dev.next_conn in
  dev.next_conn <- id + 1;
  let c = { id; dev; state = Idle; users = 0 } in
  Hashtbl.replace dev.conns id c;
  c

let close_conn c =
  (match c.state with
  | Connected (cv, _) -> cv.cv_close ()
  | Announced (ln, _) -> ln.ln_close ()
  | Idle | Hungup -> ());
  c.state <- Hungup

let release c =
  c.users <- c.users - 1;
  if c.users <= 0 then begin
    (* "A connection remains established while any of the files in the
       connection directory are referenced" — last reference gone *)
    close_conn c;
    Hashtbl.remove c.dev.conns c.id
  end

(* ---- ctl commands ---- *)

let ctl_write dev c text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun w -> w <> "")
  in
  match (words, c.state) with
  | [ "connect"; addr ], Idle -> (
    match dev.proto.pr_connect addr with
    | Ok (cv, remote) ->
      c.state <- Connected (cv, remote);
      Ok ()
    | Error e -> Error e)
  | "connect" :: _, (Announced _ | Connected _ | Hungup) ->
    Error "connection in use"
  | [ "announce"; addr ], Idle -> (
    match dev.proto.pr_announce addr with
    | Ok ln ->
      c.state <- Announced (ln, addr);
      Ok ()
    | Error e -> Error e)
  | [ "backlog"; n ], Announced (ln, _) -> (
    match int_of_string_opt n with
    | Some b when b > 0 -> ln.ln_set_backlog b
    | Some _ | None -> Error ("bad backlog: " ^ n))
  | "backlog" :: _, (Idle | Connected _ | Hungup) ->
    Error "not announced"
  | "hangup" :: _, _ ->
    (* an optional rejection reason is accepted and, on IP networks,
       ignored — as the paper says *)
    close_conn c;
    Ok ()
  | _, _ -> Error ("bad control message: " ^ String.trim text)

(* ---- the fs ---- *)

let fs eng proto =
  let dev = { eng; proto; conns = Hashtbl.create 17; next_conn = 0 } in
  let root_entries () =
    stat_of Clone
    :: (Hashtbl.fold (fun _ c acc -> c :: acc) dev.conns []
       |> List.sort (fun a b -> compare a.id b.id)
       |> List.map (fun c -> stat_of (ConnDir c)))
  in
  let conn_entries c =
    List.map (fun name -> stat_of (conn_file c name)) conn_files
  in
  let local_text c =
    match c.state with
    | Connected (cv, _) -> cv.cv_local () ^ "\n"
    | Announced (_, addr) -> addr ^ "\n"
    | Idle | Hungup -> "\n"
  in
  let remote_text c =
    match c.state with
    | Connected (cv, _) -> cv.cv_remote () ^ "\n"
    | Announced _ | Idle | Hungup -> "\n"
  in
  let status_text c =
    let s =
      match c.state with
      | Connected (cv, _) -> cv.cv_status ()
      | Announced (ln, _) ->
        Printf.sprintf "%s/%d %s" proto.pr_name c.id (ln.ln_status ())
      | Idle -> Printf.sprintf "%s/%d 0 Closed" proto.pr_name c.id
      | Hungup -> Printf.sprintf "%s/%d 0 Hungup" proto.pr_name c.id
    in
    s ^ "\n"
  in
  let stats_text c =
    match c.state with
    | Connected (cv, _) -> cv.cv_stats ()
    | Announced _ | Idle | Hungup -> ""
  in
  {
    Ninep.Server.fs_name = "netdev:" ^ proto.pr_name;
    fs_attach = (fun ~uname:_ ~aname:_ -> Ok { f = Root; opened = false });
    fs_qid = (fun n -> qid_of n.f);
    fs_walk =
      (fun n name ->
        match (n.f, name) with
        | Root, "clone" ->
          n.f <- Clone;
          Ok n
        | Root, ".." -> Ok n
        | Root, name -> (
          match
            Option.bind (int_of_string_opt name) (Hashtbl.find_opt dev.conns)
          with
          | Some c ->
            n.f <- ConnDir c;
            Ok n
          | None -> Error "file does not exist")
        | ConnDir _, ".." ->
          n.f <- Root;
          Ok n
        | ConnDir c, name when List.mem name conn_files ->
          n.f <- conn_file c name;
          Ok n
        | (Clone | ConnDir _ | Ctl _ | Data _ | Listen _ | Local _ | Remote _
          | Status _ | Stats _), _ ->
          Error "file does not exist")
    ;
    fs_open =
      (fun n _mode ~trunc:_ ->
        match n.f with
        | Root | ConnDir _ ->
          n.opened <- true;
          Ok ()
        | Clone ->
          (* reserve an unused connection and become its ctl file *)
          let c = alloc_conn dev in
          c.users <- c.users + 1;
          n.f <- Ctl c;
          n.opened <- true;
          Ok ()
        | Listen c -> (
          match c.state with
          | Announced (ln, _) -> (
            (* blocks until an incoming call arrives *)
            match ln.ln_accept () with
            | Ok (cv, remote) ->
              let nc = alloc_conn dev in
              nc.state <- Connected (cv, remote);
              nc.users <- nc.users + 1;
              (* the returned descriptor points at the new conn's ctl *)
              n.f <- Ctl nc;
              n.opened <- true;
              Ok ()
            | Error e -> Error e)
          | Idle | Connected _ | Hungup -> Error "not announced")
        | Ctl c | Data c | Local c | Remote c | Status c | Stats c ->
          c.users <- c.users + 1;
          n.opened <- true;
          Ok ())
    ;
    fs_read =
      (fun n ~offset ~count ->
        if not n.opened then Error "not open"
        else
          match n.f with
          | Root ->
            Ok (Ninep.Server.dir_data (root_entries ()) ~offset ~count)
          | ConnDir c -> Ok (Ninep.Server.dir_data (conn_entries c) ~offset ~count)
          | Clone -> Error "not open"
          | Ctl c ->
            Ok (Ninep.Server.slice (string_of_int c.id) ~offset ~count)
          | Data c -> (
            match c.state with
            | Connected (cv, _) -> Ok (cv.cv_read ~count)
            | Idle | Announced _ | Hungup -> Error "not connected")
          | Listen _ -> Error "not open"
          | Local c -> Ok (Ninep.Server.slice (local_text c) ~offset ~count)
          | Remote c -> Ok (Ninep.Server.slice (remote_text c) ~offset ~count)
          | Status c -> Ok (Ninep.Server.slice (status_text c) ~offset ~count)
          | Stats c -> Ok (Ninep.Server.slice (stats_text c) ~offset ~count))
    ;
    fs_write =
      (fun n ~offset:_ ~data ->
        if not n.opened then Error "not open"
        else
          match n.f with
          | Ctl c -> (
            match ctl_write dev c data with
            | Ok () -> Ok (String.length data)
            | Error e -> Error e)
          | Data c -> (
            match c.state with
            | Connected (cv, _) -> cv.cv_write data
            | Idle | Announced _ | Hungup -> Error "not connected")
          | Root | Clone | ConnDir _ | Listen _ | Local _ | Remote _
          | Status _ | Stats _ ->
            Error "permission denied")
    ;
    fs_create = (fun _ ~name:_ ~perm:_ _ -> Error "permission denied");
    fs_remove = (fun _ -> Error "permission denied");
    fs_stat = (fun n -> Ok (stat_of n.f));
    fs_wstat = (fun _ _ -> Error "permission denied");
    fs_clunk =
      (fun n ->
        if n.opened then begin
          n.opened <- false;
          match n.f with
          | Ctl c | Data c | Local c | Remote c | Status c | Stats c
          | Listen c ->
            release c
          | Root | Clone | ConnDir _ -> ()
        end)
    ;
    fs_clone = (fun n -> { f = n.f; opened = false });
  }

let mount env eng proto =
  (* ensure /net/<proto> exists as a mount point *)
  let dir = "/net/" ^ proto.pr_name in
  List.iter
    (fun d ->
      try ignore (Vfs.Env.stat env d)
      with Vfs.Chan.Error _ ->
        Vfs.Env.close env
          (Vfs.Env.create env d
             ~perm:(Int32.logor Ninep.Fcall.dmdir 0o775l)
             Ninep.Fcall.Oread))
    [ "/net"; dir ];
  Vfs.Env.mount_fs env (fs eng proto) ~onto:dir Vfs.Ns.Repl

(* ---- protocol adapters ---- *)

let split_addr addr =
  match String.index_opt addr '!' with
  | Some i ->
    ( String.sub addr 0 i,
      String.sub addr (i + 1) (String.length addr - i - 1) )
  | None -> (addr, "")

(* "135.104.9.31!17008" with sep '!', "135.104.9.31 17008" with ' ' *)
let addr_port sep a port =
  Printf.sprintf "%s%c%d" (Inet.Ipaddr.to_string a) sep port

(* the last !-separated field of an announce address: "17008" and
   "*!17008" both name port 17008 *)
let announce_suffix addr =
  match String.rindex_opt addr '!' with
  | Some i -> String.sub addr (i + 1) (String.length addr - i - 1)
  | None -> addr

(* IL and both TCP variants: the device sees the same conversation and
   listener shape, and only the transport module differs *)
module type TRANSPORT = sig
  type stack
  type conv

  val local_addr : stack -> Inet.Ipaddr.t
  val connect :
    ?lport:int -> stack -> raddr:Inet.Ipaddr.t -> rport:int -> conv

  val announce :
    ?backlog:int -> stack -> port:int -> conv Inet.Xport.listener

  val read : conv -> int -> string
  val write : conv -> string -> unit
  val close : conv -> unit
  val local_port : conv -> int
  val remote_port : conv -> int
  val remote_addr : conv -> Inet.Ipaddr.t
  val status : conv -> string
  val conv_stats : conv -> string
end

module Transport (X : TRANSPORT) = struct
  let conv st conv =
    {
      cv_read = (fun ~count -> X.read conv count);
      cv_write =
        (fun data ->
          try
            X.write conv data;
            Ok (String.length data)
          with Inet.Xport.Hungup -> Error "hungup");
      cv_local =
        (* the paper's transcripts show "address port" *)
        (fun () -> addr_port ' ' (X.local_addr st) (X.local_port conv));
      cv_remote =
        (fun () -> addr_port ' ' (X.remote_addr conv) (X.remote_port conv));
      cv_status = (fun () -> X.status conv);
      cv_stats = (fun () -> X.conv_stats conv);
      cv_close = (fun () -> X.close conv);
    }

  (* the directory name and error strings follow the stack: "il",
     "tcp" or "tcpcc" *)
  let proto name st =
    {
      pr_name = name;
      pr_connect =
        (fun addr ->
          let host, port = split_addr addr in
          match (Inet.Ipaddr.of_string_opt host, int_of_string_opt port) with
          | Some raddr, Some rport -> (
            try Ok (conv st (X.connect st ~raddr ~rport), addr) with
            | Inet.Xport.Refused e -> Error e
            | Inet.Xport.Timeout e -> Error e
            | Inet.Xport.Port_exhausted -> Error "no free local ports")
          | _, _ -> Error (Printf.sprintf "bad %s address: %s" name addr));
      pr_announce =
        (fun addr ->
          match int_of_string_opt (announce_suffix addr) with
          | None -> Error (Printf.sprintf "bad %s announcement: %s" name addr)
          | Some port -> (
            try
              let lis = X.announce st ~port in
              Ok
                {
                  ln_accept =
                    (fun () ->
                      let c = Inet.Xport.listen lis in
                      Ok
                        ( conv st c,
                          addr_port '!' (X.remote_addr c) (X.remote_port c) ));
                  ln_set_backlog =
                    (fun n ->
                      Inet.Xport.set_backlog lis n;
                      Ok ());
                  ln_status =
                    (fun () ->
                      Printf.sprintf
                        "%d Announced backlog %d queued %d refused %d" port
                        (Inet.Xport.backlog lis) (Inet.Xport.queued lis)
                        (Inet.Xport.refused lis));
                  ln_close = (fun () -> Inet.Xport.close_listener lis);
                }
            with Invalid_argument e -> Error e));
    }
end

module Il_dev = Transport (Inet.Il)
module Tcp_dev = Transport (Inet.Tcp)

let il_proto st = Il_dev.proto "il" st
let tcp_proto st = Tcp_dev.proto (Inet.Tcp.proto_name st) st

let udp_stats st =
  let c = Inet.Udp.counters st in
  Printf.sprintf "dgrams_sent %d\ndgrams_rcvd %d\nno_port %d\n"
    c.Inet.Udp.dg_sent c.Inet.Udp.dg_rcvd c.Inet.Udp.dg_dropped_noport

(* a UDP conversation with one peer from local port [lport]: [recv]
   yields the peer's next datagram, [send] transmits one *)
let udp_peer st ~lport ~raddr ~rport ~recv ~send ~close =
  {
    cv_read =
      (fun ~count ->
        let d = recv () in
        if String.length d <= count then d else String.sub d 0 count);
    cv_write = send;
    cv_local = (fun () -> addr_port '!' (Inet.Udp.local_addr st) lport);
    cv_remote = (fun () -> addr_port '!' raddr rport);
    cv_status = (fun () -> Printf.sprintf "udp/%d Open" lport);
    cv_stats = (fun () -> udp_stats st);
    cv_close = close;
  }

(* "connected" UDP: a bound socket restricted to one peer *)
let udp_conv st conv ~raddr ~rport =
  let closed = ref false in
  let rec recv () =
    let src, sport, data = Inet.Udp.recv conv in
    if Inet.Ipaddr.equal src raddr && sport = rport then data else recv ()
  in
  udp_peer st ~lport:(Inet.Udp.port conv) ~raddr ~rport
    ~recv:(fun () -> if !closed then "" else recv ())
    ~send:(fun data ->
      if !closed then Error "hungup"
      else begin
        Inet.Udp.send conv ~dst:raddr ~dport:rport data;
        Ok (String.length data)
      end)
    ~close:(fun () ->
      closed := true;
      Inet.Udp.close conv)

let udp_proto st =
  {
    pr_name = "udp";
    pr_connect =
      (fun addr ->
        let host, port = split_addr addr in
        match (Inet.Ipaddr.of_string_opt host, int_of_string_opt port) with
        | Some raddr, Some rport -> (
          match Inet.Udp.bind st with
          | conv -> Ok (udp_conv st conv ~raddr ~rport, addr)
          | exception Inet.Xport.Port_exhausted -> Error "no free local ports")
        | _, _ -> Error ("bad udp address: " ^ addr));
    pr_announce =
      (fun addr ->
        match int_of_string_opt (announce_suffix addr) with
        | None -> Error ("bad udp announcement: " ^ addr)
        | Some port -> (
          try
            let conv = Inet.Udp.bind ~port st in
            let eng = Inet.Udp.engine st in
            (* a dispatcher demultiplexes datagrams into one
               conversation per remote endpoint; replies go out from
               the announced port *)
            let peers :
                (int32 * int, string Sim.Mbox.t) Hashtbl.t =
              Hashtbl.create 7
            in
            let accept_q = Sim.Mbox.create eng in
            let dispatcher =
              Sim.Proc.spawn eng ~name:"udp-demux" (fun () ->
                  let rec loop () =
                    let src, sport, data = Inet.Udp.recv conv in
                    let key = (Inet.Ipaddr.to_int32 src, sport) in
                    (match Hashtbl.find_opt peers key with
                    | Some mb -> Sim.Mbox.send mb data
                    | None ->
                      let mb = Sim.Mbox.create eng in
                      Hashtbl.replace peers key mb;
                      Sim.Mbox.send mb data;
                      Sim.Mbox.send accept_q (src, sport, mb));
                    loop ()
                  in
                  loop ())
            in
            Ok
              {
                ln_accept =
                  (fun () ->
                    let src, sport, mb = Sim.Mbox.recv accept_q in
                    let key = (Inet.Ipaddr.to_int32 src, sport) in
                    let cv =
                      udp_peer st ~lport:port ~raddr:src ~rport:sport
                        ~recv:(fun () -> Sim.Mbox.recv mb)
                        ~send:(fun data ->
                          Inet.Udp.send conv ~dst:src ~dport:sport data;
                          Ok (String.length data))
                        ~close:(fun () -> Hashtbl.remove peers key)
                    in
                    Ok (cv, addr_port '!' src sport))
                ;
                ln_set_backlog = (fun _ -> Error "udp has no backlog");
                ln_status = (fun () -> "0 Announced");
                ln_close =
                  (fun () ->
                    Sim.Proc.kill dispatcher;
                    Inet.Udp.close conv);
              }
          with Invalid_argument e -> Error e));
  }

let urp_conv line conv ~remote =
  {
    cv_read = (fun ~count -> Dk.Urp.read conv count);
    cv_write =
      (fun data ->
        try
          Dk.Urp.write conv data;
          Ok (String.length data)
        with Dk.Urp.Hungup -> Error "hungup");
    cv_local = (fun () -> Dk.Switch.line_name line);
    cv_remote = (fun () -> remote);
    cv_status =
      (fun () ->
        let c = Dk.Urp.counters conv in
        Printf.sprintf "urp Established rexmit %d" c.Dk.Urp.retransmits);
    cv_stats =
      (fun () ->
        let c = Dk.Urp.counters conv in
        Printf.sprintf
          "cells_sent %d\ncells_rcvd %d\nbytes_sent %d\nbytes_rcvd %d\n\
           retransmits %d\nenqs_sent %d\ndups_dropped %d\n"
          c.Dk.Urp.cells_sent c.Dk.Urp.cells_rcvd c.Dk.Urp.bytes_sent
          c.Dk.Urp.bytes_rcvd c.Dk.Urp.retransmits c.Dk.Urp.enqs_sent
          c.Dk.Urp.dups_dropped);
    cv_close = (fun () -> Dk.Urp.close conv);
  }

let dk_proto line =
  {
    pr_name = "dk";
    pr_connect =
      (fun addr ->
        (* nj/astro/helix!9fs *)
        let dest, service = split_addr addr in
        if dest = "" then Error ("bad dk address: " ^ addr)
        else
          try
            let circ = Dk.Circuit.dial line ~dest ~service in
            Ok (urp_conv line (Dk.Urp.over circ) ~remote:addr, addr)
          with
          | Dk.Circuit.Rejected reason -> Error reason
          | Dk.Circuit.No_such_line l -> Error ("no such system: " ^ l));
    pr_announce =
      (fun addr ->
        (* service name, possibly "*" *)
        let service = announce_suffix addr in
        try
          let calls = Dk.Circuit.announce line ~service in
          Ok
            {
              ln_accept =
                (fun () ->
                  let inc = Sim.Mbox.recv calls in
                  let caller = Dk.Circuit.caller inc in
                  let circ = Dk.Circuit.accept inc in
                  Ok (urp_conv line (Dk.Urp.over circ) ~remote:caller, caller));
              ln_set_backlog = (fun _ -> Error "dk has no backlog");
              ln_status = (fun () -> "0 Announced");
              ln_close = (fun () -> ());
            }
        with Invalid_argument e -> Error e);
  }
