exception Refused of string
exception Timeout of string
exception Hungup
exception Port_exhausted

(* ---- wire helpers: big-endian 16/32-bit fields ---- *)

let put16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let put32 b off v =
  put16 b off ((v lsr 16) land 0xffff);
  put16 b (off + 2) (v land 0xffff)

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
let get32 s off = (get16 s off lsl 16) lor get16 s (off + 2)

(* ---- ephemeral ports ---- *)

type 'a ports = { bound : (int, 'a) Hashtbl.t; mutable next_port : int }

let ports n = { bound = Hashtbl.create n; next_port = 5000 }

let alloc_port ps =
  let start = ps.next_port - 5000 in
  let rec try_port i =
    if i >= 60000 then raise Port_exhausted
    else
      let p = 5000 + ((start + i) mod 60000) in
      if Hashtbl.mem ps.bound p then try_port (i + 1) else p
  in
  let p = try_port 0 in
  ps.next_port <- p + 1;
  p

(* a connection-oriented port is held once per conversation using it as
   its local port and once more by its listener *)
let hold ps p =
  let n = Option.value ~default:0 (Hashtbl.find_opt ps.bound p) in
  Hashtbl.replace ps.bound p (n + 1)

let release ps p =
  match Hashtbl.find_opt ps.bound p with
  | Some 1 -> Hashtbl.remove ps.bound p
  | Some n -> Hashtbl.replace ps.bound p (n - 1)
  | None -> ()

(* ---- the conversation table ---- *)

type 'c listener = {
  tab : 'c t;
  lis_port : int;
  accepts : 'c Sim.Mbox.t;
  mutable lis_open : bool;
  mutable backlog : int;
  mutable lis_pending : int;  (* half-open calls counted in backlog *)
  mutable refused : int;
}

and 'c t = {
  eng : Sim.Engine.t;
  ip : Ip.stack;
  pname : string;  (* "il", "tcp" or "tcpcc": /net dir, Obs event tag *)
  ipproto : int;
  cpu : (Sim.Cpu.t * float * float) option;  (* cpu, per packet, per byte *)
  convs : (int * int * int32, 'c) Hashtbl.t;  (* lport, rport, raddr *)
  listeners : (int, 'c listener) Hashtbl.t;
  held : int ports;  (* local ports in use, with their holder counts *)
  mutable next_cid : int;
  mutable refusals : int;  (* backlog refusals, all listeners *)
}

let create ip ~pname ~ipproto ~cpu =
  {
    eng = Ip.engine ip;
    ip;
    pname;
    ipproto;
    cpu;
    convs = Hashtbl.create 31;
    listeners = Hashtbl.create 7;
    held = ports 31;
    next_cid = 0;
    refusals = 0;
  }

let local_addr t = Ip.addr t.ip

(* an initial sequence number, from the engine's seeded stream *)
let isn t = 1 + Random.State.int (Sim.Engine.random t.eng) 0xffffff

let fresh_cid t =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  cid

let add t ~lport ~rport ~raddr c =
  let key = (lport, rport, Ipaddr.to_int32 raddr) in
  if not (Hashtbl.mem t.convs key) then hold t.held lport;
  Hashtbl.replace t.convs key c

let find t ~lport ~rport ~raddr =
  Hashtbl.find_opt t.convs (lport, rport, Ipaddr.to_int32 raddr)

let leave lis = lis.lis_pending <- max 0 (lis.lis_pending - 1)

let drop t ~lport ~rport ~raddr half_open =
  (match half_open with Some lis -> leave lis | None -> ());
  let key = (lport, rport, Ipaddr.to_int32 raddr) in
  if Hashtbl.mem t.convs key then begin
    Hashtbl.remove t.convs key;
    release t.held lport
  end

let conv_count t = Hashtbl.length t.convs
let refusals t = t.refusals

(* ---- packets in and out, on the host CPU when one is modelled ---- *)

let cost ~per_msg ~per_byte pkt =
  per_msg +. (per_byte *. float_of_int (String.length pkt))

let send t ~dst pkt =
  match t.cpu with
  | None -> Ip.send t.ip ~proto:t.ipproto ~dst pkt
  | Some (cpu, per_msg, per_byte) ->
    Sim.Cpu.run_after ~label:t.pname cpu (cost ~per_msg ~per_byte pkt)
      (fun () -> Ip.send t.ip ~proto:t.ipproto ~dst pkt)

let register t input =
  Ip.register_proto t.ip ~proto:t.ipproto (fun ~src ~dst pkt ->
      match t.cpu with
      | None -> input ~src ~dst pkt
      | Some (cpu, per_msg, per_byte) ->
        Sim.Cpu.run_after ~label:t.pname cpu (cost ~per_msg ~per_byte pkt)
          (fun () -> input ~src ~dst pkt))

(* ---- tracing ---- *)

let trace_state t cid ~from_ ~to_ =
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Proto_state { proto = t.pname; conv = cid; from_; to_ })

let trace_retransmit t cid ~id ~bytes =
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Retransmit { proto = t.pname; conv = cid; id; bytes });
    Obs.Trace.bump tr (t.pname ^ ".retransmits") 1

let trace_undecodable t ~header_len pkt =
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    if String.length pkt >= header_len && not (Chksum.valid pkt) then begin
      Obs.Trace.emit tr (Obs.Event.Checksum_err { proto = t.pname });
      Obs.Trace.bump tr (t.pname ^ ".badsum") 1
    end

(* ---- calls: the active open and the listener's backlog ---- *)

type call = Dialing of Sim.Rendez.t | Up | Down of string option

let connect t lport ~start ~state =
  let lport = match lport with Some p -> p | None -> alloc_port t.held in
  let sp =
    match Sim.Engine.obs t.eng with
    | None -> Obs.Span.none
    | Some tr -> Obs.Span.enter tr ~layer:t.pname (t.pname ^ ".connect")
  in
  let fin () =
    match Sim.Engine.obs t.eng with
    | None -> ()
    | Some tr -> Obs.Span.exit tr sp
  in
  let c = start lport in
  let rec settle () =
    match state c with
    | Dialing wait ->
      Sim.Rendez.sleep wait;
      settle ()
    | Up ->
      fin ();
      c
    | Down err ->
      fin ();
      raise
        (match err with
        | Some "connect timed out" -> Timeout (t.pname ^ " connect")
        | Some reason -> Refused reason
        | None -> Refused "closed")
  in
  settle ()

let default_backlog = 16

let announce ?(backlog = default_backlog) t ~port =
  if Hashtbl.mem t.listeners port then
    invalid_arg (Printf.sprintf "%s announce: port %d in use" t.pname port);
  let lis =
    { tab = t; lis_port = port; accepts = Sim.Mbox.create t.eng;
      lis_open = true; backlog = max 1 backlog; lis_pending = 0;
      refused = 0 }
  in
  Hashtbl.replace t.listeners port lis;
  hold t.held port;
  lis

let admit t ~port accept =
  match Hashtbl.find_opt t.listeners port with
  | Some lis when lis.lis_open ->
    if lis.lis_pending + Sim.Mbox.length lis.accepts >= lis.backlog then begin
      (* backlog full: refuse rather than wedge — the caller sees a
         clean refusal and may redial *)
      lis.refused <- lis.refused + 1;
      t.refusals <- t.refusals + 1;
      (match Sim.Engine.obs t.eng with
      | None -> ()
      | Some tr -> Obs.Trace.bump tr (t.pname ^ ".backlog_refused") 1);
      false
    end
    else begin
      lis.lis_pending <- lis.lis_pending + 1;
      accept lis;
      true
    end
  | Some _ | None -> false

(* the accept queue inherits the established call's backlog slot:
   lis_pending drops as the mailbox grows, so occupancy is conserved
   until [listen] drains it *)
let accepted lis c =
  leave lis;
  if lis.lis_open then Sim.Mbox.send lis.accepts c

let listen lis = Sim.Mbox.recv lis.accepts
let set_backlog lis n = lis.backlog <- max 1 n
let backlog lis = lis.backlog
let queued lis = lis.lis_pending + Sim.Mbox.length lis.accepts
let refused lis = lis.refused

let close_listener lis =
  lis.lis_open <- false;
  let t = lis.tab in
  if Hashtbl.mem t.listeners lis.lis_port then begin
    Hashtbl.remove t.listeners lis.lis_port;
    release t.held lis.lis_port
  end
