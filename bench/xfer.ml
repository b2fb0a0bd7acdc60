(* The point-to-point transfer: one sender pushes [msgs] messages of
   [size] bytes to one receiver across a single faulty link, and the
   run reports when the last byte arrived and what each end's
   transport spent getting it there.  The link is two hosts on one
   Ethernet segment (10.0.0.1 -> 10.0.0.2) for IL, baseline TCP and
   tcpcc, or two lines on one Datakit switch for URP; [schedule] sets
   the link's fault schedule.  The section-3 table, the ablations, the
   congestion matrix's loss rows and the faults bench all run this one
   driver.  Everything is virtual time on one seeded engine; the
   profiler report is wall clock and never belongs in a golden. *)

let msgs = 200
let size = 1000

type proto = Il of Inet.Il.config | Tcp | Tcpcc | Urp

(* one end's transport counters, in the shape IL, TCP and URP share *)
type ends = {
  bytes_sent : int;
  retransmits : int;
  retransmitted_bytes : int;  (* 0 for URP *)
  fast_retransmits : int;  (* tcpcc only *)
  queries : int;  (* IL queries / URP enqs; 0 for TCP *)
  dups_dropped : int;
  rtt_samples : int;  (* IL only *)
}

type t = {
  converged : bool;  (* every byte reached the receiver *)
  elapsed : float;  (* virtual seconds to deliver everything *)
  tx : ends;
  rx : ends;
  injected : int * int * int;
      (* drops, dups, reorders by the fault schedule, both ends *)
  perf : Obs.Prof.report;
}

let both f x = f x.tx + f x.rx

let zero =
  {
    bytes_sent = 0;
    retransmits = 0;
    retransmitted_bytes = 0;
    fast_retransmits = 0;
    queries = 0;
    dups_dropped = 0;
    rtt_samples = 0;
  }

(* one end of an established conversation; [read] returns "" at EOF *)
type conv = { read : unit -> string; write : string -> unit }

type link = {
  faults : Netsim.Fault.t;
  accept : unit -> conv;  (* in the receiver's process *)
  dial : unit -> conv;  (* in the sender's process *)
  counters : unit -> ends * ends;  (* sender, receiver *)
  injected : unit -> int * int * int;  (* drops, dups, reorders *)
}

let of_il (c : Inet.Il.counters) =
  {
    bytes_sent = c.bytes_sent;
    retransmits = c.retransmits;
    retransmitted_bytes = c.retransmitted_bytes;
    fast_retransmits = 0;
    queries = c.queries_sent;
    dups_dropped = c.dups_dropped;
    rtt_samples = c.rtt_samples;
  }

let of_tcp (c : Inet.Tcp.counters) =
  {
    zero with
    bytes_sent = c.bytes_sent;
    retransmits = c.retransmits;
    retransmitted_bytes = c.retransmitted_bytes;
    fast_retransmits = c.fast_retransmits;
    dups_dropped = c.dups_dropped;
  }

let of_urp (c : Dk.Urp.counters) =
  {
    zero with
    bytes_sent = c.bytes_sent;
    retransmits = c.retransmits;
    queries = c.enqs_sent;
    dups_dropped = c.dups_dropped;
  }

(* two hosts on one Ethernet segment; [transport] attaches the protocol
   to both IP stacks and returns the accept, dial and counter functions *)
let ether_link eng transport =
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    let port = Inet.Etherport.create eng nic in
    ( nic,
      Inet.Ip.create
        ~addr:(Inet.Ipaddr.of_string addr)
        ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
        port )
  in
  let nic_a, ipa = mk 1 "10.0.0.1" in
  let nic_b, ipb = mk 2 "10.0.0.2" in
  let accept, dial, counters =
    transport ipa ipb (Inet.Ipaddr.of_string "10.0.0.2")
  in
  {
    faults = Netsim.Ether.faults seg;
    accept;
    dial;
    counters;
    injected =
      (fun () ->
        List.fold_left
          (fun (d, u, r) nic ->
            let s = Netsim.Ether.nic_stats nic in
            ( d + s.drops_injected,
              u + s.dups_injected,
              r + s.reorders_injected ))
          (0, 0, 0) [ nic_a; nic_b ]);
  }

let il config ipa ipb raddr =
  let a = Inet.Il.attach ~config ipa and b = Inet.Il.attach ~config ipb in
  let conv c =
    {
      read = (fun () -> Option.value (Inet.Il.read_msg c) ~default:"");
      write = Inet.Il.write c;
    }
  in
  ( (fun () -> conv (Inet.Il.listen (Inet.Il.announce b ~port:1))),
    (fun () -> conv (Inet.Il.connect a ~raddr ~rport:1)),
    fun () -> (of_il (Inet.Il.counters a), of_il (Inet.Il.counters b)) )

(* one runner serves tcp and tcpcc: [attach] picks the variant *)
let tcp attach ipa ipb raddr =
  let a = attach ipa and b = attach ipb in
  let conv c =
    { read = (fun () -> Inet.Tcp.read c 8192); write = Inet.Tcp.write c }
  in
  ( (fun () -> conv (Inet.Tcp.listen (Inet.Tcp.announce b ~port:1))),
    (fun () -> conv (Inet.Tcp.connect a ~raddr ~rport:1)),
    fun () -> (of_tcp (Inet.Tcp.counters a), of_tcp (Inet.Tcp.counters b)) )

(* two lines on one Datakit switch, URP over the circuit *)
let dk_link eng =
  let sw = Dk.Switch.create ~name:"dk" eng in
  let la = Dk.Switch.attach sw ~name:"nj/astro/a" in
  let lb = Dk.Switch.attach sw ~name:"nj/astro/b" in
  let inq = Dk.Circuit.announce lb ~service:"bench" in
  (* URP counts per conversation: each end is known once it exists *)
  let tx = ref (fun () -> zero) and rx = ref (fun () -> zero) in
  let conv ends circ =
    let u = Dk.Urp.over circ in
    (ends := fun () -> of_urp (Dk.Urp.counters u));
    {
      read = (fun () -> Option.value (Dk.Urp.read_msg u) ~default:"");
      write = Dk.Urp.write u;
    }
  in
  {
    faults = Dk.Switch.faults sw;
    accept = (fun () -> conv rx (Dk.Circuit.accept (Sim.Mbox.recv inq)));
    dial =
      (fun () ->
        conv tx (Dk.Circuit.dial la ~dest:"nj/astro/b" ~service:"bench"));
    counters = (fun () -> (!tx (), !rx ()));
    injected =
      (fun () ->
        List.fold_left
          (fun (d, u, r) l ->
            let s = Dk.Switch.line_stats l in
            ( d + s.drops_injected,
              u + s.dups_injected,
              r + s.reorders_injected ))
          (0, 0, 0) [ la; lb ]);
  }

let run ~proto ~schedule ~seed =
  let eng = Sim.Engine.create ~seed () in
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let link =
    match proto with
    | Il config -> ether_link eng (il config)
    | Tcp -> ether_link eng (tcp (fun ip -> Inet.Tcp.attach ip))
    | Tcpcc -> ether_link eng (tcp (fun ip -> Inet.Tcp.attach_cc ip))
    | Urp -> dk_link eng
  in
  schedule link.faults;
  let total = msgs * size in
  let got = ref 0 and finish = ref 0. in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let c = link.accept () and eof = ref false in
         while !got < total && not !eof do
           let s = c.read () in
           if s = "" then eof := true else got := !got + String.length s
         done;
         finish := Sim.Engine.now eng));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let c = link.dial () in
         let payload = String.make size 'd' in
         for _ = 1 to msgs do
           c.write payload
         done));
  Sim.Engine.run ~until:600.0 eng;
  let tx, rx = link.counters () in
  {
    converged = !got = total;
    elapsed = !finish;
    tx;
    rx;
    injected = link.injected ();
    perf = Obs.Prof.report prof;
  }
