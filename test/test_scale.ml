(* Scale regressions: the per-conversation timer economy, ephemeral
   port exhaustion, and listener backlog behaviour.  These pin down
   the properties the swarm bench depends on — above all that an idle
   conversation contributes {e zero} events to the engine, which is
   what lets thousands of them coexist. *)

(* two IP hosts on a loss-free segment, with an observability sink so
   the timer.* counters are assertable *)
let ether_pair () =
  let eng = Sim.Engine.create ~seed:7 () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let seg = Netsim.Ether.create ~name:"e0" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    let port = Inet.Etherport.create eng nic in
    Inet.Ip.create
      ~addr:(Inet.Ipaddr.of_string addr)
      ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
      port
  in
  (eng, tr, mk 1 "10.0.0.1", mk 2 "10.0.0.2")

let counter tr name = Obs.Metrics.counter (Obs.Trace.metrics tr) name

(* ---- idle conversations schedule zero timer events ---- *)

(* the heart of the tentpole: establish a conversation, exchange one
   message, let every pending timer drain (the death timer lapses once
   and does not re-arm) — then over a further hour of virtual time the
   engine must process zero events and the heap must be empty, while
   the conversation is still alive *)
let test_il_idle_is_eventless () =
  let eng, tr, ipa, ipb = ether_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let got = ref None in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Il.announce ilb ~port:1 in
         let conv = Inet.Xport.listen lis in
         got := Inet.Il.read_msg conv));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Il.connect ila ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:1
         in
         Inet.Il.write conv "ping"));
  (* run to quiescence: acks, delayed acks, and the death-timer lapse
     all drain; the conversations stay established *)
  Sim.Engine.run eng;
  Alcotest.(check (option string)) "message delivered" (Some "ping") !got;
  Alcotest.(check int) "conv alive on tx stack" 1 (Inet.Il.conv_count ila);
  Alcotest.(check int) "conv alive on rx stack" 1 (Inet.Il.conv_count ilb);
  Alcotest.(check bool) "timers were used at all" true (counter tr "timer.arm" > 0);
  let events = Sim.Engine.events eng in
  let arms = counter tr "timer.arm" in
  let now = Sim.Engine.now eng in
  Sim.Engine.run ~until:(now +. 3600.) eng;
  Alcotest.(check int) "zero events while idle" events (Sim.Engine.events eng);
  Alcotest.(check int) "zero timer arms while idle" arms (counter tr "timer.arm");
  Alcotest.(check int) "event heap is empty" 0 (Sim.Engine.pending eng)

let test_tcp_idle_is_eventless () =
  let eng, tr, ipa, ipb = ether_pair () in
  let tcpa = Inet.Tcp.attach ipa and tcpb = Inet.Tcp.attach ipb in
  let got = ref "" in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Tcp.announce tcpb ~port:1 in
         let conv = Inet.Xport.listen lis in
         got := Inet.Tcp.read conv 4));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Tcp.connect tcpa ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:1
         in
         Inet.Tcp.write conv "ping"));
  Sim.Engine.run eng;
  Alcotest.(check string) "bytes delivered" "ping" !got;
  Alcotest.(check int) "conv alive on tx stack" 1 (Inet.Tcp.conv_count tcpa);
  Alcotest.(check int) "conv alive on rx stack" 1 (Inet.Tcp.conv_count tcpb);
  let events = Sim.Engine.events eng in
  let arms = counter tr "timer.arm" in
  let now = Sim.Engine.now eng in
  Sim.Engine.run ~until:(now +. 3600.) eng;
  Alcotest.(check int) "zero events while idle" events (Sim.Engine.events eng);
  Alcotest.(check int) "zero timer arms while idle" arms (counter tr "timer.arm");
  Alcotest.(check int) "event heap is empty" 0 (Sim.Engine.pending eng)

(* ---- the shared call bookkeeping, driven through each transport ----

   IL, baseline TCP and tcpcc share one conversation table (Xport):
   ports, listeners and backlog admission.  Each transport is driven
   through the same few calls, so the exhaustion and backlog tests
   below run under all three. *)

type listener = { accept : unit -> unit; refused : unit -> int }

type transport_stack = {
  connect : raddr:Inet.Ipaddr.t -> rport:int -> unit;
  announce : ?backlog:int -> int -> listener;
  refusals : unit -> int;
}

let listener lis =
  {
    accept = (fun () -> ignore (Inet.Xport.listen lis));
    refused = (fun () -> Inet.Xport.refused lis);
  }

let il ip =
  let st = Inet.Il.attach ip in
  {
    connect = (fun ~raddr ~rport -> ignore (Inet.Il.connect st ~raddr ~rport));
    announce =
      (fun ?backlog port -> listener (Inet.Il.announce ?backlog st ~port));
    refusals = (fun () -> Inet.Il.refusals st);
  }

let tcp_with attach ip =
  let st = attach ip in
  {
    connect = (fun ~raddr ~rport -> ignore (Inet.Tcp.connect st ~raddr ~rport));
    announce =
      (fun ?backlog port -> listener (Inet.Tcp.announce ?backlog st ~port));
    refusals = (fun () -> Inet.Tcp.refusals st);
  }

let transports =
  [
    ("IL", il);
    ("TCP", tcp_with (fun ip -> Inet.Tcp.attach ip));
    ("tcpcc", tcp_with (fun ip -> Inet.Tcp.attach_cc ip));
  ]

(* ---- ephemeral port exhaustion is a clean error ---- *)

(* occupy every ephemeral port with listeners, so the next active open
   has nowhere to bind: the stack must answer Port_exhausted, not spin
   or pick a duplicate *)
let test_port_exhaustion attach () =
  let _eng, _tr, ipa, _ipb = ether_pair () in
  let a = attach ipa in
  for p = 5000 to 64999 do
    ignore (a.announce p)
  done;
  match a.connect ~raddr:(Inet.Ipaddr.of_string "10.0.0.2") ~rport:1 with
  | _ -> Alcotest.fail "connect should not find a port"
  | exception Inet.Xport.Port_exhausted -> ()

(* UDP binds its ephemeral ports through the same allocator: once
   5000-64999 are all bound, an ephemeral bind raises instead of
   hunting forever, and the protocol device reports the cause *)
let test_udp_port_exhaustion () =
  let _eng, _tr, ipa, _ipb = ether_pair () in
  let udp = Inet.Udp.attach ipa in
  for p = 5000 to 64999 do
    ignore (Inet.Udp.bind ~port:p udp)
  done;
  (match Inet.Udp.bind udp with
  | _ -> Alcotest.fail "bind should not find a port"
  | exception Inet.Xport.Port_exhausted -> ());
  match (P9net.Netdev.udp_proto udp).P9net.Netdev.pr_connect "10.0.0.2!53" with
  | Ok _ -> Alcotest.fail "connect should not find a port"
  | Error e -> Alcotest.(check string) "device error" "no free local ports" e

(* the same condition through the protocol device and dial library:
   the caller sees a Dial_error naming the cause, not a hang *)
let test_dial_port_exhaustion_is_clean () =
  Util.in_world ~from:"musca" (fun w env ->
      let musca = P9net.World.host w "musca" in
      (match musca.P9net.Host.il with
      | Some st ->
        for p = 5000 to 64999 do
          (* the host's standing services already hold a few ports *)
          try ignore (Inet.Il.announce st ~port:p)
          with Invalid_argument _ -> ()
        done
      | None -> Alcotest.fail "musca has no IL stack");
      match P9net.Dial.dial env "il!helix!echo" with
      | _ -> Alcotest.fail "dial should fail"
      | exception P9net.Dial.Dial_error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the cause: %s" e)
          true
          (let sub = "no free local ports" in
           let n = String.length sub and m = String.length e in
           let rec find i = i + n <= m && (String.sub e i n = sub || find (i + 1)) in
           find 0))

(* the order ports are handed out in is part of the simulation's
   determinism: the allocator walks up from 5000 round robin, skips a
   port held by a listener or a live conversation, reuses a port once
   its conversation is gone, and wraps from 64999 to 5000 *)
let test_port_allocation_order () =
  let eng, _tr, ipa, ipb = ether_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let server = Inet.Il.announce ilb ~port:7 in
  ignore
    (Sim.Proc.spawn eng ~name:"server" (fun () ->
         while true do
           ignore (Inet.Xport.listen server)
         done));
  let ports = ref [] in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let dial ?lport () =
           let c =
             Inet.Il.connect ?lport ila ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
               ~rport:7
           in
           ports := Inet.Il.local_port c :: !ports;
           c
         in
         let lis5000 = Inet.Il.announce ila ~port:5000 in
         let c5001 = dial () in
         ignore (dial ());
         ignore (dial ~lport:5003 ());
         ignore (dial ());
         for p = 5005 to 64998 do
           ignore (Inet.Il.announce ila ~port:p)
         done;
         ignore (dial ());
         Inet.Il.close c5001;
         Sim.Time.sleep eng 1.0;
         ignore (dial ());
         Inet.Xport.close_listener lis5000;
         ignore (dial ())));
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check (list int))
    "ports in allocation order"
    [ 5001; 5002; 5003; 5004; 64999; 5001; 5000 ]
    (List.rev !ports)

(* ---- a full backlog refuses without wedging the listener ---- *)

let test_backlog_refusal attach () =
  let eng, _tr, ipa, ipb = ether_pair () in
  let a = attach ipa and b = attach ipb in
  let lis = b.announce ~backlog:2 7 in
  let refused = ref 0 and connected = ref 0 in
  let client delay =
    ignore
      (Sim.Proc.spawn eng ~name:"client" (fun () ->
           Sim.Time.sleep eng delay;
           match a.connect ~raddr:(Inet.Ipaddr.of_string "10.0.0.2") ~rport:7 with
           | _ -> incr connected
           | exception Inet.Xport.Refused _ -> incr refused))
  in
  (* three callers against a backlog of two, before anyone accepts *)
  client 0.0;
  client 0.01;
  client 0.02;
  (* the server drains the queue only afterwards; a fourth call then
     succeeds — the listener was never wedged by the refusal *)
  ignore
    (Sim.Proc.spawn eng ~name:"server" (fun () ->
         Sim.Time.sleep eng 1.0;
         lis.accept ();
         lis.accept ();
         lis.accept ()));
  client 2.0;
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check int) "two early callers connected, plus the late one" 3
    !connected;
  Alcotest.(check int) "one caller refused" 1 !refused;
  Alcotest.(check int) "listener counted the refusal" 1 (lis.refused ());
  Alcotest.(check int) "stack-wide refusals" 1 (b.refusals ())

(* ---- the backlog through the ctl file and status text ---- *)

let test_backlog_ctl_and_status () =
  Util.in_world ~from:"helix" (fun _w env ->
      let ann = P9net.Dial.announce env "il!*!7777" in
      ignore (Vfs.Env.write env ann.P9net.Dial.ann_ctl_fd "backlog 3");
      let status =
        Vfs.Env.read_file env (ann.P9net.Dial.ann_dir ^ "/status")
      in
      let contains sub =
        let n = String.length sub and m = String.length status in
        let rec find i = i + n <= m && (String.sub status i n = sub || find (i + 1)) in
        find 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "status shows the backlog: %s" status)
        true
        (contains "Announced backlog 3 queued 0 refused 0"))

(* ---- the CS answer cache ---- *)

let test_cs_cache () =
  let db = Ndb.of_string P9net.World.bell_labs_ndb in
  let cs =
    P9net.Cs.make ~sysname:"helix" ~db
      ~networks:
        [
          { P9net.Cs.nw_proto = "il"; nw_clone = "/net/il/clone"; nw_kind = `Inet };
        ]
      ()
  in
  let q = "net!helix!9fs" in
  let first = P9net.Cs.translate cs q in
  let second = P9net.Cs.translate cs q in
  Alcotest.(check bool) "answers agree" true (first = second);
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  (* errors are memoized too: a misspelled service re-answers from the
     cache instead of re-walking the database *)
  (match P9net.Cs.translate cs "il!helix!nosuchsvc" with
  | Ok _ -> Alcotest.fail "bogus service should not translate"
  | Error _ -> ());
  (match P9net.Cs.translate cs "il!helix!nosuchsvc" with
  | Ok _ -> Alcotest.fail "bogus service should not translate"
  | Error _ -> ());
  Alcotest.(check (pair int int)) "error answers hit too" (2, 2)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  P9net.Cs.flush_cache cs;
  Alcotest.(check (pair int int)) "flush zeroes the ledger" (0, 0)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  (match P9net.Cs.translate cs q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int int)) "cold again after flush" (0, 1)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m))

let () =
  Alcotest.run "scale"
    [
      ( "timer-economy",
        [
          Alcotest.test_case "IL: idle conversation is eventless" `Quick
            test_il_idle_is_eventless;
          Alcotest.test_case "TCP: idle conversation is eventless" `Quick
            test_tcp_idle_is_eventless;
        ] );
      ( "port-exhaustion",
        List.map
          (fun (name, attach) ->
            Alcotest.test_case (name ^ ": clean Port_exhausted") `Quick
              (test_port_exhaustion attach))
          transports
        @ [
            Alcotest.test_case "UDP: clean Port_exhausted" `Quick
              test_udp_port_exhaustion;
            Alcotest.test_case "dial reports no free local ports" `Quick
              test_dial_port_exhaustion_is_clean;
            Alcotest.test_case "allocation order" `Quick
              test_port_allocation_order;
          ] );
      ( "backlog",
        List.map
          (fun (name, attach) ->
            Alcotest.test_case
              (name ^ ": full backlog refuses, listener survives")
              `Quick (test_backlog_refusal attach))
          transports
        @ [
            Alcotest.test_case "backlog ctl message and status text" `Quick
              test_backlog_ctl_and_status;
          ] );
      ("cs-cache", [ Alcotest.test_case "answer cache" `Quick test_cs_cache ]);
    ]
