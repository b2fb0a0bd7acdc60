(* The swarm benchmark: thousands of concurrent conversations through
   the whole stack — CS translation, the dial library, the protocol
   devices, and the transports — on one of two topologies.

   [Flat] puts every client host on one Ethernet segment with the
   server.  [Routed] pushes the same swarm through a real internet:
   Genndb.subnetted describes [leaves] client subnets, each behind its
   own gateway, two Ethernet backbones joined by a point-to-point
   IP-over-Datakit tunnel, and a server subnet — every conversation
   crosses at least two gateway hops, and conversations from the left
   half of the tree also transit the Datakit fabric.

   Every client dials [<proto>!swarmsrv!echo] through its own
   connection server, exchanges a message, then parks at a barrier
   until all conversations are established at once; the releasing
   client samples the server stack's conversation table to prove the
   concurrency was real.  The routed run also reports what the
   gateways saw: forwarded packet counts, tunnel cell counts, and the
   drop counters from the routing choke point — a healthy run forwards
   millions of packets and drops none.  Everything runs in virtual
   time on one seeded engine so the JSON is byte-identical across
   same-seed runs; wall clock is reported separately and never lands
   in the JSON.

   The point of the exercise is the event economy: with
   per-conversation timers an idle conversation contributes zero
   events to the engine, so engine events per conversation stay small
   no matter how many conversations park at the barrier.  The driver
   gates on that number against a recorded baseline. *)

type topology =
  | Flat of { hosts : int; bandwidth : float }
  | Routed of { leaves : int; clients_per_leaf : int }

let msg_bytes = 512
let ramp_step = 0.002 (* seconds of virtual time between dials *)

(* one /16 with the server at 10.1.0.1 and clients spread over
   10.1.1.* upward, plus the service ports the dials resolve through *)
let swarm_ndb ~hosts () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "ipnet=swarm ip=10.1.0.0 ipmask=255.255.0.0\n";
  Buffer.add_string b "sys = swarmsrv\n\tip=10.1.0.1 ether=0800aa000000\n";
  for i = 1 to hosts do
    Printf.bprintf b "sys = swarmc%d\n\tip=10.1.%d.%d ether=0800aa%06x\n" i
      (1 + ((i - 1) / 200))
      (1 + ((i - 1) mod 200))
      i
  done;
  Buffer.add_string b "il=echo\tport=56\ntcp=echo\tport=7\n";
  Buffer.contents b

type side = {
  s_proto : string;
  s_total : int;  (* conversations this side ran *)
  s_converged : bool;  (* every conversation completed both exchanges *)
  s_completed : int;
  s_peak_convs : int;  (* server conversation table at barrier release *)
  s_elapsed : float;  (* virtual seconds until the last client finished *)
  s_events : int;  (* engine events over the whole run *)
  s_timer_arm : int;
  s_timer_fire : int;
  s_timer_disarm : int;
  s_refused : int;  (* listener backlog refusals at the server *)
  s_cs_hits : int;  (* summed over every client's connection server *)
  s_cs_misses : int;
  s_retransmits : int;  (* world-wide <proto>.retransmits *)
  s_fast_retransmits : int;  (* tcpcc only; 0 elsewhere *)
  s_segments : int;  (* Ethernet segments, plus the Datakit transit *)
  s_gateways : int;  (* 0 on a flat topology *)
  s_forwarded : int;  (* summed over every gateway node *)
  s_tun_tx : int;  (* IP packets into the Datakit tunnel *)
  s_tun_rx : int;
  s_route_drops : int;
      (* no_route + ttl_exceeded + blackhole + refused + badhdr *)
}

let events_per_conv s = float_of_int s.s_events /. float_of_int s.s_total

(* write the payload and read the echo back; TCP may fragment, so
   accumulate until the full message returned *)
let echo_once env data_fd payload =
  ignore (Vfs.Env.write env data_fd payload);
  let want = String.length payload in
  let got = ref 0 in
  while !got < want do
    let s = Vfs.Env.read env data_fd 4096 in
    if s = "" then failwith "echo: eof before full reply"
    else got := !got + String.length s
  done

(* the world for a topology, before any host boots; the flat swarm's
   default 100 Mb/s keeps a thousand conversations on one segment from
   queueing past min_rto, or the measurement becomes a
   congestion-collapse study instead of an event-economy one.  The
   congestion bench passes 10 Mb/s to study exactly that collapse. *)
let world ~seed = function
  | Flat { hosts; bandwidth } ->
    P9net.World.create ~seed ~ether_bandwidth:bandwidth
      ~db:(Ndb.of_string (swarm_ndb ~hosts ()))
      ()
  | Routed { leaves; clients_per_leaf } ->
    P9net.World.routed ~seed ~ether_bandwidth:100e6 ~dk_bandwidth:100e6
      ~db:(Ndb.of_string (Genndb.subnetted ~leaves ~clients_per_leaf ()))
      ()

(* boot the hosts: gateways first, so tunnel listeners are announced
   before anything routes into them; then the server; then the clients.
   Returns (server, clients, gateways). *)
let boot w = function
  | Flat { hosts; _ } ->
    let server = P9net.World.add_host w "swarmsrv" in
    let clients =
      List.init hosts (fun i ->
          P9net.World.add_host w (Printf.sprintf "swarmc%d" (i + 1)))
    in
    (server, clients, [])
  | Routed { leaves; clients_per_leaf } ->
    let gateways =
      List.init leaves (fun k -> P9net.World.add_host w (Genndb.gw_sys (k + 1)))
      @ [ P9net.World.add_host w "gwcorel"; P9net.World.add_host w "gwcorer" ]
    in
    let server = P9net.World.add_host w Genndb.server_sys in
    let clients =
      List.concat
        (List.init leaves (fun k ->
             List.init clients_per_leaf (fun i ->
                 P9net.World.add_host w (Genndb.client_sys (k + 1) (i + 1)))))
    in
    P9net.World.autoroute w;
    (server, clients, gateways)

(* the close burst staggers by [close_ramp]; the congestion bench
   passes 0. so every conversation fires its second echo and hangup at
   the same barrier-released instant *)
let run_side ~topology ~proto ~convs_per_host ~ramp ~close_ramp ~msg_bytes
    ~seed =
  let w = world ~seed topology in
  let eng = w.P9net.World.eng in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  (* the profiler reads the real clock; its report never lands in the
     deterministic JSON, only in the strippable perf line *)
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let server, clients, gateways = boot w topology in
  let total = List.length clients * convs_per_host in
  (* the echo service, bench-owned so the backlog is explicit *)
  ignore
    (P9net.Listener.start eng ~backlog:64 server.P9net.Host.env
       ~addr:(proto ^ "!*!echo")
       ~handler:(fun env _conn ~data_fd ->
         let rec go () =
           let data = Vfs.Env.read env data_fd 8192 in
           if data <> "" then begin
             ignore (Vfs.Env.write env data_fd data);
             go ()
           end
         in
         go ()));
  (* barrier: every client parks here once connected, so all [total]
     conversations are simultaneously established when the last one
     arrives; the releaser samples the server's conversation table *)
  let barrier = Sim.Rendez.create eng in
  let arrived = ref 0 and peak = ref 0 in
  let completed = ref 0 and finish = ref 0. in
  let server_stat il tcp =
    match proto with
    | "il" -> Option.fold ~none:0 ~some:il server.P9net.Host.il
    | "tcpcc" -> Option.fold ~none:0 ~some:tcp server.P9net.Host.tcpcc
    | _ -> Option.fold ~none:0 ~some:tcp server.P9net.Host.tcp
  in
  let payload = String.make msg_bytes 's' in
  List.iteri
    (fun hi host ->
      for ci = 0 to convs_per_host - 1 do
        let idx = (hi * convs_per_host) + ci in
        ignore
          (P9net.Host.spawn host
             (Printf.sprintf "swarm%d" idx)
             (fun env ->
               (* deterministic ramp: one dial every [ramp] seconds *)
               Sim.Time.sleep eng (float_of_int idx *. ramp);
               let conn =
                 P9net.Dial.redial env ~tries:20
                   ~pause:(fun () -> Sim.Time.sleep eng 0.05)
                   (proto ^ "!swarmsrv!echo")
               in
               echo_once env conn.P9net.Dial.data_fd payload;
               incr arrived;
               if !arrived = total then begin
                 peak := server_stat Inet.Il.conv_count Inet.Tcp.conv_count;
                 Sim.Rendez.wakeup_all barrier
               end
               else Sim.Rendez.sleep barrier;
               (* stagger the second exchange and the hangup: a
                  thousand synchronized closes on one wire is a
                  congestion-collapse study, not an event-economy one
                  (with ~close_ramp:0. it IS the collapse study) *)
               Sim.Time.sleep eng (float_of_int idx *. close_ramp);
               (* under a collapse schedule the death timers reap
                  stalled conversations and the echo sees EOF; that is
                  the measurement (completed stays short), not a bench
                  failure *)
               (try
                  echo_once env conn.P9net.Dial.data_fd payload;
                  P9net.Dial.hangup env conn;
                  incr completed
                with Failure _ -> ());
               if !completed = total then finish := Sim.Engine.now eng))
      done)
    clients;
  let until = match topology with Flat _ -> 600.0 | Routed _ -> 900.0 in
  P9net.World.run ~until w;
  let counter name = Obs.Metrics.counter (Obs.Trace.metrics tr) name in
  let route (f : Route.counters -> int) =
    List.fold_left
      (fun n gw ->
        match gw.P9net.Host.node with
        | Some node -> n + f (Route.stats node)
        | None -> n)
      0 gateways
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) host ->
        let h', m' = P9net.Cs.cache_stats host.P9net.Host.cs in
        (h + h', m + m'))
      (0, 0) clients
  in
  ( {
      s_proto = proto;
      s_total = total;
      s_converged = !completed = total;
      s_completed = !completed;
      s_peak_convs = !peak;
      s_elapsed = !finish;
      s_events = Sim.Engine.events eng;
      s_timer_arm = counter "timer.arm";
      s_timer_fire = counter "timer.fire";
      s_timer_disarm = counter "timer.disarm";
      s_refused = server_stat Inet.Il.refusals Inet.Tcp.refusals;
      s_cs_hits = hits;
      s_cs_misses = misses;
      s_retransmits = counter (proto ^ ".retransmits");
      s_fast_retransmits = counter (proto ^ ".fast_retransmits");
      s_segments =
        List.length w.P9net.World.segments
        + (match topology with Flat _ -> 0 | Routed _ -> 1);
      s_gateways = List.length gateways;
      s_forwarded = route (fun c -> c.forwarded);
      s_tun_tx = route (fun c -> c.tun_tx);
      s_tun_rx = route (fun c -> c.tun_rx);
      s_route_drops =
        route (fun c ->
            c.no_route + c.ttl_exceeded + c.blackholed + c.transit_refused
            + c.bad_header);
    },
    Obs.Prof.report prof )

(* the flat swarm reports the timer economy; the routed one what the
   gateways carried *)
let side_json topology s =
  let middle =
    match topology with
    | Flat _ ->
      (* payload delivered to clients: two echoed messages per conversation *)
      Printf.sprintf
        "\"events_per_byte\": %.4f, \"timer_arm\": %d, \"timer_fire\": %d, \
         \"timer_disarm\": %d"
        (float_of_int s.s_events /. float_of_int (2 * msg_bytes * s.s_total))
        s.s_timer_arm s.s_timer_fire s.s_timer_disarm
    | Routed _ ->
      Printf.sprintf
        "\"forwarded\": %d, \"tun_tx\": %d, \"tun_rx\": %d, \"route_drops\": %d"
        s.s_forwarded s.s_tun_tx s.s_tun_rx s.s_route_drops
  in
  Printf.sprintf
    "  %S: {\"converged\": %b, \"completed\": %d, \"peak_convs\": %d, \
     \"elapsed_s\": %.6f, \"engine_events\": %d, \"events_per_conv\": %.2f, \
     %s, \"backlog_refused\": %d, \"cs_cache_hits\": %d, \"cs_cache_misses\": \
     %d}"
    s.s_proto s.s_converged s.s_completed s.s_peak_convs s.s_elapsed s.s_events
    (events_per_conv s) middle s.s_refused s.s_cs_hits s.s_cs_misses

type result = {
  res_json : string;  (* deterministic: byte-identical across same-seed runs *)
  res_sides : side list;  (* one per transport, in run order *)
  res_perf : (string * Obs.Prof.report) list;  (* wall clock; never in res_json *)
}

(* the flat swarm runs IL then TCP; the routed swarm runs IL *)
let run ~topology ~convs_per_host ~seed =
  let protos =
    match topology with Flat _ -> [ "il"; "tcp" ] | Routed _ -> [ "il" ]
  in
  let runs =
    List.map
      (fun proto ->
        run_side ~topology ~proto ~convs_per_host ~ramp:ramp_step
          ~close_ramp:ramp_step ~msg_bytes ~seed)
      protos
  in
  let sides = List.map fst runs in
  let first = List.hd sides in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  (match topology with
  | Flat { hosts; _ } ->
    Printf.bprintf b "  \"bench\": \"swarm\",\n";
    Printf.bprintf b "  \"seed\": %d,\n" seed;
    Printf.bprintf b "  \"hosts\": %d,\n" hosts;
    Printf.bprintf b "  \"convs_per_host\": %d,\n" convs_per_host;
    Printf.bprintf b "  \"convs\": %d,\n" first.s_total;
    Printf.bprintf b "  \"msg_bytes\": %d,\n" msg_bytes
  | Routed { leaves; clients_per_leaf } ->
    Printf.bprintf b "  \"bench\": \"routed_swarm\",\n";
    Printf.bprintf b "  \"seed\": %d,\n" seed;
    Printf.bprintf b "  \"leaves\": %d,\n" leaves;
    Printf.bprintf b "  \"clients_per_leaf\": %d,\n" clients_per_leaf;
    Printf.bprintf b "  \"convs_per_client\": %d,\n" convs_per_host;
    Printf.bprintf b "  \"convs\": %d,\n" first.s_total;
    Printf.bprintf b "  \"msg_bytes\": %d,\n" msg_bytes;
    Printf.bprintf b "  \"segments\": %d,\n" first.s_segments;
    Printf.bprintf b "  \"gateways\": %d,\n" first.s_gateways);
  Buffer.add_string b
    (String.concat ",\n" (List.map (side_json topology) sides));
  Printf.bprintf b "\n}\n";
  {
    res_json = Buffer.contents b;
    res_sides = sides;
    res_perf = List.map2 (fun p (_, rep) -> (p, rep)) protos runs;
  }
