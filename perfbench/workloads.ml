(* The four workloads.  Each reuses an existing topology generator and
   drives it through the public calls a user of the system makes:
   Dial.redial, Vfs.Env.read/write on the data file, Ninep.Client.*.
   [prepare ~seed] makes the workload's inputs from the seed; the
   function it returns builds one world from them (the timed set-up),
   with every process spawned and nothing yet run.

   Inputs that depend on the seed: which slot of the open-loop schedule
   each conversation gets and where in its slot it falls due, the order
   in which terminals power on (which decides who goes first at one
   instant), which neighbour a terminal reads, and every payload byte.
   Everything else is fixed, so the same seed gives the same run.
   Payloads are made from (seed, id) each time they are written or
   compared, so the harness keeps none alive across a run and the heap
   measured is the program's. *)

exception Bad of string

type inst = {
  world : P9net.World.t;
  probe : Probe.t;
  until : float;
  convs_left : int;
      (* IL and TCP conversations that outlive every hangup: the fleet's
         rack-to-origin cache connections, one at each end *)
  finish : unit -> unit;  (* after the run: the workload's own counts *)
}

type t = {
  name : string;
  prepare : seed:int -> traced:bool -> inst;
      (** makes the inputs once; the returned function is the set-up *)
}

(* ---- inputs ---- *)

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] bytes that depend only on [seed] and [id]. *)
let payload ~seed id n =
  let rng = Random.State.make (Array.append [| seed |] id) in
  let b = Bytes.create n in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (Random.State.bits64 rng);
    i := !i + 8
  done;
  while !i < n do
    Bytes.set b !i (Char.unsafe_chr (Random.State.bits rng land 0xff));
    incr i
  done;
  Bytes.unsafe_to_string b

(* ---- the world, seen from outside ---- *)

let hosts w = List.map snd w.P9net.World.hosts
let opt f = function Some x -> f x | None -> 0
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let tcp_stacks h =
  List.filter_map Fun.id [ h.P9net.Host.tcp; h.P9net.Host.tcpcc ]

let il_convs hs = sum (fun h -> opt Inet.Il.conv_count h.P9net.Host.il) hs

let tcp_convs hs =
  sum (fun h -> sum Inet.Tcp.conv_count (tcp_stacks h)) hs

(* The world's probe.  A traced build attaches the sink, with one tap
   that counts what the Ethernet segments carry (frames, and their
   bytes on the wire with headers and padding) and hands every span
   event to the probe. *)
let observe w ~traced =
  let eng = w.P9net.World.eng in
  if not traced then Probe.create eng None
  else begin
    let tr = Obs.Trace.create () in
    Sim.Engine.attach_obs eng tr;
    let p = Probe.create eng (Some tr) in
    let ethers =
      Netsim.Ether.name w.P9net.World.ether
      :: List.map (fun (_, e) -> Netsim.Ether.name e) w.P9net.World.segments
    in
    Obs.Trace.add_tap tr (fun time ev ->
        match ev with
        | Obs.Event.Packet { medium; op = Obs.Event.Tx; bytes; _ }
          when List.mem medium ethers ->
          Probe.count p "netsim.frames" 1;
          Probe.count p "netsim.wire_bytes"
            (max Netsim.Ether.min_frame bytes + Netsim.Ether.header_bytes)
        | Obs.Event.Span_begin _ | Obs.Event.Span_end _ -> Probe.span_event p time ev
        | _ -> ());
    p
  end

(* Counts every layer exports, summed over every host of the world. *)
let census p w =
  let hs = hosts w in
  let c = Probe.count p in
  let hits, misses =
    List.fold_left
      (fun (h, m) host ->
        let h', m' = P9net.Cs.cache_stats host.P9net.Host.cs in
        (h + h', m + m'))
      (0, 0) hs
  in
  c "cs.hits" hits;
  c "cs.misses" misses;
  c "listener.refused"
    (sum
       (fun h ->
         opt Inet.Il.refusals h.P9net.Host.il
         + sum Inet.Tcp.refusals (tcp_stacks h))
       hs);
  c "il.retransmits"
    (sum
       (fun h ->
         opt (fun st -> (Inet.Il.counters st).Inet.Il.retransmits) h.P9net.Host.il)
       hs);
  let tcp f = sum (fun h -> sum (fun st -> f (Inet.Tcp.counters st)) (tcp_stacks h)) hs in
  c "tcp.retransmits" (tcp (fun k -> k.Inet.Tcp.retransmits));
  c "tcp.fast_retransmits" (tcp (fun k -> k.Inet.Tcp.fast_retransmits));
  let route f = sum (fun h -> opt (fun n -> f (Route.stats n)) h.P9net.Host.node) hs in
  c "route.forwarded" (route (fun s -> s.Route.forwarded));
  c "route.drops"
    (route (fun s ->
         s.Route.no_route + s.Route.ttl_exceeded + s.Route.blackholed
         + s.Route.transit_refused + s.Route.bad_header));
  c "dk.tun_tx" (route (fun s -> s.Route.tun_tx));
  c "dk.tun_rx" (route (fun s -> s.Route.tun_rx));
  c "netsim.overflows"
    (sum
       (fun h ->
         opt
           (fun port ->
             (Netsim.Ether.nic_stats (Inet.Etherport.nic port)).Netsim.Ether.overflows)
           h.P9net.Host.etherport)
       hs);
  c "il.convs_end" (il_convs hs);
  c "tcp.convs_end" (tcp_convs hs)

let peak p name v = if v > Probe.get p name then Probe.count p name (v - Probe.get p name)

(* ---- operations, timed from outside ---- *)

let dial p env ~due ~tries ~pause addr =
  Probe.attempt p;
  let attempts = ref 1 in
  match
    Probe.timed p ~layer:"dial" "dial" (fun () ->
        P9net.Dial.redial env ~tries
          ~pause:(fun () ->
            incr attempts;
            Sim.Time.sleep p.Probe.eng pause)
          addr)
  with
  | conn ->
    Probe.count p "dial.attempts" !attempts;
    Probe.count p "dial.calls" 1;
    Probe.sample p "dial" (Probe.now p -. due);
    Probe.ok p;
    Some conn
  | exception P9net.Dial.Dial_error _ ->
    Probe.count p "dial.attempts" !attempts;
    Probe.count p "dial.calls" 1;
    Probe.fail p "dial out of tries";
    None

(* Write [payload] and read until that many bytes came back (TCP may
   split the reply); the echo must match byte for byte. *)
let echo p env fd payload =
  Probe.attempt p;
  let want = String.length payload in
  match
    Probe.timed p ~layer:"vfs" "echo" ~into:[ "op" ] (fun () ->
        Probe.timed p ~layer:"vfs" "write" (fun () ->
            ignore (Vfs.Env.write env fd payload));
        Probe.count p "vfs.write_calls" 1;
        let b = Buffer.create want in
        while Buffer.length b < want do
          let s =
            Probe.timed p ~layer:"vfs" "read" (fun () ->
                Vfs.Env.read env fd 8192)
          in
          Probe.count p "vfs.read_calls" 1;
          if s = "" then raise (Bad "echo: eof before full reply");
          Buffer.add_string b s
        done;
        if Buffer.contents b <> payload then raise (Bad "echo: reply differs"))
  with
  | () ->
    Probe.count p "echoes" 1;
    Probe.count p "payload_bytes" want;
    Probe.ok p;
    true
  | exception Bad r ->
    Probe.fail p r;
    false
  | exception e ->
    Probe.fail p ("echo: " ^ Printexc.to_string e);
    false

(* One Ninep.Client call at the terminal: an operation, a span, and a
   latency sample under "rpc" and "ninep.<op>". *)
let rpc p op f =
  Probe.attempt p;
  Probe.count p "ninep.rpcs" 1;
  match Probe.timed p ~layer:"9p" ("9p." ^ op) ~into:[ "rpc"; "ninep." ^ op ] f
  with
  | r ->
    Probe.ok p;
    r
  | exception e ->
    Probe.fail p ("9p " ^ op ^ ": " ^ Printexc.to_string e);
    raise (Bad "9p")

let verify p ~what got want =
  Probe.attempt p;
  if got = want then begin
    Probe.count p "payload_bytes" (String.length want);
    Probe.ok p
  end
  else begin
    Probe.fail p ("content differs: " ^ what);
    raise (Bad "content")
  end

let split_path s = List.filter (( <> ) "") (String.split_on_char '/' s)

let read_file p client root ~chunk path =
  let fid = rpc p "walk" (fun () ->
      Ninep.Client.walk_path client root (split_path path))
  in
  ignore (rpc p "open" (fun () ->
      Ninep.Client.open_ client fid Ninep.Fcall.Oread));
  let b = Buffer.create 8192 in
  let rec go () =
    let off = Int64.of_int (Buffer.length b) in
    let s = rpc p "read" (fun () ->
        Ninep.Client.read client fid ~offset:off ~count:chunk)
    in
    if s <> "" then begin
      Buffer.add_string b s;
      go ()
    end
  in
  go ();
  rpc p "clunk" (fun () -> Ninep.Client.clunk client fid);
  Buffer.contents b

(* A barrier that every participant reaches once, failed or not, so one
   failure cannot wedge the rest. *)
let barrier eng n ~on_release =
  let r = Sim.Rendez.create eng and arrived = ref 0 in
  fun () ->
    incr arrived;
    if !arrived = n then begin
      on_release ();
      Sim.Rendez.wakeup_all r
    end
    else Sim.Rendez.sleep r

(* ---- swarms: routed-swarm and close-burst ---- *)

(* The swarm shape: every conversation dials the echo service when it
   falls due in its slot of an open-loop schedule (slot i spans
   [i * ramp, (i + 1) * ramp)), echoes once, parks at a barrier so all
   are established at once, then echoes again after [close_ramp] times
   its slot and hangs up. *)
let swarm p w ~clients ~convs_per_client ~proto ~ramp ~close_ramp ~slot
    ~offset ~payload ~server =
  let eng = w.P9net.World.eng in
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
  let total = List.length clients * convs_per_client in
  let server_convs () =
    match proto with
    | "il" -> il_convs [ server ]
    | _ -> tcp_convs [ server ]
  in
  let peak_name = if proto = "il" then "il.peak_convs" else "tcp.peak_convs" in
  let arrive =
    barrier eng total ~on_release:(fun () -> peak p peak_name (server_convs ()))
  in
  List.iteri
    (fun hi host ->
      for ci = 0 to convs_per_client - 1 do
        let c = (hi * convs_per_client) + ci in
        let due = (float_of_int slot.(c) +. offset.(c)) *. ramp in
        Probe.due p due;
        ignore
          (P9net.Host.spawn host
             (Printf.sprintf "conv%d" c)
             (fun env ->
               Sim.Time.sleep eng due;
               Probe.timed p ~layer:"app" "conv" (fun () ->
                   match
                     dial p env ~due ~tries:20 ~pause:0.05
                       (proto ^ "!swarmsrv!echo")
                   with
                   | None -> arrive ()
                   | Some conn ->
                     let fd = conn.P9net.Dial.data_fd in
                     let first = echo p env fd (payload c) in
                     arrive ();
                     if first then begin
                       Sim.Time.sleep eng (float_of_int slot.(c) *. close_ramp);
                       if echo p env fd (payload c) then Probe.finished p
                     end;
                     Probe.timed p ~layer:"dial" "hangup" (fun () ->
                         P9net.Dial.hangup env conn))))
      done)
    clients

let routed_swarm =
  let leaves = 16 and clients_per_leaf = 14 and convs_per_client = 45 in
  let total = leaves * clients_per_leaf * convs_per_client in
  let prepare ~seed =
    let rng = Random.State.make [| seed |] in
    let slot = permutation rng total in
    let offset = Array.init total (fun _ -> Random.State.float rng 1.) in
    fun ~traced ->
      let db = Ndb.of_string (Genndb.subnetted ~leaves ~clients_per_leaf ()) in
      let w =
        P9net.World.routed ~seed ~ether_bandwidth:100e6 ~dk_bandwidth:100e6 ~db
          ()
      in
      let p = observe w ~traced in
      (* gateways first, so tunnel listeners are announced before
         anything routes into them *)
      List.iter
        (fun k -> ignore (P9net.World.add_host w (Genndb.gw_sys (k + 1))))
        (List.init leaves Fun.id);
      ignore (P9net.World.add_host w "gwcorel");
      ignore (P9net.World.add_host w "gwcorer");
      let server = P9net.World.add_host w Genndb.server_sys in
      let clients =
        List.concat
          (List.init leaves (fun k ->
               List.init clients_per_leaf (fun i ->
                   P9net.World.add_host w (Genndb.client_sys (k + 1) (i + 1)))))
      in
      P9net.World.autoroute w;
      swarm p w ~clients ~convs_per_client ~proto:"il" ~ramp:0.002
        ~close_ramp:0.002 ~slot ~offset
        ~payload:(fun c -> payload ~seed [| c |] 512)
        ~server;
      let finish () =
        census p w;
        Probe.count p "conversations" total
      in
      { world = w; probe = p; until = 900.; convs_left = 0; finish }
  in
  { name = "routed-swarm"; prepare }

(* The collapse schedule over tcpcc: one 10 Mb/s segment, dials every
   10 ms, 4 KiB echoes, and every second echo and close at the instant
   the barrier releases. *)
let close_burst =
  let hosts = 25 and convs_per_client = 40 in
  let total = hosts * convs_per_client in
  let prepare ~seed =
    let rng = Random.State.make [| seed |] in
    let slot = permutation rng total in
    let offset = Array.init total (fun _ -> Random.State.float rng 1.) in
    fun ~traced ->
      let db = Ndb.of_string (Swarm_bench.swarm_ndb ~hosts ()) in
      let w = P9net.World.create ~seed ~ether_bandwidth:10e6 ~db () in
      let p = observe w ~traced in
      let server = P9net.World.add_host w "swarmsrv" in
      let clients =
        List.init hosts (fun i ->
            P9net.World.add_host w (Printf.sprintf "swarmc%d" (i + 1)))
      in
      swarm p w ~clients ~convs_per_client ~proto:"tcpcc" ~ramp:0.01
        ~close_ramp:0. ~slot ~offset
        ~payload:(fun c -> payload ~seed [| c |] 4096)
        ~server;
      let finish () =
        census p w;
        Probe.count p "conversations" total
      in
      { world = w; probe = p; until = 600.; convs_left = 0; finish }
  in
  { name = "close-burst"; prepare }

(* ---- the fleet: bootstorm and file-churn ---- *)

let racks = 8
let terminals = 13
let power_on = 5.0  (* the racks' cache daemons have dialed the origin by ~1 s *)

(* Terminal-side 9P session over a private cfs stacked on [wire]. *)
let session p eng ~uname wire =
  let cache = Cfs.make eng ~upstream:wire () in
  let client = Ninep.Client.make eng (Cfs.transport cache) in
  rpc p "session" (fun () -> Ninep.Client.session client);
  let root =
    rpc p "attach" (fun () ->
        Ninep.Client.attach client ~uname ~aname:"")
  in
  (cache, client, root)

let close_session p env conn client root =
  rpc p "clunk" (fun () -> Ninep.Client.clunk client root);
  Probe.count p "ninep.fids_open_end" (Ninep.Client.open_fids client);
  Ninep.Client.hangup client;
  Probe.timed p ~layer:"dial" "hangup" (fun () -> P9net.Dial.hangup env conn)

let cache_counts p ~terms ~racks_caches ~rts ~bytes =
  let sum_c caches name = sum (fun c -> Cfs.counter c name) caches in
  let all = terms @ racks_caches in
  let c = Probe.count p in
  c "cfs.term.hits" (sum_c terms "hits");
  c "cfs.term.misses" (sum_c terms "misses");
  c "cfs.rack.hits" (sum_c racks_caches "hits");
  c "cfs.rack.misses" (sum_c racks_caches "misses");
  c "cfs.rack.coalesced" (sum_c racks_caches "coalesced");
  c "cfs.origin_rts" !rts;
  c "cfs.origin_bytes" !bytes;
  c "cfs.write_through" (sum_c all "write_through");
  c "cfs.invalidations" (sum_c all "invalidations");
  c "cfs.evictions" (sum_c all "evictions")

let server_side fl =
  fl.P9net.World.f_origin
  :: List.map (P9net.World.host fl.P9net.World.f_world) fl.P9net.World.f_racks

(* The tiered boot storm: every terminal powers on at one instant and
   replays the staged boot trace through terminal cfs -> rack cfs ->
   origin, checking every byte against Bootstage.file_body. *)
let bootstorm =
  let prepare ~seed =
    let order = permutation (Random.State.make [| seed |]) (racks * terminals) in
    fun ~traced ->
      let rts = ref 0 and bytes = ref 0 in
      let fl =
        P9net.World.fleet ~seed ~racks ~terminals
          ~tap:(fun _ tr -> Cfs_bench.counted tr rts bytes)
          ()
      in
      let w = fl.P9net.World.f_world in
      let eng = w.P9net.World.eng and db = w.P9net.World.db in
      let p = observe w ~traced in
      let terms = Array.of_list fl.P9net.World.f_terminals in
      let term_caches = ref [] in
      let servers = server_side fl in
      Probe.due p power_on;
      Array.iter
        (fun ti ->
          let rack, tname = terms.(ti) in
          let files = P9net.Bootstage.all_files ~db ~sys:tname in
          let stages = P9net.Bootstage.stages ~db ~sys:tname in
          let boot_trace = P9net.Bootstage.trace ~db ~sys:tname in
          (* the trace reads each stage's files once, in stage order, then
             re-reads startup files: those re-reads belong to the last
             stage *)
          let phases =
            let rec cut acc rest = function
              | [] -> List.rev acc
              | [ s ] -> List.rev ((s.P9net.Bootstage.sg_name, rest) :: acc)
              | s :: more ->
                let n = List.length s.P9net.Bootstage.sg_files in
                let here = List.filteri (fun i _ -> i < n) rest in
                let after = List.filteri (fun i _ -> i >= n) rest in
                cut ((s.P9net.Bootstage.sg_name, here) :: acc) after more
            in
            cut [] boot_trace stages
          in
          ignore
            (P9net.Host.spawn (P9net.World.host w tname) "boot" (fun env ->
                 Sim.Time.sleep eng (power_on -. Sim.Engine.now eng);
                 Probe.attempt p;
                 match
                   Probe.timed p ~layer:"app" "boot" (fun () ->
                       match
                         dial p env ~due:power_on ~tries:60 ~pause:0.25
                           (Printf.sprintf "il!%s!9fs" rack)
                       with
                       | None -> raise (Bad "dial")
                       | Some conn ->
                         peak p "il.peak_convs" (il_convs servers);
                         let wire = P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd in
                         let cache, client, root =
                           session p eng ~uname:tname wire
                         in
                         term_caches := cache :: !term_caches;
                         List.iter
                           (fun (phase, paths) ->
                             Probe.timed p ~layer:"app" ("boot." ^ phase)
                               ~into:[ "boot." ^ phase ]
                               (fun () ->
                                 List.iter
                                   (fun path ->
                                     Probe.timed p ~layer:"app" "file"
                                       ~into:[ "op" ] (fun () ->
                                         let got =
                                           read_file p client root ~chunk:512 path
                                         in
                                         verify p ~what:path got
                                           (P9net.Bootstage.file_body path
                                              (List.assoc path files))))
                                   paths))
                           phases;
                         Probe.sample p "boot" (Probe.now p -. power_on);
                         Probe.finished p;
                         close_session p env conn client root)
                 with
                 | () -> Probe.ok p
                 | exception Bad _ -> Probe.fail p "terminal not booted")))
        order;
      let finish () =
        census p w;
        Probe.count p "conversations" (Array.length terms);
        cache_counts p ~terms:!term_caches
          ~racks_caches:
            (Hashtbl.fold (fun _ c acc -> c :: acc) fl.P9net.World.f_caches [])
          ~rts ~bytes
      in
      { world = w; probe = p; until = 3600.; convs_left = 2 * racks; finish }
  in
  { name = "bootstorm"; prepare }

(* The write path: every terminal dials the origin's exportfs directly,
   stacks a private write-through cfs, creates [files] files of
   [file_bytes] written in 8 KiB Twrites, reads them back, and after a
   barrier reads its neighbour's. *)
let file_churn =
  let files = 4 and file_bytes = 65536 and chunk = 8192 in
  let prepare ~seed =
    let n = racks * terminals in
    let order = permutation (Random.State.make [| seed |]) n in
    (* terminal [ti]'s file [k] *)
    let body ti k = payload ~seed [| ti; k |] file_bytes in
    fun ~traced ->
      let fl =
        P9net.World.fleet ~seed ~racks ~terminals ~ether_bandwidth:100e6 ()
      in
      let w = fl.P9net.World.f_world in
      let eng = w.P9net.World.eng in
      let p = observe w ~traced in
      let terms = Array.of_list fl.P9net.World.f_terminals in
      let rts = ref 0 and bytes = ref 0 in
      let term_caches = ref [] in
      let servers = server_side fl in
      let arrive = barrier eng n ~on_release:ignore in
      let path ti k = Printf.sprintf "/tmp/%s.%d" (snd terms.(ti)) k in
      Probe.due p power_on;
      Array.iteri
        (fun pos ti ->
          let tname = snd terms.(ti) in
          let neighbour = order.((pos + 1) mod n) in
          ignore
            (P9net.Host.spawn (P9net.World.host w tname) "churn" (fun env ->
                 Sim.Time.sleep eng (power_on -. Sim.Engine.now eng);
                 let reached = ref false in
                 let arrive () =
                   if not !reached then begin
                     reached := true;
                     arrive ()
                   end
                 in
                 match
                   Probe.timed p ~layer:"app" "churn" (fun () ->
                       match
                         dial p env ~due:power_on ~tries:60 ~pause:0.25
                           (Printf.sprintf "il!%s!exportfs" P9net.World.fleet_origin)
                       with
                       | None -> raise (Bad "dial")
                       | Some conn ->
                         peak p "il.peak_convs" (il_convs servers);
                         let wire =
                           Cfs_bench.counted
                             (P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd)
                             rts bytes
                         in
                         let cache, client, root =
                           session p eng ~uname:tname wire
                         in
                         term_caches := cache :: !term_caches;
                         let write_file k =
                           Probe.timed p ~layer:"app" "create" ~into:[ "op" ]
                             (fun () ->
                               let fid =
                                 rpc p "walk" (fun () ->
                                     Ninep.Client.walk_path client root [ "tmp" ])
                               in
                               ignore
                                 (rpc p "create" (fun () ->
                                      Ninep.Client.create client fid
                                        ~name:(Filename.basename (path ti k))
                                        ~perm:0o644l Ninep.Fcall.Owrite));
                               let body = body ti k in
                               let off = ref 0 in
                               while !off < file_bytes do
                                 let piece = String.sub body !off chunk in
                                 let n =
                                   rpc p "write" (fun () ->
                                       Ninep.Client.write client fid
                                         ~offset:(Int64.of_int !off) piece)
                                 in
                                 if n <> chunk then begin
                                   Probe.fail p "short write";
                                   raise (Bad "short write")
                                 end;
                                 off := !off + chunk
                               done;
                               rpc p "clunk" (fun () ->
                                   Ninep.Client.clunk client fid))
                         in
                         let check_file owner k =
                           Probe.timed p ~layer:"app" "readback" ~into:[ "op" ]
                             (fun () ->
                               let got = read_file p client root ~chunk (path owner k) in
                               verify p ~what:(path owner k) got (body owner k))
                         in
                         for k = 0 to files - 1 do
                           write_file k
                         done;
                         for k = 0 to files - 1 do
                           check_file ti k
                         done;
                         arrive ();
                         for k = 0 to files - 1 do
                           check_file neighbour k
                         done;
                         Probe.finished p;
                         close_session p env conn client root)
                 with
                 | () -> ()
                 | exception Bad _ -> arrive ())))
        order;
      let finish () =
        census p w;
        Probe.count p "conversations" n;
        cache_counts p ~terms:!term_caches
          ~racks_caches:
            (Hashtbl.fold (fun _ c acc -> c :: acc) fl.P9net.World.f_caches [])
          ~rts ~bytes
      in
      { world = w; probe = p; until = 3600.; convs_left = 2 * racks; finish }
  in
  { name = "file-churn"; prepare }

let all = [ routed_swarm; bootstorm; file_churn; close_burst ]
