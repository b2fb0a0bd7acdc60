(* One run of one workload in this process, printed as one JSON line.

     main.exe --workload NAME --seed N [--spans FILE]

   The set-up (ndb parse, topology, host boot, autoroute, spawn) is
   timed [setups] times and the last world built is the one run, so the
   set-up time is a median and not one noisy sample.  Untraced runs
   attach nothing to the engine; a run given --spans is traced: it
   attaches Obs.Trace and Obs.Prof, records every span, the lib's and
   the benchmark's, and writes them to FILE.  A simulated process that
   crashes makes the run incorrect; the report is printed all the same.
   Host time and heap are read with Unix.gettimeofday and Gc; every
   other number is virtual time or a count, exact for a fixed seed. *)

let setups = 3

let prof_classes = [ "9p"; "app"; "dk"; "ether"; "il"; "ip"; "listener"; "tcp" ]

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let floats l = obj (List.map (fun (k, v) -> (k, json_float v)) l)
let ints l = obj (List.map (fun (k, v) -> (k, string_of_int v)) l)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Virtual-time results a user of the system sees.  The makespan and
   goodput vary smoothly with the seed and are end-to-end metrics; the
   latency quantiles sit on a few discrete path delays, so they are
   reported per layer and here under the names of the operation each
   workload performs, with their sample counts. *)
let virtual_metrics p =
  let q name pct scale = Probe.quantile (Probe.sorted p name) pct *. scale in
  let makespan = Probe.makespan p in
  [
    ("makespan_s", makespan);
    ( "goodput_mbs",
      if makespan > 0. then float_of_int (Probe.get p "payload_bytes") /. 1e6 /. makespan
      else 0. );
    ("op_p50_ms", q "op" 50 1e3);
    ("op_p99_ms", q "op" 99 1e3);
    ("dial_p50_ms", q "dial" 50 1e3);
    ("dial_p99_ms", q "dial" 99 1e3);
    ("rpc_p50_ms", q "rpc" 50 1e3);
    ("rpc_p99_ms", q "rpc" 99 1e3);
    ("boot_p50_s", q "boot" 50 1.);
    ("boot_p90_s", q "boot" 90 1.);
  ]

let sample_counts p =
  List.map
    (fun n -> (n, Array.length (Probe.sorted p n)))
    [ "op"; "dial"; "rpc"; "boot" ]

(* Per-layer numbers that are exact for a fixed seed: traced and
   untraced runs must agree on every one of them. *)
let exact_layer_metrics p eng =
  let g = Probe.get p in
  let q name pct = Probe.quantile (Probe.sorted p name) pct *. 1e3 in
  let hit h m = ratio (g h) (g h + g m) in
  let ninep =
    List.concat_map
      (fun op ->
        [
          (Printf.sprintf "ninep.%s.p50_ms" op, q ("ninep." ^ op) 50);
          (Printf.sprintf "ninep.%s.p99_ms" op, q ("ninep." ^ op) 99);
        ])
      [ "walk"; "open"; "read"; "write"; "create"; "clunk" ]
  in
  let boot =
    List.map
      (fun ph ->
        ( Printf.sprintf "boot.%s.p50_s" ph,
          Probe.quantile (Probe.sorted p ("boot." ^ ph)) 50 ))
      [ "kernel"; "binaries"; "libraries" ]
  in
  let counts =
    List.map
      (fun n -> (n, float_of_int (g n)))
      [
        "dial.attempts"; "cs.hits"; "cs.misses"; "listener.refused";
        "vfs.read_calls"; "vfs.write_calls"; "il.peak_convs"; "il.retransmits";
        "tcp.peak_convs"; "tcp.retransmits"; "tcp.fast_retransmits";
        "route.forwarded"; "route.drops"; "dk.tun_tx"; "dk.tun_rx";
        "netsim.overflows"; "ninep.rpcs"; "ninep.fids_open_end";
        "cfs.rack.coalesced"; "cfs.origin_rts"; "cfs.origin_bytes";
        "cfs.write_through"; "cfs.invalidations"; "cfs.evictions";
      ]
  in
  [
    ("sim.events", float_of_int (Sim.Engine.events eng));
    ("op.p50_ms", q "op" 50);
    ("op.p99_ms", q "op" 99);
    ("dial.p50_ms", q "dial" 50);
    ("dial.p99_ms", q "dial" 99);
    ("ninep.rpc.p50_ms", q "rpc" 50);
    ("ninep.rpc.p99_ms", q "rpc" 99);
    ("boot.p50_s", Probe.quantile (Probe.sorted p "boot") 50);
    ("boot.p90_s", Probe.quantile (Probe.sorted p "boot") 90);
    ("dial.retry_ratio", ratio (g "dial.attempts" - g "dial.calls") (g "dial.calls"));
    ("cs.hit_ratio", hit "cs.hits" "cs.misses");
    ("vfs.reads_per_echo", ratio (g "vfs.read_calls") (g "echoes"));
    ( "route.forwarded_per_conv",
      ratio (g "route.forwarded") (g "conversations") );
    ("cfs.term.hit_ratio", hit "cfs.term.hits" "cfs.term.misses");
    ("cfs.rack.hit_ratio", hit "cfs.rack.hits" "cfs.rack.misses");
  ]
  @ counts @ ninep @ boot

(* The Obs.Prof split: the eight handler classes always, with tcpcc
   counted as tcp and every other class folded into "other"; never
   ordered by share. *)
let prof_metrics (r : Obs.Prof.report) =
  let class_of l =
    match l.Obs.Prof.l_label with
    | "tcpcc" -> "tcp"
    | c when List.mem c prof_classes -> c
    | _ -> "other"
  in
  List.concat_map
    (fun c ->
      let ls = List.filter (fun l -> class_of l = c) r.Obs.Prof.r_layers in
      let events = List.fold_left (fun a l -> a + l.Obs.Prof.l_events) 0 ls in
      let words =
        List.fold_left
          (fun a l -> a +. (l.Obs.Prof.l_words_per_event *. float_of_int l.l_events))
          0. ls
      in
      [
        (Printf.sprintf "prof.%s.events" c, float_of_int events);
        ( Printf.sprintf "prof.%s.share" c,
          List.fold_left (fun a l -> a +. l.Obs.Prof.l_share) 0. ls );
        ( Printf.sprintf "prof.%s.words_per_event" c,
          if events = 0 then 0. else words /. float_of_int events );
      ])
    (prof_classes @ [ "other" ])
  @ [ ("prof.dispatch_s", r.r_dispatch_s) ]

let run (wl : Workloads.t) ~seed ~spans =
  let traced = spans <> None in
  let build = wl.prepare ~seed in
  let setup_s = ref [] in
  let rec setup k =
    let t0 = Unix.gettimeofday () in
    let inst = build ~traced in
    setup_s := (Unix.gettimeofday () -. t0) :: !setup_s;
    if k <= 1 then inst
    else begin
      ignore (Sys.opaque_identity inst);
      Gc.compact ();
      setup (k - 1)
    end
  in
  let inst = setup setups in
  (* dropped worlds leave nothing behind for the one that runs *)
  Gc.full_major ();
  let w = inst.Workloads.world and p = inst.Workloads.probe in
  let eng = w.P9net.World.eng in
  let prof =
    if traced then begin
      let pr = Obs.Prof.create ~clock:Unix.gettimeofday () in
      Sim.Engine.attach_prof eng pr;
      Some pr
    end
    else None
  in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let crash =
    match P9net.World.run ~until:inst.Workloads.until w with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  inst.Workloads.finish ();
  let g = Probe.get p in
  (* a crash is one more operation, and a failed one *)
  Option.iter
    (fun e ->
      Probe.attempt p;
      Probe.fail p ("simulated process crashed: " ^ e))
    crash;
  Probe.check p "no simulated process crashed" (crash = None);
  Probe.check p "every operation succeeded" (Probe.failed p = 0 && g "attempted" > 0);
  Probe.check p "every 9P fid clunked" (g "ninep.fids_open_end" = 0);
  Probe.check p "no routing drops" (g "route.drops" = 0);
  Probe.check p "conversation tables empty after hangup"
    (g "il.convs_end" + g "tcp.convs_end" = inst.Workloads.convs_left);
  let events = Sim.Engine.events eng in
  let traced_metrics =
    match (prof, p.Probe.obs) with
    | Some pr, Some tr ->
      let m = Obs.Trace.metrics tr in
      let wb = g "netsim.wire_bytes" in
      prof_metrics (Obs.Prof.report pr)
      @ [
          ("sim.timer_arm", float_of_int (Obs.Metrics.counter m "timer.arm"));
          ("sim.timer_fire", float_of_int (Obs.Metrics.counter m "timer.fire"));
          ("sim.timer_disarm", float_of_int (Obs.Metrics.counter m "timer.disarm"));
          ("netsim.frames", float_of_int (g "netsim.frames"));
          ("netsim.wire_bytes", float_of_int wb);
          ("netsim.payload_ratio", ratio (g "payload_bytes") wb);
        ]
    | _ -> []
  in
  Option.iter (Probe.write_spans p) spans;
  let fails =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) p.Probe.fails [] |> List.sort compare
  in
  print_endline
    (obj
       [
         ("workload", Printf.sprintf "%S" wl.name);
         ("seed", string_of_int seed);
         ("traced", string_of_bool traced);
         ("setup_s", "[" ^ String.concat ", " (List.rev_map json_float !setup_s) ^ "]");
         ("wall_s", json_float wall);
         ("peak_heap_mb", json_float peak_heap_mb);
         ("attempted", string_of_int (g "attempted"));
         ("failed", string_of_int (Probe.failed p));
         ("fail_reasons", ints fails);
         ( "checks",
           obj
             (List.rev_map (fun (k, b) -> (k, string_of_bool b)) p.Probe.checks) );
         ("virtual", floats (virtual_metrics p));
         ("samples", ints (sample_counts p));
         ("exact", floats (exact_layer_metrics p eng));
         ( "host",
           floats
             [
               ("sim.minor_words", minor);
               ("sim.major_collections", float_of_int major);
               ("sim.events", float_of_int events);
             ] );
         ("traced_only", floats traced_metrics);
       ])

let () =
  let workload = ref "" and seed = ref 1 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--spans",
        Arg.Set_string spans,
        "FILE attach Obs.Trace and Obs.Prof and write the spans to FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N [--spans FILE]";
  match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
  | None ->
    prerr_endline
      ("unknown workload; one of: "
      ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
    exit 2
  | Some wl ->
    run wl ~seed:!seed
      ~spans:(if !spans = "" then None else Some !spans)
