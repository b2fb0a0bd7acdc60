(* The boot-storm benchmark: every terminal in the fleet powers on at
   the same instant and replays the staged boot trace (kernel, then
   binaries, then libraries — Bootstage) through the cache hierarchy —
   terminal-tier cfs → rack-tier cfs → origin — and again with every
   terminal mounted directly on the origin.  The tap on each rack's
   upstream connection counts the T-messages that actually reach the
   origin, so the headline number is the origin round-trip offload the
   hierarchy buys, to set against PR 2's single-terminal 1.75x.
   Everything is virtual time on seeded engines; the JSON is
   byte-identical across same-seed runs. *)

let storm_at = 5.0
let run_until = 3600.0

(* one storm side: the tiered hierarchy or the direct mounts *)
type side = {
  b_mode : string;
  b_total : int;
  b_booted : int;  (* terminals that finished the full trace *)
  b_origin_rts : int;  (* T-messages that reached the origin *)
  b_origin_bytes : int;  (* bytes both ways on the origin links *)
  b_convergence : float;  (* last finish - storm_at, virtual seconds *)
  b_term_hits : int;  (* terminal tier, summed over the fleet *)
  b_term_misses : int;
  b_rack_hits : int;  (* rack tier, summed over the racks *)
  b_rack_misses : int;
  b_rack_coalesced : int;  (* same-block misses absorbed in flight *)
}

let hit_ratio hits misses =
  let t = hits + misses in
  if t = 0 then 0. else float_of_int hits /. float_of_int t

let run_storm ~seed ~racks ~terminals ~tiered =
  let rts = ref 0 and bytes = ref 0 in
  let tap =
    if tiered then fun _rack tr -> Cfs_bench.counted tr rts bytes
    else fun _rack tr -> tr
  in
  let fl = P9net.World.fleet ~seed ~racks ~terminals ~tap () in
  let w = fl.P9net.World.f_world in
  let eng = w.P9net.World.eng in
  let db = w.P9net.World.db in
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let term_caches = ref [] in
  let booted = ref 0 and last_finish = ref storm_at in
  List.iter
    (fun (rack, tname) ->
      let th = P9net.World.host w tname in
      ignore
        (P9net.Host.spawn th "boot" (fun env ->
             Sim.Time.sleep eng (storm_at -. Sim.Engine.now eng);
             let addr =
               if tiered then Printf.sprintf "il!%s!9fs" rack
               else Printf.sprintf "il!%s!exportfs" P9net.World.fleet_origin
             in
             let conn =
               P9net.Dial.redial env ~tries:60
                 ~pause:(fun () -> Sim.Time.sleep eng 0.25)
                 addr
             in
             let wire = P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd in
             let client_tr =
               if tiered then begin
                 (* the terminal tier: a private cfs stacked on the rack *)
                 let cache = Cfs.make eng ~upstream:wire () in
                 term_caches := cache :: !term_caches;
                 Cfs.transport cache
               end
               else Cfs_bench.counted wire rts bytes
             in
             let client = Ninep.Client.make eng client_tr in
             Ninep.Client.session client;
             let root = Ninep.Client.attach client ~uname:tname ~aname:"" in
             Cfs_bench.replay_trace client root
               (P9net.Bootstage.trace ~db ~sys:tname);
             incr booted;
             if Sim.Engine.now eng > !last_finish then
               last_finish := Sim.Engine.now eng)))
    fl.P9net.World.f_terminals;
  P9net.World.run ~until:run_until w;
  let term_hits, term_misses =
    List.fold_left
      (fun (h, m) c -> (h + Cfs.counter c "hits", m + Cfs.counter c "misses"))
      (0, 0) !term_caches
  in
  let rack_hits, rack_misses, rack_coalesced =
    Hashtbl.fold
      (fun _ c (h, m, co) ->
        ( h + Cfs.counter c "hits",
          m + Cfs.counter c "misses",
          co + Cfs.counter c "coalesced" ))
      fl.P9net.World.f_caches (0, 0, 0)
  in
  ( {
      b_mode = (if tiered then "tiered" else "direct");
      b_total = racks * terminals;
      b_booted = !booted;
      b_origin_rts = !rts;
      b_origin_bytes = !bytes;
      b_convergence = !last_finish -. storm_at;
      b_term_hits = term_hits;
      b_term_misses = term_misses;
      b_rack_hits = rack_hits;
      b_rack_misses = rack_misses;
      b_rack_coalesced = rack_coalesced;
    },
    Obs.Prof.report prof )

let side_json s =
  Printf.sprintf
    "  %S: {\"booted\": %d, \"origin_round_trips\": %d, \"origin_bytes\": %d, \
     \"convergence_s\": %.6f, \"terminal_hit_ratio\": %.4f, \
     \"rack_hit_ratio\": %.4f, \"terminal_hits\": %d, \"terminal_misses\": \
     %d, \"rack_hits\": %d, \"rack_misses\": %d, \"rack_coalesced\": %d}"
    s.b_mode s.b_booted s.b_origin_rts s.b_origin_bytes s.b_convergence
    (hit_ratio s.b_term_hits s.b_term_misses)
    (hit_ratio s.b_rack_hits s.b_rack_misses)
    s.b_term_hits s.b_term_misses s.b_rack_hits s.b_rack_misses
    s.b_rack_coalesced

type result = {
  res_json : string;  (* deterministic: byte-identical across same-seed runs *)
  res_tiered : side;
  res_direct : side;
  res_offload : float;  (* direct origin rts / tiered origin rts *)
  res_perf : (string * Obs.Prof.report) list;  (* wall clock; never in res_json *)
}

let run ?(seed = 17) ?(racks = 8) ?(terminals = 13) () =
  let tiered, perf_t = run_storm ~seed ~racks ~terminals ~tiered:true in
  let direct, perf_d = run_storm ~seed ~racks ~terminals ~tiered:false in
  let offload =
    if tiered.b_origin_rts = 0 then 0.
    else float_of_int direct.b_origin_rts /. float_of_int tiered.b_origin_rts
  in
  let db =
    Ndb.of_string (P9net.World.fleet_ndb ~racks ~terminals ())
  in
  let trace_bytes =
    P9net.Bootstage.trace_bytes ~db ~sys:(P9net.World.terminal_sys 0 0)
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"bootstorm\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"racks\": %d,\n" racks;
  Printf.bprintf b "  \"terminals_per_rack\": %d,\n" terminals;
  Printf.bprintf b "  \"terminals\": %d,\n" (racks * terminals);
  Printf.bprintf b "  \"trace_bytes_per_terminal\": %d,\n" trace_bytes;
  Printf.bprintf b "%s,\n" (side_json tiered);
  Printf.bprintf b "%s,\n" (side_json direct);
  Printf.bprintf b "  \"origin_offload\": %.4f\n" offload;
  Printf.bprintf b "}\n";
  {
    res_json = Buffer.contents b;
    res_tiered = tiered;
    res_direct = direct;
    res_offload = offload;
    res_perf = [ ("tiered", perf_t); ("direct", perf_d) ];
  }
