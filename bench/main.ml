(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation, plus the quantitative claims made in its text,
   and runs wall-clock microbenchmarks (bechamel) for the hot paths.

   Run with:  dune exec bench/main.exe            (all sections)
              dune exec bench/main.exe -- table1  (one section)     *)

let section name = Printf.printf "\n===== %s =====\n%!" name

let hr () = print_endline (String.make 66 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: throughput and latency per path                            *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  Printf.printf
    "throughput: 16k writes between two processes; latency: 1-byte RTT\n";
  hr ();
  Printf.printf "%-12s | %-21s | %-21s\n" ""
    "throughput MB/s" "latency ms";
  Printf.printf "%-12s | %9s %11s | %9s %11s\n" "test" "paper" "measured"
    "paper" "measured";
  hr ();
  List.iter
    (fun p ->
      let mbs = Table1.throughput_mbs p in
      let ms = Table1.latency_ms p in
      Printf.printf "%-12s | %9.2f %11.2f | %9.3f %11.3f\n%!"
        p.Table1.p_name p.Table1.p_paper_mbs mbs p.Table1.p_paper_ms ms)
    Table1.all;
  hr ();
  print_endline
    "expected shape: pipes > Cyclone > IL/ether > URP/Datakit (throughput)\n\
     and the reverse ordering for latency."

(* ------------------------------------------------------------------ *)
(* Figure 1: the Ethernet device file tree                             *)
(* ------------------------------------------------------------------ *)

let run_fig1 () =
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  ignore
    (P9net.Host.spawn helix "fig1" (fun env ->
         (* open two more connections so the tree shows fan-out:
            conns 0/1 are IP and ARP from the kernel's own stack *)
         let fd1 = Vfs.Env.open_ env "/net/ether0/clone" Ninep.Fcall.Ordwr in
         let n1 = String.trim (Vfs.Env.read env fd1 32) in
         ignore (Vfs.Env.write env fd1 "connect 2048");
         let fd2 = Vfs.Env.open_ env "/net/ether0/clone" Ninep.Fcall.Ordwr in
         ignore (Vfs.Env.read env fd2 32);
         ignore (Vfs.Env.write env fd2 "connect -1");
         print_string
           (P9net.Ether_dev.render_tree
              (Option.get helix.P9net.Host.etherport));
         Printf.printf "\ncpu%% cat /net/ether0/%s/type\n%s" n1
           (Vfs.Env.read_file env (Printf.sprintf "/net/ether0/%s/type" n1));
         Vfs.Env.close env fd1;
         Vfs.Env.close env fd2));
  P9net.World.run ~until:5.0 w

(* ------------------------------------------------------------------ *)
(* Section 3's code-size claim: IL = 847 lines, TCP = 2200             *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let t = String.trim line in
       if t <> "" && not (String.length t >= 2 && String.sub t 0 2 = "(*")
       then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "lib/inet/il.ml") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let run_codesize () =
  match find_root (Sys.getcwd ()) with
  | None -> print_endline "(source tree not found; run from the repo)"
  | Some root ->
    let il = count_lines (Filename.concat root "lib/inet/il.ml") in
    let tcp = count_lines (Filename.concat root "lib/inet/tcp.ml") in
    Printf.printf
      "paper:  IL = 847 lines, TCP = 2200 lines  (ratio %.2f)\n" (2200. /. 847.);
    Printf.printf
      "ours:   IL = %d lines, TCP = %d lines  (ratio %.2f)\n" il tcp
      (float_of_int tcp /. float_of_int il);
    print_endline
      "(non-blank source lines.  our TCP is a deliberately simplified\n\
      \ baseline — go-back-N, no urgent data, options, or congestion\n\
      \ machinery — so the ratio understates the paper's point; a\n\
      \ production TCP of the era was ~4x our line count, IL was not.)"

(* ------------------------------------------------------------------ *)
(* Section 3's congestion claim: query-based vs blind retransmission   *)
(* ------------------------------------------------------------------ *)

(* a link with uniform per-frame loss *)
let lossy loss f = Netsim.Fault.set_loss f loss

(* payload throughput of a transfer that took [t] virtual seconds *)
let kbs t =
  if t <= 0. then 0. else float_of_int (Xfer.msgs * Xfer.size) /. t /. 1e3

let run_congestion () =
  let payload = Xfer.msgs * Xfer.size in
  Printf.printf "workload: %d messages x %d bytes on a lossy 10 Mb/s ether\n"
    Xfer.msgs Xfer.size;
  hr ();
  Printf.printf "%-6s | %-25s | %-25s\n" "" "IL (query-based)"
    "TCP (blind go-back-N)";
  Printf.printf "%-6s | %8s %8s %7s | %8s %8s %7s\n" "loss" "KB/s"
    "resent" "ovrhd" "KB/s" "resent" "ovrhd";
  hr ();
  let seeds = [ 9; 10; 11 ] in
  List.iter
    (fun loss ->
      (* the sender's view: what it resent, and all it put on the wire *)
      let row3 proto =
        let runs =
          List.map
            (fun seed -> Xfer.run ~proto ~schedule:(lossy loss) ~seed)
            seeds
        in
        let mean (f : Xfer.t -> float) =
          List.fold_left (fun a x -> a +. f x) 0. runs
          /. float_of_int (List.length runs)
        in
        ( mean (fun x -> x.elapsed),
          mean (fun x -> float_of_int x.tx.retransmitted_bytes),
          mean (fun x ->
              float_of_int (x.tx.bytes_sent + x.tx.retransmitted_bytes)) )
      in
      let t_il, re_il, sent_il = row3 (Xfer.Il Inet.Il.default_config) in
      let t_tcp, re_tcp, sent_tcp = row3 Xfer.Tcp in
      let ovr sent = (sent -. float_of_int payload) /. float_of_int payload *. 100. in
      Printf.printf "%5.0f%% | %8.1f %8.0f %6.1f%% | %8.1f %8.0f %6.1f%%\n%!"
        (loss *. 100.) (kbs t_il) re_il (ovr sent_il) (kbs t_tcp) re_tcp
        (ovr sent_tcp))
    [ 0.0; 0.02; 0.05; 0.10 ];
  Printf.printf "(averaged over %d seeds)\n" (List.length seeds);
  hr ();
  print_endline
    "the claim: IL keeps resent bytes (and so added congestion) low\n\
     because a timeout sends a small query, never the data."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let il_transfer ~config ~loss : Xfer.t =
  Xfer.run ~proto:(Xfer.Il config) ~schedule:(lossy loss) ~seed:9

let run_ablation () =
  Printf.printf
    "A. IL outstanding-message window (\"a small outstanding message\n\
    \   window\"): bulk throughput on a clean 10 Mb/s ether\n";
  List.iter
    (fun window ->
      let x =
        il_transfer ~config:{ Inet.Il.default_config with window } ~loss:0.0
      in
      Printf.printf "   window %3d : %7.1f KB/s\n%!" window (kbs x.elapsed))
    [ 1; 2; 4; 8; 20; 40 ];
  Printf.printf
    "   (the window must cover the bandwidth-delay product; beyond\n\
    \   that it only costs receiver buffering)\n\n";

  Printf.printf
    "B. receiver-prompted recovery (gap -> state message) vs pure\n\
    \   query-timeout recovery, at 5%% loss\n";
  List.iter
    (fun fast_recovery ->
      let x =
        il_transfer ~config:{ Inet.Il.default_config with fast_recovery }
          ~loss:0.05
      in
      Printf.printf "   %-22s : %7.1f KB/s, %d resent, %d queries\n%!"
        (if fast_recovery then "gap-prompted (default)" else "timeout only")
        (kbs x.elapsed) x.tx.retransmits x.tx.queries)
    [ true; false ];
  Printf.printf "\n";

  Printf.printf
    "C. delayed acknowledgements: ack holdoff vs wire overhead on a\n\
    \   clean link (acks per data message)\n";
  List.iter
    (fun ack_delay ->
      let x =
        il_transfer ~config:{ Inet.Il.default_config with ack_delay }
          ~loss:0.0
      in
      Printf.printf "   ack delay %4.0f ms : %7.1f KB/s\n%!"
        (ack_delay *. 1000.) (kbs x.elapsed))
    [ 0.0; 0.005; 0.02; 0.1 ]

(* ------------------------------------------------------------------ *)
(* Section 4.1: the 43,000-line database and its hash files            *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_ndb () =
  let lines = 43_000 in
  let dir, path = Genndb.write_temp ~lines in
  Fun.protect
    ~finally:(fun () -> Genndb.cleanup dir)
    (fun () ->
      let t = Ndb.open_files [ path ] in
      Printf.printf "database: %d entries from a %d-line file\n"
        (List.length (Ndb.entries t))
        lines;
      let lookups = 200 in
      let query i =
        ignore
          (Ndb.search t ~attr:"sys" ~value:(Genndb.nth_sys (i * 37 mod 8000)))
      in
      let scan () =
        for i = 1 to lookups do
          query i
        done
      in
      let (), linear = time_it scan in
      let (), build = time_it (fun () -> Ndb.write_hash t ~attr:"sys") in
      let (), hashed = time_it scan in
      hr ();
      Printf.printf "%d lookups, linear scan : %8.1f ms  (%6.0f us each)\n"
        lookups (linear *. 1e3)
        (linear /. float_of_int lookups *. 1e6);
      Printf.printf "%d lookups, hash file   : %8.1f ms  (%6.0f us each)\n"
        lookups (hashed *. 1e3)
        (hashed /. float_of_int lookups *. 1e6);
      Printf.printf "hash build time          : %8.1f ms (done once per update)\n"
        (build *. 1e3);
      Printf.printf "speedup: %.0fx\n" (linear /. hashed);
      let st = Ndb.stats t in
      Printf.printf
        "stats: %d hash lookups, %d linear scans, %d stale rejections\n"
        st.Ndb.hash_lookups st.Ndb.linear_scans st.Ndb.stale_rejected)

(* ------------------------------------------------------------------ *)
(* Section 4.2: the csquery examples                                   *)
(* ------------------------------------------------------------------ *)

let run_csquery () =
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  List.iter
    (fun q ->
      Printf.printf "> %s\n" q;
      (match P9net.Cs.translate helix.P9net.Host.cs q with
      | Ok lines -> List.iter print_endline lines
      | Error e -> Printf.printf "! %s\n" e);
      print_newline ())
    [ "net!helix!9fs"; "net!$auth!rexauth" ]

(* ------------------------------------------------------------------ *)
(* Section 6.1: the import example                                      *)
(* ------------------------------------------------------------------ *)

let run_import () =
  let w = P9net.World.bell_labs () in
  let gnot = P9net.World.host w "philw-gnot" in
  ignore
    (P9net.Host.spawn gnot "import" (fun env ->
         let show () =
           List.iter
             (fun d -> Printf.printf "/net/%s\n" d.Ninep.Fcall.d_name)
             (Vfs.Env.ls env "/net")
         in
         print_endline "philw-gnot% ls /net";
         show ();
         print_endline "philw-gnot% import -a helix /net";
         P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
           ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.After ();
         print_endline "philw-gnot% ls /net";
         show ()));
  P9net.World.run ~until:60.0 w

(* ------------------------------------------------------------------ *)
(* What remote access costs: file reads local vs imported              *)
(* ------------------------------------------------------------------ *)

let run_gateway () =
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/bench" (String.make 512 'x');
  let reads = 100 in
  let results : (string * float) list ref = ref [] in
  let musca = P9net.World.host w "musca" in
  let gnot = P9net.World.host w "philw-gnot" in
  let eng = w.P9net.World.eng in
  let record name env path =
    (* warm once, then time [reads] whole-file reads *)
    ignore (Vfs.Env.read_file env path);
    let t0 = Sim.Engine.now eng in
    for _ = 1 to reads do
      ignore (Vfs.Env.read_file env path)
    done;
    let dt = Sim.Engine.now eng -. t0 in
    results := (name, dt /. float_of_int reads) :: !results
  in
  ignore
    (P9net.Host.spawn helix "local" (fun env ->
         record "local (procedural 9P)" env "/tmp/bench"));
  List.iter
    (fun (host, pname, name) ->
      ignore
        (P9net.Host.spawn host pname (fun env ->
             P9net.Exportfs.import eng env ~host:"helix" ~remote_root:"/tmp"
               ~onto:"/n" ~flag:Vfs.Ns.Repl ();
             record name env "/n/bench")))
    [ (musca, "ether", "imported over IL/ether");
      (gnot, "dk", "imported over URP/Datakit") ];
  P9net.World.run ~until:600.0 w;
  List.iter
    (fun (name, per_read) ->
      Printf.printf "%-28s %8.3f ms per 512-byte read\n" name
        (per_read *. 1000.))
    (List.rev !results);
  print_endline
    "(each remote read is two 9P RPCs — walk/open amortized, read+read0\n\
    \ — carried as delimited messages on the transport; the name space\n\
    \ makes the three paths the same two lines of client code)"

(* ------------------------------------------------------------------ *)
(* perf: the wall-clock engine profiler's report, carried in the BENCH  *)
(* files as ONE line injected right after the opening brace.  Stripping *)
(* that single line (grep -v '"perf"') restores the deterministic       *)
(* document byte-for-byte, which is how the golden comparison works.    *)
(* ------------------------------------------------------------------ *)

let perf_line perfs =
  "  \"perf\": {"
  ^ String.concat ", "
      (List.map
         (fun (name, rep) ->
           Printf.sprintf "%S: %s" name (Obs.Prof.report_json rep))
         perfs)
  ^ "}"

let inject_perf json perfs =
  if perfs = [] || String.length json < 2 || json.[0] <> '{' || json.[1] <> '\n'
  then json
  else "{\n" ^ perf_line perfs ^ ",\n" ^ String.sub json 2 (String.length json - 2)

let is_perf_line l =
  let p = "  \"perf\":" in
  let n = String.length p in
  String.length l >= n && String.sub l 0 n = p

let strip_perf json =
  String.split_on_char '\n' json
  |> List.filter (fun l -> not (is_perf_line l))
  |> String.concat "\n"

(* soft regression guard: warn (never fail) when the engine dispatched
   fewer events per wall-clock second than the floor *)
let perf_floor = 1000.

let perf_soft_guard bench perfs =
  List.iter
    (fun (name, (rep : Obs.Prof.report)) ->
      if rep.r_events_per_sec < perf_floor then
        Printf.eprintf
          "warning: %s/%s dispatched %.0f events/s, below the soft floor \
           %.0f\n%!"
          bench name rep.r_events_per_sec perf_floor)
    perfs

(* the keys every perf report carries: values are machine-dependent,
   but the schema is not *)
let perf_schema =
  [
    "events"; "wall_s"; "dispatch_s"; "events_per_sec"; "minor_words";
    "minor_words_per_event"; "share_sum"; "layers"; "layer"; "share";
    "words_per_event";
  ]

(* the profiler's layer labels per report: same-seed reruns must
   attribute the same set, whatever the values *)
let layer_sets perfs =
  List.map
    (fun (n, (rep : Obs.Prof.report)) ->
      (n, List.map (fun (l : Obs.Prof.layer) -> l.l_label) rep.r_layers))
    perfs

(* ------------------------------------------------------------------ *)
(* The registry: one entry per section, one driver for all of them     *)
(* ------------------------------------------------------------------ *)

(* where a section's result goes: printed only, or written and
   golden-compared under [guard] against bench/golden/ *)
type output = Stdout | Golden of string

type outcome = {
  json : string;  (* the deterministic document; "" if nothing is written *)
  perf : (string * Obs.Prof.report) list;  (* wall clock; never in [json] *)
  gates : (bool * string) list;  (* (holds, what broke if it does not) *)
}

type bench = {
  name : string;  (* the section name on the command line *)
  title : string;
  output : output;
  rerun : bool;  (* run twice with the same seed and byte-compare *)
  run : unit -> outcome;
}

let gate ok fmt = Printf.ksprintf (fun m -> (ok, m)) fmt

let entry name title output ~rerun run = { name; title; output; rerun; run }

(* a section that only prints *)
let printing name title f =
  entry name title Stdout ~rerun:false (fun () ->
      f ();
      { json = ""; perf = []; gates = [] })

(* hard shape check: the values are machine-dependent, the shape is not *)
let perf_gates perfs =
  List.concat_map
    (fun (name, (rep : Obs.Prof.report)) ->
      let share_sum =
        List.fold_left (fun a (l : Obs.Prof.layer) -> a +. l.l_share) 0.
          rep.r_layers
      in
      let quoted = String.split_on_char '"' (Obs.Prof.report_json rep) in
      [
        gate (rep.r_events > 0) "perf %s: no events dispatched" name;
        gate (rep.r_events_per_sec > 0.) "perf %s: events_per_sec = %g" name
          rep.r_events_per_sec;
        gate (rep.r_minor_words_per_event >= 0.)
          "perf %s: negative minor_words_per_event" name;
        gate (rep.r_layers <> []) "perf %s: no layers attributed" name;
        gate
          (abs_float (share_sum -. 1.0) <= 0.05)
          "perf %s: layer shares sum to %.3f, not ~1.0" name share_sum;
      ]
      @ List.map
          (fun key ->
            gate (List.mem key quoted) "perf %s lacks key %S" name key)
          perf_schema)
    perfs

(* The hard per-layer allocation budget.  Minor-heap words per event
   are exact for a fixed binary, so unlike wall clock they can fail a
   run: bench/golden/perf_budget.json caps words_per_event for each
   (bench, report, layer) as
     {"bench": {"report": {"layer": words_per_event, ...}, ...}, ...}
   and a golden bench must stay within [budget_slack] of every cap. *)
let budget_file = "bench/golden/perf_budget.json"
let budget_slack = 1.05

type json = Num of float | Obj of (string * json) list

(* just enough JSON for the budget file: objects, string keys, numbers *)
let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail () = failwith (Printf.sprintf "bad JSON at byte %d" !i) in
  let rec ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      ws ()
    end
  in
  let eat c = ws (); if !i < n && s.[!i] = c then incr i else fail () in
  let key () =
    eat '"';
    let j = try String.index_from s !i '"' with Not_found -> fail () in
    let k = String.sub s !i (j - !i) in
    i := j + 1;
    eat ':';
    k
  in
  let rec value () =
    ws ();
    if !i < n && s.[!i] = '{' then begin
      incr i;
      Obj (members [])
    end
    else begin
      let j = ref !i in
      while !j < n && String.contains "+-.0123456789eE" s.[!j] do
        incr j
      done;
      match float_of_string_opt (String.sub s !i (!j - !i)) with
      | Some f -> i := !j; Num f
      | None -> fail ()
    end
  and members acc =
    let k = key () in
    let acc = (k, value ()) :: acc in
    ws ();
    if !i < n && s.[!i] = ',' then (incr i; members acc)
    else (eat '}'; List.rev acc)
  in
  let v = value () in
  ws ();
  if !i <> n then fail ();
  v

(* the budget as (bench, report, layer, words_per_event cap) rows *)
let budget =
  lazy
    (let bad why =
       Printf.eprintf "error: %s: %s\n" budget_file why;
       exit 1
     in
     let rec rows path = function
       | Num cap -> [ (List.rev path, cap) ]
       | Obj m -> List.concat_map (fun (k, v) -> rows (k :: path) v) m
     in
     match parse_json (In_channel.with_open_bin budget_file In_channel.input_all) with
     | exception (Sys_error m | Failure m) -> bad m
     | doc ->
       List.map
         (function
           | [ bench; report; layer ], cap -> (bench, report, layer, cap)
           | path, _ ->
             bad (String.concat "/" path ^ " is not bench/report/layer"))
         (rows [] doc))

let budget_gates bench perfs =
  List.filter_map
    (fun (b, report, layer, cap) ->
      if b <> bench then None
      else
        let measured =
          Option.bind (List.assoc_opt report perfs) (fun (rep : Obs.Prof.report) ->
              List.find_opt (fun (l : Obs.Prof.layer) -> l.l_label = layer)
                rep.r_layers)
        in
        Some
          (match measured with
          | None ->
            gate false "%s budgets %s/%s, but no report has that layer"
              budget_file report layer
          | Some l ->
            gate
              (l.l_words_per_event <= cap *. budget_slack)
              "perf %s: %s at %.1f words/event, over its budget of %.1f \
               (+%.0f%%) in %s"
              report layer l.l_words_per_event cap
              ((budget_slack -. 1.) *. 100.)
              budget_file))
    (Lazy.force budget)

(* Run one section and its same-seed rerun, write its document with
   the perf line, then hold it to every gate: its own, the perf shape,
   the allocation budget (golden benches), and determinism.  Exits 1 on
   the first failure; returns the document as written. *)
let run_bench b =
  section b.title;
  let t0 = Unix.gettimeofday () in
  let r = b.run () in
  let t1 = Unix.gettimeofday () in
  let r2 = if b.rerun then b.run () else r in
  let t2 = Unix.gettimeofday () in
  let doc = inject_perf r.json r.perf in
  let written =
    match b.output with
    | Stdout -> []
    | Golden f ->
      print_string r.json;
      Out_channel.with_open_bin f (fun oc -> output_string oc doc);
      (* wall clock is machine-dependent: the deterministic JSON stays
         perf-free; the perf member is one strippable line *)
      Printf.printf "wrote %s (wall clock %.2fs%s)\n%!" f (t1 -. t0)
        (if b.rerun then Printf.sprintf " + %.2fs rerun" (t2 -. t1) else "");
      [
        gate (doc <> "") "wrote an empty %s" f;
        gate
          (r.perf = []
          || List.exists is_perf_line (String.split_on_char '\n' doc))
          "%s carries no perf line" f;
      ]
  in
  perf_soft_guard b.name r.perf;
  List.iter
    (fun (ok, m) ->
      if not ok then begin
        Printf.eprintf "error: %s: %s\n" b.name m;
        exit 1
      end)
    (written @ perf_gates r.perf @ r.gates
    @ (match b.output with Golden _ -> budget_gates b.name r.perf | _ -> [])
    @ [
        gate
          (layer_sets r.perf = layer_sets r2.perf)
          "two same-seed runs attributed different layer sets — the \
           profiler shape is unstable";
        gate (r.json = r2.json)
          "two same-seed runs produced different JSON — determinism broke";
      ]);
  if b.rerun then
    print_endline "same-seed rerun: byte-identical (determinism holds)";
  doc

(* ------------------------------------------------------------------ *)
(* table1 again, machine-readable, with the kernel trace attached:     *)
(* throughput, latency, and every observability counter per path.      *)
(* Smoke check for CI — fails if a path records no events at all.      *)
(* ------------------------------------------------------------------ *)

let table1_json () =
  let rows =
    List.map
      (fun p ->
        let tr = Obs.Trace.create () in
        let instrument eng = Sim.Engine.attach_obs eng tr in
        let mbs = Table1.throughput_mbs ~instrument p in
        let ms = Table1.latency_ms ~instrument p in
        (p, mbs, ms, tr))
      Table1.all
  in
  let row ((p : Table1.path), mbs, ms, tr) =
    Printf.sprintf
      "    {\"path\": %S, \"paper_mbs\": %g, \"measured_mbs\": %.4f, \
       \"paper_ms\": %g, \"measured_ms\": %.4f, \"events\": %d, \
       \"counters\": %s}"
      p.p_name p.p_paper_mbs mbs p.p_paper_ms ms (Obs.Trace.seq tr)
      (Obs.Trace.counters_json tr)
  in
  {
    json =
      "{\n  \"table1\": [\n"
      ^ String.concat ",\n" (List.map row rows)
      ^ "\n  ]\n}\n";
    perf = [];
    gates =
      List.map
        (fun (p, _, _, tr) ->
          gate
            (Obs.Trace.seq tr > 0
            && List.exists
                 (fun (_, v) -> v <> 0)
                 (Obs.Metrics.counters (Obs.Trace.metrics tr)))
            "no observability counters recorded for %s" p.Table1.p_name)
        rows;
  }

(* ------------------------------------------------------------------ *)
(* cfs: the diskless-boot replay over a 9600-baud line                  *)
(* ------------------------------------------------------------------ *)

let cfs () =
  let (r : Cfs_bench.result) = Cfs_bench.run () in
  {
    json = r.res_json;
    perf = r.res_perf;
    gates =
      [
        gate
          (r.res_cached_rts < r.res_uncached_rts)
          "cached replay used %d round trips, uncached %d — the cache \
           saved nothing"
          r.res_cached_rts r.res_uncached_rts;
        gate
          (r.res_cached_elapsed < r.res_uncached_elapsed)
          "cached replay took %.3fs virtual, uncached %.3fs — no speedup"
          r.res_cached_elapsed r.res_uncached_elapsed;
      ];
  }

(* ------------------------------------------------------------------ *)
(* fault injection: IL/TCP/URP under the canonical adverse schedule     *)
(* ------------------------------------------------------------------ *)

let faults () =
  let (r : Faults_bench.result) = Faults_bench.run ~seed:9 in
  let il = List.assoc "il" r.res_xfers in
  {
    json = r.res_json;
    perf = List.map (fun (n, (x : Xfer.t)) -> (n, x.perf)) r.res_xfers;
    gates =
      List.map
        (fun (n, (x : Xfer.t)) ->
          gate x.converged
            "%s did not complete the transfer under the canonical schedule \
             (virtual %.1fs)"
            n x.elapsed)
        r.res_xfers
      @ [
          gate
            (Xfer.both (fun e -> e.retransmits) il > 0)
            "the schedule injected no recoverable loss (IL retransmits = 0) \
             — fault injection is not reaching the wire";
          gate
            (Xfer.both (fun e -> e.dups_dropped) il > 0)
            "no duplicates suppressed by IL under a 5%% duplication schedule";
        ];
  }

(* ------------------------------------------------------------------ *)
(* swarms: a thousand concurrent conversations per transport on one     *)
(* segment, and 10k conversations across a multi-segment internet       *)
(* ------------------------------------------------------------------ *)

(* every side must converge, must have held [min_peak] conversations
   open at once, and must stay under its recorded events-per-conversation
   baseline — e.g. if someone reintroduces a per-conversation ticker,
   events per conversation explodes *)
let side_gates ~min_peak ~baseline (s : Swarm_bench.side) =
  let epc = Swarm_bench.events_per_conv s in
  [
    gate s.s_converged "%s swarm converged only %d of %d conversations"
      s.s_proto s.s_completed s.s_total;
    gate (s.s_peak_convs >= min_peak)
      "%s peak concurrency %d < %d — the barrier did not hold every \
       conversation open at once"
      s.s_proto s.s_peak_convs min_peak;
    gate (epc <= baseline)
      "%s used %.2f engine events per conversation (baseline %.2f) — the \
       event economy regressed"
      s.s_proto epc baseline;
  ]

(* recorded baselines for engine events per conversation (seed 11,
   25 hosts x 40 conversations, 512-byte messages) *)
let swarm_baselines =
  [ ("il", 46.0 (* measured 36.35 *)); ("tcp", 60.0 (* measured 47.35 *)) ]

let swarm () =
  let hosts = 25 and convs_per_host = 40 and seed = 11 in
  let r =
    Swarm_bench.run
      ~topology:
        {
          ndb = Swarm_bench.swarm_ndb ~hosts ();
          bandwidth = 100e6;
          until = 600.;
        }
      ~protos:[ "il"; "tcp" ] ~convs_per_host ~seed
  in
  {
    json =
      Swarm_bench.json ~bench:"swarm" ~seed ~fields:Swarm_bench.timer_fields
        ~header:(fun s ->
          [
            ("hosts", hosts);
            ("convs_per_host", convs_per_host);
            ("convs", s.s_total);
            ("msg_bytes", Swarm_bench.msg_bytes);
          ])
        r.res_sides;
    perf = r.res_perf;
    gates =
      List.concat_map
        (fun (s : Swarm_bench.side) ->
          side_gates ~min_peak:s.s_total
            ~baseline:(List.assoc s.s_proto swarm_baselines)
            s)
        r.res_sides;
  }

(* engine events per conversation for the routed topology (seed 11,
   16 leaves x 14 clients x 45 conversations): dearer than the
   one-segment swarm because every packet crosses two to four gateway hops *)
let routed_baseline = 110.0 (* measured 85.82 *)

let routed () =
  let leaves = 16 and clients_per_leaf = 14 and convs_per_host = 45 in
  let seed = 11 in
  let r =
    Swarm_bench.run
      ~topology:
        {
          ndb = Genndb.subnetted ~leaves ~clients_per_leaf ();
          bandwidth = 100e6;
          until = 900.;
        }
      ~protos:[ "il" ] ~convs_per_host ~seed
  in
  let s = List.hd r.res_sides in
  {
    json =
      Swarm_bench.json ~bench:"routed_swarm" ~seed
        ~fields:Swarm_bench.route_fields
        ~header:(fun s ->
          [
            ("leaves", leaves);
            ("clients_per_leaf", clients_per_leaf);
            ("convs_per_client", convs_per_host);
            ("convs", s.s_total);
            ("msg_bytes", Swarm_bench.msg_bytes);
            ("segments", s.s_segments);
            ("gateways", s.s_gateways);
          ])
        r.res_sides;
    perf = r.res_perf;
    gates =
      side_gates ~min_peak:10000 ~baseline:routed_baseline s
      @ [
          gate (s.s_segments >= 12)
            "only %d segments — not a multi-segment internet" s.s_segments;
          gate (s.s_forwarded > 0)
            "gateways forwarded nothing — traffic is not crossing subnets";
          gate
            (s.s_tun_tx > 0 && s.s_tun_rx > 0)
            "the Datakit transit carried nothing (tun_tx %d, tun_rx %d)"
            s.s_tun_tx s.s_tun_rx;
          gate (s.s_route_drops = 0)
            "%d packets dropped at the routing choke point" s.s_route_drops;
        ];
  }

(* ------------------------------------------------------------------ *)
(* collapse: the synchronized-close schedule, first class               *)
(* ------------------------------------------------------------------ *)

let collapse_table sides =
  hr ();
  Printf.printf "%-6s | %5s | %9s | %9s | %8s | %7s | %7s\n" "proto" "conv"
    "completed" "elapsed s" "resent" "fastrtx" "refused";
  hr ();
  List.iter
    (fun (s : Swarm_bench.side) ->
      Printf.printf "%-6s | %5s | %5d/%-4d| %9.2f | %8d | %7d | %7d\n%!"
        s.s_proto
        (if s.s_converged then "yes" else "NO")
        s.s_completed s.s_total s.s_elapsed s.s_retransmits
        s.s_fast_retransmits s.s_refused)
    sides;
  hr ()

let run_collapse () =
  Printf.printf
    "schedule: %d hosts x %d conversations, zero close stagger, %d-byte\n\
     messages; every conversation sends its second echo and hangs up at\n\
     the same instant.  The baseline TCP answers the queueing delay with\n\
     go-back-N at a fixed window; tcpcc answers with AIMD + fast\n\
     retransmit on the same wire format.\n"
    Congestion_bench.collapse_hosts Congestion_bench.collapse_convs_per_host
    Congestion_bench.collapse_msg_bytes;
  let trio = Congestion_bench.collapse_trio ~seed:9 in
  collapse_table (List.map (fun (_, (s, _)) -> s) trio)

(* ------------------------------------------------------------------ *)
(* congestion-matrix: loss x flows x {il, tcp, tcpcc}                   *)
(* ------------------------------------------------------------------ *)

(* recorded bound on tcpcc retransmissions under the collapse schedule
   (seed 9); the run fails if congestion control stops containing the
   synchronized-close storm *)
let collapse_tcpcc_retransmit_cap = 20_000 (* measured 17272, seed 9 *)

let congestion_matrix () =
  let (r : Congestion_bench.result) = Congestion_bench.run () in
  let (cc : Swarm_bench.side) = List.assoc "tcpcc" r.res_collapse in
  let (base : Swarm_bench.side) = List.assoc "tcp" r.res_collapse in
  let ucc = List.assoc "tcpcc" r.res_uniform in
  {
    json = r.res_json;
    perf = r.res_perf;
    gates =
      (* every transport must survive both loss schedules *)
      List.concat_map
        (fun (group, rows) ->
          List.map
            (fun (proto, (x : Xfer.t)) ->
              gate x.converged
                "%s/%s did not complete the transfer (virtual %.1fs)" group
                proto x.elapsed)
            rows)
        [ ("uniform", r.res_uniform); ("burst", r.res_burst) ]
      @ [
          (* loss must actually reach tcpcc, and fast retransmit must
             fire: recovery without it would mean the dupack machinery
             is dead code *)
          gate
            (Xfer.both (fun e -> e.fast_retransmits) ucc > 0)
            "tcpcc recovered from 5%% uniform loss without one fast \
             retransmit";
          (* the headline: the same synchronized-close schedule that
             collapses the baseline converges under tcpcc, in bounded
             retransmissions *)
          gate cc.s_converged "tcpcc collapse run converged only %d of %d"
            cc.s_completed cc.s_total;
          gate
            (cc.s_retransmits <= collapse_tcpcc_retransmit_cap)
            "tcpcc resent %d segments under collapse (cap %d)"
            cc.s_retransmits collapse_tcpcc_retransmit_cap;
          (* the baseline's collapse is pinned, not fixed: if it ever
             converges this cheaply the schedule stopped biting and the
             comparison is meaningless *)
          gate
            (not
               (base.s_converged
               && base.s_retransmits <= collapse_tcpcc_retransmit_cap))
            "baseline tcp survived the collapse schedule (%d resent) — the \
             schedule no longer collapses anything"
            base.s_retransmits;
        ];
  }

(* ------------------------------------------------------------------ *)
(* bootstorm: the fleet powers on at once, tiered caches vs direct      *)
(* ------------------------------------------------------------------ *)

let bootstorm_gates ~smoke (r : Bootstorm_bench.result) =
  let side (s : Bootstorm_bench.side) =
    [
      gate (s.b_booted = s.b_total) "%s storm booted %d of %d terminals"
        s.b_mode s.b_booted s.b_total;
      gate (s.b_convergence > 0.) "%s storm converged in no virtual time"
        s.b_mode;
    ]
  in
  (* the headline: the hierarchy must at least halve what reaches the
     origin (the smoke fleet is too small to demand the full 2x) *)
  let floor = if smoke then 1.2 else 2.0 in
  side r.res_tiered @ side r.res_direct
  @ [
      gate (r.res_offload >= floor)
        "origin round-trip offload %.2fx < %.1fx (tiered %d, direct %d) — \
         the cache hierarchy regressed"
        r.res_offload floor r.res_tiered.b_origin_rts
        r.res_direct.b_origin_rts;
      gate (r.res_tiered.b_rack_coalesced > 0)
        "the storm coalesced no same-block misses at the rack tier — \
         single-flight is not engaging";
    ]

let bootstorm () =
  let (r : Bootstorm_bench.result) = Bootstorm_bench.run () in
  {
    json = r.res_json;
    perf = r.res_perf;
    gates = bootstorm_gates ~smoke:false r;
  }

(* the tier-1 fleet smoke: 2 racks x 4 terminals, same gates scaled *)
let bootstorm_smoke () =
  let (r : Bootstorm_bench.result) =
    Bootstorm_bench.run ~racks:2 ~terminals:4 ()
  in
  let t = r.res_tiered in
  Printf.printf
    "fleet smoke: 8 terminals booted, offload %.2fx, rack hit ratio %.2f, \
     %d misses coalesced\n%!"
    r.res_offload
    (Bootstorm_bench.hit_ratio t.b_rack_hits t.b_rack_misses)
    t.b_rack_coalesced;
  { json = ""; perf = []; gates = bootstorm_gates ~smoke:true r }

(* ------------------------------------------------------------------ *)
(* profile: a tiny swarm as a smoke test for the engine profiler        *)
(* ------------------------------------------------------------------ *)

let profile () =
  let r =
    Swarm_bench.run
      ~topology:
        {
          ndb = Swarm_bench.swarm_ndb ~hosts:2 ();
          bandwidth = 100e6;
          until = 600.;
        }
      ~protos:[ "il"; "tcp" ] ~convs_per_host:3 ~seed:11
  in
  List.iter
    (fun (name, (rep : Obs.Prof.report)) ->
      Printf.printf
        "%-4s %6d events in %.3fs wall (%.0f events/s), %.1f minor \
         words/event\n"
        name rep.r_events rep.r_wall_s rep.r_events_per_sec
        rep.r_minor_words_per_event;
      List.iter
        (fun (l : Obs.Prof.layer) ->
          Printf.printf "       %-10s %6d events  share %.3f  %.1f w/ev\n"
            l.l_label l.l_events l.l_share l.l_words_per_event)
        rep.r_layers)
    r.res_perf;
  print_endline "profile smoke: shape ok (events/s > 0, shares sum to ~1)";
  { json = ""; perf = r.res_perf; gates = [] }

(* ------------------------------------------------------------------ *)
(* Wall-clock microbenchmarks (bechamel)                                *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let twrite =
    Ninep.Fcall.T
      ( 7,
        Ninep.Fcall.Twrite
          { fid = 3; offset = 8192L; data = String.make 8192 'x' } )
  in
  let encoded = Ninep.Fcall.encode twrite in
  let db = Ndb.of_string P9net.World.bell_labs_ndb in
  let cs =
    P9net.Cs.make ~sysname:"helix" ~db
      ~networks:
        [
          { P9net.Cs.nw_proto = "il"; nw_clone = "/net/il/clone"; nw_kind = `Inet };
          { P9net.Cs.nw_proto = "dk"; nw_clone = "/net/dk/clone"; nw_kind = `Dk };
        ]
      ()
  in
  let packet = String.make 1500 'p' in
  (* an engine holding 20k pending events spread over its future; each
     run pushes one event due before all of them and pops it *)
  let queue = Sim.Engine.create () in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 20_000 do
    Sim.Engine.at queue (1e6 +. Random.State.float rng 1e6) ignore
  done;
  (* one Test.make per table/figure, plus the hot paths they exercise *)
  Test.make_grouped ~name:"plan9net"
    [
      Test.make ~name:"table1:sim-transfer-64k"
        (Staged.stage (fun () ->
             ignore (Table1.throughput_mbs ~bytes:(64 * 1024) Table1.pipes)));
      Test.make ~name:"fig1:render-ether-tree"
        (Staged.stage (fun () ->
             let eng = Sim.Engine.create () in
             let seg = Netsim.Ether.create ~name:"e" eng in
             let nic =
               Netsim.Ether.attach seg
                 (Netsim.Eaddr.of_string "080069020001")
             in
             let port = Inet.Etherport.create eng nic in
             ignore (Inet.Etherport.connect port 2048);
             ignore (P9net.Ether_dev.render_tree port)));
      Test.make ~name:"9p:encode-twrite-8k"
        (Staged.stage (fun () -> ignore (Ninep.Fcall.encode twrite)));
      Test.make ~name:"9p:decode-twrite-8k"
        (Staged.stage (fun () -> ignore (Ninep.Fcall.decode encoded)));
      Test.make ~name:"il:checksum-1500"
        (Staged.stage (fun () -> ignore (Inet.Chksum.checksum packet)));
      Test.make ~name:"sim:event-queue-20k"
        (Staged.stage (fun () ->
             Sim.Engine.after queue 1e-3 ignore;
             ignore (Sim.Engine.step queue)));
      Test.make ~name:"cs:translate"
        (Staged.stage (fun () ->
             ignore (P9net.Cs.translate cs "net!helix!9fs")));
      Test.make ~name:"ndb:parse-entry"
        (Staged.stage (fun () ->
             ignore (Ndb.parse_string "sys=helix\n\tip=1.2.3.4 ether=aa0069000001\n")));
    ]

let run_bechamel () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (bechamel_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ t ] -> (name, t) :: acc
        | Some _ | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s %s/op\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)

(* Adding a bench is one entry here; give it [Golden f] and check in
   bench/golden/f to have [guard] hold its JSON byte for byte. *)
let registry =
  [
    printing "table1" "Table 1 - Performance (paper section 8)" run_table1;
    entry "json" "table1 json - Table 1 with the kernel trace attached"
      (Golden "BENCH_table1.json") ~rerun:false table1_json;
    printing "fig1" "Figure 1 - the ether device tree (paper section 2.2)"
      run_fig1;
    printing "codesize" "IL vs TCP implementation size (paper section 3)"
      run_codesize;
    printing "congestion"
      "IL vs TCP under loss (paper section 3: no blind retransmission)"
      run_congestion;
    printing "ablation" "ablations (design choices, see DESIGN.md)"
      run_ablation;
    printing "ndb" "ndb at scale (paper section 4.1: 43,000-line global file)"
      run_ndb;
    printing "csquery" "ndb/csquery (paper section 4.2 examples)" run_csquery;
    printing "import" "import -a helix /net (paper section 6.1)" run_import;
    printing "gateway"
      "the cost of transparency: reads through mounts (section 6)" run_gateway;
    entry "cfs" "cfs - caching the 9P stream on a 9600-baud boot line"
      (Golden "BENCH_cfs.json") ~rerun:false cfs;
    entry "faults"
      "fault injection - 20% burst loss + dup + reorder (DESIGN.md)"
      (Golden "BENCH_faults.json") ~rerun:true faults;
    entry "swarm" "swarm - 1000 concurrent conversations, IL and TCP"
      (Golden "BENCH_swarm.json") ~rerun:true swarm;
    entry "routed"
      "routed swarm - 10k conversations across a 20-subnet internet"
      (Golden "BENCH_routed.json") ~rerun:true routed;
    printing "collapse" "collapse - 1000 synchronized closes on a 10 Mb/s ether"
      run_collapse;
    entry "congestion-matrix"
      "congestion matrix - {uniform, burst, collapse} x {il, tcp, tcpcc}"
      (Golden "BENCH_congestion.json") ~rerun:true congestion_matrix;
    entry "bootstorm"
      "bootstorm - the whole fleet powers on at once, tiered vs direct"
      (Golden "BENCH_bootstorm.json") ~rerun:true bootstorm;
    entry "bootstorm-smoke" "bootstorm-smoke - 8-terminal fleet storm" Stdout
      ~rerun:false bootstorm_smoke;
    entry "profile" "profile smoke - engine profiler on a tiny swarm" Stdout
      ~rerun:false profile;
    printing "micro" "microbenchmarks (wall clock, bechamel)" run_bechamel;
  ]

(* ------------------------------------------------------------------ *)
(* guard: every golden bench, its document compared perf-stripped       *)
(* ------------------------------------------------------------------ *)

let run_guard () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "error: guard: %s\n" m;
        exit 1)
      fmt
  in
  let files =
    Sys.readdir "bench/golden" |> Array.to_list
    |> List.filter (fun f -> f <> Filename.basename budget_file)
    |> List.sort compare
  in
  let goldens =
    List.filter_map
      (fun b -> match b.output with Golden f -> Some (f, b) | _ -> None)
      registry
  in
  List.iter
    (fun (bench, _, _, _) ->
      if not (List.exists (fun (_, b) -> b.name = bench) goldens) then
        fail "%s budgets %s, which is no golden bench" budget_file bench)
    (Lazy.force budget);
  List.iter
    (fun f ->
      if not (List.mem_assoc f goldens) then
        fail "bench/golden/%s has no registered bench" f)
    files;
  List.iter
    (fun (f, b) ->
      if not (List.mem f files) then
        fail "bench %s has no golden bench/golden/%s" b.name f)
    goldens;
  let docs = List.map (fun (f, b) -> (f, run_bench b)) goldens in
  section "bench-guard - golden JSON (perf-stripped) + perf schema";
  List.iter
    (fun (f, doc) ->
      let want =
        In_channel.with_open_bin ("bench/golden/" ^ f) In_channel.input_all
      in
      if strip_perf doc <> want then
        fail
          "%s (perf stripped) differs from bench/golden/%s — the \
           deterministic document changed"
          f f;
      Printf.printf "%s: golden match (perf stripped)\n%!" f)
    docs

let sections =
  List.map (fun b -> (b.name, fun () -> ignore (run_bench b))) registry
  @ [ ("guard", run_guard) ]

let () =
  let wanted =
    match
      Array.to_list Sys.argv
      |> List.map (function "--json" -> "json" | a -> a)
    with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (have: %s)\n" name
          (String.concat " " (List.map fst sections)))
    wanted;
  print_newline ()
