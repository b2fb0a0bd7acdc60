(* The congestion matrix: IL vs baseline TCP vs congestion-controlled
   TCP (tcpcc) across three stress axes —

     - uniform 5% loss          (point-to-point bulk transfer)
     - Gilbert 20% burst loss   (the canonical faults schedule)
     - many-flow contention     (the PR 4 synchronized-close collapse:
                                 10 Mb/s, zero dial stagger, a thousand
                                 conversations closing at once)

   The loss rows isolate the retransmission policies: IL's query
   scheme, the baseline's go-back-N, and tcpcc's cwnd + fast
   retransmit.  The collapse row is the bug this matrix exists to pin:
   under the baseline the close burst drives queueing delay past the
   minimum RTO and the run degenerates into spurious go-back-N storms;
   tcpcc converges in bounded retransmissions on the same schedule.

   Everything runs in virtual time on seeded engines, so the JSON is
   byte-identical across same-seed runs. *)

(* collapse-axis knobs: PR 4's schedule with the de-tuning reversed —
   10 Mb/s and a perfectly synchronized close burst (dials keep the
   2 ms ramp; a thousand simultaneous SYNs is a different study).  The
   payload is multi-segment (4 KiB) so the window machinery has real
   work — at one segment per message, head-of-window retransmit and
   go-back-N coincide by definition and the comparison would measure
   nothing *)
let collapse_hosts = 25
let collapse_convs_per_host = 40
let collapse_bandwidth = 10e6
let collapse_msg_bytes = 4096

(* dials spread over 10 s: the establishment wave (1000 x 8 KiB echoed)
   must fit under 10 Mb/s or phase one is already the collapse and the
   barrier never releases — only the close burst gets to overload *)
let collapse_dial_ramp = 0.01

let uniform_schedule f = Netsim.Fault.set_loss f 0.05

let burst_schedule = Faults_bench.canonical_schedule

let loss_row ~schedule ~seed =
  List.map
    (fun (name, proto) -> (name, Xfer.run ~proto ~schedule ~seed))
    [
      ("il", Xfer.Il Inet.Il.default_config);
      ("tcp", Xfer.Tcp);
      ("tcpcc", Xfer.Tcpcc);
    ]

let xfer_json name (x : Xfer.t) =
  Printf.sprintf
    "    %S: {\"converged\": %b, \"elapsed_s\": %.6f, \"retransmits\": %d, \
     \"retransmitted_bytes\": %d, \"fast_retransmits\": %d}"
    name x.converged x.elapsed
    (Xfer.both (fun e -> e.retransmits) x)
    (Xfer.both (fun e -> e.retransmitted_bytes) x)
    (Xfer.both (fun e -> e.fast_retransmits) x)

(* ---- the collapse axis: the swarm bench's schedule, de-tuned ---- *)

let collapse_side ~seed proto =
  Swarm_bench.run_side
    ~topology:
      (Swarm_bench.Flat
         { hosts = collapse_hosts; bandwidth = collapse_bandwidth })
    ~proto ~convs_per_host:collapse_convs_per_host ~ramp:collapse_dial_ramp
    ~close_ramp:0. ~msg_bytes:collapse_msg_bytes ~seed

(* the trio the collapse section and the matrix share: same schedule,
   one run per transport, perf reports kept separate from the sides *)
let collapse_trio ~seed =
  List.map (fun p -> (p, collapse_side ~seed p)) [ "il"; "tcp"; "tcpcc" ]

let collapse_json (s : Swarm_bench.side) =
  Printf.sprintf
    "    %S: {\"converged\": %b, \"completed\": %d, \"elapsed_s\": %.6f, \
     \"retransmits\": %d, \"fast_retransmits\": %d, \"backlog_refused\": %d}"
    s.s_proto s.s_converged s.s_completed s.s_elapsed s.s_retransmits
    s.s_fast_retransmits s.s_refused

type result = {
  res_json : string;  (* deterministic: byte-identical across same-seed runs *)
  res_uniform : (string * Xfer.t) list;
  res_burst : (string * Xfer.t) list;
  res_collapse : (string * Swarm_bench.side) list;
  res_perf : (string * Obs.Prof.report) list;  (* wall clock; never in res_json *)
}

let run ?(seed = 9) () =
  let uniform = loss_row ~schedule:uniform_schedule ~seed in
  let burst = loss_row ~schedule:burst_schedule ~seed in
  let collapse_raw = collapse_trio ~seed in
  let collapse = List.map (fun (p, (s, _)) -> (p, s)) collapse_raw in
  let perf = List.map (fun (p, (_, rep)) -> ("collapse_" ^ p, rep)) collapse_raw in
  let b = Buffer.create 2048 in
  let emit_group name rows json_of =
    Printf.bprintf b "  %S: {\n%s\n  }" name
      (String.concat ",\n" (List.map (fun (p, x) -> json_of p x) rows))
  in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"congestion\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"msgs\": %d,\n" Xfer.msgs;
  Printf.bprintf b "  \"msg_bytes\": %d,\n" Xfer.size;
  Printf.bprintf b
    "  \"collapse_schedule\": {\"hosts\": %d, \"convs_per_host\": %d, \
     \"bandwidth_mbps\": %.0f, \"ramp_s\": 0.0, \"msg_bytes\": %d},\n"
    collapse_hosts collapse_convs_per_host
    (collapse_bandwidth /. 1e6)
    collapse_msg_bytes;
  emit_group "uniform_5pct" uniform xfer_json;
  Printf.bprintf b ",\n";
  emit_group "burst_20pct" burst xfer_json;
  Printf.bprintf b ",\n";
  emit_group "collapse" collapse (fun _ s -> collapse_json s);
  Printf.bprintf b "\n}\n";
  {
    res_json = Buffer.contents b;
    res_uniform = uniform;
    res_burst = burst;
    res_collapse = collapse;
    res_perf = perf;
  }
