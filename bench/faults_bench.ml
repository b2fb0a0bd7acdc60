(* The fault-injection benchmark: the canonical 20% burst-loss +
   duplication + reorder schedule from DESIGN.md, driven end to end
   through IL, TCP, and URP.  Everything runs in virtual time on one
   seeded engine, so the emitted JSON is byte-identical across
   same-seed runs; the driver runs the whole scenario twice and diffs
   the JSON to prove it. *)

(* Gilbert on/off with stationary burst occupancy
   0.05 / (0.05 + 0.2) = 20% and mean burst length 5 frames, plus 5%
   duplication, 5% reordering (2 ms late), and 0.5 ms jitter. *)
let canonical_schedule f =
  Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
  Netsim.Fault.set_dup f 0.05;
  Netsim.Fault.set_reorder f ~delay:2e-3 0.05;
  Netsim.Fault.set_jitter f 0.5e-3

let xfer_json name (x : Xfer.t) =
  let both f = Xfer.both f x in
  let drops, dups, reorders = x.injected in
  Printf.sprintf
    "  %S: {\"converged\": %b, \"elapsed_s\": %.6f, \"retransmits\": %d, \
     \"queries\": %d, \"dups_suppressed\": %d, \"rtt_samples\": %d, \
     \"drops_injected\": %d, \"dups_injected\": %d, \"reorders_injected\": \
     %d}"
    name x.converged x.elapsed
    (both (fun e -> e.retransmits))
    (both (fun e -> e.queries))
    (both (fun e -> e.dups_dropped))
    x.tx.rtt_samples drops dups reorders

type result = {
  res_json : string;  (* deterministic: byte-identical across same-seed runs *)
  res_xfers : (string * Xfer.t) list;  (* il, tcp, urp *)
}

let run ~seed =
  let xfers =
    List.map
      (fun (name, proto) ->
        (name, Xfer.run ~proto ~schedule:canonical_schedule ~seed))
      [
        ("il", Xfer.Il Inet.Il.default_config); ("tcp", Xfer.Tcp);
        ("urp", Xfer.Urp);
      ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"faults\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b
    "  \"schedule\": {\"burst_enter\": 0.05, \"burst_exit\": 0.2, \
     \"burst_loss\": 1.0, \"dup\": 0.05, \"reorder\": 0.05, \
     \"reorder_delay_ms\": 2.0, \"jitter_ms\": 0.5},\n";
  Printf.bprintf b "  \"msgs\": %d,\n" Xfer.msgs;
  Printf.bprintf b "  \"msg_bytes\": %d,\n" Xfer.size;
  Buffer.add_string b
    (String.concat ",\n" (List.map (fun (n, x) -> xfer_json n x) xfers));
  Printf.bprintf b "\n}\n";
  { res_json = Buffer.contents b; res_xfers = xfers }
