(* The benchmark's own measurement harness.  Every number it records is
   taken from outside the program: around the public calls a workload
   makes (dial, echo, 9P RPCs) and from the accessors the layers
   already export.  Nothing here reads the wall clock;
   latencies are virtual time, so they are exact for a fixed seed.

   In a traced run the harness opens its spans with Obs.Span on the
   world's Obs.Trace, beside the lib's own dial, cs, il, tcp, dk, 9p and
   cfs spans.  The trace's tap hands every span begin and end to
   [span_event]; they stay in memory and are written out once, at the
   end, in a stable order. *)

type samples = { mutable a : float array; mutable n : int }

type t = {
  eng : Sim.Engine.t;
  obs : Obs.Trace.t option;  (* attached in a traced run *)
  mutable span_events : (float * Obs.Event.t) list;  (* newest first *)
  samples : (string, samples) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  fails : (string, int ref) Hashtbl.t;
  mutable first_due : float;
  mutable last_done : float;
  mutable checks : (string * bool) list;  (* newest first *)
}

let create eng obs =
  {
    eng;
    obs;
    span_events = [];
    samples = Hashtbl.create 16;
    counts = Hashtbl.create 32;
    fails = Hashtbl.create 8;
    first_due = infinity;
    last_done = neg_infinity;
    checks = [];
  }

let now p = Sim.Engine.now p.eng

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl name (ref n)

let count p name n = bump p.counts name n
let get p name = match Hashtbl.find_opt p.counts name with Some r -> !r | None -> 0

(* An operation a user of the system would have asked for.  It counts
   as failed unless [ok] is called for it; a wedged operation therefore
   fails without anyone noticing it. *)
let attempt p = count p "attempted" 1
let ok p = count p "ok" 1
let fail p reason = bump p.fails reason 1
let failed p = get p "attempted" - get p "ok"

(* An output check: a false one makes the run incorrect. *)
let check p name b = p.checks <- (name, b) :: p.checks

let due p t = if t < p.first_due then p.first_due <- t
let finished p = if now p > p.last_done then p.last_done <- now p
let makespan p = if p.last_done < p.first_due then 0. else p.last_done -. p.first_due

let sample p name x =
  let s =
    match Hashtbl.find_opt p.samples name with
    | Some s -> s
    | None ->
      let s = { a = Array.make 1024 0.; n = 0 } in
      Hashtbl.replace p.samples name s;
      s
  in
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let sorted p name =
  match Hashtbl.find_opt p.samples name with
  | None -> [||]
  | Some s ->
    let c = Array.sub s.a 0 s.n in
    Array.sort Float.compare c;
    c

(* Exact nearest-rank order statistic: the sample at rank
   ceil(pct/100 * n), in integer arithmetic so p99 of 1000 samples is
   rank 990, never 991. *)
let quantile sorted pct =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = ((pct * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* [timed p ~layer name f] runs [f] and, when it returns, records its
   virtual duration under each name in [into].  In a traced run [f]
   runs inside an Obs.Span, so the lib's own spans nest under it.  A
   raising [f] closes its span and records no sample. *)
let timed ?(into = []) p ~layer name f =
  let t0 = now p in
  let h =
    match p.obs with
    | Some tr -> Obs.Span.enter tr ~layer name
    | None -> Obs.Span.none
  in
  let close () = Option.iter (fun tr -> Obs.Span.exit tr h) p.obs in
  match f () with
  | r ->
    close ();
    let dt = now p -. t0 in
    List.iter (fun s -> sample p s dt) into;
    r
  | exception e ->
    close ();
    raise e

(* A span event seen by the trace's tap, with its virtual time. *)
let span_event p time ev = p.span_events <- (time, ev) :: p.span_events

(* Self time: a span's duration minus the union of the parts of it that
   its children cover.  [spans] are (id, parent, t0, t1). *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  Array.iter
    (fun (_, parent, t0, t1) -> if parent <> 0 then Hashtbl.add kids parent (t0, t1))
    spans;
  Array.map
    (fun (id, _, s0, s1) ->
      let cs = List.sort compare (Hashtbl.find_all kids id) in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = Float.max a (Float.max upto s0) in
            let b = Float.min b s1 in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0., s0) cs
      in
      (s1 -. s0) -. covered)
    spans

(* Tab-separated, one span a line, ordered by (trace, start, id), then
   the total self time per layer, ordered by layer name.  A span the
   run never closed ends at the last event. *)
let write_spans p path =
  let events = List.rev p.span_events in
  let last = List.fold_left (fun m (t, _) -> Float.max m t) 0. events in
  let ends = Hashtbl.create 4096 in
  List.iter
    (function
      | t, Obs.Event.Span_end { span; _ } -> Hashtbl.replace ends span t
      | _ -> ())
    events;
  let spans =
    List.filter_map
      (function
        | t0, Obs.Event.Span_begin { name; layer; trace; span; parent; _ } ->
          let t1 = Option.value (Hashtbl.find_opt ends span) ~default:last in
          Some (trace, t0, span, parent, layer, name, t1)
        | _ -> None)
      events
    |> List.sort compare |> Array.of_list
  in
  let self =
    self_times
      (Array.map (fun (_, t0, id, parent, _, _, t1) -> (id, parent, t0, t1)) spans)
  in
  let oc = open_out path in
  output_string oc "trace\tspan\tparent\tlayer\tname\tstart_s\tend_s\tdur_ms\tself_ms\n";
  let by_layer = Hashtbl.create 8 in
  Array.iteri
    (fun i (trace, t0, id, parent, layer, name, t1) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\t%.6f\t%.6f\n" trace id
        parent layer name t0 t1
        ((t1 -. t0) *. 1e3)
        (self.(i) *. 1e3);
      let n, tot = Option.value (Hashtbl.find_opt by_layer layer) ~default:(0, 0.) in
      Hashtbl.replace by_layer layer (n + 1, tot +. self.(i)))
    spans;
  output_string oc "# layer\tspans\tself_s_total\n";
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort compare
  |> List.iter (fun (l, (n, tot)) -> Printf.fprintf oc "# %s\t%d\t%.9f\n" l n tot);
  close_out oc
