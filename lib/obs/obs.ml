(* Zero-dependency observability core.  See obs.mli for the contract:
   deterministic (clock is injected), bounded (ring buffer), and free
   when no sink is installed (callers guard emission themselves). *)

module Event = struct
  type dir = Up | Down
  type proc_phase = Spawn | Block | Wake | Exit | Crash
  type packet_op = Tx | Rx | Drop of string

  type t =
    | Proc of { name : string; phase : proc_phase }
    | Cpu of { queued : float; busy : float }
    | Blk of { op : [ `Alloc | `Free ]; bytes : int }
    | Stream of { dev : string; dir : dir; bytes : int; delim : bool }
    | Flow of { dev : string; stalled : bool; qbytes : int }
    | Packet of {
        medium : string;
        op : packet_op;
        src : string;
        dst : string;
        proto : string;
        bytes : int;
      }
    | Proto_state of { proto : string; conv : int; from_ : string; to_ : string }
    | Fault of {
        medium : string;
        kind : string;
        reason : string;
        src : string;
        dst : string;
        proto : string;
        bytes : int;
      }
    | Retransmit of { proto : string; conv : int; id : int; bytes : int }
    | Checksum_err of { proto : string }
    | Fcall of { role : [ `T | `R ]; tag : int; msg : string; latency : float }
    | Span_begin of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        parent : int;
        scope : int;
      }
    | Span_end of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        scope : int;
        orphan : bool;
      }
    | Note of { sub : string; msg : string }

  let phase_name = function
    | Spawn -> "spawn"
    | Block -> "block"
    | Wake -> "wake"
    | Exit -> "exit"
    | Crash -> "crash"

  let label = function
    | Proc { phase; _ } -> "proc." ^ phase_name phase
    | Cpu _ -> "cpu.occupy"
    | Blk { op = `Alloc; _ } -> "blk.alloc"
    | Blk { op = `Free; _ } -> "blk.free"
    | Stream { dir = Up; _ } -> "stream.up"
    | Stream { dir = Down; _ } -> "stream.down"
    | Flow { stalled = true; _ } -> "flow.stall"
    | Flow { stalled = false; _ } -> "flow.resume"
    | Packet { op = Tx; _ } -> "pkt.tx"
    | Packet { op = Rx; _ } -> "pkt.rx"
    | Packet { op = Drop _; _ } -> "pkt.drop"
    | Proto_state _ -> "proto.state"
    | Fault { kind; _ } -> "fault." ^ kind
    | Retransmit _ -> "proto.retransmit"
    | Checksum_err _ -> "proto.badsum"
    | Fcall { role = `T; _ } -> "9p.t"
    | Fcall { role = `R; _ } -> "9p.r"
    | Span_begin _ -> "span.begin"
    | Span_end _ -> "span.end"
    | Note _ -> "note"

  let args = function
    | Proc { name; _ } -> [ ("proc", name) ]
    | Cpu { queued; busy } ->
      [ ("queued_us", Printf.sprintf "%.1f" (queued *. 1e6));
        ("busy_us", Printf.sprintf "%.1f" (busy *. 1e6)) ]
    | Blk { bytes; _ } -> [ ("bytes", string_of_int bytes) ]
    | Stream { dev; bytes; delim; _ } ->
      [ ("dev", dev); ("bytes", string_of_int bytes);
        ("delim", string_of_bool delim) ]
    | Flow { dev; qbytes; _ } ->
      [ ("dev", dev); ("qbytes", string_of_int qbytes) ]
    | Packet { medium; op; src; dst; proto; bytes } ->
      [ ("medium", medium); ("src", src); ("dst", dst); ("proto", proto);
        ("bytes", string_of_int bytes) ]
      @ (match op with Drop why -> [ ("why", why) ] | Tx | Rx -> [])
    | Proto_state { proto; conv; from_; to_ } ->
      [ ("proto", proto); ("conv", string_of_int conv); ("from", from_);
        ("to", to_) ]
    | Fault { medium; kind; reason; src; dst; proto; bytes } ->
      [ ("medium", medium); ("kind", kind); ("reason", reason); ("src", src);
        ("dst", dst); ("proto", proto); ("bytes", string_of_int bytes) ]
    | Retransmit { proto; conv; id; bytes } ->
      [ ("proto", proto); ("conv", string_of_int conv);
        ("id", string_of_int id); ("bytes", string_of_int bytes) ]
    | Checksum_err { proto } -> [ ("proto", proto) ]
    | Fcall { tag; msg; latency; _ } ->
      [ ("tag", string_of_int tag); ("msg", msg);
        ("latency_us", Printf.sprintf "%.1f" (latency *. 1e6)) ]
    | Span_begin { name; layer; trace; span; parent; scope } ->
      [ ("name", name); ("layer", layer); ("trace", string_of_int trace);
        ("span", string_of_int span); ("parent", string_of_int parent);
        ("scope", string_of_int scope) ]
    | Span_end { name; layer; trace; span; scope; orphan } ->
      [ ("name", name); ("layer", layer); ("trace", string_of_int trace);
        ("span", string_of_int span); ("scope", string_of_int scope);
        ("orphan", string_of_bool orphan) ]
    | Note { sub; msg } -> [ ("sub", sub); ("msg", msg) ]

  let render ev =
    match ev with
    | Note { sub; msg } -> Printf.sprintf "%s: %s" sub msg
    | Span_begin { name; layer; trace; span; parent; _ } ->
      Printf.sprintf "span> [%s] %s trace=%d span=%d parent=%d" layer name
        trace span parent
    | Span_end { name; layer; trace; span; orphan; _ } ->
      Printf.sprintf "span< [%s] %s trace=%d span=%d%s" layer name trace span
        (if orphan then " (orphan)" else "")
    | Proto_state { proto; conv; from_; to_ } ->
      Printf.sprintf "%s/%d %s -> %s" proto conv from_ to_
    | Retransmit { proto; conv; id; bytes } ->
      Printf.sprintf "%s/%d retransmit id %d (%d bytes)" proto conv id bytes
    | Fault { medium; kind; reason; src; dst; proto; bytes } ->
      Printf.sprintf "%s fault %s[%s] %s>%s %s %d" medium kind reason src dst
        proto bytes
    | Packet { medium; op; src; dst; proto; bytes } ->
      Printf.sprintf "%s %s %s>%s %s %d"
        medium
        (match op with Tx -> "tx" | Rx -> "rx" | Drop why -> "drop[" ^ why ^ "]")
        src dst proto bytes
    | ev ->
      String.concat " "
        (label ev
        :: List.map (fun (k, v) -> k ^ "=" ^ v) (args ev))
end

module Metrics = struct
  (* Histograms are log-bucketed: bucket [i] counts samples whose value
     (seconds) is <= 1e-6 * 2^i, with the last bucket catching the rest.
     Quantiles read as the upper bound of the bucket holding the rank,
     so they are deterministic and at most a factor of 2 pessimistic. *)
  let nbuckets = 40

  let bucket_bound i = 1e-6 *. Float.of_int (1 lsl i)

  type hist = {
    mutable count : int;
    mutable sum : float;
    mutable max_ : float;
    buckets : int array;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    hists : (string, hist) Hashtbl.t;
  }

  let create () = { counters = Hashtbl.create 31; hists = Hashtbl.create 7 }

  let bump t name n =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counters name (ref n)

  let bucket_of v =
    let rec go i ub =
      if v <= ub || i >= nbuckets - 1 then i else go (i + 1) (ub *. 2.)
    in
    go 0 1e-6

  let observe t name v =
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
        let h =
          { count = 0; sum = 0.; max_ = 0.; buckets = Array.make nbuckets 0 }
        in
        Hashtbl.replace t.hists name h;
        h
    in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    if v > h.max_ then h.max_ <- v

  let quantile t name q =
    match Hashtbl.find_opt t.hists name with
    | None -> None
    | Some h when h.count = 0 -> None
    | Some h ->
      let q = Float.max 0. (Float.min 1. q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
      let rec find i acc =
        if i >= nbuckets - 1 then Some (bucket_bound (nbuckets - 1))
        else
          let acc = acc + h.buckets.(i) in
          if acc >= rank then Some (bucket_bound i) else find (i + 1) acc
      in
      find 0 0

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let counters t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
    |> List.sort compare

  let histograms t =
    Hashtbl.fold (fun k h acc -> (k, (h.count, h.sum, h.max_)) :: acc) t.hists []
    |> List.sort compare

  let clear t =
    Hashtbl.reset t.counters;
    Hashtbl.reset t.hists
end

module Prof = struct
  (* Wall-clock engine profiler.  The clock is injected (the bench
     passes Unix.gettimeofday) because this library links no unix;
     minor-heap allocation comes from Gc.minor_words.  Attribution is
     per heap-entry label, so each dispatched event lands in exactly one
     handler class ("il", "tcp", "9p", "app", ...).  The measurement
     itself boxes a few floats per event; that constant overhead is
     attributed to the event being measured. *)
  type acc = {
    mutable a_events : int;
    mutable a_time : float;
    mutable a_words : float;
  }

  type t = {
    clock : unit -> float;
    layers : (string, acc) Hashtbl.t;
    mutable t0 : float;
    mutable w0 : float;
    mutable first : float;  (* wall time of the first dispatch, -1 if none *)
    mutable last : float;
    mutable events : int;
    mutable dispatch : float;  (* sum of per-event wall-clock deltas *)
    mutable words : float;  (* sum of per-event minor words *)
  }

  let create ~clock () =
    {
      clock;
      layers = Hashtbl.create 17;
      t0 = 0.;
      w0 = 0.;
      first = -1.;
      last = -1.;
      events = 0;
      dispatch = 0.;
      words = 0.;
    }

  let reset p =
    Hashtbl.reset p.layers;
    p.first <- -1.;
    p.last <- -1.;
    p.events <- 0;
    p.dispatch <- 0.;
    p.words <- 0.

  let begin_event p =
    let t = p.clock () in
    if p.first < 0. then p.first <- t;
    p.t0 <- t;
    p.w0 <- Gc.minor_words ()

  let end_event p label =
    let t1 = p.clock () in
    let dw = Gc.minor_words () -. p.w0 in
    let dt = t1 -. p.t0 in
    p.last <- t1;
    p.events <- p.events + 1;
    p.dispatch <- p.dispatch +. dt;
    p.words <- p.words +. dw;
    let a =
      match Hashtbl.find_opt p.layers label with
      | Some a -> a
      | None ->
        let a = { a_events = 0; a_time = 0.; a_words = 0. } in
        Hashtbl.replace p.layers label a;
        a
    in
    a.a_events <- a.a_events + 1;
    a.a_time <- a.a_time +. dt;
    a.a_words <- a.a_words +. dw

  type layer = {
    l_label : string;
    l_events : int;
    l_share : float;  (* of total dispatch time; event share if time ~ 0 *)
    l_time_s : float;
    l_words_per_event : float;
  }

  type report = {
    r_events : int;
    r_wall_s : float;  (* first dispatch begin to last dispatch end *)
    r_dispatch_s : float;
    r_events_per_sec : float;
    r_minor_words : float;
    r_minor_words_per_event : float;
    r_layers : layer list;  (* ascending by label *)
  }

  let report p =
    let wall = if p.first < 0. then 0. else p.last -. p.first in
    let fev = float_of_int p.events in
    (* a clock too coarse to see any dispatch falls back to event-count
       shares, so shares always sum to ~1.0 when any event ran *)
    let use_counts = p.dispatch <= 0. in
    let layers =
      Hashtbl.fold (fun k a acc -> (k, a) :: acc) p.layers []
      |> List.map (fun (k, a) ->
             {
               l_label = k;
               l_events = a.a_events;
               l_share =
                 (if use_counts then
                    if p.events = 0 then 0. else float_of_int a.a_events /. fev
                  else a.a_time /. p.dispatch);
               l_time_s = a.a_time;
               l_words_per_event =
                 (if a.a_events = 0 then 0.
                  else a.a_words /. float_of_int a.a_events);
             })
      |> List.sort (fun x y -> compare x.l_label y.l_label)
    in
    {
      r_events = p.events;
      r_wall_s = wall;
      r_dispatch_s = p.dispatch;
      r_events_per_sec = (if wall > 0. then fev /. wall else 0.);
      r_minor_words = p.words;
      r_minor_words_per_event = (if p.events = 0 then 0. else p.words /. fev);
      r_layers = layers;
    }

  let report_json r =
    let b = Buffer.create 512 in
    Printf.bprintf b
      "{\"events\": %d, \"wall_s\": %.6f, \"dispatch_s\": %.6f, \
       \"events_per_sec\": %.1f, \"minor_words\": %.0f, \
       \"minor_words_per_event\": %.1f, \"share_sum\": %.4f, \"layers\": ["
      r.r_events r.r_wall_s r.r_dispatch_s r.r_events_per_sec r.r_minor_words
      r.r_minor_words_per_event
      (List.fold_left (fun s l -> s +. l.l_share) 0. r.r_layers);
    List.iteri
      (fun i l ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b
          "{\"layer\": \"%s\", \"events\": %d, \"share\": %.4f, \
           \"words_per_event\": %.1f}"
          l.l_label l.l_events l.l_share l.l_words_per_event)
      r.r_layers;
    Buffer.add_string b "]}";
    Buffer.contents b

  let to_json p = report_json (report p)
end

module Series = struct
  (* A bounded ring of periodic counter snapshots — the data behind
     /net/metrics.  Purely virtual-time: [ts] comes from the caller. *)
  type t = {
    cap : int;
    src : Metrics.t;
    mutable samples : (float * (string * int) list) list;  (* newest first *)
  }

  let create ?(capacity = 128) src =
    { cap = max 1 capacity; src; samples = [] }

  let sample t ts =
    let rec take n = function
      | [] -> []
      | x :: r -> if n <= 0 then [] else x :: take (n - 1) r
    in
    t.samples <- take t.cap ((ts, Metrics.counters t.src) :: t.samples)

  let count t = List.length t.samples
  let samples t = List.rev t.samples
  let clear t = t.samples <- []

  let render ?live_ts t =
    let buf = Buffer.create 1024 in
    let one (ts, vals) =
      List.iter (fun (k, v) -> Printf.bprintf buf "%s %d %.6f\n" k v ts) vals
    in
    List.iter one (List.rev t.samples);
    (match live_ts with
    | Some ts when t.samples = [] -> one (ts, Metrics.counters t.src)
    | _ -> ());
    Buffer.contents buf
end

module Trace = struct
  type entry = { e_t : float; e_seq : int; e_ev : Event.t }

  (* an open span: pushed by [span_enter], popped by [span_exit] or
     closed as an orphan at engine drain *)
  type frame = {
    fr_span : int;
    fr_trace : int;
    fr_parent : int;
    fr_scope : int;
    fr_name : string;
    fr_layer : string;
  }

  type t = {
    capacity : int;
    mutable ring : entry option array;
    mutable next : int;  (* ring slot for the next event *)
    mutable nseq : int;  (* events ever emitted *)
    mutable clock : unit -> float;
    mutable scope_fn : unit -> int;
        (* ambient span scope: the engine installs "current proc pid,
           else 0", so each simulated process carries its own stack *)
    metrics : Metrics.t;
    mutable taps : (float -> Event.t -> unit) list;
    mutable next_span : int;
    mutable next_trace : int;
    open_spans : (int, frame) Hashtbl.t;  (* span id -> frame *)
    stacks : (int, int list) Hashtbl.t;  (* scope -> open spans, top first *)
  }

  let create ?(capacity = 65536) () =
    {
      capacity = max 16 capacity;
      ring = Array.make (max 16 capacity) None;
      next = 0;
      nseq = 0;
      clock = (fun () -> 0.);
      scope_fn = (fun () -> 0);
      metrics = Metrics.create ();
      taps = [];
      next_span = 0;
      next_trace = 0;
      open_spans = Hashtbl.create 31;
      stacks = Hashtbl.create 7;
    }

  let set_clock t fn = t.clock <- fn
  let set_scope t fn = t.scope_fn <- fn
  let now t = t.clock ()
  let metrics t = t.metrics
  let bump t name n = Metrics.bump t.metrics name n
  let observe t name v = Metrics.observe t.metrics name v
  let add_tap t fn = t.taps <- t.taps @ [ fn ]
  let seq t = t.nseq
  let dropped t = max 0 (t.nseq - t.capacity)

  let emit t ev =
    let time = t.clock () in
    t.ring.(t.next) <- Some { e_t = time; e_seq = t.nseq; e_ev = ev };
    t.next <- (t.next + 1) mod t.capacity;
    t.nseq <- t.nseq + 1;
    List.iter (fun tap -> tap time ev) t.taps

  let note t ~sub msg = emit t (Event.Note { sub; msg })

  (* ---- causal spans ---- *)

  let span_enter t ?(layer = "app") name =
    let scope = t.scope_fn () in
    t.next_span <- t.next_span + 1;
    let span = t.next_span in
    let stack =
      match Hashtbl.find_opt t.stacks scope with Some s -> s | None -> []
    in
    let parent, trace =
      match stack with
      | p :: _ when Hashtbl.mem t.open_spans p ->
        (p, (Hashtbl.find t.open_spans p).fr_trace)
      | _ ->
        t.next_trace <- t.next_trace + 1;
        (0, t.next_trace)
    in
    Hashtbl.replace t.open_spans span
      { fr_span = span; fr_trace = trace; fr_parent = parent; fr_scope = scope;
        fr_name = name; fr_layer = layer };
    Hashtbl.replace t.stacks scope (span :: stack);
    emit t (Event.Span_begin { name; layer; trace; span; parent; scope });
    span

  let span_close t fr ~orphan =
    Hashtbl.remove t.open_spans fr.fr_span;
    emit t
      (Event.Span_end
         { name = fr.fr_name; layer = fr.fr_layer; trace = fr.fr_trace;
           span = fr.fr_span; scope = fr.fr_scope; orphan })

  let span_exit t h =
    if h <> 0 then
      match Hashtbl.find_opt t.open_spans h with
      | None -> ()  (* already closed (double exit or drain) *)
      | Some fr ->
        let scope = fr.fr_scope in
        let stack =
          match Hashtbl.find_opt t.stacks scope with Some s -> s | None -> []
        in
        (* children left open above [h] end first (as orphans), keeping
           the begin/end bracketing well-nested per scope *)
        let rec pop = function
          | [] -> []
          | s :: rest ->
            (match Hashtbl.find_opt t.open_spans s with
            | Some sfr -> span_close t sfr ~orphan:(s <> h)
            | None -> ());
            if s = h then rest else pop rest
        in
        if List.mem h stack then Hashtbl.replace t.stacks scope (pop stack)
        else span_close t fr ~orphan:false

  let span_current t =
    match Hashtbl.find_opt t.stacks (t.scope_fn ()) with
    | Some (s :: _) -> s
    | Some [] | None -> 0

  let span_open_count t = Hashtbl.length t.open_spans

  let span_opens t =
    Hashtbl.fold (fun _ fr acc -> fr :: acc) t.open_spans []
    |> List.sort (fun a b -> compare a.fr_span b.fr_span)
    |> List.map (fun fr ->
           (fr.fr_span, fr.fr_layer, fr.fr_name, fr.fr_trace, fr.fr_scope))

  let span_drain t =
    (* close every open span, innermost first per scope, in scope order
       (deterministic given a deterministic run) *)
    let scopes =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.stacks [] |> List.sort compare
    in
    List.iter
      (fun scope ->
        (match Hashtbl.find_opt t.stacks scope with
        | None -> ()
        | Some stack ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt t.open_spans s with
              | Some fr -> span_close t fr ~orphan:true
              | None -> ())
            stack);
        Hashtbl.remove t.stacks scope)
      scopes

  let clear t =
    Array.fill t.ring 0 t.capacity None;
    t.next <- 0;
    t.nseq <- 0;
    t.next_span <- 0;
    t.next_trace <- 0;
    Hashtbl.reset t.open_spans;
    Hashtbl.reset t.stacks;
    Metrics.clear t.metrics

  let events t =
    (* oldest live entry first: walk the ring from [next] *)
    let acc = ref [] in
    for i = t.capacity - 1 downto 0 do
      match t.ring.((t.next + i) mod t.capacity) with
      | Some e -> acc := (e.e_t, e.e_seq, e.e_ev) :: !acc
      | None -> ()
    done;
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) !acc

  let span_tree ?trace t =
    let buf = Buffer.create 256 in
    let depth = Hashtbl.create 17 in
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Span_begin { name; layer; trace = tr; span; parent; _ }
          when (match trace with None -> true | Some want -> want = tr) ->
          let d =
            match Hashtbl.find_opt depth parent with
            | Some d -> d + 1
            | None -> 0
          in
          Hashtbl.replace depth span d;
          Printf.bprintf buf "%s[%s] %s\n" (String.make (2 * d) ' ') layer name
        | _ -> ())
      (events t);
    Buffer.contents buf

  let render ?(limit = 100) t =
    let evs = events t in
    let n = List.length evs in
    let evs =
      if n <= limit then evs
      else
        (* keep the newest [limit] *)
        List.filteri (fun i _ -> i >= n - limit) evs
    in
    let buf = Buffer.create 4096 in
    List.iter
      (fun (time, _, ev) ->
        Buffer.add_string buf
          (Printf.sprintf "%.6f %s\n" time (Event.render ev)))
      evs;
    Buffer.contents buf

  (* ---- exporters ---- *)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_chrome_json t =
    (* Chrome trace_event format, virtual microseconds.  Instant events
       stay on tid 1; spans become B/E duration pairs on a per-scope tid
       (scope + 2, so process 1's spans land on tid 3), which is what
       makes them nest correctly in the viewer.  Deterministic by
       construction. *)
    let buf = Buffer.create 16384 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let args_json sq args =
      String.concat ","
        (Printf.sprintf "\"seq\":%d" sq
        :: List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
             args)
    in
    List.iter
      (fun (time, sq, ev) ->
        if !first then first := false else Buffer.add_char buf ',';
        (match ev with
        | Event.Span_begin { name; scope; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
               (json_escape name) (time *. 1e6) (scope + 2))
        | Event.Span_end { name; scope; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
               (json_escape name) (time *. 1e6) (scope + 2))
        | ev ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
               (json_escape (Event.label ev))
               (time *. 1e6)));
        Buffer.add_string buf (args_json sq (Event.args ev));
        Buffer.add_string buf "}}")
      (events t);
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let counters_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{";
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_string buf ", " in
    List.iter
      (fun (k, v) ->
        sep ();
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape k) v))
      (Metrics.counters t.metrics);
    List.iter
      (fun (k, (count, sum, mx)) ->
        sep ();
        let q p =
          match Metrics.quantile t.metrics k p with Some v -> v | None -> 0.
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum_ms\": %.6f, \"max_ms\": %.6f, \
              \"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f}"
             (json_escape k) count (sum *. 1e3) (mx *. 1e3)
             (q 0.50 *. 1e3) (q 0.95 *. 1e3) (q 0.99 *. 1e3)))
      (Metrics.histograms t.metrics);
    Buffer.add_string buf "}";
    Buffer.contents buf
end

module Span = struct
  (* Thin facade over the span machinery living inside Trace (it needs
     the ring and the scope hook).  A handle is just the span id; 0 is
     "no span", so disabled-sink call sites can thread an int through
     without allocating. *)
  type h = int

  let none = 0
  let enter = Trace.span_enter
  let exit = Trace.span_exit
  let current = Trace.span_current
  let drain = Trace.span_drain
  let open_count = Trace.span_open_count
  let opens = Trace.span_opens
  let tree = Trace.span_tree
end

module Snoopy = struct
  (* Pure wire-byte parsing: keep this independent of the protocol
     stacks so a tap can decode frames even from code it has never
     linked against. *)

  let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
  let get32 s off = (get16 s off lsl 16) lor get16 s (off + 2)

  let ipstr s off =
    Printf.sprintf "%d.%d.%d.%d" (Char.code s.[off])
      (Char.code s.[off + 1])
      (Char.code s.[off + 2])
      (Char.code s.[off + 3])

  let eastr s off =
    String.concat ""
      (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code s.[off + i])))

  let il_type = function
    | 0 -> "sync"
    | 1 -> "data"
    | 2 -> "dataquery"
    | 3 -> "ack"
    | 4 -> "query"
    | 5 -> "state"
    | 6 -> "close"
    | 7 -> "reset"
    | n -> Printf.sprintf "type%d" n

  let tcp_flags f =
    let names =
      [ (1, "fin"); (2, "syn"); (4, "rst"); (8, "psh"); (16, "ack") ]
    in
    match List.filter_map (fun (b, n) -> if f land b <> 0 then Some n else None) names with
    | [] -> "none"
    | fs -> String.concat "+" fs

  (* ---- 9P (Styx) message decoding ----
     The wire format is little-endian: 1-byte type code (T even in
     50..82, R = T+1, Rerror = 59), 2-byte tag, then fixed-width fields
     (28-byte NUL-padded names, 64-byte errors) and 2-byte-counted
     strings.  We only claim a decode when the bytes are internally
     consistent and the length is exact, so random payloads don't
     produce false positives. *)

  let le16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
  let le32 s off = le16 s off lor (le16 s (off + 2) lsl 16)
  let le64 s off = le32 s off lor (le32 s (off + 4) lsl 32)

  let styx_name s off =
    let rec len i = if i < 28 && s.[off + i] <> '\000' then len (i + 1) else i in
    String.sub s off (len 0)

  let styx_err s off =
    let rec len i = if i < 64 && s.[off + i] <> '\000' then len (i + 1) else i in
    String.sub s off (len 0)

  let render_ninep p =
    let len = String.length p in
    if len < 3 then None
    else
      let code = Char.code p.[0] in
      if code < 50 || code > 83 then None
      else
        let tag = le16 p 1 in
        let o = 3 in
        (* exact-length check for fixed-layout messages *)
        let fixed n s = if len = o + n then Some s else None in
        let qid off = Printf.sprintf "qid=(%d,%d)" (le32 p off) (le32 p (off + 4)) in
        let str2_len off =
          (* total remaining length must be exactly 2 + count *)
          if len < off + 2 then None
          else
            let n = le16 p off in
            if len = off + 2 + n then Some n else None
        in
        try
          match code with
          | 50 -> fixed 0 (Printf.sprintf "Tnop tag=%d" tag)
          | 51 -> fixed 0 (Printf.sprintf "Rnop tag=%d" tag)
          | 52 ->
            Option.map
              (fun n ->
                Printf.sprintf "Tauth tag=%d afid=%d uname=%s ticket[%d]" tag
                  (le16 p o) (styx_name p (o + 2)) n)
              (str2_len (o + 2 + 28))
          | 53 ->
            Option.map
              (fun n ->
                Printf.sprintf "Rauth tag=%d afid=%d ticket[%d]" tag (le16 p o) n)
              (str2_len (o + 2))
          | 54 ->
            Option.map
              (fun n -> Printf.sprintf "Tsession tag=%d chal[%d]" tag n)
              (str2_len o)
          | 55 ->
            Option.map
              (fun n -> Printf.sprintf "Rsession tag=%d chal[%d]" tag n)
              (str2_len o)
          | 56 ->
            fixed (2 + 28 + 28)
              (Printf.sprintf "Tattach tag=%d fid=%d uname=%s aname=%s" tag
                 (le16 p o) (styx_name p (o + 2)) (styx_name p (o + 30)))
          | 57 ->
            fixed 10
              (Printf.sprintf "Rattach tag=%d fid=%d %s" tag (le16 p o)
                 (qid (o + 2)))
          | 59 ->
            fixed 64 (Printf.sprintf "Rerror tag=%d %s" tag (styx_err p o))
          | 60 ->
            fixed 4
              (Printf.sprintf "Tclone tag=%d fid=%d newfid=%d" tag (le16 p o)
                 (le16 p (o + 2)))
          | 61 -> fixed 2 (Printf.sprintf "Rclone tag=%d fid=%d" tag (le16 p o))
          | 62 ->
            fixed (2 + 28)
              (Printf.sprintf "Twalk tag=%d fid=%d name=%s" tag (le16 p o)
                 (styx_name p (o + 2)))
          | 63 ->
            fixed 10
              (Printf.sprintf "Rwalk tag=%d fid=%d %s" tag (le16 p o)
                 (qid (o + 2)))
          | 64 ->
            fixed (4 + 28)
              (Printf.sprintf "Tclwalk tag=%d fid=%d newfid=%d name=%s" tag
                 (le16 p o) (le16 p (o + 2)) (styx_name p (o + 4)))
          | 65 ->
            fixed 10
              (Printf.sprintf "Rclwalk tag=%d newfid=%d %s" tag (le16 p o)
                 (qid (o + 2)))
          | 66 ->
            fixed 3
              (Printf.sprintf "Topen tag=%d fid=%d mode=%d" tag (le16 p o)
                 (Char.code p.[o + 2]))
          | 67 ->
            fixed 10
              (Printf.sprintf "Ropen tag=%d fid=%d %s" tag (le16 p o)
                 (qid (o + 2)))
          | 68 ->
            fixed (2 + 28 + 4 + 1)
              (Printf.sprintf "Tcreate tag=%d fid=%d name=%s perm=%o mode=%d"
                 tag (le16 p o) (styx_name p (o + 2)) (le32 p (o + 30))
                 (Char.code p.[o + 34]))
          | 69 ->
            fixed 10
              (Printf.sprintf "Rcreate tag=%d fid=%d %s" tag (le16 p o)
                 (qid (o + 2)))
          | 70 ->
            fixed 12
              (Printf.sprintf "Tread tag=%d fid=%d offset=%d count=%d" tag
                 (le16 p o) (le64 p (o + 2)) (le16 p (o + 10)))
          | 71 ->
            Option.map
              (fun n -> Printf.sprintf "Rread tag=%d count=%d" tag n)
              (str2_len o)
          | 72 ->
            Option.map
              (fun n ->
                Printf.sprintf "Twrite tag=%d fid=%d offset=%d count=%d" tag
                  (le16 p o) (le64 p (o + 2)) n)
              (str2_len (o + 10))
          | 73 -> fixed 2 (Printf.sprintf "Rwrite tag=%d count=%d" tag (le16 p o))
          | 74 -> fixed 2 (Printf.sprintf "Tclunk tag=%d fid=%d" tag (le16 p o))
          | 75 -> fixed 2 (Printf.sprintf "Rclunk tag=%d fid=%d" tag (le16 p o))
          | 76 -> fixed 2 (Printf.sprintf "Tremove tag=%d fid=%d" tag (le16 p o))
          | 77 -> fixed 2 (Printf.sprintf "Rremove tag=%d fid=%d" tag (le16 p o))
          | 78 -> fixed 2 (Printf.sprintf "Tstat tag=%d fid=%d" tag (le16 p o))
          | 79 ->
            fixed 116
              (Printf.sprintf "Rstat tag=%d name=%s" tag (styx_name p o))
          | 80 ->
            fixed (2 + 116)
              (Printf.sprintf "Twstat tag=%d fid=%d name=%s" tag (le16 p o)
                 (styx_name p (o + 2)))
          | 81 -> fixed 2 (Printf.sprintf "Rwstat tag=%d fid=%d" tag (le16 p o))
          | 82 ->
            fixed 2 (Printf.sprintf "Tflush tag=%d oldtag=%d" tag (le16 p o))
          | 83 -> fixed 0 (Printf.sprintf "Rflush tag=%d" tag)
          | _ -> None
        with Invalid_argument _ -> None

  let with_ninep base payload =
    match render_ninep payload with
    | Some s -> base ^ " 9p(" ^ s ^ ")"
    | None -> base

  let render_arp p =
    if String.length p < 28 then "arp runt"
    else
      let op = get16 p 6 in
      let spa = ipstr p 14 and tpa = ipstr p 24 in
      match op with
      | 1 -> Printf.sprintf "arp who-has %s tell %s" tpa spa
      | 2 -> Printf.sprintf "arp %s is-at %s" spa (eastr p 8)
      | n -> Printf.sprintf "arp op%d %s > %s" n spa tpa

  let render_il p =
    if String.length p < 18 then "il runt"
    else
      let base =
        Printf.sprintf "il %s %d>%d id %d ack %d len %d"
          (il_type (Char.code p.[4]))
          (get16 p 6) (get16 p 8) (get32 p 10) (get32 p 14)
          (String.length p - 18)
      in
      let ty = Char.code p.[4] in
      if (ty = 1 || ty = 2) && String.length p > 18 then
        with_ninep base (String.sub p 18 (String.length p - 18))
      else base

  let render_udp p =
    if String.length p < 8 then "udp runt"
    else
      Printf.sprintf "udp %d>%d len %d" (get16 p 0) (get16 p 2)
        (String.length p - 8)

  let render_tcp p =
    if String.length p < 20 then "tcp runt"
    else
      let off = ((get16 p 12) lsr 12) * 4 in
      let base =
        Printf.sprintf "tcp %s %d>%d seq %d ack %d len %d"
          (tcp_flags (get16 p 12 land 0x3f))
          (get16 p 0) (get16 p 2) (get32 p 4) (get32 p 8)
          (max 0 (String.length p - off))
      in
      if off >= 20 && String.length p > off then
        with_ninep base (String.sub p off (String.length p - off))
      else base

  let ip_payload p =
    (* (frag_off, inner rendering) for a well-formed 20-byte header *)
    let proto = Char.code p.[9] in
    let frag_off = (get16 p 6 land 0x1fff) * 8 in
    let body = String.sub p 20 (String.length p - 20) in
    let inner =
      if frag_off > 0 then
        Printf.sprintf "frag off %d proto %d len %d" frag_off proto
          (String.length body)
      else
        match proto with
        | 40 -> render_il body
        | 17 -> render_udp body
        | 6 -> render_tcp body
        | n -> Printf.sprintf "proto %d len %d" n (String.length body)
    in
    inner

  let render_ip p =
    if String.length p < 20 || Char.code p.[0] <> 0x45 then "ip runt"
    else
      Printf.sprintf "ip(%s > %s) %s" (ipstr p 12) (ipstr p 16) (ip_payload p)

  let render_frame ~time ~src ~dst ~etype payload =
    let body =
      match etype with
      | 0x0806 -> render_arp payload
      | 0x0800 -> render_ip payload
      | n -> Printf.sprintf "type %d len %d" n (String.length payload)
    in
    Printf.sprintf "%.6f ether(%s > %s) %s" time src dst body

  let frame_proto ~etype payload =
    match etype with
    | 0x0806 -> "arp"
    | 0x0800 ->
      if String.length payload < 20 || Char.code payload.[0] <> 0x45 then "ip"
      else if (get16 payload 6 land 0x1fff) <> 0 then "ip"
      else (
        match Char.code payload.[9] with
        | 40 -> "il"
        | 17 -> "udp"
        | 6 -> "tcp"
        | _ -> "ip")
    | _ -> "ether"
end
