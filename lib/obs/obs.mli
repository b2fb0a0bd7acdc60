(** Kernel-wide observability: structured tracing, metrics, exporters.

    The paper's authors debugged and measured their networks through
    the file system — [cat /net/tcp/2/status] — because protocol state
    was always on display.  This module is the substrate that makes the
    same possible here: a zero-dependency trace core that every layer
    (scheduler, blocks, streams, media, protocols, 9P) emits typed
    events into, plus named counters and latency histograms.

    Design rules:

    - {e Deterministic}: a trace never reads the wall clock.  Timestamps
      come from a [clock] callback installed by the simulation engine
      ({!Sim.Engine.attach_obs}), so two runs with the same seed produce
      byte-identical trace files.
    - {e Zero-cost when disabled}: instrumented code guards every
      emission with a single [match engine-sink with None -> ()] — no
      event is allocated unless a sink is installed.
    - {e Bounded}: events land in a ring buffer; old events are
      overwritten, never grown without bound.  [dropped] counts the
      overwritten ones. *)

module Event : sig
  type dir = Up | Down
  (** Direction through a stream: [Up] toward the process, [Down]
      toward the device. *)

  type proc_phase = Spawn | Block | Wake | Exit | Crash

  type packet_op =
    | Tx
    | Rx
    | Drop of string  (** reason, e.g. ["crc"], ["overflow"] *)

  type t =
    | Proc of { name : string; phase : proc_phase }
        (** scheduler: process lifecycle and blocking *)
    | Cpu of { queued : float; busy : float }
        (** a host CPU occupancy: time spent waiting behind earlier
            work, then time occupied *)
    | Blk of { op : [ `Alloc | `Free ]; bytes : int }
        (** a block entering / leaving a stream queue *)
    | Stream of { dev : string; dir : dir; bytes : int; delim : bool }
        (** a block through a stream's put chain *)
    | Flow of { dev : string; stalled : bool; qbytes : int }
        (** flow control: a writer blocking on ([stalled]) or being
            released from ([not stalled]) a full queue *)
    | Packet of {
        medium : string;
        op : packet_op;
        src : string;
        dst : string;
        proto : string;  (** "ip", "arp", "urp", ... *)
        bytes : int;
      }  (** wire events on a simulated medium *)
    | Proto_state of { proto : string; conv : int; from_ : string; to_ : string }
        (** a protocol conversation changing state *)
    | Fault of {
        medium : string;
        kind : string;  (** ["drop"], ["dup"], ["reorder"], ["partition"] *)
        reason : string;  (** schedule detail, e.g. ["burst"], ["filter"] *)
        src : string;
        dst : string;
        proto : string;
        bytes : int;
      }
        (** an injected fault on a simulated medium — every drop,
            duplicate, reorder, or partition discard that the
            fault-injection layer performs funnels through exactly one
            of these, so taps can attribute adverse events (and counters
            [fault.drop] etc. total them) *)
    | Retransmit of { proto : string; conv : int; id : int; bytes : int }
    | Checksum_err of { proto : string }
    | Fcall of { role : [ `T | `R ]; tag : int; msg : string; latency : float }
        (** a 9P message; [latency] is request-to-reply seconds, [0.]
            on the request side *)
    | Span_begin of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        parent : int;  (** 0 for a root span *)
        scope : int;  (** the process (pid) whose ambient stack holds it *)
      }  (** a causal span opening — see {!Span} *)
    | Span_end of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        scope : int;
        orphan : bool;
            (** [true] when the span was force-closed: left open at
                engine drain (its operation never completed — the
                signature of a lost wakeup) or closed implicitly by a
                parent exiting first *)
      }
    | Note of { sub : string; msg : string }
        (** free-form, shows up in /net/log *)

  val label : t -> string
  (** Short dotted name, e.g. ["pkt.tx"], ["proto.state"]. *)

  val render : t -> string
  (** One human-readable line (no timestamp). *)

  val args : t -> (string * string) list
  (** Key/value detail for structured exporters. *)
end

module Metrics : sig
  type t
  (** Named monotonic counters plus log-bucketed latency histograms. *)

  val create : unit -> t
  val bump : t -> string -> int -> unit

  val observe : t -> string -> float -> unit
  (** Record one sample (seconds) into the named histogram. *)

  val counter : t -> string -> int
  (** 0 when never bumped. *)

  val counters : t -> (string * int) list
  (** Sorted by name. *)

  val histograms : t -> (string * (int * float * float)) list
  (** name -> (count, sum, max), sorted by name. *)

  val quantile : t -> string -> float -> float option
  (** [quantile t name q] for [q] in [0..1] — the upper bound (seconds)
      of the log-scale bucket holding the rank-[ceil(q*count)] sample.
      Buckets double from 1 microsecond, so the answer is deterministic
      and at most 2x pessimistic.  [None] for an empty histogram. *)

  val clear : t -> unit
end

module Prof : sig
  (** Wall-clock engine profiler.  {!Sim.Engine.attach_prof} brackets
      every event dispatch with {!begin_event}/{!end_event}, attributing
      real elapsed time and minor-heap allocation to the event's handler
      class ("il", "tcp", "9p", "app", ...).  The clock is injected
      because this library links no unix — pass [Unix.gettimeofday].
      Unlike everything else in [Obs], reports are {e not}
      deterministic: they read the machine's clock by design. *)

  type t

  val create : clock:(unit -> float) -> unit -> t
  val begin_event : t -> unit

  val end_event : t -> string -> unit
  (** Close the open measurement and attribute it to the label. *)

  val reset : t -> unit

  type layer = {
    l_label : string;
    l_events : int;
    l_share : float;
        (** of total dispatch time; falls back to the event-count share
            when the clock was too coarse to measure any time, so
            shares always sum to ~1.0 once any event ran *)
    l_time_s : float;
    l_words_per_event : float;  (** minor-heap words per event *)
  }

  type report = {
    r_events : int;
    r_wall_s : float;  (** first dispatch begin to last dispatch end *)
    r_dispatch_s : float;  (** sum of per-event deltas *)
    r_events_per_sec : float;  (** events / wall_s *)
    r_minor_words : float;
    r_minor_words_per_event : float;
    r_layers : layer list;
        (** ascending by label, so identical runs list the same layers
            in the same order whatever the wall clock measured *)
  }

  val report : t -> report

  val report_json : report -> string
  (** One-line JSON object — the [perf] member of the bench files. *)

  val to_json : t -> string
  (** [report_json (report t)]. *)
end

module Series : sig
  (** A bounded ring of periodic counter snapshots — the data behind
      [/net/metrics].  Sampling is driven by the caller (a virtual-time
      ticker), so the series is as deterministic as the counters. *)

  type t

  val create : ?capacity:int -> Metrics.t -> t
  (** [capacity] (default 128) bounds the ring of samples. *)

  val sample : t -> float -> unit
  (** Snapshot every counter at virtual time [ts]; the oldest sample
      falls off when the ring is full. *)

  val count : t -> int

  val samples : t -> (float * (string * int) list) list
  (** Oldest first. *)

  val clear : t -> unit

  val render : ?live_ts:float -> t -> string
  (** Prometheus-style exposition, one [name value ts] line per counter
      per sample, oldest sample first.  With [live_ts] and no stored
      samples, renders one unsaved snapshot at that time instead, so a
      bare read is never empty while counters exist. *)
end

module Trace : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 65536) bounds the event ring. *)

  val set_clock : t -> (unit -> float) -> unit
  (** Install the virtual-time source.  {!Sim.Engine.attach_obs} does
      this; traces must never read the wall clock. *)

  val set_scope : t -> (unit -> int) -> unit
  (** Install the ambient span-scope source — "which process is
      running" (0 outside any).  {!Sim.Engine.attach_obs} installs the
      current pid, giving each simulated process its own span stack so
      concurrent operations cannot corrupt each other's nesting. *)

  val now : t -> float

  val emit : t -> Event.t -> unit
  (** Stamp with the clock, append to the ring, feed the taps. *)

  val note : t -> sub:string -> string -> unit
  (** [emit] of an {!Event.Note}. *)

  val bump : t -> string -> int -> unit
  (** Convenience for [Metrics.bump (metrics t)]. *)

  val observe : t -> string -> float -> unit
  val metrics : t -> Metrics.t

  val add_tap : t -> (float -> Event.t -> unit) -> unit
  (** Live subscriber, called synchronously on every emit — how the
      snoopy tap and /net/log follow a running world. *)

  val events : t -> (float * int * Event.t) list
  (** (time, sequence, event), oldest first; at most [capacity]. *)

  val seq : t -> int
  (** Events emitted over the trace's lifetime. *)

  val dropped : t -> int
  (** Events overwritten by ring wrap-around. *)

  val clear : t -> unit
  (** Empty the ring and the metrics (taps and clock stay). *)

  val render : ?limit:int -> t -> string
  (** Newest [limit] (default 100) events as text lines, oldest first —
      the contents of [/net/log]. *)

  val to_chrome_json : t -> string
  (** The full ring as a Chrome [trace_event] JSON document (load in
      chrome://tracing or Perfetto).  Instant events ride on tid 1;
      spans become nested B/E duration pairs on a per-scope tid.
      Deterministic: depends only on the recorded events. *)

  val counters_json : t -> string
  (** Flat JSON object of all counters and histogram summaries
      (count / sum / max plus p50/p95/p99 quantiles, milliseconds). *)
end

module Span : sig
  (** Causal span tracing: the "where did this dial's 900 virtual ms
      go" half of observability.  A span is an interval with a name, a
      layer, and a parent; parents propagate ambiently through the
      per-process stack (installed by {!Trace.set_scope}), so one
      [dial] yields a single trace covering CS lookup, the transport
      handshake, the 9P attach and the cfs fills without threading a
      context argument through every call.

      Ids are small serials assigned in emission order under the
      engine's deterministic schedule, so same-seed runs produce
      byte-identical span ids.  A handle is an [int] and "no span" is
      [0]: disabled-sink call sites ([match Engine.obs with None -> 0])
      allocate nothing. *)

  type h = int
  (** A span handle; [none] when no sink is attached. *)

  val none : h

  val enter : Trace.t -> ?layer:string -> string -> h
  (** Open a span under the current scope's innermost open span (a new
      trace when the stack is empty) and emit {!Event.Span_begin}.
      [layer] defaults to ["app"]. *)

  val exit : Trace.t -> h -> unit
  (** Close the span, emitting {!Event.Span_end}.  Children still open
      above it are force-closed first (marked orphan) so the bracketing
      stays well-nested.  [exit tr none] and double exits are no-ops. *)

  val current : Trace.t -> h
  (** The innermost open span of the current scope, or [none]. *)

  val drain : Trace.t -> unit
  (** Force-close every open span as an orphan — {!Sim.Engine.run}
      calls this when the event queue empties, so an operation blocked
      forever still closes its spans and names itself in the trace. *)

  val open_count : Trace.t -> int

  val opens : Trace.t -> (int * string * string * int * int) list
  (** Currently open spans as [(span, layer, name, trace, scope)],
      oldest first. *)

  val tree : ?trace:int -> Trace.t -> string
  (** Render the recorded span begins as an indented tree (optionally
      only the given trace id) — the golden-file shape for nesting
      tests. *)
end

module Snoopy : sig
  (** Promiscuous-tap frame rendering, after Plan 9's [snoopy]: parses
      raw Ethernet payloads (ARP, IP carrying IL / UDP / TCP) straight
      from the wire bytes and prints one line per frame.  Pure string
      parsing — usable on any captured frame without the protocol
      stacks. *)

  val render_frame :
    time:float -> src:string -> dst:string -> etype:int -> string -> string
  (** [render_frame ~time ~src ~dst ~etype payload] where [src]/[dst]
      are 12-hex-digit Ethernet addresses.  E.g.
      {v
      0.000125 ether(080069020001 > ffffffffffff) arp who-has 10.0.0.2 tell 10.0.0.1
      0.004210 ether(080069020001 > 080069020002) ip(10.0.0.1 > 10.0.0.2) il data 5012>9999 id 7 ack 3 len 1000
      v} *)

  val frame_proto : etype:int -> string -> string
  (** The innermost protocol name the renderer identified: ["arp"],
      ["il"], ["udp"], ["tcp"], ["ip"], or ["ether"]. *)

  val render_ninep : string -> string option
  (** Decode one 9P (Styx) message from raw bytes, e.g.
      ["Tread tag=1 fid=2 offset=0 count=8192"].  [None] unless the
      bytes are a complete, internally consistent message — transport
      payloads that merely resemble 9P are rejected by the exact-length
      check.  The IL and TCP renderers call this on their payloads, so
      snooped cfs/exportfs traffic prints decoded fcalls. *)
end
