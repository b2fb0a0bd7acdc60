(** A snoopy-style packet tap (paper section 2.2: the Ethernet driver's
    "diagnostic interfaces for snooping software").

    [start] attaches a promiscuous station to a simulated Ethernet
    segment; every frame on the wire — whoever it was addressed to —
    is rendered to text by {!Obs.Snoopy} and appended to an in-memory
    capture.  The tap is passive: it never transmits, so it perturbs
    nothing, and rendering is pure string parsing so captures are
    byte-identical across same-seed runs. *)

type t

val start : ?addr:string -> Netsim.Ether.t -> t
(** Attach the tap to a segment.  [addr] is the tap's station address,
    by default ["feeddefaced0"] — chosen to collide with nothing a host
    would use.
    @raise Invalid_argument if [addr] is already on the segment. *)

val stop : t -> unit
(** Pause capture (frames pass uncounted). *)

val resume : t -> unit
val dump : t -> string
(** The capture so far, one line per frame, e.g.
    {v
    0.000125 ether(080069020001 > ffffffffffff) arp who-has 10.0.0.2 tell 10.0.0.1
    v} *)

val clear : t -> unit
val frames : t -> int
(** Frames captured since [start] (survives [clear]). *)

val proto_counts : t -> (string * int) list
(** Frames per innermost protocol ("arp", "il", "udp", ...), sorted. *)

val summary : t -> string
(** [proto_counts] as ["proto count\n"] lines. *)

val mount : Vfs.Env.t -> t -> unit
(** Serve the capture at [/net/snoop]: reading returns the rendered
    frames; writing [clear]/[stop]/[start] controls the tap and
    [stats] replies with {!summary}. *)
