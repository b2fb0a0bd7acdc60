(** Plan 9 streams (section 2.4 of the paper).

    A stream is a bidirectional channel connecting a device to user
    processes.  It comprises a linear list of processing modules; each
    module has an upstream (toward the process) and downstream (toward
    the device) put routine.  "In most cases the first put routine calls
    the second, the second calls the third, and so on until the data is
    output" — put routines here are plain function calls, so most data
    moves without a context switch, exactly as the paper describes.

    There is no implicit synchronization: modules must synchronize
    concurrent users themselves (in this cooperative simulation a put
    chain runs atomically until something blocks on a queue).

    The stream system intercepts control blocks whose first word is
    [push], [pop], or [hangup]; all other control blocks are passed to
    the modules, which parse the ones they recognize and forward the
    rest. *)

type stream
type slot
(** One instance of a processing module installed in a stream. *)

type module_impl = {
  mi_name : string;
  mi_close : slot -> unit;
  mi_uput : slot -> Block.t -> unit;
      (** a block arriving from below, travelling up *)
  mi_dput : slot -> Block.t -> unit;
      (** a block arriving from above, travelling down *)
}

type device = {
  dev_name : string;
  dev_dput : Block.t -> unit;  (** output: the module at the device end *)
  dev_close : unit -> unit;
}

val null_device : string -> device
(** Discards output; useful for tests. *)

val register_module : string -> (unit -> module_impl) -> unit
(** Make a module available to [push <name>].  The factory runs once
    per instance so closures can hold per-instance state.
    Re-registering a name replaces it. *)

val create : ?qlimit:int -> Sim.Engine.t -> device -> stream
(** A stream with no processing modules: writes go straight to the
    device, device input goes straight to the read queue.  [qlimit]
    bounds the top read queue in bytes (default 64 KiB). *)

val engine : stream -> Sim.Engine.t

(** {1 Process end} *)

val write : ?delim:bool -> stream -> string -> unit
(** Copy data into blocks and send them down the stream.  Writes of at
    most {!Block.max_atomic_write} bytes form a single block; larger
    writes are split, with only the final block delimited (when [delim],
    the default). *)

val write_ctl : stream -> string -> unit
(** Send one control block down the stream — what writing the [ctl]
    file does.  Blocks beginning [push]/[pop]/[hangup] are interpreted
    by the stream system. *)

val read : stream -> int -> string
(** Read up to [n] bytes from the top of the stream; stops at a
    delimiter boundary; [""] at end of stream. *)

val closed : stream -> bool

val close : stream -> unit
(** Process end going away: closes every module and the device.
    Idempotent. *)

(** {1 Configuration} *)

val push : stream -> string -> unit
(** Install the named module at the top of the stream.
    @raise Failure if the name is not registered. *)

val push_impl : stream -> module_impl -> unit
(** Install an anonymous module instance (protocols use this for their
    custom multiplexers — the paper: "We now code each multiplexer from
    scratch"). *)

val pop : stream -> unit
(** Remove the topmost module (no-op on a bare stream). *)

val modules : stream -> string list
(** Names of installed modules, top first. *)

val find_slot : stream -> string -> slot option
(** The topmost installed instance of the named module. *)

(** {1 Device end} *)

val input : stream -> Block.t -> unit
(** Inject a block at the device end, travelling up through the modules
    to the read queue.  Must be called from process context (a driver's
    kernel process), never from interrupt context, because it may block
    on the top queue. *)

val hangup : stream -> unit
(** Send a hangup up the stream from the device end: readers see end of
    stream after draining. *)

(** {1 Inside a module} *)

val pass_up : slot -> Block.t -> unit
(** Hand a block to the next module above (or the read queue). *)

val pass_down : slot -> Block.t -> unit
(** Hand a block to the next module below (or the device). *)

module Pipe : sig
  val create : ?qlimit:int -> Sim.Engine.t -> stream * stream
  (** An in-kernel pipe: two streams whose device ends feed each other.
      Used by Table 1's [pipes] row. *)
end

module Stdmods : sig
  (** Standard processing modules, registered by name so they can be
      pushed with [push <name>] control messages (paper section 2.4:
      "Plan 9 streams can be dynamically configured").

      - [frame]: marshals message boundaries over byte-stream devices —
        downstream writes get a 2-byte big-endian length prefix;
        upstream bytes are reassembled into delimited blocks.  This is
        the mechanism the paper alludes to for carrying 9P over
        transports that don't preserve delimiters.
      - [delim]: marks every downstream block as a message boundary.
      - [count]: transparent; counts blocks and bytes each way,
        readable with {!counts} — a diagnostic tap. *)

  val register : unit -> unit
  (** Idempotent; makes the modules available to every stream. *)

  val counts : slot -> (int * int * int * int) option
  (** For a [count] module instance: (blocks down, bytes down, blocks
      up, bytes up); [None] for other modules. *)
end
