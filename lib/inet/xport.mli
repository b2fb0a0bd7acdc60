(** The transport-independent half of IL and TCP.

    The paper gives every protocol device one shape: a clone file and
    numbered conversation directories, the protocols differing only in
    their wire machinery.  This module is the bookkeeping under that
    shape, written once for IL, baseline TCP and tcpcc: the conversation
    table keyed by (local port, remote port, remote address), ephemeral
    port allocation, listeners with their bounded accept backlog, the
    active open's wait for the handshake, the per-packet CPU cost hook,
    and the trace events every transport emits.  {!Il} and {!Tcp} own
    only their wire format and state machine; UDP shares the port
    allocator. *)

exception Refused of string
(** Connection reset or rejected by the peer. *)

exception Timeout of string
(** Handshake expiry, naming the protocol: ["tcpcc connect"]. *)

exception Hungup
(** Write on a closed/hung-up conversation. *)

exception Port_exhausted
(** Every ephemeral local port is in use. *)

(** {1 Wire helpers: big-endian fields} *)

val put16 : Bytes.t -> int -> int -> unit
val put32 : Bytes.t -> int -> int -> unit
val get16 : string -> int -> int
val get32 : string -> int -> int

(** {1 Ephemeral ports} *)

type 'a ports = { bound : (int, 'a) Hashtbl.t; mutable next_port : int }
(** Bound local ports, with what the owner keeps per port, and the
    round-robin cursor. *)

val ports : int -> 'a ports
(** Nothing bound (initial table size [n]); the cursor at 5000. *)

val alloc_port : 'a ports -> int
(** The first unbound port from the cursor on, in 5000..64999 and
    wrapping; the cursor moves past it and the caller binds it.  One
    probe per port skipped, never a scan of the conversations.
    @raise Port_exhausted if all 60,000 are bound. *)

(** {1 The conversation table} *)

type 'c t
(** One transport's table on one host; ['c] is its conversation. *)

type 'c listener
(** An announced port with its accept queue. *)

val create :
  Ip.stack ->
  pname:string ->
  ipproto:int ->
  cpu:(Sim.Cpu.t * float * float) option ->
  'c t
(** [pname] tags trace events, spans and error text; [cpu] is the host
    CPU with its cost per packet and per byte. *)

val local_addr : 'c t -> Ipaddr.t
val fresh_cid : 'c t -> int

val isn : 'c t -> int
(** A fresh initial sequence number, from the engine's seeded stream. *)

val add : 'c t -> lport:int -> rport:int -> raddr:Ipaddr.t -> 'c -> unit
(** Enter a conversation; its local port counts as bound. *)

val find : 'c t -> lport:int -> rport:int -> raddr:Ipaddr.t -> 'c option

val drop :
  'c t -> lport:int -> rport:int -> raddr:Ipaddr.t -> 'c listener option ->
  unit
(** Teardown: the conversation leaves the table, and gives back the
    backlog slot of the listener it is half-open on, if any. *)

val conv_count : 'c t -> int

val refusals : 'c t -> int
(** Backlog refusals across all listeners, surviving their teardown. *)

(** {1 Packets, after their CPU cost when one is modelled} *)

val send : 'c t -> dst:Ipaddr.t -> string -> unit
val register : 'c t -> (src:Ipaddr.t -> dst:Ipaddr.t -> string -> unit) -> unit

(** {1 Trace events} *)

val trace_state : 'c t -> int -> from_:string -> to_:string -> unit
val trace_retransmit : 'c t -> int -> id:int -> bytes:int -> unit

val trace_undecodable : 'c t -> header_len:int -> string -> unit
(** A packet the codec rejected: a checksum error if it was long enough
    to carry one. *)

(** {1 Calls} *)

type call =
  | Dialing of Sim.Rendez.t  (** handshake in progress; sleep here *)
  | Up
  | Down of string option  (** failed, with the teardown reason *)

val connect :
  'c t -> int option -> start:(int -> 'c) -> state:('c -> call) -> 'c
(** The active open: take the given local port or an ephemeral one,
    [start] the handshake on it, and block in a [<pname>.connect] span
    until [state] says it settled.
    @raise Timeout ["<pname> connect"] if the handshake timed out
    @raise Refused on any other failure
    @raise Port_exhausted if no ephemeral port is free. *)

val announce : ?backlog:int -> 'c t -> port:int -> 'c listener
(** Passive open.  [backlog] (default 16) bounds calls pending accept:
    half-open handshakes plus established calls waiting for {!listen}.
    @raise Invalid_argument if the port is announced. *)

val admit : 'c t -> port:int -> ('c listener -> unit) -> bool
(** An opening packet for [port] that matches no conversation.  If an
    open listener has room, take a backlog slot, run the callback (it
    builds the half-open conversation and answers) and return [true];
    otherwise [false] (a full backlog counts a refusal) and the caller
    answers with a reset. *)

val accepted : 'c listener -> 'c -> unit
(** A half-open call completed its handshake: its backlog slot passes
    to the accept queue. *)

val listen : 'c listener -> 'c
(** Block until an incoming call is established. *)

val close_listener : 'c listener -> unit

val set_backlog : 'c listener -> int -> unit
(** Clamped to >= 1; the ctl message [backlog n] lands here. *)

val backlog : 'c listener -> int

val queued : 'c listener -> int
(** Calls occupying backlog slots (half-open + awaiting accept). *)

val refused : 'c listener -> int
(** Calls refused because the backlog was full. *)
