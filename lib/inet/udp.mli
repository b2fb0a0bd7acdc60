(** UDP — "while cheap, does not provide reliable sequenced delivery"
    (paper section 3).  Datagram service with port demultiplexing;
    message boundaries are preserved per packet; delivery is whatever
    the simulated wire does.  Used by the DNS server. *)

type stack
type conv

val attach : Ip.stack -> stack
val engine : stack -> Sim.Engine.t
val local_addr : stack -> Ipaddr.t

val bind : ?port:int -> stack -> conv
(** Open an endpoint; [port] defaults to an ephemeral one from
    {!Xport.alloc_port}.
    @raise Invalid_argument if the port is taken.
    @raise Xport.Port_exhausted if no ephemeral port is free. *)

val port : conv -> int

val send : conv -> dst:Ipaddr.t -> dport:int -> string -> unit
(** Transmit one datagram. *)

val recv : conv -> Ipaddr.t * int * string
(** Block for the next datagram: source address, source port,
    payload. *)

val try_recv : conv -> (Ipaddr.t * int * string) option
val close : conv -> unit

type counters = {
  mutable dg_sent : int;
  mutable dg_rcvd : int;
  mutable dg_dropped_noport : int;
}

val counters : stack -> counters
