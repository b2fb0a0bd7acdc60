(** A complete simulated Plan 9 machine.

    [create] assembles everything the paper describes on one host,
    driven by the machine's network-database entry: a root file tree,
    [/net] with one protocol device per attached network (IL, TCP, UDP
    on Ethernet; URP on Datakit), the Ethernet diagnostic device tree,
    the connection server on [/net/cs], and the DNS resolver on
    [/net/dns].  "Since CPU servers and terminals use the same kernel"
    — every host is built by this one function; what differs is which
    networks its ndb entry gives it. *)

type t = {
  name : string;
  eng : Sim.Engine.t;
  env : Vfs.Env.t;  (** the boot environment; user procs fork it *)
  root : Ninep.Ramfs.t;
  db : Ndb.t;
  etherport : Inet.Etherport.t option;  (** the primary NIC *)
  ip : Inet.Ip.stack option;  (** the primary stack (= List.nth ipstacks 0) *)
  ipstacks : Inet.Ip.stack list;  (** one per ip=/ether= pair, in ndb order *)
  node : Route.t option;  (** the routing node, present on any IP host *)
  il : Inet.Il.stack option;
  tcp : Inet.Tcp.stack option;
  tcpcc : Inet.Tcp.stack option;
      (** the congestion-controlled TCP variant, always registered
          alongside the baseline *)
  udp : Inet.Udp.stack option;
  dkline : Dk.Switch.line option;
  resolver : Dns.resolver option;
  cs : Cs.t;
}

val addrs : Ndb.entry -> (string * string option) list
(** A machine entry's [ip=] attributes paired positionally with its
    [ether=] attributes: each pair with an Ethernet address is a NIC;
    addresses beyond the [ether=] list ride other media (a [medium=dk]
    subnet reached through a Datakit tunnel). *)

val create :
  ?uname:string ->
  wire:(string -> Netsim.Ether.t) ->
  ?dk:Dk.Switch.t ->
  ?il_config:Inet.Il.config ->
  ?tcp_config:Inet.Tcp.config ->
  ?tcpcc_config:Inet.Tcp.config ->
  ?dns_server:bool ->
  db:Ndb.t ->
  name:string ->
  Sim.Engine.t ->
  t
(** Boot a host named [name].  Its database entry supplies addresses:
    each [ip=]/[ether=] pair becomes a NIC on the segment [wire] names
    for its address (the world decides the wiring), and [ip=] addresses
    beyond the [ether=] list become Datakit tunnel
    interfaces when their [ipnet] says [medium=dk]; [dk=] attaches the
    host to [dk]; the inherited [dns=] attribute selects the resolver's
    server.  Transports, DNS, and CS ride the first (primary) stack;
    every IP host gets a {!Route.t} node (forwarding auto-enables at
    two interfaces) with its inherited [ipgw] as the default route, and
    serves the table at [/net/iproute].  With [dns_server] the host
    also answers zone queries from [db].
    @raise Failure if the database has no entry for [name]. *)

val mount_cached :
  t ->
  ?config:Cfs.config ->
  ?aname:string ->
  ?env:Vfs.Env.t ->
  upstream:Ninep.Transport.t ->
  onto:string ->
  Vfs.Ns.flag ->
  Cfs.t
(** Mount a 9P connection through a {!Cfs} caching proxy — the
    diskless-terminal configuration: [upstream] is the raw connection
    to the file server (e.g. {!Eia_dev.transport} over a 9600-baud
    line), and what lands at [onto] is the cache's 9P face.  Also
    mounts the cache's [ctl]/[stats]/[status] directory at [/mnt/cfs]
    (replacing any previous cache's — one cached mount per host is the
    expected shape).  [env] selects the name space that gains both
    mounts; it defaults to the host's boot environment, which a process
    forked {e earlier} does not see — from inside {!spawn}, pass your
    own.  Performs RPCs: call from process context. *)

val spawn : t -> string -> (Vfs.Env.t -> unit) -> Sim.Proc.t
(** Run a user process with a forked environment. *)

val serve_exportfs : t -> unit
(** Start the standard listener: exportfs on every network the host
    has ([net!*!exportfs]). *)

val serve_echo : t -> unit
(** The section 5.2 echo service on every network. *)
