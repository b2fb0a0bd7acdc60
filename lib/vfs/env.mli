(** The system-call layer: what a Plan 9 process sees.

    An environment carries a name space, a user name, a working
    directory, and a file-descriptor table.  All calls may block the
    calling simulated process (reads on empty streams, RPCs to remote
    servers) and raise {!Chan.Error} on failure. *)

type t
type fd = int

val make : ns:Ns.t -> uname:string -> t
(** A fresh environment with an empty fd table and dot = "/". *)

val fork : ?share_ns:bool -> t -> t
(** New environment for a child process: the descriptor table is
    copied (entries share channels and offsets until closed, exactly
    Plan 9's fork) and the name space is forked — or shared when
    [share_ns], like rfork without RFNAMEG. *)

val ns : t -> Ns.t
val uname : t -> string
val dot : t -> string
val chdir : t -> string -> unit

(** {1 File operations} *)

val open_ : t -> string -> ?trunc:bool -> Ninep.Fcall.mode -> fd
val create : t -> string -> perm:int32 -> Ninep.Fcall.mode -> fd

val read : t -> fd -> int -> string
(** Advances the descriptor offset; [""] at EOF. *)

val write : t -> fd -> string -> int

val pread : t -> fd -> offset:int64 -> int -> string
(** Positional read; does not move the offset. *)

val pwrite : t -> fd -> offset:int64 -> string -> int
val seek : t -> fd -> int64 -> unit
val offset : t -> fd -> int64
val close : t -> fd -> unit
val dup : t -> fd -> fd

val stat : t -> string -> Ninep.Fcall.dir
val wstat : t -> string -> Ninep.Fcall.dir -> unit
val remove : t -> string -> unit

val ls : t -> string -> Ninep.Fcall.dir list
(** Union-aware directory listing. *)

val read_file : t -> string -> string
(** Convenience: open, read to EOF, close. *)

val write_file : t -> string -> string -> unit
(** Convenience: open for write (or create), write, close. *)

(** {1 Name space operations} *)

val bind : ?mcreate:bool -> t -> src:string -> onto:string -> Ns.flag -> unit
(** [bind t ~src:"/net.alt" ~onto:"/net" After].  [mcreate] (default
    [true]) is the paper's [bind -c]: whether creation through the
    union may land in this member (see {!Ns.create_target}). *)

val mount :
  ?mcreate:bool ->
  t ->
  Ninep.Client.t ->
  ?aname:string ->
  onto:string ->
  Ns.flag ->
  unit
(** Mount a 9P connection: "The mount system call provides a file
    descriptor ... to be associated with the mount point.  After a
    mount, operations on the file tree below the mount point are sent
    as messages to the file server."  Registers the mount's RPC ledger
    and a connection-death hook that surfaces leaked fids in the
    ledger's [leaked_fids] counter. *)

val mount_fs :
  ?mcreate:bool -> t -> 'n Ninep.Server.fs -> onto:string -> Ns.flag -> unit
(** Bind a kernel-resident (procedural) file server into the name
    space — how device drivers appear under /net and /dev. *)

val unmount : ?src:string -> t -> onto:string -> unit
(** Without [src], drop every mount on [onto]; with [src], drop only
    the union member that path resolves to (two-argument unmount). *)

(** {1 Channel-level escape hatches (used by exportfs and devices)} *)

val resolve : t -> string -> Chan.t

val install_chan : t -> Chan.t -> path:string -> fd
(** Adopt an already-opened channel into the descriptor table (devices
    like the pipe device hand out channels that have no path in the
    name space). *)
