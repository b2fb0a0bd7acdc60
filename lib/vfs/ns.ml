type flag = Repl | Before | After

type member = { m_chan : Chan.t; m_create : bool }

(* Entries are immutable, so forks share them: a bind rebuilds the entry
   it changes in its own name space's table. *)
type entry = { onto_key : int * int32; unions : member list }

type t = {
  mutable table : entry list;
  root_chan : Chan.t;
  ns_uname : string;
  mutable next_devid : int;
  mounts : (string * Obs.Metrics.t) list ref;
      (* 9P-mount RPC ledgers, shared across forks (the [ref] itself is
         copied by [fork], so children see — and add to — one registry) *)
}

(* Selftest chaos plant (see p9explore --selftest): when armed, a
   union walk that hits a dead connection gives up instead of falling
   through to the remaining members — the lost-fallback bug the
   union-member-dies scenario exists to catch.  Invisible to every
   healthy-path test: local union misses say "file does not exist",
   which is not a connection error. *)
let chaos_union_lost_walk = ref false

let conn_needle = "hung up"

(* whether [conn_needle] occurs in [e] at [i], from its [j]th byte *)
let rec needle_at e i j =
  j = String.length conn_needle
  || (e.[i + j] = conn_needle.[j] && needle_at e i (j + 1))

(* whether it occurs at or after [i]; top-level like [needle_at], so
   no closure is allocated *)
let rec needle_from e i =
  i + String.length conn_needle <= String.length e
  && (needle_at e i 0 || needle_from e (i + 1))

let is_conn_error e = needle_from e 0

let make ~root ~uname =
  {
    table = [];
    root_chan = Chan.attach ~devid:0 root ~uname ~aname:"";
    ns_uname = uname;
    next_devid = 1;
    mounts = ref [];
  }

(* The table and its entries are immutable values, so the child shares
   them; a bind on either side replaces only its own [table] field. *)
let fork t = { t with table = t.table }

let uname t = t.ns_uname
let root t = Chan.clone t.root_chan

let fresh_devid t =
  let id = t.next_devid in
  t.next_devid <- id + 1;
  id

let register_mount t ~onto metrics = t.mounts := !(t.mounts) @ [ (onto, metrics) ]
let mounts t = !(t.mounts)

let same_key (d, q) (d', q') = Int.equal d d' && Int32.equal q q'

(* the union mounted at [key]; [] when nothing is (a table entry's
   union is never empty) *)
let rec find_union key = function
  | [] -> []
  | e :: rest ->
    if same_key e.onto_key key then e.unions else find_union key rest

let lookup t key = find_union key t.table

let members t c =
  match lookup t (Chan.key c) with
  | [] -> [ { m_chan = c; m_create = true } ]
  | unions -> unions

let union_of t c = List.map (fun m -> m.m_chan) (members t c)

(* Walk one component from [c], consulting the union at [c]'s key.  The
   result is the {e underlying} channel — it is never "entered" even if
   it is itself a mount point, so the union information at its key
   remains available for the next step.  A member that fails (including
   a member whose server died: the mount driver answers every op on a
   dead connection with its hangup error) does not stop the walk — the
   remaining members are still consulted, so one dead server cannot
   take a whole union directory down with it. *)
let walk1 t c name =
  let rec try_members last_err = function
    | [] ->
      Error (match last_err with Some e -> e | None -> "file does not exist")
    | m :: rest -> (
      match Chan.walk1 m.m_chan name with
      | Ok c' -> Ok c'
      | Error e ->
        if !chaos_union_lost_walk && rest <> [] && is_conn_error e then
          Error e
        else try_members (Some e) rest)
  in
  try_members None (members t c)

(* Cross into the mounted tree at [c], if any: the head of its union. *)
let enter t c =
  match lookup t (Chan.key c) with
  | m0 :: _ -> Chan.clone m0.m_chan
  | [] -> c

(* The member creation lands in: the first with the MCREATE bit, per
   the paper's bind -c.  A union where no member allows creation
   refuses, like the kernel's "mounted directory forbids creation". *)
let create_target t c =
  match lookup t (Chan.key c) with
  | [] -> Ok (Chan.clone c)
  | unions -> (
    match List.find_opt (fun m -> m.m_create) unions with
    | Some m -> Ok (Chan.clone m.m_chan)
    | None -> Error "mounted directory forbids creation")

let normalize ~dot path =
  let full =
    if String.length path > 0 && path.[0] = '/' then path else dot ^ "/" ^ path
  in
  let parts = String.split_on_char '/' full in
  let rec clean acc = function
    | [] -> List.rev acc
    | ("" | ".") :: rest -> clean acc rest
    | ".." :: rest -> (
      match acc with
      | [] -> clean [] rest  (* /.. = / *)
      | _ :: up -> clean up rest)
    | name :: rest -> clean (name :: acc) rest
  in
  clean [] parts

let resolve_gen ~enter_last t path =
  let components = normalize ~dot:"/" path in
  let rec go c = function
    | [] -> if enter_last then enter t c else c
    | name :: rest -> (
      match walk1 t c name with
      | Ok c' -> go c' rest
      | Error e -> raise (Chan.Error (Printf.sprintf "%s: %s" path e)))
  in
  go (Chan.clone t.root_chan) components

let resolve t path = resolve_gen ~enter_last:true t path
let resolve_for_mount t path = resolve_gen ~enter_last:false t path

let bind ?(mcreate = true) t ~src ~onto flag =
  let key = Chan.key onto in
  let m = { m_chan = src; m_create = mcreate } in
  match lookup t key with
  | _ :: _ as old ->
    let unions =
      match flag with
      | Repl -> [ m ]
      | Before -> m :: old
      | After -> old @ [ m ]
    in
    t.table <-
      List.map
        (fun e -> if same_key e.onto_key key then { e with unions } else e)
        t.table
  | [] ->
    (* the mounted-upon directory itself keeps its create permission,
       matching the historical behaviour of this table (a documented
       divergence from the 1993 kernel, which required an explicit
       MCREATE even on the underlying directory) *)
    let onto_m = { m_chan = onto; m_create = true } in
    let unions =
      match flag with
      | Repl -> [ m ]
      | Before -> [ m; onto_m ]
      | After -> [ onto_m; m ]
    in
    t.table <- { onto_key = key; unions } :: t.table

let unmount ?src t ~onto =
  let key = Chan.key onto in
  match src with
  | None ->
    t.table <- List.filter (fun e -> not (same_key e.onto_key key)) t.table
  | Some s ->
    let skey = Chan.key s in
    t.table <-
      List.filter_map
        (fun e ->
          if not (same_key e.onto_key key) then Some e
          else
            match
              List.filter
                (fun m -> not (same_key (Chan.key m.m_chan) skey))
                e.unions
            with
            | [] -> None
            | unions -> Some { e with unions })
        t.table

let read_dir t c =
  let seen = Hashtbl.create 17 in
  let member_entries m =
    if not (Chan.is_dir m) then []
    else begin
      let m = Chan.clone m in
      Chan.open_ m Ninep.Fcall.Oread;
      let out = ref [] in
      let rec go off =
        let data = Chan.read m ~offset:(Int64.of_int off) ~count:Ninep.Fcall.maxfdata in
        if data <> "" then begin
          let n = String.length data / Ninep.Fcall.dirlen in
          for i = 0 to n - 1 do
            out := Ninep.Fcall.decode_dir data (i * Ninep.Fcall.dirlen) :: !out
          done;
          go (off + String.length data)
        end
      in
      go 0;
      Chan.clunk m;
      List.rev !out
    end
  in
  (* per-mount error isolation: a member whose server is partitioned
     away answers with an error, not a listing — skip it so the union
     directory stays readable through the survivors *)
  let member_entries m =
    try member_entries m with Chan.Error _ -> []
  in
  List.concat_map
    (fun m ->
      List.filter
        (fun d ->
          let name = d.Ninep.Fcall.d_name in
          if Hashtbl.mem seen name then false
          else begin
            Hashtbl.replace seen name ();
            true
          end)
        (member_entries m))
    (union_of t c)
