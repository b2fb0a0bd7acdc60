(* A file's contents as fixed-size pages, so that a read copies only the
   bytes it returns and a write touches only the pages it covers.  Every
   page but the last is [page] bytes long; the last one grows by
   doubling up to [page]. *)
module Data = struct
  let page = Fcall.maxfdata

  type t = { mutable pages : Bytes.t array; mutable len : int }

  let create () = { pages = [||]; len = 0 }
  let length d = d.len

  let clear d =
    d.pages <- [||];
    d.len <- 0

  (* make page [i] hold at least [need] bytes, keeping what it has *)
  let reserve d i need =
    let p = d.pages.(i) in
    if Bytes.length p < need then begin
      let q = Bytes.create (min page (max need (2 * Bytes.length p))) in
      Bytes.blit p 0 q 0 (Bytes.length p);
      d.pages.(i) <- q
    end

  (* [off] must be within [0, length d] *)
  let write d ~off s =
    let stop = off + String.length s in
    let n = (stop + page - 1) / page in
    if n > Array.length d.pages then begin
      let a = Array.make (max n (2 * Array.length d.pages)) Bytes.empty in
      Array.blit d.pages 0 a 0 (Array.length d.pages);
      d.pages <- a
    end;
    let pos = ref off in
    while !pos < stop do
      let i = !pos / page and o = !pos mod page in
      let take = min (page - o) (stop - !pos) in
      reserve d i (o + take);
      Bytes.blit_string s (!pos - off) d.pages.(i) o take;
      pos := !pos + take
    done;
    d.len <- max d.len stop

  let read d ~off ~count =
    if off < 0 || off >= d.len then ""
    else begin
      let n = min count (d.len - off) in
      let b = Bytes.create n in
      let pos = ref 0 in
      while !pos < n do
        let at = off + !pos in
        let o = at mod page in
        let take = min (page - o) (n - !pos) in
        Bytes.blit d.pages.(at / page) o b !pos take;
        pos := !pos + take
      done;
      (* b was allocated above and is never written again *)
      Bytes.unsafe_to_string b
    end
end

type entry = {
  mutable e_name : string;
  mutable e_qid : Fcall.qid;
  mutable e_mode : int32;  (* includes Fcall.dmdir for directories *)
  mutable e_uid : string;
  mutable e_gid : string;
  mutable e_mtime : int32;
  mutable e_atime : int32;
  e_kind : kind;
  mutable e_parent : entry option;  (* None for the root *)
}

and kind = Dir of entry list ref | File of Data.t

type t = { root : entry; owner : string; fsname : string; mutable next_path : int32 }

(* a fid's state: which entry, and whether it has been opened *)
type node = { mutable n_entry : entry; mutable n_open : bool }


let make ?(owner = "bootes") ~name () =
  let root =
    {
      e_name = "/";
      e_qid = { Fcall.qpath = Int32.logor Fcall.qdir_bit 1l; qvers = 0l };
      e_mode = Int32.logor Fcall.dmdir 0o775l;
      e_uid = owner;
      e_gid = owner;
      e_mtime = 0l;
      e_atime = 0l;
      e_kind = Dir (ref []);
      e_parent = None;
    }
  in
  { root; owner; fsname = name; next_path = 2l }

let alloc_qid t ~dir =
  let p = t.next_path in
  t.next_path <- Int32.add p 1l;
  { Fcall.qpath = (if dir then Int32.logor Fcall.qdir_bit p else p); qvers = 0l }

let bump e = e.e_qid <- { e.e_qid with Fcall.qvers = Int32.add e.e_qid.Fcall.qvers 1l }

let length_of e =
  match e.e_kind with
  | Dir children -> Int64.of_int (List.length !children * Fcall.dirlen)
  | File b -> Int64.of_int (Data.length b)

let stat_of e =
  {
    Fcall.d_name = e.e_name;
    d_uid = e.e_uid;
    d_gid = e.e_gid;
    d_qid = e.e_qid;
    d_mode = e.e_mode;
    d_atime = e.e_atime;
    d_mtime = e.e_mtime;
    d_length = length_of e;
    d_type = Char.code 'r';
    d_dev = 0;
  }

let lookup dir name =
  match dir.e_kind with
  | File _ -> None
  | Dir children -> List.find_opt (fun e -> e.e_name = name) !children

let fs t =
  {
    Server.fs_name = t.fsname;
    fs_attach =
      (fun ~uname ~aname:_ ->
        ignore uname;
        Ok { n_entry = t.root; n_open = false });
    fs_qid = (fun n -> n.n_entry.e_qid);
    fs_walk =
      (fun n name ->
        if n.n_open then Error "fid is open"
        else if name = ".." then
          match n.n_entry.e_parent with
          | Some p ->
            n.n_entry <- p;
            Ok n
          | None -> Ok n (* .. at root is root *)
        else
          match lookup n.n_entry name with
          | Some e ->
            n.n_entry <- e;
            Ok n
          | None -> Error "file does not exist");
    fs_open =
      (fun n mode ~trunc ->
        if n.n_open then Error "already open"
        else begin
          (match (mode, n.n_entry.e_kind) with
          | (Fcall.Owrite | Fcall.Ordwr), Dir _ ->
            Error "is a directory"
          | _, File b when trunc ->
            Data.clear b;
            bump n.n_entry;
            Ok ()
          | _, (Dir _ | File _) -> Ok ())
          |> Result.map (fun () -> n.n_open <- true)
        end);
    fs_read =
      (fun n ~offset ~count ->
        if not n.n_open then Error "not open"
        else
          match n.n_entry.e_kind with
          | Dir children ->
            Ok
              (Server.dir_data
                 (List.map stat_of (List.rev !children))
                 ~offset ~count)
          | File b -> Ok (Data.read b ~off:(Int64.to_int offset) ~count));
    fs_write =
      (fun n ~offset ~data ->
        if not n.n_open then Error "not open"
        else
          match n.n_entry.e_kind with
          | Dir _ -> Error "is a directory"
          | File b ->
            let off = Int64.to_int offset in
            if off < 0 then Error "bad offset"
            else if off > Data.length b then Error "write past end of file"
            else begin
              Data.write b ~off data;
              bump n.n_entry;
              Ok (String.length data)
            end);
    fs_create =
      (fun n ~name ~perm mode ->
        ignore mode;
        match n.n_entry.e_kind with
        | File _ -> Error "not a directory"
        | Dir children ->
          if lookup n.n_entry name <> None then Error "file exists"
          else if name = "" || name = "." || name = ".." then
            Error "bad file name"
          else begin
            let dir = Int32.logand perm Fcall.dmdir <> 0l in
            let e =
              {
                e_name = name;
                e_qid = alloc_qid t ~dir;
                e_mode = perm;
                e_uid = t.owner;
                e_gid = t.owner;
                e_mtime = 0l;
                e_atime = 0l;
                e_kind = (if dir then Dir (ref []) else File (Data.create ()));
                e_parent = Some n.n_entry;
              }
            in
            children := e :: !children;
            bump n.n_entry;
            Ok { n_entry = e; n_open = true }
          end);
    fs_remove =
      (fun n ->
        let e = n.n_entry in
        match e.e_parent with
        | None -> Error "cannot remove root"
        | Some parent -> (
          match e.e_kind with
          | Dir children when !children <> [] -> Error "directory not empty"
          | Dir _ | File _ -> (
            match parent.e_kind with
            | Dir siblings ->
              siblings := List.filter (fun x -> x != e) !siblings;
              bump parent;
              Ok ()
            | File _ -> Error "bad parent")));
    fs_stat = (fun n -> Ok (stat_of n.n_entry));
    fs_wstat =
      (fun n d ->
        let e = n.n_entry in
        (* rename *)
        if d.Fcall.d_name <> "" && d.Fcall.d_name <> e.e_name then begin
          match e.e_parent with
          | None -> ()
          | Some parent ->
            if lookup parent d.Fcall.d_name <> None then ()
            else e.e_name <- d.Fcall.d_name
        end;
        if d.Fcall.d_mode <> -1l then
          e.e_mode <-
            Int32.logor
              (Int32.logand e.e_mode Fcall.dmdir)
              (Int32.logand d.Fcall.d_mode (Int32.lognot Fcall.dmdir));
        if d.Fcall.d_mtime <> -1l then e.e_mtime <- d.Fcall.d_mtime;
        (* wstat is a modification like any other: cache validators
           keyed on qid.vers must see it *)
        bump e;
        Ok ());
    fs_clunk = (fun _ -> ());
    fs_clone = (fun n -> { n_entry = n.n_entry; n_open = false });
  }

(* ---- direct manipulation ---- *)

let split_path p = List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let rec find_entry e = function
  | [] -> Some e
  | name :: rest -> (
    match lookup e name with
    | Some child -> find_entry child rest
    | None -> None)

let mkdir t path =
  let rec go e = function
    | [] -> ()
    | name :: rest ->
      let child =
        match lookup e name with
        | Some c -> c
        | None -> (
          match e.e_kind with
          | File _ -> invalid_arg "Ramfs.mkdir: file in path"
          | Dir children ->
            let c =
              {
                e_name = name;
                e_qid = alloc_qid t ~dir:true;
                e_mode = Int32.logor Fcall.dmdir 0o775l;
                e_uid = t.owner;
                e_gid = t.owner;
                e_mtime = 0l;
                e_atime = 0l;
                e_kind = Dir (ref []);
                e_parent = Some e;
              }
            in
            children := c :: !children;
            c)
      in
      go child rest
  in
  go t.root (split_path path)

let add_file t path contents =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Ramfs.add_file: empty path"
  | name :: rev_dirs ->
    let dirs = List.rev rev_dirs in
    mkdir t (String.concat "/" dirs);
    (match find_entry t.root dirs with
    | Some dir -> (
      match dir.e_kind with
      | File _ -> invalid_arg "Ramfs.add_file: not a directory"
      | Dir children ->
        (match lookup dir name with
        | Some old -> children := List.filter (fun x -> x != old) !children
        | None -> ());
        let b = Data.create () in
        Data.write b ~off:0 contents;
        let e =
          {
            e_name = name;
            e_qid = alloc_qid t ~dir:false;
            e_mode = 0o664l;
            e_uid = t.owner;
            e_gid = t.owner;
            e_mtime = 0l;
            e_atime = 0l;
            e_kind = File b;
            e_parent = Some dir;
          }
        in
        children := e :: !children)
    | None -> invalid_arg "Ramfs.add_file: missing directory")

let read_file t path =
  match find_entry t.root (split_path path) with
  | Some { e_kind = File b; _ } ->
    Some (Data.read b ~off:0 ~count:(Data.length b))
  | Some { e_kind = Dir _; _ } | None -> None

let exists t path = find_entry t.root (split_path path) <> None
