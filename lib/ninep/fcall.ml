let namelen = 28
let errlen = 64
let dirlen = 116
let maxfdata = 8192

type qid = { qpath : int32; qvers : int32 }

let qdir_bit = 0x80000000l
let qid_is_dir q = Int32.logand q.qpath qdir_bit <> 0l

type mode = Oread | Owrite | Ordwr | Oexec

let mode_trunc = 0x10

let mode_to_int ?(trunc = false) m =
  (match m with Oread -> 0 | Owrite -> 1 | Ordwr -> 2 | Oexec -> 3)
  lor if trunc then mode_trunc else 0

let mode_of_int i =
  let trunc = i land mode_trunc <> 0 in
  match i land 3 with
  | 0 -> Some (Oread, trunc)
  | 1 -> Some (Owrite, trunc)
  | 2 -> Some (Ordwr, trunc)
  | 3 -> Some (Oexec, trunc)
  | _ -> None

type dir = {
  d_name : string;
  d_uid : string;
  d_gid : string;
  d_qid : qid;
  d_mode : int32;
  d_atime : int32;
  d_mtime : int32;
  d_length : int64;
  d_type : int;
  d_dev : int;
}

let dmdir = 0x80000000l

let pp_dir fmt d =
  let mode_char m bit = if Int32.logand m bit <> 0l then true else false in
  let rwx m shift =
    let m = Int32.to_int (Int32.shift_right_logical m shift) land 7 in
    Printf.sprintf "%c%c%c"
      (if m land 4 <> 0 then 'r' else '-')
      (if m land 2 <> 0 then 'w' else '-')
      (if m land 1 <> 0 then 'x' else '-')
  in
  Format.fprintf fmt "%c%s%s%s %c %d %-8s %-8s %8Ld %s"
    (if mode_char d.d_mode dmdir then 'd' else '-')
    (rwx d.d_mode 6) (rwx d.d_mode 3) (rwx d.d_mode 0)
    (Char.chr d.d_type) d.d_dev d.d_uid d.d_gid d.d_length d.d_name

(* ---- message kinds ---- *)

type tmsg =
  | Tnop
  | Tauth of { afid : int; uname : string; ticket : string }
  | Tsession of { chal : string }
  | Tattach of { fid : int; uname : string; aname : string }
  | Tclone of { fid : int; newfid : int }
  | Twalk of { fid : int; name : string }
  | Tclwalk of { fid : int; newfid : int; name : string }
  | Topen of { fid : int; mode : mode; trunc : bool }
  | Tcreate of { fid : int; name : string; perm : int32; mode : mode }
  | Tread of { fid : int; offset : int64; count : int }
  | Twrite of { fid : int; offset : int64; data : string }
  | Tclunk of { fid : int }
  | Tremove of { fid : int }
  | Tstat of { fid : int }
  | Twstat of { fid : int; stat : dir }
  | Tflush of { oldtag : int }

type rmsg =
  | Rnop
  | Rerror of string
  | Rauth of { afid : int; ticket : string }
  | Rsession of { chal : string }
  | Rattach of { fid : int; qid : qid }
  | Rclone of { fid : int }
  | Rwalk of { fid : int; qid : qid }
  | Rclwalk of { newfid : int; qid : qid }
  | Ropen of { fid : int; qid : qid }
  | Rcreate of { fid : int; qid : qid }
  | Rread of { data : string }
  | Rwrite of { count : int }
  | Rclunk of { fid : int }
  | Rremove of { fid : int }
  | Rstat of { stat : dir }
  | Rwstat of { fid : int }
  | Rflush

let tmsg_name = function
  | Tnop -> "Tnop"
  | Tauth _ -> "Tauth"
  | Tsession _ -> "Tsession"
  | Tattach _ -> "Tattach"
  | Tclone _ -> "Tclone"
  | Twalk _ -> "Twalk"
  | Tclwalk _ -> "Tclwalk"
  | Topen _ -> "Topen"
  | Tcreate _ -> "Tcreate"
  | Tread _ -> "Tread"
  | Twrite _ -> "Twrite"
  | Tclunk _ -> "Tclunk"
  | Tremove _ -> "Tremove"
  | Tstat _ -> "Tstat"
  | Twstat _ -> "Twstat"
  | Tflush _ -> "Tflush"

type t = T of int * tmsg | R of int * rmsg

exception Bad_message of string

let maxmsg = 3 + 2 + 8 + 2 + maxfdata + dirlen

(* message type codes, T even / R odd, in the historical style *)
let tnop = 50
and tauth = 52
and tsession = 54
and tattach = 56
and tclone = 60
and twalk = 62
and tclwalk = 64
and topen = 66
and tcreate = 68
and tread = 70
and twrite = 72
and tclunk = 74
and tremove = 76
and tstat = 78
and twstat = 80
and tflush = 82

let rerror = 59

(* ---- little-endian primitive writers/readers ---- *)

(* A message is written once, straight into a buffer of its exact wire
   size: [pos] is the next byte to fill. *)
type writer = { buf : Bytes.t; mutable pos : int }

let writer n = { buf = Bytes.create n; pos = 0 }

let finish b =
  assert (b.pos = Bytes.length b.buf);
  (* b.buf was allocated by [writer] and is never written again *)
  Bytes.unsafe_to_string b.buf

let w8 b v =
  Bytes.set_uint8 b.buf b.pos (v land 0xff);
  b.pos <- b.pos + 1

let w16 b v =
  Bytes.set_uint16_le b.buf b.pos (v land 0xffff);
  b.pos <- b.pos + 2

let w32 b v =
  Bytes.set_int32_le b.buf b.pos v;
  b.pos <- b.pos + 4

let w64 b v =
  Bytes.set_int64_le b.buf b.pos v;
  b.pos <- b.pos + 8

let wbytes b s =
  Bytes.blit_string s 0 b.buf b.pos (String.length s);
  b.pos <- b.pos + String.length s

(* [s] NUL-padded to a fixed field [width] *)
let wfixed b width s =
  wbytes b s;
  Bytes.fill b.buf b.pos (width - String.length s) '\000';
  b.pos <- b.pos + width - String.length s

let wname b s =
  if String.length s >= namelen then
    raise (Bad_message ("name too long: " ^ s));
  wfixed b namelen s

let werr b s =
  let s = if String.length s >= errlen then String.sub s 0 (errlen - 1) else s in
  wfixed b errlen s

let wstr2 b s =
  (* 2-byte count + bytes, used for data and variable strings *)
  w16 b (String.length s);
  wbytes b s

let r8 s off = Char.code s.[off]
let r16 s off = r8 s off lor (r8 s (off + 1) lsl 8)

let r32 s off =
  Int32.logor
    (Int32.of_int (r16 s off))
    (Int32.shift_left (Int32.of_int (r16 s (off + 2))) 16)

let r64 s off =
  Int64.logor
    (Int64.logand (Int64.of_int32 (r32 s off)) 0xffffffffL)
    (Int64.shift_left (Int64.of_int32 (r32 s (off + 4))) 32)

let rname s off =
  let rec len i = if i < namelen && s.[off + i] <> '\000' then len (i + 1) else i in
  String.sub s off (len 0)

let rerrstr s off =
  let rec len i = if i < errlen && s.[off + i] <> '\000' then len (i + 1) else i in
  String.sub s off (len 0)

let need s off n what =
  if String.length s < off + n then
    raise (Bad_message ("truncated " ^ what))

let rstr2 s off what =
  need s off 2 what;
  let n = r16 s off in
  need s (off + 2) n what;
  (String.sub s (off + 2) n, off + 2 + n)

(* ---- dir (stat) marshalling ---- *)

let write_dir b d =
  wname b d.d_name;
  wname b d.d_uid;
  wname b d.d_gid;
  w32 b d.d_qid.qpath;
  w32 b d.d_qid.qvers;
  w32 b d.d_mode;
  w32 b d.d_atime;
  w32 b d.d_mtime;
  w64 b d.d_length;
  w16 b d.d_type;
  w16 b d.d_dev

let encode_dir d =
  let b = writer dirlen in
  write_dir b d;
  finish b

let decode_dir s off =
  need s off dirlen "stat";
  {
    d_name = rname s off;
    d_uid = rname s (off + namelen);
    d_gid = rname s (off + (2 * namelen));
    d_qid = { qpath = r32 s (off + 84); qvers = r32 s (off + 88) };
    d_mode = r32 s (off + 92);
    d_atime = r32 s (off + 96);
    d_mtime = r32 s (off + 100);
    d_length = r64 s (off + 104);
    d_type = r16 s (off + 112);
    d_dev = r16 s (off + 114);
  }

(* ---- top-level encode ---- *)

(* wire size after the 3-byte type and tag header *)
let body_len = function
  | T (_, t) -> (
    match t with
    | Tnop -> 0
    | Tauth { ticket; _ } -> 2 + namelen + 2 + String.length ticket
    | Tsession { chal } -> 2 + String.length chal
    | Tattach _ -> 2 + (2 * namelen)
    | Tclone _ -> 4
    | Twalk _ -> 2 + namelen
    | Tclwalk _ -> 4 + namelen
    | Topen _ -> 3
    | Tcreate _ -> 2 + namelen + 5
    | Tread _ -> 12
    | Twrite { data; _ } -> 12 + String.length data
    | Tclunk _ | Tremove _ | Tstat _ | Tflush _ -> 2
    | Twstat _ -> 2 + dirlen)
  | R (_, r) -> (
    match r with
    | Rnop | Rflush -> 0
    | Rerror _ -> errlen
    | Rauth { ticket; _ } -> 4 + String.length ticket
    | Rsession { chal } -> 2 + String.length chal
    | Rattach _ | Rwalk _ | Rclwalk _ | Ropen _ | Rcreate _ -> 10
    | Rread { data } -> 2 + String.length data
    | Rclone _ | Rwrite _ | Rclunk _ | Rremove _ | Rwstat _ -> 2
    | Rstat _ -> dirlen)

let encode msg =
  let b = writer (3 + body_len msg) in
  let tag = match msg with T (tag, _) | R (tag, _) -> tag in
  let hdr code =
    w8 b code;
    w16 b tag
  in
  (match msg with
  | T (_, t) -> (
    match t with
    | Tnop -> hdr tnop
    | Tauth { afid; uname; ticket } ->
      hdr tauth;
      w16 b afid;
      wname b uname;
      wstr2 b ticket
    | Tsession { chal } ->
      hdr tsession;
      wstr2 b chal
    | Tattach { fid; uname; aname } ->
      hdr tattach;
      w16 b fid;
      wname b uname;
      wname b aname
    | Tclone { fid; newfid } ->
      hdr tclone;
      w16 b fid;
      w16 b newfid
    | Twalk { fid; name } ->
      hdr twalk;
      w16 b fid;
      wname b name
    | Tclwalk { fid; newfid; name } ->
      hdr tclwalk;
      w16 b fid;
      w16 b newfid;
      wname b name
    | Topen { fid; mode; trunc } ->
      hdr topen;
      w16 b fid;
      w8 b (mode_to_int ~trunc mode)
    | Tcreate { fid; name; perm; mode } ->
      hdr tcreate;
      w16 b fid;
      wname b name;
      w32 b perm;
      w8 b (mode_to_int mode)
    | Tread { fid; offset; count } ->
      hdr tread;
      w16 b fid;
      w64 b offset;
      w16 b count
    | Twrite { fid; offset; data } ->
      hdr twrite;
      w16 b fid;
      w64 b offset;
      wstr2 b data
    | Tclunk { fid } ->
      hdr tclunk;
      w16 b fid
    | Tremove { fid } ->
      hdr tremove;
      w16 b fid
    | Tstat { fid } ->
      hdr tstat;
      w16 b fid
    | Twstat { fid; stat } ->
      hdr twstat;
      w16 b fid;
      write_dir b stat
    | Tflush { oldtag } ->
      hdr tflush;
      w16 b oldtag)
  | R (_, r) -> (
    match r with
    | Rnop -> hdr (tnop + 1)
    | Rerror e ->
      hdr rerror;
      werr b e
    | Rauth { afid; ticket } ->
      hdr (tauth + 1);
      w16 b afid;
      wstr2 b ticket
    | Rsession { chal } ->
      hdr (tsession + 1);
      wstr2 b chal
    | Rattach { fid; qid } ->
      hdr (tattach + 1);
      w16 b fid;
      w32 b qid.qpath;
      w32 b qid.qvers
    | Rclone { fid } ->
      hdr (tclone + 1);
      w16 b fid
    | Rwalk { fid; qid } ->
      hdr (twalk + 1);
      w16 b fid;
      w32 b qid.qpath;
      w32 b qid.qvers
    | Rclwalk { newfid; qid } ->
      hdr (tclwalk + 1);
      w16 b newfid;
      w32 b qid.qpath;
      w32 b qid.qvers
    | Ropen { fid; qid } ->
      hdr (topen + 1);
      w16 b fid;
      w32 b qid.qpath;
      w32 b qid.qvers
    | Rcreate { fid; qid } ->
      hdr (tcreate + 1);
      w16 b fid;
      w32 b qid.qpath;
      w32 b qid.qvers
    | Rread { data } ->
      hdr (tread + 1);
      wstr2 b data
    | Rwrite { count } ->
      hdr (twrite + 1);
      w16 b count
    | Rclunk { fid } ->
      hdr (tclunk + 1);
      w16 b fid
    | Rremove { fid } ->
      hdr (tremove + 1);
      w16 b fid
    | Rstat { stat } ->
      hdr (tstat + 1);
      write_dir b stat
    | Rwstat { fid } ->
      hdr (twstat + 1);
      w16 b fid
    | Rflush -> hdr (tflush + 1)));
  finish b

(* ---- top-level decode ---- *)

let decode s =
  need s 0 3 "header";
  let code = r8 s 0 in
  let tag = r16 s 1 in
  let o = 3 in
  let qid_at off = { qpath = r32 s off; qvers = r32 s (off + 4) } in
  if code = tnop then T (tag, Tnop)
  else if code = tnop + 1 then R (tag, Rnop)
  else if code = rerror then begin
    need s o errlen "Rerror";
    R (tag, Rerror (rerrstr s o))
  end
  else if code = tauth then begin
    need s o (2 + namelen) "Tauth";
    let ticket, _ = rstr2 s (o + 2 + namelen) "Tauth" in
    T (tag, Tauth { afid = r16 s o; uname = rname s (o + 2); ticket })
  end
  else if code = tauth + 1 then begin
    need s o 2 "Rauth";
    let ticket, _ = rstr2 s (o + 2) "Rauth" in
    R (tag, Rauth { afid = r16 s o; ticket })
  end
  else if code = tsession then begin
    let chal, _ = rstr2 s o "Tsession" in
    T (tag, Tsession { chal })
  end
  else if code = tsession + 1 then begin
    let chal, _ = rstr2 s o "Rsession" in
    R (tag, Rsession { chal })
  end
  else if code = tattach then begin
    need s o (2 + (2 * namelen)) "Tattach";
    T
      ( tag,
        Tattach
          {
            fid = r16 s o;
            uname = rname s (o + 2);
            aname = rname s (o + 2 + namelen);
          } )
  end
  else if code = tattach + 1 then begin
    need s o 10 "Rattach";
    R (tag, Rattach { fid = r16 s o; qid = qid_at (o + 2) })
  end
  else if code = tclone then begin
    need s o 4 "Tclone";
    T (tag, Tclone { fid = r16 s o; newfid = r16 s (o + 2) })
  end
  else if code = tclone + 1 then begin
    need s o 2 "Rclone";
    R (tag, Rclone { fid = r16 s o })
  end
  else if code = twalk then begin
    need s o (2 + namelen) "Twalk";
    T (tag, Twalk { fid = r16 s o; name = rname s (o + 2) })
  end
  else if code = twalk + 1 then begin
    need s o 10 "Rwalk";
    R (tag, Rwalk { fid = r16 s o; qid = qid_at (o + 2) })
  end
  else if code = tclwalk then begin
    need s o (4 + namelen) "Tclwalk";
    T
      ( tag,
        Tclwalk
          { fid = r16 s o; newfid = r16 s (o + 2); name = rname s (o + 4) } )
  end
  else if code = tclwalk + 1 then begin
    need s o 10 "Rclwalk";
    R (tag, Rclwalk { newfid = r16 s o; qid = qid_at (o + 2) })
  end
  else if code = topen then begin
    need s o 3 "Topen";
    match mode_of_int (r8 s (o + 2)) with
    | Some (mode, trunc) -> T (tag, Topen { fid = r16 s o; mode; trunc })
    | None -> raise (Bad_message "Topen mode")
  end
  else if code = topen + 1 then begin
    need s o 10 "Ropen";
    R (tag, Ropen { fid = r16 s o; qid = qid_at (o + 2) })
  end
  else if code = tcreate then begin
    need s o (2 + namelen + 5) "Tcreate";
    match mode_of_int (r8 s (o + 2 + namelen + 4)) with
    | Some (mode, _) ->
      T
        ( tag,
          Tcreate
            {
              fid = r16 s o;
              name = rname s (o + 2);
              perm = r32 s (o + 2 + namelen);
              mode;
            } )
    | None -> raise (Bad_message "Tcreate mode")
  end
  else if code = tcreate + 1 then begin
    need s o 10 "Rcreate";
    R (tag, Rcreate { fid = r16 s o; qid = qid_at (o + 2) })
  end
  else if code = tread then begin
    need s o 12 "Tread";
    T (tag, Tread { fid = r16 s o; offset = r64 s (o + 2); count = r16 s (o + 10) })
  end
  else if code = tread + 1 then begin
    let data, _ = rstr2 s o "Rread" in
    R (tag, Rread { data })
  end
  else if code = twrite then begin
    need s o 10 "Twrite";
    let data, _ = rstr2 s (o + 10) "Twrite" in
    T (tag, Twrite { fid = r16 s o; offset = r64 s (o + 2); data })
  end
  else if code = twrite + 1 then begin
    need s o 2 "Rwrite";
    R (tag, Rwrite { count = r16 s o })
  end
  else if code = tclunk then begin
    need s o 2 "Tclunk";
    T (tag, Tclunk { fid = r16 s o })
  end
  else if code = tclunk + 1 then begin
    need s o 2 "Rclunk";
    R (tag, Rclunk { fid = r16 s o })
  end
  else if code = tremove then begin
    need s o 2 "Tremove";
    T (tag, Tremove { fid = r16 s o })
  end
  else if code = tremove + 1 then begin
    need s o 2 "Rremove";
    R (tag, Rremove { fid = r16 s o })
  end
  else if code = tstat then begin
    need s o 2 "Tstat";
    T (tag, Tstat { fid = r16 s o })
  end
  else if code = tstat + 1 then R (tag, Rstat { stat = decode_dir s o })
  else if code = twstat then begin
    need s o 2 "Twstat";
    T (tag, Twstat { fid = r16 s o; stat = decode_dir s (o + 2) })
  end
  else if code = twstat + 1 then begin
    need s o 2 "Rwstat";
    R (tag, Rwstat { fid = r16 s o })
  end
  else if code = tflush then begin
    need s o 2 "Tflush";
    T (tag, Tflush { oldtag = r16 s o })
  end
  else if code = tflush + 1 then R (tag, Rflush)
  else raise (Bad_message (Printf.sprintf "unknown type %d" code))

let decode_opt s =
  match decode s with
  | msg -> Ok msg
  | exception Bad_message e -> Error e

let message_name = function
  | T (_, t) -> (
    match t with
    | Tnop -> "Tnop"
    | Tauth _ -> "Tauth"
    | Tsession _ -> "Tsession"
    | Tattach _ -> "Tattach"
    | Tclone _ -> "Tclone"
    | Twalk _ -> "Twalk"
    | Tclwalk _ -> "Tclwalk"
    | Topen _ -> "Topen"
    | Tcreate _ -> "Tcreate"
    | Tread _ -> "Tread"
    | Twrite _ -> "Twrite"
    | Tclunk _ -> "Tclunk"
    | Tremove _ -> "Tremove"
    | Tstat _ -> "Tstat"
    | Twstat _ -> "Twstat"
    | Tflush _ -> "Tflush")
  | R (_, r) -> (
    match r with
    | Rnop -> "Rnop"
    | Rerror _ -> "Rerror"
    | Rauth _ -> "Rauth"
    | Rsession _ -> "Rsession"
    | Rattach _ -> "Rattach"
    | Rclone _ -> "Rclone"
    | Rwalk _ -> "Rwalk"
    | Rclwalk _ -> "Rclwalk"
    | Ropen _ -> "Ropen"
    | Rcreate _ -> "Rcreate"
    | Rread _ -> "Rread"
    | Rwrite _ -> "Rwrite"
    | Rclunk _ -> "Rclunk"
    | Rremove _ -> "Rremove"
    | Rstat _ -> "Rstat"
    | Rwstat _ -> "Rwstat"
    | Rflush -> "Rflush")

module Frame = struct
  let wrap s =
    let n = String.length s in
    let b = Bytes.create (n + 2) in
    Bytes.set b 0 (Char.chr ((n lsr 8) land 0xff));
    Bytes.set b 1 (Char.chr (n land 0xff));
    Bytes.blit_string s 0 b 2 n;
    (* b was allocated above and is never written again *)
    Bytes.unsafe_to_string b

  type splitter = { mutable pending : string }

  let splitter () = { pending = "" }

  let feed sp chunk =
    sp.pending <- sp.pending ^ chunk;
    let out = ref [] in
    let continue_ = ref true in
    while !continue_ do
      let p = sp.pending in
      if String.length p < 2 then continue_ := false
      else begin
        let n = (Char.code p.[0] lsl 8) lor Char.code p.[1] in
        if String.length p < 2 + n then continue_ := false
        else begin
          out := String.sub p 2 n :: !out;
          sp.pending <- String.sub p (2 + n) (String.length p - 2 - n)
        end
      end
    done;
    List.rev !out
end
