(* The cfs benchmark: replay a diskless-boot-style read trace over a
   9600-baud serial line, with the file server on the far end, and
   compare the raw mount against the same mount through the Cfs
   caching proxy.  Everything is virtual time on one seeded engine, so
   the emitted JSON is byte-identical across runs with the same seed. *)

(* What a terminal reads while booting: the kernel image, then the
   startup files — several of which are read again by every new shell. *)
let boot_files =
  [
    ("/mips/9power", 9336);
    ("/lib/namespace", 700);
    ("/rc/lib/rcmain", 1200);
    ("/bin/rc", 6100);
    ("/lib/ndb/local", 2048);
  ]

let boot_trace =
  List.map fst boot_files
  @ [
      (* each rc and each window re-reads the startup files *)
      "/lib/namespace"; "/rc/lib/rcmain"; "/lib/ndb/local"; "/lib/namespace";
      "/rc/lib/rcmain"; "/bin/rc"; "/lib/ndb/local"; "/lib/namespace";
    ]

let trace_bytes =
  List.fold_left
    (fun acc p -> acc + List.assoc p boot_files)
    0 boot_trace

(* count T-messages and bytes crossing the serial wire *)
let counted tr rts bytes =
  {
    Ninep.Transport.t_send =
      (fun m ->
        incr rts;
        bytes := !bytes + String.length m;
        tr.Ninep.Transport.t_send m);
    t_recv =
      (fun () ->
        match tr.Ninep.Transport.t_recv () with
        | Some m as r ->
          bytes := !bytes + String.length m;
          r
        | None -> None);
    t_close = tr.Ninep.Transport.t_close;
  }

type run = {
  r_round_trips : int;
  r_wire_bytes : int;
  r_elapsed : float;  (* virtual seconds to finish the replay *)
  r_cache : Cfs.t option;
}

let split_path p =
  List.filter (fun s -> s <> "") (String.split_on_char '/' p)

(* replay a read trace the way a boot loader does: walk, open, read
   sequentially in small 512-byte chunks, clunk *)
let replay_trace client root trace =
  List.iter
    (fun path ->
      let fid = Ninep.Client.walk_path client root (split_path path) in
      ignore (Ninep.Client.open_ client fid Ninep.Fcall.Oread);
      let rec go off =
        let data =
          Ninep.Client.read client fid ~offset:(Int64.of_int off) ~count:512
        in
        if data <> "" then go (off + String.length data)
      in
      go 0;
      Ninep.Client.clunk client fid)
    trace

let replay ~cached ~seed ~baud =
  let eng = Sim.Engine.create ~seed () in
  let term_end, srv_end =
    Netsim.Serial.create_pair ~baud ~name:"bootline" eng
  in
  let ramfs = Ninep.Ramfs.make ~owner:"bootes" ~name:"bootfs" () in
  List.iter
    (fun (path, size) ->
      Ninep.Ramfs.add_file ramfs path (P9net.Bootstage.file_body path size))
    boot_files;
  ignore
    (Ninep.Server.serve eng (Ninep.Ramfs.fs ramfs)
       (P9net.Eia_dev.transport srv_end));
  let rts = ref 0 and wire = ref 0 in
  let wire_tr = counted (P9net.Eia_dev.transport term_end) rts wire in
  let cache = if cached then Some (Cfs.make eng ~upstream:wire_tr ()) else None in
  let client_tr =
    match cache with Some c -> Cfs.transport c | None -> wire_tr
  in
  let client = Ninep.Client.make eng client_tr in
  let finish = ref 0. in
  ignore
    (Sim.Proc.spawn eng ~name:"terminal" (fun () ->
         Ninep.Client.session client;
         let root = Ninep.Client.attach client ~uname:"terminal" ~aname:"" in
         replay_trace client root boot_trace;
         finish := Sim.Engine.now eng));
  Sim.Engine.run eng;
  {
    r_round_trips = !rts;
    r_wire_bytes = !wire;
    r_elapsed = !finish;
    r_cache = cache;
  }

let json ~seed ~baud uncached cached =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"cfs\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"baud\": %d,\n" baud;
  Printf.bprintf b "  \"trace_items\": %d,\n" (List.length boot_trace);
  Printf.bprintf b "  \"trace_bytes\": %d,\n" trace_bytes;
  Printf.bprintf b
    "  \"uncached\": {\"round_trips\": %d, \"wire_bytes\": %d, \
     \"elapsed_s\": %.6f},\n"
    uncached.r_round_trips uncached.r_wire_bytes uncached.r_elapsed;
  let c = Option.get cached.r_cache in
  Printf.bprintf b
    "  \"cached\": {\"round_trips\": %d, \"wire_bytes\": %d, \
     \"elapsed_s\": %.6f, \"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"invalidations\": %d},\n"
    cached.r_round_trips cached.r_wire_bytes cached.r_elapsed
    (Cfs.counter c "hits") (Cfs.counter c "misses")
    (Cfs.counter c "evictions")
    (Cfs.counter c "invalidations");
  Printf.bprintf b "  \"rt_reduction\": %.4f,\n"
    (1.
    -. (float_of_int cached.r_round_trips
       /. float_of_int uncached.r_round_trips));
  Printf.bprintf b "  \"speedup\": %.4f\n"
    (uncached.r_elapsed /. cached.r_elapsed);
  Printf.bprintf b "}\n";
  Buffer.contents b

type result = {
  res_json : string;
  res_uncached_rts : int;
  res_cached_rts : int;
  res_uncached_elapsed : float;
  res_cached_elapsed : float;
}

let run ?(seed = 9) ?(baud = 9600) () =
  let uncached = replay ~cached:false ~seed ~baud in
  let cached = replay ~cached:true ~seed ~baud in
  {
    res_json = json ~seed ~baud uncached cached;
    res_uncached_rts = uncached.r_round_trips;
    res_cached_rts = cached.r_round_trips;
    res_uncached_elapsed = uncached.r_elapsed;
    res_cached_elapsed = cached.r_elapsed;
  }
