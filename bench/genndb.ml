(* Synthetic network database generator: reproduces the scale of the
   paper's /lib/ndb/global — "containing all information about both
   Datakit and Internet systems in AT&T, has 43,000 lines". *)

let system_lines = 5

let generate ~lines =
  let systems = lines / system_lines in
  let b = Buffer.create (lines * 40) in
  Buffer.add_string b
    "ipnet=att-net ip=135.0.0.0 ipmask=255.255.0.0\n\tauth=attauth\n";
  for i = 0 to systems - 1 do
    let third = (i / 250) mod 250 and fourth = i mod 250 in
    Buffer.add_string b (Printf.sprintf "sys=sys%06d\n" i);
    Buffer.add_string b
      (Printf.sprintf "\tdom=sys%06d.att.com\n" i);
    Buffer.add_string b
      (Printf.sprintf "\tip=135.%d.%d.%d\n" ((i / 62500) mod 120)
         third fourth);
    Buffer.add_string b
      (Printf.sprintf "\tether=aa0069%06x\n" (i land 0xffffff));
    Buffer.add_string b (Printf.sprintf "\tdk=nj/astro/sys%06d\n" i)
  done;
  Buffer.contents b

let nth_sys i = Printf.sprintf "sys%06d" i

(* A routed internet in ndb form: [leaves] client subnets, each behind
   its own gateway, the gateways joined by two Ethernet backbones that
   meet over a point-to-point Datakit subnet (medium=dk), and a server
   subnet hanging off the right-hand core.  Every subnet entry carries
   an explicit ipmask, and clients inherit their default route from the
   leaf's ipgw.  Machines are listed in the order the routed swarm
   bench boots them (it boots in database order, and BENCH_routed.json
   depends on that order): the right core, the left core, the leaf
   gateways, the server, the clients.  Each machine's Ethernet address
   is fixed by its role, not by its place in the list: the leaf
   gateways are numbered first, then the cores, the server and the
   clients. *)

let gw_sys k = Printf.sprintf "gw%02d" k
let client_sys k i = Printf.sprintf "cl%02d-%03d" k i
let leaf_net k = Printf.sprintf "leaf%d" k
let server_sys = "swarmsrv"
let server_ip = "10.200.0.9"

let subnetted ?(leaves = 16) ?(clients_per_leaf = 14) () =
  if leaves < 2 || leaves > 98 then invalid_arg "subnetted: leaves";
  if clients_per_leaf < 1 || clients_per_leaf > 250 then
    invalid_arg "subnetted: clients_per_leaf";
  let b = Buffer.create 16384 in
  let mac n = Printf.sprintf "aa1069%06x" n in
  let core = 2 * leaves in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  for k = 1 to leaves do
    line "ipnet=%s ip=10.%d.0.0 ipmask=255.255.0.0" (leaf_net k) k;
    line "\tipgw=10.%d.0.1" k
  done;
  line "ipnet=bbl ip=10.100.0.0 ipmask=255.255.0.0";
  line "ipnet=bbr ip=10.101.0.0 ipmask=255.255.0.0";
  line "ipnet=srv ip=10.200.0.0 ipmask=255.255.0.0";
  line "\tipgw=10.200.0.1";
  line "ipnet=dkt ip=10.255.0.0 ipmask=255.255.0.0";
  line "\tmedium=dk";
  (* the cores: right joins the Datakit transit to bbr and the server
     subnet, left joins bbl to the transit *)
  line "sys=gwcorer";
  line "\tip=10.101.0.254 ether=%s" (mac (core + 2));
  line "\tip=10.200.0.1 ether=%s" (mac (core + 3));
  line "\tip=10.255.0.2";
  line "\tdk=nj/bb/gwcorer";
  line "sys=gwcorel";
  line "\tip=10.100.0.254 ether=%s" (mac (core + 1));
  line "\tip=10.255.0.1";
  line "\tdk=nj/bb/gwcorel";
  (* leaf gateways: a NIC on the leaf, a NIC on their backbone *)
  for k = 1 to leaves do
    let bb = if 2 * k <= leaves then "100" else "101" in
    line "sys=%s" (gw_sys k);
    line "\tip=10.%d.0.1 ether=%s" k (mac ((2 * k) - 1));
    line "\tip=10.%s.0.%d ether=%s" bb k (mac (2 * k))
  done;
  line "sys=%s" server_sys;
  line "\tip=%s ether=%s" server_ip (mac (core + 4));
  for k = 1 to leaves do
    for i = 1 to clients_per_leaf do
      line "sys=%s" (client_sys k i);
      line "\tip=10.%d.1.%d ether=%s" k i
        (mac (core + 4 + ((k - 1) * clients_per_leaf) + i))
    done
  done;
  line "il=echo\tport=56";
  line "tcp=echo\tport=7";
  line "il=exportfs\tport=17007";
  line "tcp=exportfs\tport=17007";
  Buffer.contents b

let write_temp ~lines =
  let dir = Filename.temp_file "ndbbench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "global" in
  let oc = open_out path in
  output_string oc (generate ~lines);
  close_out oc;
  (dir, path)

let cleanup dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()
