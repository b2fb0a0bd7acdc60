let header_len = 8

type counters = {
  mutable dg_sent : int;
  mutable dg_rcvd : int;
  mutable dg_dropped_noport : int;
}

type conv = {
  stack : stack;
  cport : int;
  inbox : (Ipaddr.t * int * string) Sim.Mbox.t;
  mutable open_ : bool;
}

and stack = {
  eng : Sim.Engine.t;
  ip : Ip.stack;
  ports : conv Xport.ports;
  stats : counters;
}

let engine st = st.eng
let local_addr st = Ip.addr st.ip
let counters st = st.stats
let port c = c.cport

let encode ~sport ~dport payload =
  let len = header_len + String.length payload in
  let b = Bytes.create len in
  Xport.put16 b 0 sport;
  Xport.put16 b 2 dport;
  Xport.put16 b 4 len;
  Xport.put16 b 6 0;
  Bytes.blit_string payload 0 b header_len (String.length payload);
  let sum = Chksum.checksum_bytes b in
  Xport.put16 b 6 (if sum = 0 then 0xffff else sum);
  (* b was allocated above and is never written again *)
  Bytes.unsafe_to_string b

let input st ~src ~dst:_ pkt =
  if String.length pkt >= header_len && Chksum.valid pkt then begin
    let sport = Xport.get16 pkt 0 and dport = Xport.get16 pkt 2 in
    let len = Xport.get16 pkt 4 in
    if len = String.length pkt then
      match Hashtbl.find_opt st.ports.bound dport with
      | Some conv when conv.open_ ->
        st.stats.dg_rcvd <- st.stats.dg_rcvd + 1;
        Sim.Mbox.send conv.inbox
          (src, sport, String.sub pkt header_len (len - header_len))
      | Some _ | None ->
        st.stats.dg_dropped_noport <- st.stats.dg_dropped_noport + 1
  end

let attach ip =
  let st =
    {
      eng = Ip.engine ip;
      ip;
      ports = Xport.ports 17;
      stats = { dg_sent = 0; dg_rcvd = 0; dg_dropped_noport = 0 };
    }
  in
  Ip.register_proto ip ~proto:Ip.proto_udp (fun ~src ~dst pkt ->
      input st ~src ~dst pkt);
  st

let bind ?port st =
  let p =
    match port with
    | Some p ->
      if Hashtbl.mem st.ports.bound p then
        invalid_arg (Printf.sprintf "Udp.bind: port %d in use" p);
      p
    | None -> Xport.alloc_port st.ports
  in
  let conv = { stack = st; cport = p; inbox = Sim.Mbox.create st.eng;
               open_ = true }
  in
  Hashtbl.replace st.ports.bound p conv;
  conv

let send c ~dst ~dport payload =
  c.stack.stats.dg_sent <- c.stack.stats.dg_sent + 1;
  Ip.send c.stack.ip ~proto:Ip.proto_udp ~dst
    (encode ~sport:c.cport ~dport payload)

let recv c = Sim.Mbox.recv c.inbox
let try_recv c = Sim.Mbox.try_recv c.inbox

let close c =
  c.open_ <- false;
  Hashtbl.remove c.stack.ports.bound c.cport
