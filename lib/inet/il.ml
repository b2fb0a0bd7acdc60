let src = Logs.Src.create "il" ~doc:"IL protocol"

module Log = (val Logs.src_log src : Logs.LOG)

let header_len = 18

type msg_type = Sync | Data | Dataquery | Ack | Query | State | Close | Reset

let type_code = function
  | Sync -> 0
  | Data -> 1
  | Dataquery -> 2
  | Ack -> 3
  | Query -> 4
  | State -> 5
  | Close -> 6
  | Reset -> 7

let type_of_code = function
  | 0 -> Some Sync
  | 1 -> Some Data
  | 2 -> Some Dataquery
  | 3 -> Some Ack
  | 4 -> Some Query
  | 5 -> Some State
  | 6 -> Some Close
  | 7 -> Some Reset
  | _ -> None

type config = {
  window : int;
  min_timeout : float;
  max_timeout : float;
  death_time : float;
  ack_delay : float;
  fast_recovery : bool;
  cpu : Sim.Cpu.t option;
  cost_per_msg : float;
  cost_per_byte : float;
}

let default_config =
  {
    window = 20;
    min_timeout = 0.05;
    max_timeout = 4.0;
    death_time = 30.0;
    ack_delay = 0.02;
    fast_recovery = true;
    cpu = None;
    cost_per_msg = 0.;
    cost_per_byte = 0.;
  }

type counters = {
  mutable msgs_sent : int;
  mutable msgs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable retransmitted_bytes : int;
  mutable queries_sent : int;
  mutable dups_dropped : int;
  mutable out_of_window : int;
  mutable resets : int;
  mutable rtt_samples : int;
}

let zero_counters () =
  {
    msgs_sent = 0;
    msgs_rcvd = 0;
    bytes_sent = 0;
    bytes_rcvd = 0;
    retransmits = 0;
    retransmitted_bytes = 0;
    queries_sent = 0;
    dups_dropped = 0;
    out_of_window = 0;
    resets = 0;
    rtt_samples = 0;
  }

type conv_state = SClosed | SSyncer | SSyncee | SEstablished | SClosing

exception Refused = Xport.Refused
exception Timeout = Xport.Timeout
exception Hungup = Xport.Hungup
exception Port_exhausted = Xport.Port_exhausted

type conv = {
  cid : int;
  stack : stack;
  lport : int;
  rport : int;
  raddr : Ipaddr.t;
  cstats : counters;  (* per-conversation mirror of the stack counters *)
  mutable state : conv_state;
  mutable start : int;  (* our initial sequence number *)
  mutable next : int;  (* next id we will send *)
  mutable rstart : int;  (* peer's initial sequence number *)
  mutable recvd : int;  (* highest in-order id received *)
  mutable unacked : (int * string) list;  (* ascending ids awaiting ack *)
  mutable oow : (int * bytes) list;  (* out-of-order buffer, ascending *)
  rq : Block.Q.t;
  wwait : Sim.Rendez.t;  (* writers waiting for window space *)
  estwait : Sim.Rendez.t;  (* connect/close waiters *)
  mutable srtt : float;
  mutable mdev : float;
  mutable backoff : int;
  rexmit_tmr : Sim.Time.timer;  (* disarmed = nothing awaiting (re)send *)
  death_tmr : Sim.Time.timer;
  mutable death_at : float;
      (* the death deadline is pushed on every ack; rather than re-arm
         the heap entry each time, the timer fires at the stale deadline
         and re-arms itself if the real one has moved (lazy reschedule) *)
  ack_tmr : Sim.Time.timer;  (* delayed ack, armed = ack owed *)
  mutable rtt_id : int;  (* message being timed, 0 = none *)
  mutable rtt_sent_at : float;
  mutable err : string option;
  mutable close_sent : bool;
  mutable lis : conv Xport.listener option;  (* half-open syncee's slot *)
}

and stack = {
  eng : Sim.Engine.t;
  cfg : config;
  tab : conv Xport.t;
  stats : counters;
}

let counters st = st.stats
let local_addr st = Xport.local_addr st.tab
let local_port c = c.lport
let remote_port c = c.rport
let remote_addr c = c.raddr

let state_str = function
  | SClosed -> "Closed"
  | SSyncer -> "Syncer"
  | SSyncee -> "Syncee"
  | SEstablished -> "Established"
  | SClosing -> "Closing"

let status c =
  Printf.sprintf
    "il/%d %d %s sent %d rcvd %d unacked %d window %d rexmit %d rtt %.0fms"
    c.cid c.lport (state_str c.state) (c.next - c.start - 1)
    (c.recvd - c.rstart) (List.length c.unacked) c.stack.cfg.window
    c.cstats.retransmits (c.srtt *. 1000.)

let conv_stats c =
  let s = c.cstats in
  String.concat "\n"
    [
      Printf.sprintf "msgs_sent %d" s.msgs_sent;
      Printf.sprintf "msgs_rcvd %d" s.msgs_rcvd;
      Printf.sprintf "bytes_sent %d" s.bytes_sent;
      Printf.sprintf "bytes_rcvd %d" s.bytes_rcvd;
      Printf.sprintf "retransmits %d" s.retransmits;
      Printf.sprintf "retransmitted_bytes %d" s.retransmitted_bytes;
      Printf.sprintf "queries_sent %d" s.queries_sent;
      Printf.sprintf "dups_dropped %d" s.dups_dropped;
      Printf.sprintf "out_of_window %d" s.out_of_window;
      Printf.sprintf "resets %d" s.resets;
      Printf.sprintf "rtt_samples %d" s.rtt_samples;
      Printf.sprintf "rtt_ms %.3f" (c.srtt *. 1000.);
    ]
  ^ "\n"

(* state transitions are traced; every change funnels through here *)
let set_state c s =
  if c.state <> s then begin
    Xport.trace_state c.stack.tab c.cid ~from_:(state_str c.state)
      ~to_:(state_str s);
    c.state <- s
  end

(* ---- wire format ---- *)

let encode ~ty ~sport ~dport ~id ~ack payload =
  let len = header_len + String.length payload in
  let b = Bytes.create len in
  Xport.put16 b 0 0;
  Xport.put16 b 2 len;
  Bytes.set b 4 (Char.chr (type_code ty));
  Bytes.set b 5 '\000';
  Xport.put16 b 6 sport;
  Xport.put16 b 8 dport;
  Xport.put32 b 10 id;
  Xport.put32 b 14 ack;
  Bytes.blit_string payload 0 b header_len (String.length payload);
  Xport.put16 b 0 (Chksum.checksum_bytes b);
  (* b was allocated above and is never written again *)
  Bytes.unsafe_to_string b

type packet = {
  p_ty : msg_type;
  p_sport : int;
  p_dport : int;
  p_id : int;
  p_ack : int;
  p_data : bytes;  (* a fresh copy, handed to the receive queue's block *)
}

let decode pkt =
  if String.length pkt < header_len then None
  else if not (Chksum.valid pkt) then None
  else if Xport.get16 pkt 2 <> String.length pkt then None
  else
    match type_of_code (Char.code pkt.[4]) with
    | None -> None
    | Some ty ->
      let data = Bytes.create (String.length pkt - header_len) in
      Bytes.blit_string pkt header_len data 0 (Bytes.length data);
      Some
        {
          p_ty = ty;
          p_sport = Xport.get16 pkt 6;
          p_dport = Xport.get16 pkt 8;
          p_id = Xport.get32 pkt 10;
          p_ack = Xport.get32 pkt 14;
          p_data = data;
        }

(* ---- output ---- *)

let xmit c ty ~id ?(data = "") () =
  (* every outgoing message acknowledges what we have received *)
  if ty = Data || ty = Ack then Sim.Time.disarm c.ack_tmr;
  Xport.send c.stack.tab ~dst:c.raddr
    (encode ~ty ~sport:c.lport ~dport:c.rport ~id ~ack:c.recvd data)

let rto c =
  let t = c.srtt +. (4. *. c.mdev) in
  let t = t *. float_of_int (1 lsl min c.backoff 6) in
  min c.stack.cfg.max_timeout (max c.stack.cfg.min_timeout t)

(* ---- teardown ---- *)

let destroy c reason =
  if c.state <> SClosed then begin
    set_state c SClosed;
    c.err <- reason;
    Sim.Time.disarm c.rexmit_tmr;
    Sim.Time.disarm c.death_tmr;
    Sim.Time.disarm c.ack_tmr;
    Xport.drop c.stack.tab ~lport:c.lport ~rport:c.rport ~raddr:c.raddr c.lis;
    c.lis <- None;
    Block.Q.force_put c.rq (Block.hangup ());
    Block.Q.close c.rq;
    Sim.Rendez.wakeup_all c.wwait;
    Sim.Rendez.wakeup_all c.estwait
  end

(* ---- per-conversation timers ----

   There is no protocol ticker: each conversation arms exactly the
   deadlines it needs on the engine heap and disarms them when the work
   is acknowledged, so an idle conversation schedules nothing at all. *)

let rec arm_timer c =
  Sim.Time.arm_at c.rexmit_tmr
    (Sim.Engine.now c.stack.eng +. rto c)
    (fun () -> rexmit_fire c)

and rexmit_fire c =
  match c.state with
  | SClosed -> ()
  | SSyncer | SSyncee ->
    c.backoff <- c.backoff + 1;
    xmit c Sync ~id:c.start ();
    arm_timer c
  | SEstablished | SClosing ->
    if c.unacked <> [] || c.state = SClosing then begin
      if c.state = SClosing && c.close_sent then begin
        c.backoff <- c.backoff + 1;
        xmit c Close ~id:(c.next - 1) ();
        arm_timer c
      end
      else begin
        (* a timeout sends a small query, not the data *)
        c.stack.stats.queries_sent <- c.stack.stats.queries_sent + 1;
        c.cstats.queries_sent <- c.cstats.queries_sent + 1;
        c.backoff <- c.backoff + 1;
        (* Karn: once recovery starts, the timed message's ack may
           arrive via the Query/State exchange; a sample would fold
           the whole timeout into srtt *)
        c.rtt_id <- 0;
        xmit c Query ~id:(c.next - 1) ();
        arm_timer c
      end
    end

let rec arm_death c =
  c.death_at <- Sim.Engine.now c.stack.eng +. c.stack.cfg.death_time;
  if not (Sim.Time.armed c.death_tmr) then
    Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c)

and death_fire c =
  if Sim.Engine.now c.stack.eng < c.death_at then
    (* the deadline moved while we slept: chase it *)
    Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c)
  else
    match c.state with
    | SClosed -> ()
    | SSyncer | SSyncee -> destroy c (Some "connect timed out")
    | SEstablished | SClosing ->
      (* an idle, fully-acked conversation just lets the timer lapse;
         fresh traffic re-arms it *)
      if c.unacked <> [] || c.state = SClosing then
        destroy c (Some "connection timed out")

(* ---- rtt ---- *)

let rtt_sample c sample =
  c.stack.stats.rtt_samples <- c.stack.stats.rtt_samples + 1;
  c.cstats.rtt_samples <- c.cstats.rtt_samples + 1;
  if c.srtt = 0. then begin
    c.srtt <- sample;
    c.mdev <- sample /. 2.
  end
  else begin
    let err = sample -. c.srtt in
    (* adapt quickly upward: on a window-limited sender the measured
       round trip includes queueing behind the whole window, and a slow
       climb means a storm of spurious queries *)
    let gain = if err > 0. then 2. else 8. in
    c.srtt <- c.srtt +. (err /. gain);
    c.mdev <- c.mdev +. ((Float.abs err -. c.mdev) /. 4.)
  end

(* ---- ack processing ---- *)

let process_ack c ack =
  let before = List.length c.unacked in
  c.unacked <- List.filter (fun (id, _) -> id > ack) c.unacked;
  let acked = before - List.length c.unacked in
  if acked > 0 then begin
    if c.rtt_id <> 0 && ack >= c.rtt_id then begin
      rtt_sample c (Sim.Engine.now c.stack.eng -. c.rtt_sent_at);
      c.rtt_id <- 0
    end;
    c.backoff <- 0;
    arm_death c;
    if c.unacked = [] then Sim.Time.disarm c.rexmit_tmr else arm_timer c;
    Sim.Rendez.wakeup_all c.wwait
  end

(* ---- receive path ---- *)

let deliver c data =
  c.stack.stats.msgs_rcvd <- c.stack.stats.msgs_rcvd + 1;
  c.stack.stats.bytes_rcvd <- c.stack.stats.bytes_rcvd + Bytes.length data;
  c.cstats.msgs_rcvd <- c.cstats.msgs_rcvd + 1;
  c.cstats.bytes_rcvd <- c.cstats.bytes_rcvd + Bytes.length data;
  Block.Q.force_put c.rq (Block.make_bytes ~delim:true data)

let send_ack_now c = xmit c Ack ~id:(c.next - 1) ()

let schedule_ack c =
  if not (Sim.Time.armed c.ack_tmr) then
    Sim.Time.arm c.ack_tmr c.stack.cfg.ack_delay (fun () -> send_ack_now c)

let rec drain_oow c =
  match c.oow with
  | (id, data) :: rest when id = c.recvd + 1 ->
    c.oow <- rest;
    c.recvd <- id;
    deliver c data;
    drain_oow c
  | (id, _) :: rest when id <= c.recvd ->
    c.oow <- rest;
    drain_oow c
  | _ :: _ | [] -> ()

let handle_data c (p : packet) =
  if p.p_id = c.recvd + 1 then begin
    c.recvd <- p.p_id;
    deliver c p.p_data;
    drain_oow c;
    schedule_ack c
  end
  else if p.p_id <= c.recvd then begin
    c.stack.stats.dups_dropped <- c.stack.stats.dups_dropped + 1;
    c.cstats.dups_dropped <- c.cstats.dups_dropped + 1;
    (* a duplicate usually means our ack was lost: re-ack at once *)
    send_ack_now c
  end
  else if p.p_id - c.recvd <= c.stack.cfg.window then begin
    if List.mem_assoc p.p_id c.oow then begin
      (* a duplicate of a message already buffered out of order: it
         must not be delivered again when the gap fills *)
      c.stack.stats.dups_dropped <- c.stack.stats.dups_dropped + 1;
      c.cstats.dups_dropped <- c.cstats.dups_dropped + 1
    end
    else
      c.oow <-
        List.sort (fun (a, _) (b, _) -> compare a b) ((p.p_id, p.p_data) :: c.oow);
    (* a gap means a message was lost: volunteer our sequence state so
       the sender can resend the missing one without waiting for its
       query timer (the timer remains the backstop) *)
    let buffered = List.length c.oow in
    if c.stack.cfg.fast_recovery && (buffered = 1 || buffered mod 8 = 0)
    then xmit c State ~id:(c.next - 1) ()
    else schedule_ack c
  end
  else begin
    c.stack.stats.out_of_window <- c.stack.stats.out_of_window + 1;
    c.cstats.out_of_window <- c.cstats.out_of_window + 1
  end

let retransmit_missing c peer_ack =
  (* resend only the oldest message the peer lacks (as the real IL
     did): later ones are usually still in flight, and the receiver's
     window buffers successors, so one resend unlocks a cumulative
     ack.  This is what keeps IL polite in congestion. *)
  match List.find_opt (fun (id, _) -> id > peer_ack) c.unacked with
  | Some (id, data) ->
    c.stack.stats.retransmits <- c.stack.stats.retransmits + 1;
    c.stack.stats.retransmitted_bytes <-
      c.stack.stats.retransmitted_bytes + String.length data;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    c.cstats.retransmitted_bytes <-
      c.cstats.retransmitted_bytes + String.length data;
    Xport.trace_retransmit c.stack.tab c.cid ~id ~bytes:(String.length data);
    (* Karn: a message that was retransmitted must not contribute a
       round-trip sample — it would fold the whole recovery delay into
       srtt *)
    c.rtt_id <- 0;
    xmit c Data ~id ~data ();
    c.backoff <- c.backoff + 1;
    arm_timer c
  | None -> ()

let handle_packet c (p : packet) =
  match c.state with
  | SClosed -> ()
  | SSyncer -> (
    match p.p_ty with
    | Sync when p.p_ack = c.start ->
      c.rstart <- p.p_id;
      c.recvd <- p.p_id;
      set_state c SEstablished;
      Sim.Time.disarm c.rexmit_tmr;
      c.backoff <- 0;
      arm_death c;
      send_ack_now c;
      Sim.Rendez.wakeup_all c.estwait
    | Reset -> destroy c (Some "connection refused")
    | Sync | Data | Dataquery | Ack | Query | State | Close -> ())
  | SSyncee -> (
    match p.p_ty with
    | (Ack | Data | Dataquery) when p.p_ack >= c.start ->
      set_state c SEstablished;
      Sim.Time.disarm c.rexmit_tmr;
      c.backoff <- 0;
      arm_death c;
      (match c.lis with
      | Some lis ->
        c.lis <- None;
        Xport.accepted lis c
      | None -> ());
      (match p.p_ty with
      | Data | Dataquery -> handle_data c p
      | Ack | Sync | Query | State | Close | Reset -> ())
    | Sync when p.p_id = c.rstart ->
      (* retransmitted sync from the peer: re-answer *)
      xmit c Sync ~id:c.start ()
    | Reset -> destroy c (Some "reset")
    | Sync | Ack | Data | Dataquery | Query | State | Close -> ())
  | SEstablished | SClosing -> (
    match p.p_ty with
    | Data ->
      process_ack c p.p_ack;
      handle_data c p
    | Dataquery ->
      process_ack c p.p_ack;
      handle_data c p;
      xmit c State ~id:(c.next - 1) ()
    | Ack -> process_ack c p.p_ack
    | Query ->
      (* the query carries the peer's sequence state; answer with ours *)
      process_ack c p.p_ack;
      xmit c State ~id:(c.next - 1) ()
    | State ->
      process_ack c p.p_ack;
      (* only now do we learn what the peer is missing: resend exactly
         that — never blind retransmission *)
      retransmit_missing c p.p_ack
    | Sync ->
      (* our establishing ack was lost *)
      if p.p_id = c.rstart then send_ack_now c
    | Close ->
      process_ack c p.p_ack;
      if p.p_id > c.recvd then c.recvd <- p.p_id;
      if not c.close_sent then begin
        c.close_sent <- true;
        let id = c.next in
        c.next <- c.next + 1;
        xmit c Close ~id ()
      end;
      destroy c None
    | Reset ->
      c.stack.stats.resets <- c.stack.stats.resets + 1;
      c.cstats.resets <- c.cstats.resets + 1;
      destroy c (Some "reset"))

let send_reset st ~dst ~sport ~dport ~id =
  Xport.send st.tab ~dst (encode ~ty:Reset ~sport ~dport ~id ~ack:id "")

let make_conv st ~lport ~rport ~raddr ~state ~start ~rstart =
  let c =
    {
      cid = Xport.fresh_cid st.tab;
      stack = st;
      lport;
      rport;
      raddr;
      cstats = zero_counters ();
      state;
      start;
      next = start + 1;
      rstart;
      recvd = rstart;
      unacked = [];
      oow = [];
      rq = Block.Q.create st.eng;
      wwait = Sim.Rendez.create st.eng;
      estwait = Sim.Rendez.create st.eng;
      srtt = 0.;
      mdev = 0.;
      backoff = 0;
      rexmit_tmr = Sim.Time.timer ~label:"il" st.eng;
      death_tmr = Sim.Time.timer ~label:"il" st.eng;
      death_at = Sim.Engine.now st.eng +. st.cfg.death_time;
      ack_tmr = Sim.Time.timer ~label:"il" st.eng;
      rtt_id = 0;
      rtt_sent_at = 0.;
      err = None;
      close_sent = false;
      lis = None;
    }
  in
  Xport.add st.tab ~lport ~rport ~raddr c;
  Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c);
  Xport.trace_state st.tab c.cid ~from_:"Closed" ~to_:(state_str state);
  c

let input st ~src:sa ~dst:_ pkt =
  match decode pkt with
  | None -> Xport.trace_undecodable st.tab ~header_len pkt
  | Some p -> (
    match Xport.find st.tab ~lport:p.p_dport ~rport:p.p_sport ~raddr:sa with
    | Some c -> handle_packet c p
    | None ->
      let admitted =
        p.p_ty = Sync
        && Xport.admit st.tab ~port:p.p_dport (fun lis ->
               let c =
                 make_conv st ~lport:p.p_dport ~rport:p.p_sport ~raddr:sa
                   ~state:SSyncee ~start:(Xport.isn st.tab) ~rstart:p.p_id
               in
               c.lis <- Some lis;
               arm_timer c;
               xmit c Sync ~id:c.start ())
      in
      if (not admitted) && p.p_ty <> Reset then
        send_reset st ~dst:sa ~sport:p.p_dport ~dport:p.p_sport ~id:p.p_id)

let attach ?(config = default_config) ip =
  let st =
    {
      eng = Ip.engine ip;
      cfg = config;
      tab =
        Xport.create ip ~pname:"il" ~ipproto:Ip.proto_il
          ~cpu:
            (Option.map
               (fun cpu -> (cpu, config.cost_per_msg, config.cost_per_byte))
               config.cpu);
      stats = zero_counters ();
    }
  in
  Xport.register st.tab (fun ~src ~dst pkt -> input st ~src ~dst pkt);
  st

let connect ?lport st ~raddr ~rport =
  Xport.connect st.tab lport
    ~start:(fun lport ->
      let c =
        make_conv st ~lport ~rport ~raddr ~state:SSyncer
          ~start:(Xport.isn st.tab) ~rstart:0
      in
      arm_timer c;
      xmit c Sync ~id:c.start ();
      c)
    ~state:(fun c ->
      match c.state with
      | SSyncer -> Xport.Dialing c.estwait
      | SEstablished -> Xport.Up
      | SClosed | SSyncee | SClosing -> Xport.Down c.err)

let announce ?backlog st ~port = Xport.announce ?backlog st.tab ~port
let refusals st = Xport.refusals st.tab
let conv_count st = Xport.conv_count st.tab

let write c data =
  (match c.state with
  | SEstablished -> ()
  | SClosed | SClosing | SSyncer | SSyncee -> raise Hungup);
  while
    c.state = SEstablished
    && List.length c.unacked >= c.stack.cfg.window
  do
    Sim.Rendez.sleep c.wwait
  done;
  if c.state <> SEstablished then raise Hungup;
  let id = c.next in
  c.next <- id + 1;
  c.unacked <- c.unacked @ [ (id, data) ];
  c.stack.stats.msgs_sent <- c.stack.stats.msgs_sent + 1;
  c.stack.stats.bytes_sent <- c.stack.stats.bytes_sent + String.length data;
  c.cstats.msgs_sent <- c.cstats.msgs_sent + 1;
  c.cstats.bytes_sent <- c.cstats.bytes_sent + String.length data;
  if c.rtt_id = 0 then begin
    c.rtt_id <- id;
    c.rtt_sent_at <- Sim.Engine.now c.stack.eng
  end;
  if not (Sim.Time.armed c.rexmit_tmr) then begin
    arm_timer c;
    arm_death c
  end;
  xmit c Data ~id ~data ()

let read c n = Block.Q.read c.rq n

let read_msg c =
  match Block.Q.get c.rq with
  | Some b -> Some (Block.to_string b)
  | None -> None

let close c =
  match c.state with
  | SClosed -> ()
  | SSyncer | SSyncee -> destroy c None
  | SClosing -> ()
  | SEstablished ->
    set_state c SClosing;
    c.close_sent <- true;
    let id = c.next in
    c.next <- id + 1;
    xmit c Close ~id ();
    arm_timer c;
    arm_death c;
    (* the peer's Close (handled above) destroys the conversation;
       don't block the closer — Plan 9's close doesn't linger *)
    ()

let _ = ignore Log.debug
