type conv = { c_send : string -> unit; c_recv : int -> string }

type path = {
  p_name : string;
  p_paper_mbs : float;
  p_paper_ms : float;
  p_build : unit -> Sim.Engine.t * conv * conv;
}

(* calibration constants (see DESIGN.md / EXPERIMENTS.md): a 25 MHz
   MIPS R3000 spends roughly this much on each operation *)
let syscall_cost = 63e-6
let pipe_copy_rate = 17.3e6  (* bytes/s memcpy through the kernel *)
let ether_frame_overhead = 0.21e-3  (* preamble, IFG, LANCE setup *)
let il_msg_cost = 130e-6  (* IL protocol processing per message *)
let urp_cell_cost = 150e-6
let dk_line_rate = 1.8e6  (* effective Datakit line, bits/s *)
let dk_switch_latency = 0.4e-3
let cyclone_msg_cost = 25e-6
let cyclone_copy_rate = 3.23e6  (* single copy, memory to fiber *)

(* a process's end of a path: every write and read is a system call
   costing [send bytes] / [recv bytes] of [cpu] time, paid before the
   write and after the read *)
let syscalls cpu ~send ~recv ~write ~read =
  {
    c_send =
      (fun data ->
        Sim.Cpu.busy_wait cpu (send (String.length data));
        write data);
    c_recv =
      (fun n ->
        let data = read n in
        Sim.Cpu.busy_wait cpu (recv (String.length data));
        data);
  }

let flat_syscall _ = syscall_cost

(* ---- pipes: both processes on one machine, one CPU ---- *)

let pipes =
  {
    p_name = "pipes";
    p_paper_mbs = 8.15;
    p_paper_ms = 0.255;
    p_build =
      (fun () ->
        let eng = Sim.Engine.create () in
        let cpu = Sim.Cpu.create eng in
        let a, b = Streams.Pipe.create ~qlimit:(64 * 1024) eng in
        let copy n = syscall_cost +. (float_of_int n /. pipe_copy_rate) in
        let wrap stream =
          syscalls cpu ~send:copy ~recv:copy ~write:(Streams.write stream)
            ~read:(Streams.read stream)
        in
        (eng, wrap a, wrap b));
  }

(* ---- IL over Ethernet: two hosts, a CPU each ---- *)

let il_ether =
  {
    p_name = "IL/ether";
    p_paper_mbs = 1.02;
    p_paper_ms = 1.42;
    p_build =
      (fun () ->
        let eng = Sim.Engine.create () in
        let seg =
          Netsim.Ether.create ~bandwidth_bps:10e6 ~latency:50e-6
            ~frame_overhead:ether_frame_overhead ~name:"ether0" eng
        in
        let mk n addr =
          let cpu = Sim.Cpu.create eng in
          let nic =
            Netsim.Ether.attach seg
              (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
          in
          let port = Inet.Etherport.create eng nic in
          let ip =
            Inet.Ip.create ~addr:(Inet.Ipaddr.of_string addr)
              ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
              port
          in
          let il =
            Inet.Il.attach
              ~config:
                {
                  Inet.Il.default_config with
                  cpu = Some cpu;
                  cost_per_msg = il_msg_cost;
                }
              ip
          in
          (cpu, il)
        in
        let cpu_a, il_a = mk 1 "135.104.9.1" in
        let cpu_b, il_b = mk 2 "135.104.9.2" in
        let lis = Inet.Il.announce il_b ~port:9999 in
        let accepted = ref None in
        ignore
          (Sim.Proc.spawn eng ~name:"accept" (fun () ->
               accepted := Some (Inet.Il.listen lis)));
        let dialer = ref None in
        ignore
          (Sim.Proc.spawn eng ~name:"dial" (fun () ->
               dialer :=
                 Some
                   (Inet.Il.connect il_a
                      ~raddr:(Inet.Ipaddr.of_string "135.104.9.2")
                      ~rport:9999)));
        Sim.Engine.run ~until:5.0 eng;
        let ca = Option.get !dialer and cb = Option.get !accepted in
        let wrap cpu conv =
          syscalls cpu ~send:flat_syscall ~recv:flat_syscall
            ~write:(Inet.Il.write conv) ~read:(Inet.Il.read conv)
        in
        (eng, wrap cpu_a ca, wrap cpu_b cb));
  }

(* ---- URP over Datakit ---- *)

let urp_datakit =
  {
    p_name = "URP/Datakit";
    p_paper_mbs = 0.22;
    p_paper_ms = 1.75;
    p_build =
      (fun () ->
        let eng = Sim.Engine.create () in
        let sw =
          Dk.Switch.create ~bandwidth_bps:dk_line_rate
            ~latency:dk_switch_latency ~name:"dk" eng
        in
        let la = Dk.Switch.attach sw ~name:"nj/astro/a" in
        let lb = Dk.Switch.attach sw ~name:"nj/astro/b" in
        let cpu_a = Sim.Cpu.create eng and cpu_b = Sim.Cpu.create eng in
        let cfg cpu =
          {
            Dk.Urp.default_config with
            cpu = Some cpu;
            cost_per_cell = urp_cell_cost;
          }
        in
        let ua = ref None and ub = ref None in
        ignore
          (Sim.Proc.spawn eng ~name:"b" (fun () ->
               let calls = Dk.Circuit.announce lb ~service:"bench" in
               let inc = Sim.Mbox.recv calls in
               ub := Some (Dk.Urp.over ~config:(cfg cpu_b) (Dk.Circuit.accept inc))));
        ignore
          (Sim.Proc.spawn eng ~name:"a" (fun () ->
               let circ =
                 Dk.Circuit.dial la ~dest:"nj/astro/b" ~service:"bench"
               in
               ua := Some (Dk.Urp.over ~config:(cfg cpu_a) circ)));
        Sim.Engine.run ~until:5.0 eng;
        let ca = Option.get !ua and cb = Option.get !ub in
        let wrap cpu conv =
          syscalls cpu ~send:flat_syscall ~recv:flat_syscall
            ~write:(Dk.Urp.write conv) ~read:(Dk.Urp.read conv)
        in
        (eng, wrap cpu_a ca, wrap cpu_b cb));
  }

(* ---- Cyclone point-to-point fiber ---- *)

let cyclone =
  {
    p_name = "Cyclone";
    p_paper_mbs = 3.2;
    p_paper_ms = 0.375;
    p_build =
      (fun () ->
        let eng = Sim.Engine.create () in
        let fa, fb =
          Netsim.Fiber.create_pair ~bandwidth_bps:125e6 ~latency:10e-6
            ~name:"cyclone" eng
        in
        let mk fiber =
          let cpu = Sim.Cpu.create eng in
          let rq = Block.Q.create ~limit:(256 * 1024) eng in
          Netsim.Fiber.set_rx fiber (fun msg ->
              (* board-side DMA copy into host memory *)
              Sim.Cpu.run_after cpu
                (cyclone_msg_cost
                +. (float_of_int (String.length msg) /. cyclone_copy_rate))
                (fun () ->
                  Block.Q.force_put rq (Block.make ~delim:true msg)));
          syscalls cpu
            ~send:(fun n ->
              syscall_cost +. cyclone_msg_cost
              +. (float_of_int n /. cyclone_copy_rate))
            ~recv:flat_syscall ~write:(Netsim.Fiber.send fiber)
            ~read:(Block.Q.read rq)
        in
        (eng, mk fa, mk fb));
  }

let all = [ pipes; il_ether; urp_datakit; cyclone ]

(* ---- measurements ---- *)

let write_size = 16 * 1024

let throughput_mbs ?(bytes = 2 * 1024 * 1024) ?instrument path =
  let eng, a, b = path.p_build () in
  (match instrument with Some f -> f eng | None -> ());
  let writes = bytes / write_size in
  let total = writes * write_size in
  let start = ref 0. and finish = ref 0. in
  ignore
    (Sim.Proc.spawn eng ~name:"writer" (fun () ->
         start := Sim.Engine.now eng;
         let chunk = String.make write_size 'x' in
         for _ = 1 to writes do
           a.c_send chunk
         done));
  ignore
    (Sim.Proc.spawn eng ~name:"reader" (fun () ->
         let got = ref 0 in
         while !got < total do
           let s = b.c_recv write_size in
           if s = "" then got := total else got := !got + String.length s
         done;
         finish := Sim.Engine.now eng));
  Sim.Engine.run ~until:120.0 eng;
  if !finish <= !start then 0.
  else float_of_int total /. (!finish -. !start) /. 1e6

let latency_ms ?(rounds = 50) ?instrument path =
  let eng, a, b = path.p_build () in
  (match instrument with Some f -> f eng | None -> ());
  let start = ref 0. and finish = ref 0. in
  ignore
    (Sim.Proc.spawn eng ~name:"ponger" (fun () ->
         let rec loop () =
           let s = b.c_recv 1 in
           if s <> "" then begin
             b.c_send "y";
             loop ()
           end
         in
         loop ()));
  ignore
    (Sim.Proc.spawn eng ~name:"pinger" (fun () ->
         start := Sim.Engine.now eng;
         for _ = 1 to rounds do
           a.c_send "x";
           ignore (a.c_recv 1)
         done;
         finish := Sim.Engine.now eng));
  Sim.Engine.run ~until:30.0 eng;
  (!finish -. !start) /. float_of_int rounds *. 1000.
