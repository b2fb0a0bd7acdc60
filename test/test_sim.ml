(* Tests for the discrete-event kernel. *)

let check_float = Alcotest.(check (float 1e-9))

let test_time_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 2.0 (fun () -> log := "b" :: !log);
  Sim.Engine.at eng 1.0 (fun () -> log := "a" :: !log);
  Sim.Engine.at eng 3.0 (fun () -> log := "c" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 3.0 (Sim.Engine.now eng)

let test_fifo_same_time () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_run_until () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.at eng 1.0 (fun () -> incr hits);
  Sim.Engine.at eng 5.0 (fun () -> incr hits);
  Sim.Engine.run ~until:2.0 eng;
  Alcotest.(check int) "only first" 1 !hits;
  check_float "clock at horizon" 2.0 (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "both" 2 !hits

let test_proc_sleep () =
  let eng = Sim.Engine.create () in
  let woke_at = ref 0. in
  let _p =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.5;
        woke_at := Sim.Engine.now eng)
  in
  Sim.Engine.run eng;
  check_float "slept" 1.5 !woke_at

let test_proc_crash_raises () =
  let eng = Sim.Engine.create () in
  let _p = Sim.Proc.spawn eng (fun () -> failwith "boom") in
  Alcotest.check_raises "crash surfaces" (Failure "boom") (fun () ->
      Sim.Engine.run eng)

let test_join () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let worker =
    Sim.Proc.spawn eng ~name:"worker" (fun () ->
        Sim.Time.sleep eng 2.0;
        order := "worker" :: !order)
  in
  let _waiter =
    Sim.Proc.spawn eng ~name:"waiter" (fun () ->
        Sim.Proc.join worker;
        order := "waiter" :: !order)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "join order" [ "worker"; "waiter" ]
    (List.rev !order)

let test_join_dead () =
  let eng = Sim.Engine.create () in
  let worker = Sim.Proc.spawn eng (fun () -> ()) in
  let finished = ref false in
  let _w =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.0;
        (* worker long dead *)
        Sim.Proc.join worker;
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "join of dead proc returns" true !finished

let test_kill_sleeping () =
  let eng = Sim.Engine.create () in
  let cleaned = ref false in
  let victim =
    Sim.Proc.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Sim.Time.sleep eng 100.))
  in
  let _killer =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.0;
        Sim.Proc.kill victim)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "victim dead" false (Sim.Proc.alive victim);
  Alcotest.(check bool) "finalizer ran" true !cleaned;
  check_float "killed promptly, not at 100s" 1.0 (Sim.Engine.now eng)

let test_kill_is_not_crash () =
  let eng = Sim.Engine.create () in
  let victim = Sim.Proc.spawn eng (fun () -> Sim.Time.sleep eng 100.) in
  Sim.Engine.after eng 1.0 (fun () -> Sim.Proc.kill victim);
  (* must not raise *)
  Sim.Engine.run eng

let test_rendez () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let woke = ref [] in
  let sleeper name =
    ignore
      (Sim.Proc.spawn eng ~name (fun () ->
           Sim.Rendez.sleep r;
           woke := name :: !woke))
  in
  sleeper "a";
  sleeper "b";
  Sim.Engine.after eng 1.0 (fun () -> Sim.Rendez.wakeup r);
  Sim.Engine.after eng 2.0 (fun () -> Sim.Rendez.wakeup r);
  Sim.Engine.run eng;
  (* FIFO: a slept first, wakes first *)
  Alcotest.(check (list string)) "fifo wakeups" [ "a"; "b" ] (List.rev !woke)

let test_rendez_wakeup_empty () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  Sim.Rendez.wakeup r;
  Sim.Rendez.wakeup_all r;
  Alcotest.(check int) "no waiters" 0 (Sim.Rendez.waiters r)

(* [names] sleep on [r] in order; [woke] records who wakes, in order *)
let sleepers eng r names =
  let woke = ref [] in
  let procs =
    List.map
      (fun name ->
        Sim.Proc.spawn eng ~name (fun () ->
            Sim.Rendez.sleep r;
            woke := name :: !woke))
      names
  in
  Sim.Engine.run eng;
  (procs, woke)

let test_rendez_wakeup_skips_killed () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let procs, woke =
    sleepers eng r [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  (* the oldest two and one from the middle go; with five still asleep
     their entries stay queued *)
  List.iter (fun i -> Sim.Proc.kill (List.nth procs i)) [ 0; 1; 3 ];
  Sim.Engine.run eng;
  Sim.Rendez.wakeup r;
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "oldest live sleeper first" [ "c" ]
    (List.rev !woke);
  Sim.Rendez.wakeup r;
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "then the next live one" [ "c"; "e" ]
    (List.rev !woke);
  Alcotest.(check int) "three left" 3 (Sim.Rendez.waiters r);
  for _ = 1 to 4 do
    Sim.Rendez.wakeup r
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "the rest in order, then nobody"
    [ "c"; "e"; "f"; "g"; "h" ] (List.rev !woke);
  Alcotest.(check int) "none left" 0 (Sim.Rendez.waiters r)

let test_rendez_waiters_after_aborts () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let procs, woke = sleepers eng r [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check int) "all asleep" 5 (Sim.Rendez.waiters r);
  Sim.Proc.kill (List.nth procs 2);
  Sim.Proc.kill (List.nth procs 4);
  Sim.Engine.run eng;
  Alcotest.(check int) "killed sleepers do not count" 3
    (Sim.Rendez.waiters r);
  (* dead entries now outnumber live ones: the queue is compacted, and
     must keep its order *)
  Sim.Proc.kill (List.nth procs 0);
  Sim.Engine.run eng;
  Alcotest.(check int) "after the third kill" 2 (Sim.Rendez.waiters r);
  Sim.Rendez.wakeup r;
  Alcotest.(check int) "one woken" 1 (Sim.Rendez.waiters r);
  Sim.Rendez.wakeup_all r;
  Sim.Engine.run eng;
  Alcotest.(check int) "all woken" 0 (Sim.Rendez.waiters r);
  Alcotest.(check (list string)) "live ones, oldest first" [ "b"; "d" ]
    (List.rev !woke)

let test_rendez_fifo_100k () =
  (* one wakeup per event over a deep queue: FIFO, and no recursion that
     grows with the queue *)
  let n = 100_000 in
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let order = Array.make n (-1) and next = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Sim.Proc.spawn eng (fun () ->
           Sim.Rendez.sleep r;
           order.(!next) <- i;
           incr next))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "all asleep" n (Sim.Rendez.waiters r);
  for _ = 1 to n do
    Sim.Rendez.wakeup r;
    Sim.Engine.run eng
  done;
  Alcotest.(check int) "all woken" n !next;
  Alcotest.(check bool) "in sleep order" true
    (Array.for_all2 ( = ) order (Array.init n Fun.id))

let test_rendez_abort_only_bounded () =
  (* a rendezvous that only ever sees its sleepers killed: the count
     stays at 0 and the queue does not keep the dead entries *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let cycle () =
    let p = Sim.Proc.spawn eng (fun () -> Sim.Rendez.sleep r) in
    Sim.Engine.run eng;
    Sim.Proc.kill p;
    Sim.Engine.run eng
  in
  cycle ();
  let size0 = Obj.reachable_words (Obj.repr r) in
  for _ = 1 to 10_000 do
    cycle ()
  done;
  Alcotest.(check int) "no waiters" 0 (Sim.Rendez.waiters r);
  let grown = Obj.reachable_words (Obj.repr r) - size0 in
  if grown > 100 then
    Alcotest.failf "10k aborted sleeps grew the rendezvous by %d words" grown

(* ---- complexity guard: no per-operation cost grows with live
   processes.  Minor-heap words are exact for a fixed binary, so this
   is a deterministic budget, not a timing test. ---- *)

let guard_cycles = 1_000

(* words per operation of [guard_cycles] runs of [op] in an engine
   holding [n] processes parked on one rendezvous.  A parked process
   sleeps again whenever it is woken, so [n] never changes. *)
let words_per_op n op =
  let eng = Sim.Engine.create () in
  let crowd = Sim.Rendez.create eng and other = Sim.Rendez.create eng in
  for _ = 1 to n do
    ignore
      (Sim.Proc.spawn eng ~name:"parked" (fun () ->
           while true do
             Sim.Rendez.sleep crowd
           done))
  done;
  Sim.Engine.run eng;
  let w0 = Gc.minor_words () in
  for _ = 1 to guard_cycles do
    op eng ~crowd ~other
  done;
  let w = (Gc.minor_words () -. w0) /. float_of_int guard_cycles in
  Alcotest.(check int) "parked processes all still asleep" n
    (Sim.Rendez.waiters crowd);
  w

let sleep_kill eng r =
  let p = Sim.Proc.spawn eng ~name:"victim" (fun () -> Sim.Rendez.sleep r) in
  Sim.Engine.run eng;
  Sim.Proc.kill p;
  Sim.Engine.run eng

let flat_in_live_procs what op () =
  let n = 1_000 in
  let w1 = words_per_op n op and w3 = words_per_op (3 * n) op in
  if w3 > 1.1 *. w1 then
    Alcotest.failf
      "%s: %.1f words/op with %d live processes, %.1f with %d — the cost \
       grows with live processes"
      what w1 n w3 (3 * n)

let complexity_guards =
  [
    ( "spawn/exit",
      fun eng ~crowd:_ ~other:_ ->
        ignore (Sim.Proc.spawn eng ~name:"brief" ignore);
        Sim.Engine.run eng );
    ("kill, other rendez", fun eng ~crowd:_ ~other -> sleep_kill eng other);
    ("kill, crowded rendez", fun eng ~crowd ~other:_ -> sleep_kill eng crowd);
    ( "wakeup, crowded rendez",
      fun eng ~crowd ~other:_ ->
        Sim.Rendez.wakeup crowd;
        Sim.Engine.run eng );
  ]

(* A sleep/wake cycle against [n] timers pending far in the future: the
   queue's depth must not change what a cycle allocates. *)
let sleep_wake_words n =
  let eng = Sim.Engine.create () in
  for i = 1 to n do
    Sim.Time.arm_at (Sim.Time.timer eng) (1e9 +. float_of_int i) ignore
  done;
  ignore
    (Sim.Proc.spawn eng ~name:"sleeper" (fun () ->
         while true do
           Sim.Time.sleep eng 1.0
         done));
  Sim.Engine.run ~until:0.5 eng;
  let w0 = Gc.minor_words () in
  Sim.Engine.run ~until:(0.5 +. float_of_int guard_cycles) eng;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "timers still pending" (n + 1) (Sim.Engine.pending eng);
  w

let test_sleep_flat_in_pending () =
  let w1 = sleep_wake_words 1_000 and w3 = sleep_wake_words 3_000 in
  if w1 <> w3 then
    Alcotest.failf
      "%d sleep/wake cycles allocate %.0f words with 1000 timers pending, \
       %.0f with 3000"
      guard_cycles w1 w3

(* Popping an event allocates nothing, however deep the queue: sifting
   moves keys in flat arrays and the popped entry is returned as is. *)
let test_pop_allocates_nothing () =
  let eng = Sim.Engine.create () in
  let n = 20_000 in
  for i = 1 to n do
    Sim.Engine.at eng (float_of_int ((i * 7919) mod 1000)) ignore
  done;
  let w0 = Gc.minor_words () in
  while Sim.Engine.step eng do
    ()
  done;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending eng);
  (* the one boxed float [Gc.minor_words] returns *)
  if w > 2. then
    Alcotest.failf "popping %d events allocated %.0f words" n w

(* Words per [Env.fork] of an environment whose name space holds [n]
   mounts: a fork shares the mount table, so [n] must not matter. *)
let fork_words n =
  let ram = Ninep.Ramfs.make ~name:"root" () in
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"glenda" in
  let env = Vfs.Env.make ~ns ~uname:"glenda" in
  for i = 1 to n do
    let d = Printf.sprintf "/d%d" i in
    Ninep.Ramfs.mkdir ram d;
    Ninep.Ramfs.mkdir ram (d ^ "/onto");
    Vfs.Env.bind env ~src:d ~onto:(d ^ "/onto") Vfs.Ns.After
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to guard_cycles do
    ignore (Sys.opaque_identity (Vfs.Env.fork env))
  done;
  (Gc.minor_words () -. w0) /. float_of_int guard_cycles

let test_fork_flat_in_mounts () =
  let w10 = fork_words 10 and w30 = fork_words 30 in
  if w10 <> w30 then
    Alcotest.failf
      "Env.fork: %.1f words with 10 mounts, %.1f with 30 — a fork copies \
       the mount table"
      w10 w30

let test_mbox () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mbox.create eng in
  let got = ref [] in
  let _consumer =
    Sim.Proc.spawn eng (fun () ->
        for _ = 1 to 3 do
          got := Sim.Mbox.recv mb :: !got
        done)
  in
  let _producer =
    Sim.Proc.spawn eng (fun () ->
        Sim.Mbox.send mb 1;
        Sim.Time.sleep eng 1.0;
        Sim.Mbox.send mb 2;
        Sim.Mbox.send mb 3)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "all received in order" [ 1; 2; 3 ]
    (List.rev !got)

let test_ticker () =
  let eng = Sim.Engine.create () in
  let ticks = ref 0 in
  let tk = Sim.Time.every eng 1.0 (fun () -> incr ticks) in
  Sim.Engine.at eng 5.5 (fun () -> Sim.Time.cancel tk);
  Sim.Engine.run eng;
  Alcotest.(check int) "5 ticks then cancelled" 5 !ticks

let test_cpu_serializes () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng in
  let t1 = Sim.Cpu.occupy cpu 1.0 in
  let t2 = Sim.Cpu.occupy cpu 1.0 in
  check_float "first op" 1.0 t1;
  check_float "second op queued behind first" 2.0 t2

let test_cpu_busy_wait () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng in
  let done_at = ref 0. in
  let _p =
    Sim.Proc.spawn eng (fun () ->
        Sim.Cpu.busy_wait cpu 0.5;
        Sim.Cpu.busy_wait cpu 0.25;
        done_at := Sim.Engine.now eng)
  in
  Sim.Engine.run eng;
  check_float "serial busy work" 0.75 !done_at

let test_stalled_reports_blocked () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let _p = Sim.Proc.spawn eng ~name:"stuck" (fun () -> Sim.Rendez.sleep r) in
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "deadlocked proc visible" [ "stuck" ]
    (Sim.Engine.stalled eng)

let test_lost_wakeup_diagnosis () =
  (* the classic lost wakeup: the producer fires its wakeup before any
     reader has gone to sleep, so the wakeup is lost and the readers
     hang forever.  The engine must name the hung processes so the
     deadlock is diagnosable instead of a silent stall. *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  ignore
    (Sim.Proc.spawn eng ~name:"producer" (fun () -> Sim.Rendez.wakeup r));
  ignore
    (Sim.Proc.spawn eng ~name:"reader-a" (fun () ->
         Sim.Time.sleep eng 1.0;
         Sim.Rendez.sleep r));
  ignore
    (Sim.Proc.spawn eng ~name:"reader-b" (fun () ->
         Sim.Time.sleep eng 2.0;
         Sim.Rendez.sleep r));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "hung readers named"
    [ "reader-a"; "reader-b" ]
    (List.sort compare (Sim.Engine.stalled eng))

let test_stalled_spawn_order () =
  (* the live-process table is hashed by pid; [stalled] must still name
     the blocked processes oldest first, whatever order the others exit
     in *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let spawn i =
    let name = Printf.sprintf "p%d" i in
    if i mod 3 = 0 then
      (* exits in reverse spawn order: the last one spawned goes first *)
      ignore
        (Sim.Proc.spawn eng ~name (fun () ->
             Sim.Time.sleep eng (float_of_int (300 - i))))
    else ignore (Sim.Proc.spawn eng ~name (fun () -> Sim.Rendez.sleep r))
  in
  for i = 0 to 199 do
    spawn i
  done;
  (* more arrive after some of the early ones have gone *)
  Sim.Engine.at eng 150. (fun () ->
      for i = 200 to 299 do
        spawn i
      done);
  Sim.Engine.run eng;
  let expect =
    List.init 300 Fun.id
    |> List.filter (fun i -> i mod 3 <> 0)
    |> List.map (Printf.sprintf "p%d")
  in
  Alcotest.(check (list string)) "blocked, in spawn order" expect
    (Sim.Engine.stalled eng)

let test_determinism () =
  let trace () =
    let eng = Sim.Engine.create ~seed:42 () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      ignore
        (Sim.Proc.spawn eng (fun () ->
             let dt =
               Random.State.float (Sim.Engine.random eng) 1.0
             in
             Sim.Time.sleep eng dt;
             Buffer.add_string log (Printf.sprintf "%d@%.6f;" i
                 (Sim.Engine.now eng))))
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (trace ()) (trace ())

(* ---- scheduling policies (Sim.Sched) ---- *)

(* record the firing order of [n] same-time events under a policy *)
let batch_order ?(n = 10) sched =
  let eng = Sim.Engine.create ~sched () in
  let log = ref [] in
  for i = 0 to n - 1 do
    Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  List.rev !log

let test_fifo_matches_recorded_order () =
  (* the Fifo policy IS the historical engine: a same-time batch fires
     in scheduling order, exactly as test_fifo_same_time has always
     recorded it *)
  Alcotest.(check (list int)) "fifo = scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (batch_order Sim.Sched.Fifo);
  Alcotest.(check (list int)) "default policy is fifo"
    (let eng = Sim.Engine.create () in
     ignore eng;
     batch_order Sim.Sched.Fifo)
    (let eng = Sim.Engine.create () in
     let log = ref [] in
     for i = 0 to 9 do
       Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
     done;
     Sim.Engine.run eng;
     List.rev !log)

let test_shuffle_same_seed_same_schedule () =
  for seed = 1 to 10 do
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d reproducible" seed)
      (batch_order (Sim.Sched.Shuffle seed))
      (batch_order (Sim.Sched.Shuffle seed))
  done

let test_shuffle_permutes () =
  (* each batch is a permutation, and some seed must actually disturb
     the order (10 seeds all mapping 10 events to the identity would be
     a broken hash) *)
  let disturbed = ref false in
  for seed = 1 to 10 do
    let order = batch_order (Sim.Sched.Shuffle seed) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d is a permutation" seed)
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      (List.sort compare order);
    if order <> [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] then disturbed := true
  done;
  Alcotest.(check bool) "some seed reorders" true !disturbed

let test_shuffle_singleton_batch_is_identity () =
  (* a 1-element batch has exactly one ordering: shuffling must change
     nothing about a workload with no same-time ties *)
  let run sched =
    let eng = Sim.Engine.create ~sched () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.Engine.at eng (float_of_int i) (fun () -> log := i :: !log)
    done;
    Sim.Engine.run eng;
    List.rev !log
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        (run Sim.Sched.Fifo)
        (run (Sim.Sched.Shuffle seed)))
    [ 1; 2; 3; 4; 5 ]

let test_adversarial_is_lifo () =
  Alcotest.(check (list int)) "newest first"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    (batch_order Sim.Sched.Adversarial)

let test_adversarial_no_livelock () =
  (* yield-style reschedules run after the ordinary same-time batch
     even under LIFO, so a polling loop cannot starve the event that
     would satisfy it *)
  let eng = Sim.Engine.create ~sched:Sim.Sched.Adversarial () in
  let victim = Sim.Proc.spawn eng ~name:"victim" (fun () ->
      Sim.Time.sleep eng 100.) in
  let killed_at = ref (-1.) in
  ignore
    (Sim.Proc.spawn eng ~name:"killer" (fun () ->
         Sim.Time.sleep eng 1.0;
         Sim.Proc.kill victim;
         killed_at := Sim.Engine.now eng));
  Sim.Engine.run eng;
  Alcotest.(check bool) "victim dead" false (Sim.Proc.alive victim);
  check_float "kill landed at its own time" 1.0 !killed_at

let test_sched_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Sim.Sched.to_string p)
        true
        (Sim.Sched.of_string (Sim.Sched.to_string p) = Some p))
    [ Sim.Sched.Fifo; Sim.Sched.Shuffle 7; Sim.Sched.Shuffle 0;
      Sim.Sched.Adversarial ];
  Alcotest.(check bool) "lifo alias" true
    (Sim.Sched.of_string "lifo" = Some Sim.Sched.Adversarial);
  Alcotest.(check bool) "garbage rejected" true
    (Sim.Sched.of_string "shuffle:x" = None
    && Sim.Sched.of_string "banana" = None)

let test_whole_engine_schedule_determinism () =
  (* same policy, same seed, a workload mixing procs, sleeps, rendez
     and mbox traffic: the full event schedule must replay exactly
     (this is what makes every explorer failure a one-line repro) *)
  let trace sched =
    let eng = Sim.Engine.create ~sched () in
    let log = Buffer.create 256 in
    let r = Sim.Rendez.create eng in
    let mb = Sim.Mbox.create eng in
    for i = 0 to 4 do
      ignore
        (Sim.Proc.spawn eng
           ~name:(Printf.sprintf "p%d" i)
           (fun () ->
             Sim.Time.sleep eng 1.0;
             Sim.Mbox.send mb i;
             Sim.Rendez.sleep r;
             Buffer.add_string log
               (Printf.sprintf "%d@%.3f;" i (Sim.Engine.now eng))))
    done;
    ignore
      (Sim.Proc.spawn eng ~name:"drain" (fun () ->
           for _ = 1 to 5 do
             let i = Sim.Mbox.recv mb in
             Buffer.add_string log (Printf.sprintf "recv%d;" i)
           done;
           for _ = 1 to 5 do
             Sim.Rendez.wakeup r
           done));
    Sim.Engine.run eng;
    Buffer.contents log
  in
  List.iter
    (fun sched ->
      Alcotest.(check string)
        (Sim.Sched.to_string sched)
        (trace sched) (trace sched))
    [ Sim.Sched.Fifo; Sim.Sched.Shuffle 3; Sim.Sched.Shuffle 4;
      Sim.Sched.Adversarial ]

(* ---- the event queue against a reference model ---- *)

(* One step of a random schedule.  Times are whole offsets from [now], so
   equal times are common; [Cancel i] disarms the [i]th cancellable
   entry (mod their count), which may have fired already. *)
type qop =
  | At of int  (* an entry nobody cancels *)
  | Arm of int  (* an entry on a timer of its own *)
  | Cancel of int
  | Step
  | Run_until of int
  | Drain  (* only as the last step *)

let qop_to_string = function
  | At k -> Printf.sprintf "at+%d" k
  | Arm k -> Printf.sprintf "arm+%d" k
  | Cancel i -> Printf.sprintf "cancel#%d" i
  | Step -> "step"
  | Run_until k -> Printf.sprintf "run+%d" k
  | Drain -> "drain"

(* offsets cluster on a few values, so many entries share a time, and
   runs advance the clock slowly, so that about half the cases queue
   more entries than the queue's initial capacity of 64 *)
let qop_gen =
  QCheck.Gen.(
    let offset = oneof [ 0 -- 3; 0 -- 40 ] in
    frequency
      [
        (6, map (fun k -> At k) offset);
        (6, map (fun k -> Arm k) offset);
        (4, map (fun i -> Cancel i) nat);
        (3, return Step);
        (1, map (fun k -> Run_until k) (0 -- 1));
      ])

let policy_gen =
  QCheck.Gen.(
    oneof
      [
        return Sim.Sched.Fifo;
        map (fun s -> Sim.Sched.Shuffle s) (0 -- 1000);
        return Sim.Sched.Adversarial;
      ])

(* an entry of the reference queue *)
type qref = {
  q_time : float;
  q_rank : int;
  q_serial : int;  (* also the entry's name in the firing log *)
  mutable q_cancelled : bool;
}

let qref_order a b =
  match Float.compare a.q_time b.q_time with
  | 0 -> (
    match Int.compare a.q_rank b.q_rank with
    | 0 -> Int.compare a.q_serial b.q_serial
    | c -> c)
  | c -> c

(* Run [ops] on an engine and on the model side by side; [Error] names
   the first disagreement. *)
let queue_agrees policy ops =
  let eng = Sim.Engine.create ~sched:policy () in
  let fired = ref [] in
  (* the model: unpopped entries, its clock, and its firing log *)
  let queue = ref [] and now = ref 0. and model_fired = ref [] in
  let serial = ref 0 in
  let timers = ref [] and ntimers = ref 0 in
  let add k =
    incr serial;
    let e =
      {
        q_time = !now +. float_of_int k;
        q_rank = Sim.Sched.rank policy !serial;
        q_serial = !serial;
        q_cancelled = false;
      }
    in
    queue := List.merge qref_order [ e ] !queue;
    e
  in
  let fire_fn s () = fired := s :: !fired in
  (* pop the least entry; [until] bounds the live ones that may fire *)
  let rec model_step ~until =
    match !queue with
    | [] -> false
    | e :: rest when e.q_cancelled ->
      queue := rest;
      model_step ~until
    | e :: rest ->
      if e.q_time > until then false
      else begin
        queue := rest;
        now := e.q_time;
        model_fired := e.q_serial :: !model_fired;
        true
      end
  in
  let apply = function
    | At k ->
      let e = add k in
      Sim.Engine.at eng (Sim.Engine.now eng +. float_of_int k)
        (fire_fn e.q_serial)
    | Arm k ->
      let e = add k in
      let t = Sim.Time.timer eng in
      Sim.Time.arm t (float_of_int k) (fire_fn e.q_serial);
      timers := (t, e) :: !timers;
      incr ntimers
    | Cancel i ->
      if !ntimers > 0 then begin
        let t, e = List.nth !timers (i mod !ntimers) in
        if Sim.Time.armed t then e.q_cancelled <- true;
        Sim.Time.disarm t
      end
    | Step ->
      (* a step skips cancelled entries until it fires one *)
      ignore (Sim.Engine.step eng);
      ignore (model_step ~until:infinity)
    | Run_until k ->
      let limit = !now +. float_of_int k in
      Sim.Engine.run ~until:limit eng;
      while model_step ~until:limit do
        ()
      done;
      now := Float.max !now limit
    | Drain ->
      Sim.Engine.run eng;
      while model_step ~until:infinity do
        ()
      done;
      queue := []
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest ->
      apply op;
      if !fired <> !model_fired then
        Error
          (Printf.sprintf "after op %d (%s): fired %s, model %s" i
             (qop_to_string op)
             (String.concat "," (List.rev_map string_of_int !fired))
             (String.concat "," (List.rev_map string_of_int !model_fired)))
      else if Sim.Engine.pending eng <> List.length !queue then
        Error
          (Printf.sprintf "after op %d (%s): %d pending, model %d" i
             (qop_to_string op) (Sim.Engine.pending eng) (List.length !queue))
      else if Sim.Engine.now eng <> !now then
        Error
          (Printf.sprintf "after op %d (%s): now %g, model %g" i
             (qop_to_string op) (Sim.Engine.now eng) !now)
      else go (i + 1) rest
  in
  let cancelled_fired () =
    List.exists
      (fun (_, e) -> e.q_cancelled && List.mem e.q_serial !fired)
      !timers
  in
  match go 0 (ops @ [ Drain ]) with
  | Error _ as e -> e
  | Ok () when cancelled_fired () -> Error "a cancelled entry fired"
  | Ok () -> Ok ()

let prop_queue_model =
  QCheck.Test.make ~name:"queue fires in (time, rank, serial) order"
    ~count:300
    (QCheck.make
       ~print:(fun (p, ops) ->
         Sim.Sched.to_string p ^ ": "
         ^ String.concat " " (List.map qop_to_string ops))
       QCheck.Gen.(pair policy_gen (list_size (50 -- 400) qop_gen)))
    (fun (policy, ops) ->
      match queue_agrees policy ops with
      | Ok () -> true
      | Error why -> QCheck.Test.fail_report why)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_fifo_same_time;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "stalled" `Quick test_stalled_reports_blocked;
          Alcotest.test_case "stalled in spawn order" `Quick
            test_stalled_spawn_order;
          Alcotest.test_case "lost wakeup diagnosis" `Quick
            test_lost_wakeup_diagnosis;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "proc",
        [
          Alcotest.test_case "sleep" `Quick test_proc_sleep;
          Alcotest.test_case "crash raises" `Quick test_proc_crash_raises;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join dead" `Quick test_join_dead;
          Alcotest.test_case "kill sleeping" `Quick test_kill_sleeping;
          Alcotest.test_case "kill is not crash" `Quick test_kill_is_not_crash;
        ] );
      ( "sync",
        [
          Alcotest.test_case "rendez" `Quick test_rendez;
          Alcotest.test_case "rendez empty wakeup" `Quick
            test_rendez_wakeup_empty;
          Alcotest.test_case "rendez wakeup skips killed" `Quick
            test_rendez_wakeup_skips_killed;
          Alcotest.test_case "rendez waiters after aborts" `Quick
            test_rendez_waiters_after_aborts;
          Alcotest.test_case "rendez fifo over 100k sleepers" `Quick
            test_rendez_fifo_100k;
          Alcotest.test_case "rendez abort-only stays bounded" `Quick
            test_rendez_abort_only_bounded;
          Alcotest.test_case "mbox" `Quick test_mbox;
          Alcotest.test_case "ticker" `Quick test_ticker;
        ] );
      ( "cost",
        List.map
          (fun (what, op) ->
            Alcotest.test_case what `Quick
              (flat_in_live_procs what op))
          complexity_guards
        @ [
            Alcotest.test_case "pop allocates nothing" `Quick
              test_pop_allocates_nothing;
            Alcotest.test_case "sleep/wake, pending timers" `Quick
              test_sleep_flat_in_pending;
            Alcotest.test_case "Env.fork, mounts" `Quick
              test_fork_flat_in_mounts;
          ] );
      ("queue", [ QCheck_alcotest.to_alcotest prop_queue_model ]);
      ( "cpu",
        [
          Alcotest.test_case "serializes" `Quick test_cpu_serializes;
          Alcotest.test_case "busy wait" `Quick test_cpu_busy_wait;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fifo matches recorded order" `Quick
            test_fifo_matches_recorded_order;
          Alcotest.test_case "same seed same schedule" `Quick
            test_shuffle_same_seed_same_schedule;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "singleton batch identity" `Quick
            test_shuffle_singleton_batch_is_identity;
          Alcotest.test_case "adversarial is lifo" `Quick
            test_adversarial_is_lifo;
          Alcotest.test_case "adversarial no livelock" `Quick
            test_adversarial_no_livelock;
          Alcotest.test_case "policy strings" `Quick
            test_sched_string_roundtrip;
          Alcotest.test_case "whole-engine determinism" `Quick
            test_whole_engine_schedule_determinism;
        ] );
    ]
