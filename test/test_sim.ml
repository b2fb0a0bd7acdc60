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
          complexity_guards );
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
