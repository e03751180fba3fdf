open Kpath_sim
open Kpath_proc

let test_single_process_time () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let p =
    Sched.spawn sched ~name:"p" (fun () ->
        Process.use_cpu Process.User (Time.ms 5);
        Process.use_cpu Process.Sys (Time.ms 3))
  in
  Engine.run e;
  Alcotest.(check bool) "zombie" true (Process.is_zombie p);
  Alcotest.check Util.time "user" (Time.ms 5) p.Process.cpu_user;
  Alcotest.check Util.time "sys" (Time.ms 3) p.Process.cpu_sys;
  (* 5 + 3 + one context switch (0.1ms) *)
  Alcotest.check Util.time "wall" (Time.of_us_f 8100.) (Engine.now e)

let test_zero_cpu_is_free () =
  let r =
    Util.run_in_process (fun () ->
        Process.use_cpu Process.User Time.zero;
        42)
  in
  Alcotest.(check int) "ran" 42 r

let test_cpu_accounting_totals () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let _ =
    Sched.spawn sched ~name:"a" (fun () -> Process.use_cpu Process.User (Time.ms 10))
  in
  let _ =
    Sched.spawn sched ~name:"b" (fun () -> Process.use_cpu Process.Sys (Time.ms 20))
  in
  Engine.run e;
  let cpu = Sched.cpu sched in
  Alcotest.check Util.time "user" (Time.ms 10) (Cpu.user cpu);
  Alcotest.check Util.time "sys" (Time.ms 20) (Cpu.sys cpu);
  Alcotest.(check int) "switches" 2 (Cpu.context_switches cpu);
  Alcotest.check Util.time "idle zero" Time.zero
    (Cpu.idle cpu ~now:(Engine.now e))

let test_fair_round_robin () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let fin = Array.make 2 Time.zero in
  let worker i =
    Sched.spawn sched ~name:(Printf.sprintf "w%d" i) (fun () ->
        for _ = 1 to 1000 do
          Process.use_cpu Process.User (Time.ms 1)
        done;
        fin.(i) <- Engine.now e)
  in
  let _ = worker 0 and _ = worker 1 in
  Engine.run e;
  (* Both do 1 s of work; fair sharing finishes both near 2 s. *)
  let f0 = Time.to_sec_f fin.(0) and f1 = Time.to_sec_f fin.(1) in
  if Float.abs (f0 -. f1) > 0.1 then
    Alcotest.failf "unfair: %.3f vs %.3f" f0 f1;
  if f0 < 1.9 || f0 > 2.3 then Alcotest.failf "unexpected finish %.3f" f0

let test_priority_preemption_at_boundary () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let order = ref [] in
  let _low =
    Sched.spawn sched ~name:"low" ~priority:60 (fun () ->
        for i = 1 to 10 do
          Process.use_cpu Process.User (Time.ms 1);
          order := ("low", i) :: !order
        done)
  in
  let _high =
    Sched.spawn sched ~name:"high" ~priority:10 (fun () ->
        Process.use_cpu Process.User (Time.ms 5);
        order := ("high", 0) :: !order)
  in
  Engine.run e;
  (* The high-priority process was spawned second but must finish before
     the low one's second op: low runs one slice (already started),
     then high preempts at the boundary. *)
  let rec index i = function
    | [] -> -1
    | x :: rest -> if x = ("high", 0) then i else index (i + 1) rest
  in
  let pos_high = index 0 (List.rev !order) in
  Alcotest.(check bool) "high finished early" true (pos_high <= 1)

let test_block_and_wakeup () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let woken_at = ref Time.zero in
  let waker_cell = ref None in
  let p =
    Sched.spawn sched ~name:"sleeper" (fun () ->
        Process.block "chan" (fun w -> waker_cell := Some w);
        woken_at := Engine.now e)
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 7) (fun () ->
         match !waker_cell with Some w -> w () | None -> ()));
  Engine.run e;
  Sched.check_deadlock sched;
  Alcotest.(check bool) "terminated" true (Process.is_zombie p);
  Alcotest.(check int) "one wakeup" 1 p.Process.wakeup_count;
  Alcotest.(check bool) "woke after 7ms" true Time.(!woken_at >= Time.ms 7)

let test_double_wake_is_safe () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let waker_cell = ref None in
  let p =
    Sched.spawn sched ~name:"sleeper" (fun () ->
        Process.block "chan" (fun w -> waker_cell := Some w);
        Process.use_cpu Process.User (Time.ms 1))
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 1) (fun () ->
         let w = Option.get !waker_cell in
         w ();
         w ()));
  Engine.run e;
  Alcotest.(check bool) "fine" true (Process.is_zombie p);
  Alcotest.(check int) "single wakeup" 1 p.Process.wakeup_count

let test_sleep () =
  let woke =
    Util.run_in_process_with (fun engine sched ->
        Sched.sleep sched (Time.ms 25);
        Engine.now engine)
  in
  Alcotest.(check bool) "slept" true Time.(woke >= Time.ms 25)

let test_yield_alternation () =
  let e = Engine.create () in
  let sched = Sched.create ~ctx_switch_cost:Time.zero e in
  let log = ref [] in
  let mk name =
    Sched.spawn sched ~name (fun () ->
        for _ = 1 to 3 do
          log := name :: !log;
          Process.yield ()
        done)
  in
  (* Spawn from inside a process so neither child starts before both
     are queued. *)
  let _starter =
    Sched.spawn sched ~name:"starter" (fun () ->
        ignore (mk "a");
        ignore (mk "b"))
  in
  Engine.run e;
  Alcotest.(check (list string)) "alternate" [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_interrupt_steals_from_slice () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let _ =
    Sched.spawn sched ~name:"victim" (fun () ->
        Process.use_cpu Process.User (Time.ms 10))
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 5) (fun () ->
         Sched.interrupt sched ~service:(Time.ms 2) (fun () -> ())));
  Engine.run e;
  (* 0.1 ctx + 10 compute + 2 stolen. *)
  Alcotest.check Util.time "stretched" (Time.of_us_f 12100.) (Engine.now e);
  Alcotest.check Util.time "intr accounted" (Time.ms 2) (Cpu.intr (Sched.cpu sched))

(* Each interrupt moves the running slice's one completion event later
   in place: no event per interrupt is left behind in the queue. *)
let test_interrupts_move_one_completion () =
  let e = Engine.create () in
  let sched = Sched.create ~ctx_switch_cost:Time.zero e in
  let span = Time.ms 10 and service = Time.us 200 and n = 8 in
  let _ =
    Sched.spawn sched ~name:"victim" (fun () -> Process.use_cpu Process.User span)
  in
  let pending = ref [] and pools = ref [] in
  let rec intr k () =
    Sched.interrupt sched ~service (fun () -> ());
    pending := Engine.pending e :: !pending;
    pools := Engine.pool_size e :: !pools;
    if k < n then ignore (Engine.schedule_after e (Time.ms 1) (intr (k + 1)))
  in
  ignore (Engine.schedule e ~at:(Time.ms 1) (intr 1));
  Engine.run e;
  Alcotest.(check (list int)) "only the completion pending" (List.init n (fun _ -> 1))
    !pending;
  Alcotest.(check (list int)) "pool does not grow"
    (List.init n (fun _ -> List.hd !pools))
    !pools;
  Alcotest.check Util.time "slice ends at start + span + n * service"
    (Time.add span (Time.scale service n))
    (Engine.now e);
  Alcotest.check Util.time "intr accounted" (Time.scale service n)
    (Cpu.intr (Sched.cpu sched))

let test_interrupt_while_idle_delays_next_slice () =
  let e = Engine.create () in
  let sched = Sched.create ~ctx_switch_cost:Time.zero e in
  (* Interrupt at t=0 for 3 ms while the CPU is idle; a process spawned
     at 1 ms must not finish its 1 ms slice before 4 ms. *)
  Sched.interrupt sched ~service:(Time.ms 3) (fun () -> ());
  ignore
    (Engine.schedule e ~at:(Time.ms 1) (fun () ->
         ignore
           (Sched.spawn sched ~name:"late" (fun () ->
                Process.use_cpu Process.User (Time.ms 1)))));
  Engine.run e;
  Alcotest.check Util.time "pushed behind interrupt work" (Time.ms 4) (Engine.now e)

let test_crash_recorded () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let p = Sched.spawn sched ~name:"crasher" (fun () -> failwith "boom") in
  Engine.run e;
  match p.Process.exit_status with
  | Some (Process.Crashed (Failure msg)) -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected crash status"

let test_join_and_exit_hook () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let hooked = ref false in
  let worker =
    Sched.spawn sched ~name:"worker" (fun () ->
        Process.use_cpu Process.User (Time.ms 3))
  in
  Sched.exit_hook worker (fun () -> hooked := true);
  let joined_at = ref Time.zero in
  let _waiter =
    Sched.spawn sched ~name:"waiter" (fun () ->
        Sched.join worker;
        joined_at := Engine.now e)
  in
  Engine.run e;
  Alcotest.(check bool) "hook ran" true !hooked;
  Alcotest.(check bool) "joined after worker" true Time.(!joined_at >= Time.ms 3);
  (* joining a zombie returns immediately *)
  let ok =
    Util.run_in_process_with (fun _ sched2 ->
        let dead = Sched.spawn sched2 ~name:"d" (fun () -> ()) in
        Process.yield ();
        Sched.join dead;
        true)
  in
  Alcotest.(check bool) "join zombie" true ok

let test_deadlock_detection () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let _ = Sched.spawn sched ~name:"stuck" (fun () -> Process.block "never" (fun _ -> ())) in
  Engine.run e;
  match Sched.check_deadlock sched with
  | () -> Alcotest.fail "expected deadlock"
  | exception Sched.Deadlock msg ->
    Alcotest.(check bool) "names the process" true
      (Util.contains msg "stuck")

(* The run queue must be strictly FIFO within a priority level, across
   many processes and priorities: dispatch order follows spawn order
   inside each level, never starves anyone, and [runnable] reports the
   queue in dispatch order. *)
let test_runq_fifo_fairness () =
  let e = Engine.create () in
  let sched = Sched.create ~ctx_switch_cost:Time.zero e in
  let order = ref [] in
  let mk name priority =
    Sched.spawn sched ~name ~priority (fun () ->
        order := name :: !order;
        Process.use_cpu Process.User (Time.ms 1))
  in
  (* Spawn from inside a process so all children queue before any runs;
     interleave priorities so buckets fill out of order. *)
  let _starter =
    Sched.spawn sched ~name:"starter" ~priority:10 (fun () ->
        ignore (mk "b1" 30);
        ignore (mk "c1" 50);
        ignore (mk "b2" 30);
        ignore (mk "a1" 20);
        ignore (mk "c2" 50);
        ignore (mk "a2" 20);
        ignore (mk "b3" 30);
        let waiting =
          List.map (fun (p : Process.t) -> p.name) (Sched.runnable sched)
        in
        Alcotest.(check (list string))
          "runnable reports dispatch order"
          [ "a1"; "a2"; "b1"; "b2"; "b3"; "c1"; "c2" ]
          waiting)
  in
  Engine.run e;
  Alcotest.(check (list string))
    "ran best priority first, FIFO within each level"
    [ "a1"; "a2"; "b1"; "b2"; "b3"; "c1"; "c2" ]
    (List.rev !order)

let test_quantum_rotation_counted () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let mk name =
    Sched.spawn sched ~name (fun () ->
        for _ = 1 to 100 do
          Process.use_cpu Process.User (Time.ms 1)
        done)
  in
  let _ = mk "a" and _ = mk "b" in
  Engine.run e;
  let preempts = Stats.get (Sched.stats sched) "sched.preemptions" in
  (* 200 ms of work, 10 ms quantum: roughly 20 rotations. *)
  Alcotest.(check bool) "rotations happened" true (preempts >= 10 && preempts <= 30)

let suite =
  [
    Alcotest.test_case "single process accounting" `Quick test_single_process_time;
    Alcotest.test_case "zero-cost cpu" `Quick test_zero_cpu_is_free;
    Alcotest.test_case "cpu bucket totals" `Quick test_cpu_accounting_totals;
    Alcotest.test_case "fair round robin" `Quick test_fair_round_robin;
    Alcotest.test_case "priority preemption" `Quick test_priority_preemption_at_boundary;
    Alcotest.test_case "block and wakeup" `Quick test_block_and_wakeup;
    Alcotest.test_case "double wake safe" `Quick test_double_wake_is_safe;
    Alcotest.test_case "sleep" `Quick test_sleep;
    Alcotest.test_case "yield alternation" `Quick test_yield_alternation;
    Alcotest.test_case "interrupt steals slice" `Quick test_interrupt_steals_from_slice;
    Alcotest.test_case "interrupt while idle" `Quick test_interrupt_while_idle_delays_next_slice;
    Alcotest.test_case "interrupts move one completion" `Quick
      test_interrupts_move_one_completion;
    Alcotest.test_case "crash recorded" `Quick test_crash_recorded;
    Alcotest.test_case "join and exit hooks" `Quick test_join_and_exit_hook;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "runq FIFO fairness" `Quick test_runq_fifo_fairness;
    Alcotest.test_case "quantum rotation" `Quick test_quantum_rotation_counted;
  ]
