open Kpath_sim
open Kpath_proc

let test_pending_and_take () =
  let hits = ref [] in
  Util.run_in_process_with (fun _ sched ->
      let self = Process.self () in
      Signal.handle self Signal.sigio (fun () -> hits := "io" :: !hits);
      Signal.handle self Signal.sigalrm (fun () -> hits := "alrm" :: !hits);
      Signal.deliver sched self Signal.sigio;
      Signal.deliver sched self Signal.sigalrm;
      Alcotest.(check (list int)) "pending set"
        [ Signal.sigalrm; Signal.sigio ]
        (Signal.pending self);
      Signal.take_pending self;
      Alcotest.(check (list int)) "cleared" [] (Signal.pending self));
  Alcotest.(check (list string)) "both handlers ran, ascending signo"
    [ "alrm"; "io" ] (List.rev !hits)

let test_unhandled_discarded () =
  Util.run_in_process_with (fun _ sched ->
      let self = Process.self () in
      Signal.deliver sched self Signal.sigint;
      Signal.take_pending self;
      Alcotest.(check (list int)) "discarded" [] (Signal.pending self))

let test_handler_replacement_and_ignore () =
  let hits = ref 0 in
  Util.run_in_process_with (fun _ sched ->
      let self = Process.self () in
      Signal.handle self Signal.sigio (fun () -> hits := 100);
      Signal.handle self Signal.sigio (fun () -> incr hits);
      Signal.deliver sched self Signal.sigio;
      Signal.take_pending self;
      Signal.ignore_signal self Signal.sigio;
      Signal.deliver sched self Signal.sigio;
      Signal.take_pending self);
  Alcotest.(check int) "replacement won; ignore dropped" 1 !hits

let test_deliver_wakes_interruptible_sleep () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let full = ref None in
  let woke_at = ref Time.zero in
  let p =
    Sched.spawn sched ~name:"sleeper" (fun () ->
        full := Some (Sched.sleep_interruptible sched (Time.sec 100));
        woke_at := Engine.now e)
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 3) (fun () ->
         Signal.deliver sched p Signal.sigio));
  Engine.run e;
  Sched.check_deadlock sched;
  Alcotest.(check (option bool)) "interrupted early" (Some false) !full;
  Alcotest.(check bool) "woke at delivery" true
    Time.(!woke_at >= Time.ms 3 && !woke_at < Time.sec 1);
  (* The stale 100 s timer was cancelled, so the run ends promptly. *)
  Alcotest.(check bool) "timer cancelled" true Time.(Engine.now e < Time.sec 1)

let test_deliver_does_not_wake_uninterruptible () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let woke_at = ref Time.zero in
  let p =
    Sched.spawn sched ~name:"sleeper" (fun () ->
        Sched.sleep sched (Time.ms 50);
        woke_at := Engine.now e)
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 1) (fun () ->
         Signal.deliver sched p Signal.sigio));
  Engine.run e;
  Alcotest.(check bool) "slept through" true Time.(!woke_at >= Time.ms 50);
  Alcotest.(check (list int)) "still pending" [ Signal.sigio ] (Signal.pending p)

let test_pause_wakes_on_signal () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let resumed = ref Time.zero in
  let p =
    Sched.spawn sched ~name:"pauser" (fun () ->
        Sched.pause sched;
        resumed := Engine.now e)
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 9) (fun () ->
         Signal.deliver sched p Signal.sigalrm));
  Engine.run e;
  Sched.check_deadlock sched;
  Alcotest.(check bool) "resumed at delivery" true Time.(!resumed >= Time.ms 9)

let test_deliver_to_zombie_noop () =
  let e = Engine.create () in
  let sched = Sched.create e in
  let p = Sched.spawn sched ~name:"gone" (fun () -> ()) in
  Engine.run e;
  Signal.deliver sched p Signal.sigio;
  Alcotest.(check (list int)) "nothing pending" [] (Signal.pending p)

(* The system-call exit path with nothing pending allocates nothing. *)
let test_take_nothing_no_alloc () =
  Util.run_in_process_with (fun _ _ ->
      let self = Process.self () in
      Signal.handle self Signal.sigio (fun () -> ());
      Signal.take_pending self;
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        Signal.take_pending self
      done;
      Alcotest.(check (float 0.0))
        "minor words" 0.0
        (Gc.minor_words () -. before))

let suite =
  [
    Alcotest.test_case "pending and take" `Quick test_pending_and_take;
    Alcotest.test_case "unhandled discarded" `Quick test_unhandled_discarded;
    Alcotest.test_case "replace and ignore" `Quick test_handler_replacement_and_ignore;
    Alcotest.test_case "wakes interruptible sleep" `Quick test_deliver_wakes_interruptible_sleep;
    Alcotest.test_case "uninterruptible sleeps through" `Quick test_deliver_does_not_wake_uninterruptible;
    Alcotest.test_case "pause" `Quick test_pause_wakes_on_signal;
    Alcotest.test_case "zombie delivery no-op" `Quick test_deliver_to_zombie_noop;
    Alcotest.test_case "nothing pending allocates nothing" `Quick
      test_take_nothing_no_alloc;
  ]
