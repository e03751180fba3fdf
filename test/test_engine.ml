open Kpath_sim

let test_fifo_same_instant () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~at:(Time.ms 1) (note "a"));
  ignore (Engine.schedule e ~at:(Time.ms 1) (note "b"));
  ignore (Engine.schedule e ~at:(Time.ms 1) (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "scheduling order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:(Time.ms 3) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~at:(Time.ms 2) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check Util.time "clock at last event" (Time.ms 3) (Engine.now e)

let test_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:(Time.ms 2) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> ())))

let test_cancellation () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:(Time.ms 1) (fun () -> fired := true) in
  Alcotest.(check int) "pending" 1 (Engine.pending e);
  Engine.cancel e h;
  Alcotest.(check int) "pending after cancel" 0 (Engine.pending e);
  Alcotest.(check bool) "cancelled" true (Engine.cancelled e h);
  Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired;
  Alcotest.(check bool) "not fired flag" false (Engine.fired e h);
  (* double cancel is a no-op *)
  Engine.cancel e h

let test_schedule_from_callback () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:(Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e (Time.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check Util.time "clock" (Time.ms 2) (Engine.now e)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> incr fired));
  ignore (Engine.schedule e ~at:(Time.ms 10) (fun () -> incr fired));
  Engine.run ~until:(Time.ms 5) e;
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.check Util.time "clock at horizon" (Time.ms 5) (Engine.now e);
  Alcotest.(check int) "one still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !fired

let test_step () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> incr fired));
  ignore (Engine.schedule e ~at:(Time.ms 2) (fun () -> incr fired));
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check int) "after one step" 1 !fired;
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "step empty" false (Engine.step e)

let test_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> incr fired));
  ignore (Engine.schedule e ~at:(Time.ms 2) (fun () -> Engine.stop ()));
  ignore (Engine.schedule e ~at:(Time.ms 3) (fun () -> incr fired));
  (try Engine.run e with Engine.Stopped -> ());
  Alcotest.(check int) "stopped early" 1 !fired;
  Alcotest.check Util.time "clock at stop" (Time.ms 2) (Engine.now e)

(* A horizon before the clock is refused: the clock never moves back,
   so a time already passed stays in the past. *)
let test_run_until_never_rewinds () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:(Time.ms 10) ignore);
  Engine.run ~until:(Time.ms 5) e;
  Alcotest.check_raises "earlier horizon"
    (Invalid_argument "Engine.run: horizon in the past") (fun () ->
      Engine.run ~until:(Time.ms 2) e);
  Alcotest.check Util.time "clock kept" (Time.ms 5) (Engine.now e);
  Alcotest.check_raises "passed time stays past"
    (Invalid_argument "Engine.schedule: time in the past") (fun () ->
      ignore (Engine.schedule e ~at:(Time.ms 3) ignore));
  Engine.run ~until:(Time.ms 5) e;
  Alcotest.(check int) "same horizon is a no-op" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.check Util.time "event at its time" (Time.ms 10) (Engine.now e)

let test_cancel_frees_slot () =
  let e = Engine.create () in
  let hs = List.init 3 (fun i -> Engine.schedule e ~at:(Time.ms (i + 1)) ignore) in
  Engine.cancel e (List.nth hs 1);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Alcotest.(check int) "slot freed at once" 1 (Engine.pool_free e);
  ignore (Engine.schedule e ~at:(Time.ms 5) ignore);
  Alcotest.(check int) "slot reused" 3 (Engine.pool_size e);
  Alcotest.(check int) "freelist empty" 0 (Engine.pool_free e)

let test_reschedule_rejects_dead_handles () =
  let e = Engine.create () in
  let not_pending = Invalid_argument "Engine.reschedule: event not pending" in
  let gone = Engine.schedule e ~at:(Time.ms 1) ignore in
  Engine.run e;
  Alcotest.check_raises "fired" not_pending (fun () ->
      Engine.reschedule e gone ~at:(Time.ms 2));
  let ran = ref false in
  let reuser = Engine.schedule e ~at:(Time.ms 3) (fun () -> ran := true) in
  (* [gone]'s slot now holds [reuser]: the stale handle moves nothing. *)
  Alcotest.check_raises "stale" not_pending (fun () ->
      Engine.reschedule e gone ~at:(Time.ms 2));
  let dropped = Engine.schedule e ~at:(Time.ms 4) ignore in
  Engine.cancel e dropped;
  Alcotest.check_raises "cancelled" not_pending (fun () ->
      Engine.reschedule e dropped ~at:(Time.ms 5));
  (* [none] names no event: cancelling it touches nothing pending. *)
  Alcotest.check_raises "none" not_pending (fun () ->
      Engine.reschedule e Engine.none ~at:(Time.ms 5));
  Engine.cancel e Engine.none;
  Alcotest.(check (pair bool bool)) "none neither fired nor cancelled"
    (false, false)
    (Engine.fired e Engine.none, Engine.cancelled e Engine.none);
  Alcotest.(check int) "still pending" 1 (Engine.pending e);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.reschedule: time in the past") (fun () ->
      Engine.reschedule e reuser ~at:Time.zero);
  Engine.run e;
  Alcotest.(check bool) "reuser fired" true !ran;
  Alcotest.check Util.time "at its own time" (Time.ms 3) (Engine.now e)

(* A moved event takes a fresh sequence number, whether it moves later
   or earlier: it fires after the events already due at its new time. *)
let test_reschedule_joins_instant_last () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let a = Engine.schedule e ~at:(Time.ms 1) (note "a") in
  ignore (Engine.schedule e ~at:(Time.ms 2) (note "b"));
  ignore (Engine.schedule e ~at:(Time.ms 2) (note "c"));
  let d = Engine.schedule e ~at:(Time.ms 9) (note "d") in
  Engine.reschedule e a ~at:(Time.ms 2);
  Engine.reschedule e d ~at:(Time.ms 2);
  ignore (Engine.schedule e ~at:(Time.ms 2) (note "e"));
  Alcotest.(check int) "moves keep their slots" 5 (Engine.pool_size e);
  Engine.run e;
  Alcotest.(check (list string)) "fire order" [ "b"; "c"; "a"; "d"; "e" ]
    (List.rev !log);
  Alcotest.check Util.time "clock" (Time.ms 2) (Engine.now e)

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"events fire in (time, seq) order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 1_000))
    (fun times ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i ms ->
          ignore
            (Engine.schedule e ~at:(Time.us ms) (fun () -> log := (ms, i) :: !log)))
        times;
      Engine.run e;
      let fired = List.rev !log in
      let expected =
        List.mapi (fun i ms -> (ms, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      fired = expected)

let suite =
  [
    Alcotest.test_case "FIFO at same instant" `Quick test_fifo_same_instant;
    Alcotest.test_case "time ordering" `Quick test_time_order;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "schedule from callback" `Quick test_schedule_from_callback;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "early stop" `Quick test_stop;
    Alcotest.test_case "run ~until never rewinds" `Quick
      test_run_until_never_rewinds;
    Alcotest.test_case "cancel frees its slot" `Quick test_cancel_frees_slot;
    Alcotest.test_case "reschedule needs a pending event" `Quick
      test_reschedule_rejects_dead_handles;
    Alcotest.test_case "rescheduled event fires last" `Quick
      test_reschedule_joins_instant_last;
    Util.qcheck prop_events_fire_in_order;
  ]
