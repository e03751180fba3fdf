(* Differential tests: the engine's event heap must be observationally
   identical to a deliberately naive reference queue — same fire order,
   same clock at each firing, same [run ~until] horizon behaviour — on
   randomized schedule/cancel/reschedule workloads, including callbacks
   that schedule, cancel and move further events while the simulation
   runs. (The property names keep the "wheel" of the timing wheel the
   engine once was.) *)

open Kpath_sim

(* The operations the workloads drive, so one interpreter runs against
   both queues. *)
module type QUEUE = sig
  type t

  type handle

  val create : unit -> t

  val schedule : t -> at:Time.t -> (unit -> unit) -> handle

  val schedule_after : t -> Time.span -> (unit -> unit) -> handle

  val cancel : t -> handle -> unit

  val reschedule : t -> handle -> at:Time.t -> unit

  val run : ?until:Time.t -> t -> unit

  val now : t -> Time.t

  val pending : t -> int
end

module Indexed : QUEUE = struct
  type t = Engine.t

  type handle = Engine.handle

  let create () = Engine.create ()

  let schedule = Engine.schedule

  let schedule_after = Engine.schedule_after

  let cancel = Engine.cancel

  let reschedule = Engine.reschedule

  let run = Engine.run

  let now = Engine.now

  let pending = Engine.pending
end

(* The engine's contract written as directly as possible: a list kept
   sorted by (time, scheduling order), with lazy cancel — a cancelled
   entry stays queued, flagged, and is dropped when it reaches the
   front. A reschedule is a cancel and then a schedule; the handle
   follows the new entry. *)
module Reference : QUEUE = struct
  type entry = {
    at : Time.t;
    seq : int;
    fn : unit -> unit;
    mutable pending : bool;
  }

  type handle = entry ref

  type t = {
    mutable clock : Time.t;
    mutable next_seq : int;
    mutable queue : entry list;
  }

  let create () = { clock = Time.zero; next_seq = 0; queue = [] }

  let before a b =
    let c = Time.compare a.at b.at in
    c < 0 || (c = 0 && a.seq < b.seq)

  let rec insert ev = function
    | x :: rest when not (before ev x) -> x :: insert ev rest
    | l -> ev :: l

  let enqueue t ~at fn =
    if Time.(at < t.clock) then invalid_arg "Reference.schedule: past";
    let ev = { at; seq = t.next_seq; fn; pending = true } in
    t.next_seq <- t.next_seq + 1;
    t.queue <- insert ev t.queue;
    ev

  let schedule t ~at fn = ref (enqueue t ~at fn)

  let schedule_after t d fn = schedule t ~at:(Time.add t.clock d) fn

  let cancel _ h = !h.pending <- false

  let reschedule t h ~at =
    if Time.(at < t.clock) then invalid_arg "Reference.reschedule: past";
    if not !h.pending then invalid_arg "Reference.reschedule: not pending";
    cancel t h;
    h := enqueue t ~at !h.fn

  let rec drain ?until t =
    match t.queue with
    | [] -> ()
    | ev :: rest when not ev.pending ->
      t.queue <- rest;
      drain ?until t
    | ev :: rest -> (
      match until with
      | Some limit when Time.(ev.at > limit) -> t.clock <- limit
      | _ ->
        t.queue <- rest;
        t.clock <- ev.at;
        ev.pending <- false;
        ev.fn ();
        drain ?until t)

  let run ?until t =
    (match until with
     | Some limit when Time.(limit < t.clock) ->
       invalid_arg "Reference.run: horizon in the past"
     | Some _ | None -> ());
    drain ?until t

  let now t = t.clock

  let pending t = List.length (List.filter (fun ev -> ev.pending) t.queue)
end

(* A workload program interpreted identically against both queues.
   Times are in microseconds. *)
type op =
  | Sched of int (* schedule at now + us; remember handle *)
  | Sched_chain of int * int (* at now + fst us, callback schedules + snd us *)
  | Cancel of int (* cancel the k-th remembered handle (mod count) *)
  | Cancel_in_cb of int * int (* at now + us, callback cancels k-th handle *)
  | Reschedule of int * int (* move the k-th handle to now + us *)
  | Reschedule_in_cb of int * int * int
      (* at now + fst us, callback moves the k-th handle to now + thd us *)

(* Half the times fall on a 1 ms grid, so events often share an
   instant and a moved event often joins other events' instant. *)
let gen_us bound =
  QCheck.Gen.(
    frequency
      [ (1, int_bound bound); (1, map (fun ms -> ms * 1_000) (int_bound (bound / 1_000))) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun d -> Sched d) (gen_us 600_000));
        (3, map2 (fun a b -> Sched_chain (a, b)) (gen_us 400_000) (gen_us 3_000));
        (2, map (fun k -> Cancel k) (int_bound 64));
        (1, map2 (fun d k -> Cancel_in_cb (d, k)) (gen_us 400_000) (int_bound 64));
        (2, map2 (fun k d -> Reschedule (k, d)) (int_bound 64) (gen_us 600_000));
        ( 2,
          map3
            (fun d k d2 -> Reschedule_in_cb (d, k, d2))
            (gen_us 400_000) (int_bound 64) (gen_us 3_000) );
      ])

let arb_ops =
  QCheck.make
    ~print:
      (Format.asprintf "%a"
         (Format.pp_print_list (fun fmt -> function
            | Sched d -> Format.fprintf fmt "S%d;" d
            | Sched_chain (a, b) -> Format.fprintf fmt "C%d+%d;" a b
            | Cancel k -> Format.fprintf fmt "X%d;" k
            | Cancel_in_cb (d, k) -> Format.fprintf fmt "XC%d@%d;" k d
            | Reschedule (k, d) -> Format.fprintf fmt "R%d>%d;" k d
            | Reschedule_in_cb (d, k, d2) ->
              Format.fprintf fmt "RC%d>+%d@%d;" k d2 d)))
    QCheck.Gen.(list_size (1 -- 60) gen_op)

module Drive (Q : QUEUE) = struct
  (* Set [ops] up on a fresh queue. The trace collects (event tag,
     firing time in ns) in fire order; a reschedule the queue refuses
     (its event already fired or was cancelled) is traced with time
     -1. *)
  let setup ops =
    let e = Q.create () in
    let trace = ref [] in
    let handles = ref [||] in
    let nh = ref 0 in
    let remember h =
      if !nh = Array.length !handles then begin
        let n = Array.make (max 8 (2 * !nh)) h in
        Array.blit !handles 0 n 0 !nh;
        handles := n
      end;
      !handles.(!nh) <- h;
      incr nh
    in
    let tag = ref 0 in
    let note id () = trace := (id, Time.to_ns (Q.now e)) :: !trace in
    let move id k d =
      if !nh > 0 then
        match
          Q.reschedule e !handles.(k mod !nh) ~at:(Time.add (Q.now e) (Time.us d))
        with
        | () -> ()
        | exception Invalid_argument _ -> trace := (id, -1) :: !trace
    in
    List.iter
      (fun op ->
        incr tag;
        let id = !tag in
        match op with
        | Sched d -> remember (Q.schedule e ~at:(Time.us d) (note id))
        | Sched_chain (a, b) ->
          remember
            (Q.schedule e ~at:(Time.us a) (fun () ->
                 note id ();
                 ignore (Q.schedule_after e (Time.us b) (note (id + 10_000)))))
        | Cancel k -> if !nh > 0 then Q.cancel e !handles.(k mod !nh)
        | Cancel_in_cb (d, k) ->
          remember
            (Q.schedule e ~at:(Time.us d) (fun () ->
                 note id ();
                 if !nh > 0 then Q.cancel e !handles.(k mod !nh)))
        | Reschedule (k, d) -> move id k d
        | Reschedule_in_cb (d, k, d2) ->
          remember
            (Q.schedule e ~at:(Time.us d) (fun () ->
                 note id ();
                 move (id + 10_000) k d2)))
      ops;
    (e, trace)

  (* Run [ops] to the end: the trace, then the final clock and pending
     count. *)
  let ops ops =
    let e, trace = setup ops in
    Q.run e;
    (List.rev !trace, Time.to_ns (Q.now e), Q.pending e)

  (* Stop at [h1], observe, ask for a second horizon [h2] (refused when
     it lies before the clock), then resume to completion — exercises
     stopping in front of the first beyond-horizon event. *)
  let until (ops, h1, h2) =
    let e, trace = setup ops in
    Q.run ~until:(Time.us h1) e;
    let mid = (Time.to_ns (Q.now e), Q.pending e) in
    let second =
      match Q.run ~until:(Time.us h2) e with
      | () -> Some (Time.to_ns (Q.now e), Q.pending e)
      | exception Invalid_argument _ -> None
    in
    Q.run e;
    (List.rev !trace, mid, second, Time.to_ns (Q.now e))

  let far evs =
    let e = Q.create () in
    let trace = ref [] in
    List.iteri
      (fun i (sec, scale) ->
        (* scale 0-3 spreads events from seconds to days *)
        let at = Time.sec (sec * int_of_float (10. ** float_of_int scale)) in
        ignore
          (Q.schedule e ~at (fun () ->
               trace := (i, Time.to_ns (Q.now e)) :: !trace)))
      evs;
    Q.run e;
    List.rev !trace
end

module E = Drive (Indexed)
module R = Drive (Reference)

let trace_pp =
  QCheck.Print.(triple (list (pair int int)) int int)

let prop_equiv =
  QCheck.Test.make ~name:"wheel trace = reference trace" ~count:500 arb_ops
    (fun ops ->
      let r = R.ops ops and w = E.ops ops in
      if r <> w then
        QCheck.Test.fail_reportf "reference %s <> engine %s" (trace_pp r)
          (trace_pp w)
      else true)

let prop_equiv_until =
  QCheck.Test.make ~name:"wheel = reference under run ~until + resume"
    ~count:300
    QCheck.(
      triple arb_ops
        (make QCheck.Gen.(int_bound 500_000))
        (make QCheck.Gen.(int_bound 500_000)))
    (fun c -> R.until c = E.until c)

(* Far-future events: times from seconds to days. *)
let prop_equiv_far =
  QCheck.Test.make ~name:"wheel = reference with far-future events" ~count:50
    QCheck.(
      make
        Gen.(
          list_size (1 -- 20)
            (pair (int_bound 30_000) (int_bound 3))))
    (fun evs -> R.far evs = E.far evs)

(* {1 Pool invariants} *)

(* No callback may run twice and no record may leak: after a run every
   allocated record is back on the freelist, however events were
   cancelled, and the fired count matches exactly. *)
let test_pool_reuse () =
  let e = Engine.create () in
  let fires = Array.make 200 0 in
  let handles = ref [] in
  for round = 0 to 9 do
    for i = 0 to 19 do
      let id = (round * 20) + i in
      let h =
        Engine.schedule_after e
          (Time.us ((i * 137) + 1))
          (fun () -> fires.(id) <- fires.(id) + 1)
      in
      handles := (id, h) :: !handles
    done;
    (* Cancel every third event of this round. *)
    List.iteri
      (fun j (_, h) -> if j mod 3 = 0 then Engine.cancel e h)
      (List.filteri (fun j _ -> j < 20) !handles);
    Engine.run e
  done;
  Array.iteri
    (fun id n ->
      if n > 1 then Alcotest.failf "event %d fired %d times" id n)
    fires;
  Alcotest.(check int) "no live events left" 0 (Engine.pending e);
  Alcotest.(check int)
    "every record back on the freelist" (Engine.pool_size e)
    (Engine.pool_free e);
  (* The pool stays small however many events flowed through it. *)
  Alcotest.(check bool)
    "pool bounded by peak concurrency" true
    (Engine.pool_size e <= 40)

(* Steady-state scheduling allocates nothing: after warm-up, a
   schedule/fire cycle must not grow the pool and must not allocate
   words on the OCaml minor heap. *)
let test_steady_state_no_alloc () =
  let e = Engine.create () in
  let fn = ignore in
  (* Warm-up: reach steady state. *)
  for _ = 1 to 1000 do
    ignore (Engine.schedule_after e (Time.us 50) fn);
    ignore (Engine.step e)
  done;
  let pool_before = Engine.pool_size e in
  let minor_before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Engine.schedule_after e (Time.us 50) fn);
    ignore (Engine.step e)
  done;
  let per_event =
    (Gc.minor_words () -. minor_before) /. 10_000.0
  in
  Alcotest.(check int) "pool did not grow" pool_before (Engine.pool_size e);
  if per_event > 1.0 then
    Alcotest.failf "steady-state allocation: %.2f words/event" per_event

let test_stale_handle_ops_are_noops () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h1 = Engine.schedule_after e (Time.us 1) (fun () -> incr fired) in
  Engine.run e;
  (* h1's record is now recycled into h2. *)
  let h2 = Engine.schedule_after e (Time.us 1) (fun () -> incr fired) in
  Engine.cancel e h1;
  (* Cancelling the stale h1 must not kill h2. *)
  Alcotest.(check int) "h2 still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check bool) "h2 fired" true (Engine.fired e h2)

let suite =
  [
    Util.qcheck prop_equiv;
    Util.qcheck prop_equiv_until;
    Util.qcheck prop_equiv_far;
    Alcotest.test_case "pool reuse invariants" `Quick test_pool_reuse;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_steady_state_no_alloc;
    Alcotest.test_case "stale handles are no-ops" `Quick
      test_stale_handle_ops_are_noops;
  ]
