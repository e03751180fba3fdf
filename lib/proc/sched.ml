open Kpath_sim

(* A slice is one uninterrupted grant of the CPU: either a [Use_cpu]
   span from a process, or the context-switch overhead paid on dispatch.
   Interrupts stretch the slice by postponing its completion event. *)
type slice_kind =
  | Slice_user
  | Slice_sys
  | Slice_ctx  (* already charged at dispatch; occupies time only *)

type slice = {
  s_proc : Process.t;
  s_kind : slice_kind;
  s_span : Time.span;
  mutable s_end : Time.t;
  s_handle : Engine.handle;
  s_cont : unit -> unit; (* run when the slice completes *)
}

let k_dispatches = Stats.key "sched.dispatches"
let k_preemptions = Stats.key "sched.preemptions"
let k_wakeups = Stats.key "sched.wakeups"
let k_exited = Stats.key "sched.exited"
let k_spawned = Stats.key "sched.spawned"

(* Priorities (lower = more urgent): a process woken from a kernel sleep
   is boosted to [kernel_priority], as 4.xBSD/Ultrix do for disk waits;
   a spawned process starts at [user_priority]. *)
let kernel_priority = 30
let user_priority = 50

(* The run queue is an array of intrusive FIFO buckets, one per
   priority level (priorities outside [0, nbuckets) are clamped for
   ordering). Enqueue is O(1); picking the best process scans from a
   monotone low-water-mark hint, so dispatch is O(1) amortised instead
   of the old O(n) fold + O(n) removal per pick. Links are the
   processes' own [rq_next] fields — no list cells are allocated. *)
let nbuckets = 256

let bucket_of priority =
  if priority < 0 then 0
  else if priority >= nbuckets then nbuckets - 1
  else priority

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  ctx_switch_cost : Time.span;
  quantum : Time.span;
  mutable current : slice option;
  rq_nil : Process.t; (* sentinel marking empty bucket heads/tails *)
  rq_head : Process.t array;
  rq_tail : Process.t array;
  mutable runq_len : int;
  mutable rq_min : int; (* lower bound on the lowest occupied bucket *)
  mutable last_ran : Process.t option;
  mutable rr_accum : Time.span; (* CPU consumed by current proc since dispatch *)
  mutable executing : bool; (* a coroutine body is running right now *)
  mutable intr_busy_until : Time.t;
      (* interrupt work accepted while the CPU was otherwise idle extends
         to here; the next slice starts behind it *)
  mutable next_pid : int;
  mutable procs : Process.t list; (* newest first *)
  stats : Stats.t;
}

exception Deadlock of string

let create ?(ctx_switch_cost = Time.us 100) ?(quantum = Time.ms 10) engine =
  let rq_nil = Process.make ~pid:0 ~name:"<rq-nil>" ~priority:max_int in
  {
    engine;
    cpu = Cpu.create ();
    ctx_switch_cost;
    quantum;
    current = None;
    rq_nil;
    rq_head = Array.make nbuckets rq_nil;
    rq_tail = Array.make nbuckets rq_nil;
    runq_len = 0;
    rq_min = nbuckets;
    last_ran = None;
    rr_accum = Time.zero;
    executing = false;
    intr_busy_until = Time.zero;
    next_pid = 1;
    procs = [];
    stats = Stats.create ();
  }

let cpu t = t.cpu

let stats t = t.stats

let runnable t =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.rq_head.(b) != t.rq_nil then begin
      let rec chain (p : Process.t) =
        if p.rq_next == p then [ p ] else p :: chain p.rq_next
      in
      acc := chain t.rq_head.(b) @ !acc
    end
  done;
  !acc

let processes t = List.rev t.procs

let blocked t =
  List.filter
    (fun (p : Process.t) ->
      match p.state with Blocked _ -> true | Runnable | Running | Zombie -> false)
    (processes t)

let enqueue t (p : Process.t) =
  p.state <- Runnable;
  let b = bucket_of p.priority in
  p.rq_next <- p; (* new tail: terminate the chain *)
  if t.rq_head.(b) == t.rq_nil then t.rq_head.(b) <- p
  else t.rq_tail.(b).rq_next <- p;
  t.rq_tail.(b) <- p;
  t.runq_len <- t.runq_len + 1;
  if b < t.rq_min then t.rq_min <- b

(* First occupied bucket at or above the low-water mark; caller must
   have checked [runq_len > 0]. *)
let first_bucket t =
  let b = ref t.rq_min in
  while t.rq_head.(!b) == t.rq_nil do incr b done;
  t.rq_min <- !b;
  !b

(* Highest-priority (lowest number) runnable process, FIFO within a
   priority level. *)
let pick t =
  if t.runq_len = 0 then None
  else begin
    let b = first_bucket t in
    let p = t.rq_head.(b) in
    if p.rq_next == p then begin
      t.rq_head.(b) <- t.rq_nil;
      t.rq_tail.(b) <- t.rq_nil
    end
    else t.rq_head.(b) <- p.rq_next;
    p.rq_next <- p;
    t.runq_len <- t.runq_len - 1;
    Some p
  end

let best_waiting_priority t =
  if t.runq_len = 0 then max_int else (t.rq_head.(first_bucket t)).priority

(* Fire the completion of the slice currently on the CPU: charge its
   time, then let the process run (instantaneously) until its next
   effect. *)
let rec complete t () =
  match t.current with
  | None -> assert false
  | Some s ->
    (match s.s_kind with
     | Slice_user ->
       Cpu.add_user t.cpu s.s_span;
       s.s_proc.cpu_user <- Time.add s.s_proc.cpu_user s.s_span;
       t.rr_accum <- Time.add t.rr_accum s.s_span
     | Slice_sys ->
       Cpu.add_sys t.cpu s.s_span;
       s.s_proc.cpu_sys <- Time.add s.s_proc.cpu_sys s.s_span;
       t.rr_accum <- Time.add t.rr_accum s.s_span
     | Slice_ctx -> () (* charged on dispatch *));
    t.current <- None;
    exec t s.s_cont

(* Run coroutine code at the current instant. Effects performed by the
   code re-enter the handlers below; when control returns the process has
   either started a new slice, blocked, yielded or exited. *)
and exec t thunk =
  t.executing <- true;
  thunk ();
  t.executing <- false;
  maybe_dispatch t

and maybe_dispatch t =
  if (not t.executing) && t.current = None then dispatch t

and dispatch t =
  match pick t with
  | None -> ()
  | Some proc ->
    proc.state <- Running;
    t.rr_accum <- Time.zero;
    let resume =
      match proc.resume with
      | Some r ->
        proc.resume <- None;
        r
      | None -> assert false
    in
    Stats.incr (Stats.at t.stats k_dispatches);
    let same = match t.last_ran with Some p -> p == proc | None -> false in
    t.last_ran <- Some proc;
    if same || Time.equal t.ctx_switch_cost Time.zero then exec t resume
    else begin
      Cpu.add_ctx t.cpu t.ctx_switch_cost;
      proc.ctx_switches <- proc.ctx_switches + 1;
      start_slice t proc Slice_ctx t.ctx_switch_cost resume
    end

and start_slice t proc kind span cont =
  assert (t.current = None);
  let now = Engine.now t.engine in
  (* Interrupt service accepted while the CPU was idle still occupies
     the CPU: a slice starting inside that window is pushed back. *)
  let carry =
    if Time.(t.intr_busy_until > now) then Time.diff t.intr_busy_until now
    else Time.zero
  in
  t.intr_busy_until <- now;
  let s_end = Time.add (Time.add now carry) span in
  let s_handle = Engine.schedule t.engine ~at:s_end (fun () -> complete t ()) in
  t.current <-
    Some { s_proc = proc; s_kind = kind; s_span = span; s_end; s_handle; s_cont = cont }

(* Effect handler: a process asks for CPU. Decide whether to preempt at
   this slice boundary. *)
let request_cpu t (proc : Process.t) mode span k_run =
  (* Returning to user mode drops any kernel wakeup boost. *)
  (if mode = Process.User && proc.priority < proc.base_priority then
     proc.priority <- proc.base_priority);
  let preempt =
    t.runq_len > 0
    &&
    let best = best_waiting_priority t in
    best < proc.priority
    || (best <= proc.priority && Time.(t.rr_accum >= t.quantum))
  in
  if preempt then begin
    Stats.incr (Stats.at t.stats k_preemptions);
    proc.resume <-
      Some
        (fun () ->
          let kind = if mode = Process.User then Slice_user else Slice_sys in
          start_slice t proc kind span k_run);
    enqueue t proc
  end
  else
    let kind = if mode = Process.User then Slice_user else Slice_sys in
    start_slice t proc kind span k_run

let wakeup t ?priority (proc : Process.t) =
  match proc.state with
  | Blocked _ ->
    let boost = Option.value priority ~default:kernel_priority in
    proc.priority <- Int.min proc.priority boost;
    proc.wakeup_count <- proc.wakeup_count + 1;
    proc.intr_waker <- None;
    Stats.incr (Stats.at t.stats k_wakeups);
    enqueue t proc;
    maybe_dispatch t
  | Runnable | Running | Zombie -> ()

let in_process_context t = t.executing

let interrupt t ~service fn =
  Cpu.add_intr t.cpu service;
  (match t.current with
   | Some s ->
     s.s_end <- Time.add s.s_end service;
     Engine.reschedule t.engine s.s_handle ~at:s.s_end
   | None ->
     let now = Engine.now t.engine in
     t.intr_busy_until <- Time.add (Time.max t.intr_busy_until now) service);
  fn ()

let proc_exit t (proc : Process.t) status =
  Stats.incr (Stats.at t.stats k_exited);
  proc.state <- Process.Zombie;
  proc.exit_status <- Some status;
  let hooks = proc.exit_hooks in
  proc.exit_hooks <- [];
  List.iter (fun hook -> hook ()) hooks

let run_body t proc body () =
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
      = function
    | Process.Use_cpu (mode, span) ->
      Some
        (fun k ->
          request_cpu t proc mode span (fun () -> Effect.Deep.continue k ()))
    | Process.Block (chan, register) ->
      Some
        (fun k ->
          proc.state <- Process.Blocked chan;
          proc.resume <- Some (fun () -> Effect.Deep.continue k ());
          let woken = ref false in
          let waker () =
            if not !woken then begin
              woken := true;
              wakeup t proc
            end
          in
          register waker)
    | Process.Yield ->
      Some
        (fun k ->
          proc.resume <- Some (fun () -> Effect.Deep.continue k ());
          enqueue t proc)
    | Process.Self -> Some (fun k -> Effect.Deep.continue k proc)
    | _ -> None
  in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> proc_exit t proc Process.Exited);
      exnc =
        (fun e ->
          match e with
          | Engine.Stopped -> raise e
          | e -> proc_exit t proc (Process.Crashed e));
      effc;
    }

let spawn t ~name ?priority body =
  let priority = Option.value priority ~default:user_priority in
  let proc = Process.make ~pid:t.next_pid ~name ~priority in
  t.next_pid <- t.next_pid + 1;
  t.procs <- proc :: t.procs;
  proc.resume <- Some (run_body t proc body);
  Stats.incr (Stats.at t.stats k_spawned);
  enqueue t proc;
  maybe_dispatch t;
  proc

let sleep t d =
  if Time.(d > Time.zero) then
    Process.block "sleep" (fun waker ->
        ignore (Engine.schedule_after t.engine d waker))

let sleep_interruptible t d =
  if Time.(d <= Time.zero) then true
  else begin
    let proc = Process.self () in
    if proc.sig_pending <> 0 then false
    else begin
      let full = ref false in
      let timer = ref None in
      Process.block "sleep*" (fun waker ->
          proc.intr_waker <- Some waker;
          timer :=
            Some
              (Engine.schedule_after t.engine d (fun () ->
                   full := true;
                   waker ())));
      proc.intr_waker <- None;
      (* Interrupted: drop the stale timer. *)
      if not !full then Option.iter (Engine.cancel t.engine) !timer;
      !full
    end
  end

let pause _t =
  let proc = Process.self () in
  (* A signal that arrived before we got here must not be lost — the
     classic pause() race. *)
  if proc.sig_pending = 0 then begin
    Process.block "pause" (fun waker -> proc.intr_waker <- Some waker);
    proc.intr_waker <- None
  end

let exit_hook (proc : Process.t) hook =
  if Process.is_zombie proc then hook ()
  else proc.exit_hooks <- hook :: proc.exit_hooks

let join (target : Process.t) =
  if not (Process.is_zombie target) then
    Process.block "join" (fun waker -> exit_hook target waker)

let check_deadlock t =
  if Engine.pending t.engine = 0 && t.current = None && t.runq_len = 0 then begin
    let stuck = blocked t in
    if stuck <> [] then begin
      let names =
        String.concat ", "
          (List.map
             (fun (p : Process.t) ->
               Format.asprintf "%s(%a)" p.name Process.pp_state p.state)
             stuck)
      in
      raise (Deadlock names)
    end
  end
