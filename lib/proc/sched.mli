(** The process scheduler and CPU multiplexer.

    Dispatches {!Process} coroutines onto the single simulated CPU,
    charging their [use_cpu] slices to the {!Cpu} accounting buckets,
    paying a context-switch cost whenever a different process is placed
    on the CPU, boosting the priority of processes woken from kernel
    sleeps (as 4.xBSD/Ultrix do for disk waits), and round-robining
    equal-priority processes on a quantum.

    Interrupt handlers are not processes: {!interrupt} runs a callback
    immediately at the current instant, charges its service time to the
    interrupt bucket, and stretches whatever CPU slice is in progress —
    the mechanism by which device drivers and splice handlers steal CPU
    from running programs. *)

open Kpath_sim

type t
(** A scheduler bound to an engine. *)

val create : ?ctx_switch_cost:Time.span -> ?quantum:Time.span -> Engine.t -> t
(** [create engine] makes a scheduler. Defaults: context switch 100 us,
    quantum 10 ms. A process woken from a kernel sleep is boosted to
    priority 30, and a spawned one starts at 50 (lower = more
    urgent). *)

val cpu : t -> Cpu.t
(** The CPU accounting record. *)

val spawn : t -> name:string -> ?priority:int -> (unit -> unit) -> Process.t
(** [spawn t ~name body] creates a process whose body is the coroutine
    [body], places it on the run queue, and dispatches it if the CPU is
    idle. The body may use {!Process.use_cpu}, {!Process.block},
    {!Process.yield} and any syscall built on them. *)

val in_process_context : t -> bool
(** [true] while a process coroutine body is executing — i.e. kernel
    code reached from a system call, where a driver may charge work to
    the caller with [Process.use_cpu] instead of stealing it as
    interrupt time. *)

val interrupt : t -> service:Time.span -> (unit -> unit) -> unit
(** [interrupt t ~service fn] models a device interrupt: [fn] runs now
    (completions, wakeups), [service] is charged to the interrupt bucket
    and stolen from the process slice in progress, if any: that slice's
    one completion event moves [service] later ({!Engine.reschedule}). *)

val sleep : t -> Time.span -> unit
(** [sleep t d] blocks the calling process for duration [d]
    (uninterruptible). Must run inside a process body. *)

val sleep_interruptible : t -> Time.span -> bool
(** Like {!sleep} but signal delivery may cut the sleep short; returns
    [true] if the full duration elapsed, [false] when interrupted. *)

val pause : t -> unit
(** Block the calling process until a signal is delivered to it
    (the [pause(2)] system call). *)

val join : Process.t -> unit
(** Block the calling process until the given process terminates.
    Returns immediately if it is already a zombie. *)

val exit_hook : Process.t -> (unit -> unit) -> unit
(** Register a callback to run when the process terminates (or
    immediately, if it already has). *)

val runnable : t -> Process.t list
(** Processes currently waiting on the run queue, in dispatch order
    (best priority first, FIFO within a priority level). *)

val stats : t -> Stats.t
(** Scheduler statistics: dispatches, preemptions, wakeups... *)

exception Deadlock of string
(** Raised by {!check_deadlock}. *)

val check_deadlock : t -> unit
(** Raises {!Deadlock} if processes remain blocked while the engine has
    no pending events (nothing can ever wake them). Call after
    [Engine.run]. *)
