(** Kernel callout list.

    Models the classic BSD/Ultrix callout mechanism (`timeout()` /
    `untimeout()`): functions registered to run a number of clock ticks in
    the future, in (software-)interrupt context. splice() uses the callout
    list to decouple the read side from the write side — the read-completion
    handler places the write handler "at the head of the system callout
    list", i.e. to run at the very next dispatch, outside the disk
    interrupt itself. {!schedule_head} models exactly that. *)

type t
(** A callout list bound to an engine. *)

val create : ?tick:Time.span -> Engine.t -> t
(** [create ?tick engine] is a callout list whose clock ticks every
    [tick] (default 1 ms, HZ=1000-ish; Ultrix used HZ=256 but a finer tick
    only sharpens the simulation). *)

val timeout : t -> ticks:int -> (unit -> unit) -> Engine.handle
(** [timeout t ~ticks fn] runs [fn] after [ticks] clock ticks (at least
    one tick boundary in the future). *)

val timeout_span : t -> Time.span -> (unit -> unit) -> Engine.handle
(** [timeout_span t d fn] runs [fn] after the first tick boundary at or
    after duration [d]. *)

val schedule_head : t -> (unit -> unit) -> Engine.handle
(** [schedule_head t fn] places [fn] at the head of the callout list: it
    runs as soon as the current event (e.g. a device interrupt handler)
    finishes, at the current simulated instant, after a small dispatch
    latency accounted by the CPU layer of the caller. *)

val untimeout : t -> Engine.handle -> unit
(** Cancel a pending callout. *)

val dispatched : t -> int
(** Total number of callout functions dispatched so far (statistic). *)
