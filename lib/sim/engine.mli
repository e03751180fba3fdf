(** Discrete-event simulation engine.

    The engine owns the simulated clock and a queue of pending events.
    Events scheduled for the same instant fire in scheduling order
    (FIFO), which makes every simulation fully deterministic. Event
    handles support O(1) cancellation (lazily removed from the queue).

    The queue is a hierarchical timing wheel (Varghese & Lauck) keyed
    on the callout tick, with far-future events spilling to an overflow
    heap — O(1) amortised per event for the timeout-dense workloads the
    splice paths generate. Event records are pooled on a freelist and
    handles are immediate integers, so steady-state scheduling performs
    no OCaml heap allocation. *)

type t
(** An engine: a clock plus an event queue. *)

type handle
(** A scheduled event, usable for cancellation. Handles are immediate
    (unboxed) values carrying a generation stamp: operations on a
    handle whose event finished long ago are safe no-ops. *)

type backend = [ `Wheel ]
(** The one queue implementation. The type (and {!create}'s [?backend]
    argument, and [Config.sim_engine]) survive only so callers written
    when the engine had a second, binary-heap queue keep compiling. *)

val create : ?backend:backend -> ?tick:Time.span -> unit -> t
(** A fresh engine with the clock at {!Time.zero} and no events.
    [tick] is the wheel's slot granularity (default 1 ms — pass the
    callout tick so level 0 resolves one callout slot per tick).
    Raises [Invalid_argument] if [tick <= 0]. *)

val now : t -> Time.t
(** Current simulated time. *)

val pending : t -> int
(** Number of scheduled, not-yet-cancelled events. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at fn] arranges for [fn ()] to run when the clock
    reaches [at]. Raises [Invalid_argument] if [at] is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t d fn] is [schedule t ~at:(Time.add (now t) d) fn]. *)

val cancel : t -> handle -> unit
(** [cancel t h] prevents the event from firing. Cancelling an event that
    already fired (or was already cancelled) is a no-op. *)

val cancelled : t -> handle -> bool
(** [cancelled t h] is [true] iff [h] was cancelled before firing.
    Exact until the handle's pool slot is recycled by later scheduling;
    a recycled handle reports [false]. *)

val fired : t -> handle -> bool
(** [fired t h] is [true] iff the event's callback has run. Same
    recycling caveat as {!cancelled}. *)

val run : ?until:Time.t -> t -> unit
(** [run t] processes events in time order until the queue is empty, or —
    when [until] is given — until the next event lies strictly beyond
    [until], in which case the clock is advanced to exactly [until].
    Callbacks may schedule further events. *)

val step : t -> bool
(** [step t] processes the single next event. Returns [false] when the
    queue was empty (the clock does not move). *)

exception Stopped
(** Raised by a callback to abort {!run} early; the clock stays at the
    aborting event's time and remaining events stay queued. *)

val stop : unit -> 'a
(** [stop ()] raises {!Stopped}; sugar for use inside callbacks. *)

(** {1 Introspection} *)

val events_fired : t -> int
(** Total callbacks run since creation — the numerator of events/sec. *)

val pool_size : t -> int
(** Event records ever allocated (high-water mark of concurrent
    events, including cancelled tombstones awaiting collection). *)

val pool_free : t -> int
(** Records currently parked on the freelist. *)
