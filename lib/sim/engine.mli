(** Discrete-event simulation engine.

    The engine owns the simulated clock and a queue of pending events.
    Events fire in (time, seq) order, where [seq] is taken from one
    counter at each {!schedule} and {!reschedule}: events due at the
    same instant fire in the order they were scheduled (FIFO), which
    makes every simulation fully deterministic.

    The queue is one binary min-heap of pooled event slots, each of
    which records its heap position: {!cancel} removes an event and
    {!reschedule} moves one in O(log n), so the heap holds live events
    only. Handles are immediate integers, so steady-state scheduling
    performs no OCaml heap allocation. *)

type t
(** An engine: a clock plus an event queue. *)

type handle
(** A scheduled event, usable for cancellation and rescheduling.
    Handles are immediate (unboxed) values carrying a generation stamp:
    cancelling or querying a handle whose event finished long ago is a
    safe no-op. *)

val none : handle
(** A handle that names no event, for a disarmed timer held in a record
    without an option: {!cancel} ignores it, {!fired} and {!cancelled}
    are [false], and {!reschedule} raises. No {!schedule} returns it. *)

type backend = [ `Wheel ]
(** A one-value type naming no implementation. It, {!create}'s
    [?backend] and [?tick] arguments, and [Config.sim_engine] survive
    only because kbench passes them. *)

val create : ?backend:backend -> ?tick:Time.span -> unit -> t
(** A fresh engine with the clock at {!Time.zero} and no events.
    [backend] and [tick] are accepted and ignored. *)

val now : t -> Time.t
(** Current simulated time. *)

val pending : t -> int
(** Number of events in the queue: scheduled, and neither fired nor
    cancelled. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at fn] arranges for [fn ()] to run when the clock
    reaches [at]. Raises [Invalid_argument] if [at] is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t d fn] is [schedule t ~at:(Time.add (now t) d) fn]. *)

val cancel : t -> handle -> unit
(** [cancel t h] removes the event from the queue, so it never fires,
    and frees its slot at once. Cancelling an event that already fired
    (or was already cancelled) is a no-op. *)

val reschedule : t -> handle -> at:Time.t -> unit
(** [reschedule t h ~at] moves the pending event [h] to [at], keeping
    its handle and callback. It takes a fresh sequence number, exactly
    as {!cancel} followed by {!schedule} would, so it fires after every
    event already scheduled for [at]. Raises [Invalid_argument] if [at]
    is in the past, or if [h] has fired, was cancelled or is stale. *)

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
    Callbacks may schedule further events. Raises [Invalid_argument] if
    [until] is before {!now}: the clock never moves backwards. *)

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
(** Event slots ever allocated: the high-water mark of pending events.
    A cancelled event frees its slot at once. *)

val pool_free : t -> int
(** Slots currently parked on the freelist. *)
