(** Simulated time.

    Time is measured in integer nanoseconds from the start of the
    simulation. A [span] is a duration; both share the representation but
    the distinct names document intent at use sites. Nanosecond integers
    keep the event engine fully deterministic (no floating-point drift)
    while still resolving sub-microsecond device events; an OCaml [int]
    holds about 292 simulated years of nanoseconds. *)

type t = private int
(** An instant, in nanoseconds since simulation start. *)

type span = t
(** A duration, in nanoseconds. *)

val zero : t
(** The simulation epoch. *)

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f s] is [s] seconds, rounded to the nearest nanosecond.
    Raises [Invalid_argument] if [s] is negative or NaN. *)

val of_us_f : float -> t
(** [of_us_f u] is [u] microseconds, rounded to the nearest nanosecond.
    Raises [Invalid_argument] if [u] is negative or NaN. *)

val to_ns : t -> int
(** [to_ns t] is the raw nanosecond count. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] in seconds. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] in microseconds. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val sub : t -> span -> t
(** [sub t d] is the instant [d] before [t]. Raises [Invalid_argument] if
    the result would be negative. *)

val diff : t -> t -> span
(** [diff a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val scale : span -> int -> span
(** [scale d k] is [k] times the duration [d]. *)

val compare : t -> t -> int
(** Total order on instants. *)

val equal : t -> t -> bool

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val span_of_bytes : bytes_per_sec:float -> int -> span
(** [span_of_bytes ~bytes_per_sec n] is the time needed to move [n] bytes
    at the given rate. Raises [Invalid_argument] on a non-positive or NaN
    rate. *)

val rate_bytes_per_sec : bytes:int -> span -> float
(** [rate_bytes_per_sec ~bytes d] is the throughput, in bytes per second,
    of moving [bytes] bytes in duration [d]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with an adaptive unit (ns, us, ms, s). *)
