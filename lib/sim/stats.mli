(** Named counters and gauges for simulation statistics.

    Every subsystem registers counters in a [Stats.t] registry so that
    experiment drivers can print a uniform report and tests can assert on
    event counts without threading ad-hoc references around.

    Simulator code names its counters and histograms with {!key}s
    declared once at module level; a key resolves to a registry's
    counter on first use and to a cached slot after that, so bumping a
    counter on a per-block or per-frame path neither hashes its name
    nor allocates. Reading by name ({!get}, {!histogram}) is for
    reports and tests. *)

type t
(** A statistics registry. *)

type counter
(** A monotonically increasing counter. *)

val create : unit -> t
(** An empty registry. *)

val counter : t -> string -> counter
(** [counter t name] returns the counter registered under [name],
    creating it at zero on first use. *)

type key
(** A counter or histogram name, declared once. *)

val key : string -> key
(** [key name] declares a name; call it at module initialisation, not on
    a hot path. Two keys with the same name reach the same counter. *)

val at : t -> key -> counter
(** [at t k] is [counter t name] for [k]'s name: resolved by name on
    the first use in [t], then read from [t]'s slot for [k] without
    hashing or allocating. *)

val hist : t -> key -> Histogram.t
(** [hist t k] is [histogram t name] for [k]'s name, resolved like
    {!at}. *)

val incr : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** [add c n] adds [n >= 0]. Raises [Invalid_argument] on negative [n]. *)

val value : counter -> int
(** Current count. *)

val get : t -> string -> int
(** [get t name] is the value of the named counter, or [0] when it was
    never created. *)

val histogram : t -> string -> Histogram.t
(** [histogram t name] returns the named histogram, creating it empty on
    first use. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Print all counters, one per line. *)
