(** Event tracing.

    A bounded ring of timestamped, categorised messages. Categories are
    opt-in, and emission is O(1) and allocation-free while a category is
    disabled (messages are closures forced only when recording), so
    instrumentation can stay in hot paths permanently. *)

type t
(** A trace ring. *)

type event = {
  ev_time : Time.t;  (** simulated time of emission *)
  ev_seq : int;  (** global emission ordinal *)
  ev_cat : string;
  ev_msg : string;
}

val create : ?capacity:int -> clock:(unit -> Time.t) -> unit -> t
(** A trace keeping the last [capacity] events (default 4096),
    timestamped by [clock]. *)

val enable : t -> string -> unit
(** Start recording a category (e.g. ["splice"]). *)

val enable_all : t -> unit
(** Record every category. *)

val disable : t -> string -> unit
(** Stop recording one category. Does not affect {!enable_all}: the
    all-categories flag is tracked independently, so disabling a single
    category never silently drops the others. *)

val disable_all : t -> unit
(** Clear the {!enable_all} flag and every individually enabled
    category. *)

val enabled : t -> string -> bool

val emit : t -> cat:string -> (unit -> string) -> unit
(** [emit t ~cat msg] records [msg ()] if [cat] is enabled. *)

val events : t -> event list
(** Recorded events, oldest first (at most [capacity]). *)

val clear : t -> unit

val recorded : t -> int
(** Total events recorded since creation (including overwritten ones). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val pp_event : Format.formatter -> event -> unit

val dump : Format.formatter -> t -> unit
(** Print every retained event, one per line. *)

val dump_json : Format.formatter -> t -> unit
(** Print every retained event as one JSON object per line (JSON Lines:
    [{"t_us":..,"seq":..,"cat":"..","msg":".."}], strings escaped), for
    post-processing graph traces and bench runs. *)
