(** Refcounted immutable byte buffers.

    One buffer shared by many readers under a manual reference count —
    the buffer-cache pin/unpin discipline extended past the cache
    boundary, so a fan-out can hand N consumers offset+length views
    into a single copy of each block instead of N private copies.

    Holders must treat {!data} as read-only. The count is fail-fast:
    releasing below zero or retaining after the last release raises
    [Invalid_argument], and {!frees} exposes the free count so tests
    can assert release-exactly-once directly. *)

type t

val none : t
(** The distinguished empty payload: permanently live, {!retain} and
    {!release} on it are no-ops. Hot-path records point here instead of
    boxing an [option]. *)

val of_bytes : bytes -> t
(** Take ownership of [b] (refcount 1). The caller must not mutate [b]
    while the payload is live; once it is freed, no holder reads [b]
    again, so an {!on_free} hook may recycle it. *)

val data : t -> bytes
(** The shared buffer — read-only by convention. *)

val length : t -> int

val refs : t -> int
(** Current reference count (0 after the last release). *)

val frees : t -> int
(** How many times the count has drained to zero — exactly once for a
    correctly refcounted payload. *)

val is_none : t -> bool

val retain : t -> unit

val release : t -> unit
(** Drop one reference; the last release fires the {!on_free} hook. *)

val on_free : t -> (unit -> unit) -> unit
(** Install a hook run when the count drains to zero — the splice graph
    returns a snapshot's buffer to its pool here. *)
