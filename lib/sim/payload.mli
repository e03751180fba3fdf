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
(** Take ownership of [b] (refcount 1). Nobody may mutate [b] while the
    payload is live: a sealed block area (see [Buf.b_sealed]), which
    nobody writes again, or a buffer the caller gives up. *)

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
(** Drop one reference. *)
