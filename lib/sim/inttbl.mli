(** Hash tables keyed by [int].

    The one table type for the simulator's per-block, per-frame and
    per-syscall lookups (descriptor slots, interfaces, demux keys,
    blocks in flight): a monomorphic instance of [Hashtbl.Make] with a
    dedicated integer hash, so a lookup neither calls the polymorphic
    hash nor compares structurally, and [find] allocates nothing.
    Enumeration ([iter], [fold]) is in hash order: sort the result. *)

include Hashtbl.S with type key = int
