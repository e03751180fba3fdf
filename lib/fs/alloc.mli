(** Block allocation bitmap.

    Pure bitmap operations over the in-core copy of the on-disk bitmap;
    {!Fs} persists it. One bit per filesystem block, set = allocated.
    Allocation scans forward from a cursor, so files written sequentially
    get contiguous physical blocks — matching FFS's locality goal and
    letting the disk model's sequential-stream optimisations engage. *)

type t
(** An allocator over a bitmap. *)

val create : nblocks:int -> t
(** All-free bitmap of [nblocks] bits. *)

val of_bytes : nblocks:int -> bytes -> t
(** Adopt an on-disk bitmap image (copied). *)

val to_bytes : t -> bytes
(** Serialize (copy) for writing out. *)

val is_allocated : t -> int -> bool
(** Test one block. Raises [Invalid_argument] out of range. *)

val set_allocated : t -> int -> unit
(** Mark a block allocated (used by mkfs for metadata). Raises
    [Invalid_argument] if already allocated. *)

val alloc : t -> int option
(** Allocate the next free block at or after the cursor (wrapping),
    advancing the cursor; [None] when full. *)

val free : t -> int -> unit
(** Release a block. Raises [Invalid_argument] if it was free. *)

val free_count : t -> int
(** Number of free blocks. *)

