(** The buffer cache.

    A fixed pool of block buffers indexed by (device, physical block),
    with LRU reuse and delayed writes — the 4.2BSD design ([LMK89]) the
    paper's splice implementation plugs into. The index is BSD's
    bufhash: hash chains threaded through the buffer headers, so a
    lookup ([incore]) walks a chain and allocates nothing. Two families of entry
    points coexist:

    - the classic process-context calls ([getblk], [bread], [breada],
      [bwrite], [bawrite], [bdwrite], [biowait]) which may put the caller
      to sleep and therefore must run inside a process coroutine;

    - the splice variants (§5.3): [getblk_nb] and [bread_nb] never sleep
      (splice handlers run without a process context), and [getblk_hdr]
      hands out a bare header whose data pointer will alias another
      buffer's data area — the paper's modified [getblk] "which avoids
      allocating any real memory to the buffer".

    I/O completion arrives through {!biodone}, in interrupt context. *)

open Kpath_sim
open Kpath_dev

type t
(** A buffer cache. *)

val create : block_size:int -> nbufs:int -> ?max_cluster:int -> unit -> t
(** [create ~block_size ~nbufs ()] builds a cache of [nbufs] buffers of
    [block_size] bytes (the paper's machine: 3.2 MB of 8 KB buffers).
    [max_cluster] (default 1 = clustering off) bounds how many
    physically contiguous blocks the cluster primitives ({!breadn},
    cluster write coalescing) will combine into one device request. *)

val block_size : t -> int

val max_cluster : t -> int
(** The cluster-size bound this cache was created with. *)

val stats : t -> Stats.t
(** Counters: [cache.hits], [cache.misses], [cache.reads],
    [cache.writes], [cache.delwri_flushes], [cache.sleeps]... *)

(** {1 Process-context operations} *)

val getblk : t -> Blkdev.t -> int -> Buf.t
(** [getblk t dev blkno] returns the buffer for [(dev, blkno)], marked
    busy. Sleeps while the buffer is busy or no buffer can be recycled.
    Contents are valid iff [Buf.valid]. Must run in a process. *)

val bread : t -> Blkdev.t -> int -> Buf.t
(** [bread t dev blkno] is [getblk] plus, on a miss, a read from the
    device and a [biowait]. Check [b_error] on return. *)

val breada : t -> Blkdev.t -> int -> ahead:int -> Buf.t
(** [breada t dev blkno ~ahead] is [bread] plus an asynchronous
    read-ahead of block [ahead] (ignored when [ahead] is cached, busy or
    out of range) — the FFS sequential read-ahead [cp] benefits from. *)

val bwrite : t -> Buf.t -> unit
(** Synchronous write: starts the I/O and sleeps until completion, then
    releases the buffer. Like every write of a pool buffer, it hands
    the device the buffer's area and seals it ({!own}). *)

val bawrite : t -> Buf.t -> unit
(** Asynchronous write: starts the I/O and returns; the buffer is
    released by {!biodone}. *)

val bdwrite : t -> Buf.t -> unit
(** Delayed write: mark dirty and valid, release without I/O. The block
    is written when its buffer is about to be recycled, or by
    {!flush_blocks} / {!flush_dev}. *)

val brelse : t -> Buf.t -> unit
(** Release a busy buffer back to the free list (MRU position), waking
    anyone sleeping on it. [B_INVAL] buffers lose their identity. *)

val biowait : Buf.t -> (unit, Blkdev.error) result
(** Sleep until the buffer's I/O completes; report its outcome. *)

val flush_blocks : t -> Blkdev.t -> int list -> unit
(** Synchronously write out any delayed-write buffers among the given
    physical blocks (the [fsync] back end). Runs of adjacent dirty
    blocks in the work list, up to [max_cluster] long, are coalesced
    into single multi-block writes (4.3BSD [cluster_wbuild]). Process
    context. *)

val flush_dev : t -> Blkdev.t -> unit
(** {!flush_blocks} over every cached block of the device. *)

val invalidate_dev : t -> Blkdev.t -> unit
(** Forget every non-busy cached block of the device — used to ensure the
    cold-cache start of the paper's measurements. Raises
    [Invalid_argument] if the device has busy buffers. *)

val cached : t -> Blkdev.t -> int -> bool
(** Is [(dev, blkno)] present (valid or dirty) in the cache? *)

(** {1 Block areas}

    Each block's bytes live in one sealed (immutable) area that the
    device store, the cache's buffers, splice and graph write sides and
    TCP payload views share by reference: a device read hands the
    buffer the store's own area instead of copying into it, and a write
    of a buffer hands the store the buffer's area, sealing it
    ([Buf.b_sealed]). So a sealed area is never written again, and a
    writer of [b_data] must first make the buffer's area private with
    {!own}. Private areas come from one free list per cache (one per
    machine): the private areas device reads displace from the pool's
    buffers, and areas callers give back. *)

val own : t -> Buf.t -> keep:bool -> unit
(** [own t b ~keep] makes busy pool buffer [b]'s data area private
    before the caller writes it: a sealed area is swapped for one from
    the free list (a fresh one when the list is empty), holding a copy
    of the old contents when [keep] (a partial overwrite), arbitrary
    bytes otherwise. A private area is left as it is. Whoever shared
    the old area keeps reading the old bytes. Raises [Invalid_argument]
    on a buffer that is not a busy pool buffer. *)

val spare_area : t -> bytes
(** The private area {!own} would take next: the free list's head, left
    there until {!claim_area} takes it, so a caller that may not need
    it (a filter program that stores nothing) costs no list traffic.
    When the list is empty, a fresh area is made, counted in
    [cache.areas_made], and put on it. *)

val claim_area : t -> unit
(** Take the free list's head (the last {!spare_area}) off the list:
    the caller now owns it. Raises [Invalid_argument] on an empty
    list. *)

val return_area : t -> bytes -> unit
(** Put a private block-sized area on the free list. The caller must
    hold the only reference. Raises [Invalid_argument] if the area is
    not one block long. *)

val spare_areas : t -> int
(** Areas currently on the free list. *)

(** {1 Interrupt-context operations} *)

val biodone : t -> Buf.t -> Blkdev.error option -> unit
(** I/O completion: records the outcome, then runs the [B_CALL] handler
    if installed, else auto-releases [B_ASYNC] buffers, else wakes
    [biowait] sleepers. *)

(** {1 splice support (never sleep)} *)

val getblk_nb : t -> Blkdev.t -> int -> Buf.t option
(** Non-blocking [getblk]: [None] when the buffer is busy or nothing can
    be recycled right now (a delayed write may have been started to make
    progress). *)

val bread_nb :
  t ->
  Blkdev.t ->
  int ->
  iodone:(Buf.t -> unit) ->
  [ `Hit of Buf.t | `Started of Buf.t | `Busy ]
(** Non-blocking [bread] with the [biowait] removed (§5.3): on a cache
    hit returns the valid busy buffer; otherwise installs [iodone] as the
    [B_CALL] handler and starts the read, or reports [`Busy] when no
    buffer is available. With [`Started b], [b] is the in-flight buffer —
    the caller may tag [b_lblkno] immediately (completion is
    never synchronous). *)

val breadn :
  t ->
  Blkdev.t ->
  int ->
  n:int ->
  iodone:(Buf.t -> unit) ->
  [ `Hit of Buf.t | `Started of Buf.t list | `Busy ]
(** Clustered {!bread_nb} (4.3BSD [cluster_rbuild]): on a miss, extend
    the read to up to [min n max_cluster] physically consecutive blocks
    — the run is truncated by a block already in the cache (valid, dirty
    or busy), by the end of the device, or by buffer shortage — and
    fetch the whole run with a single strategy call. The device raises
    one completion interrupt for the cluster; completion then fans out
    to every member buffer, invoking [iodone] on each. [`Started bs]
    lists the in-flight members in ascending block order; the caller may
    tag them immediately (completion is never synchronous). An I/O error
    breaks the cluster into single-block retries so only the failing
    block's buffer carries the error. With [n = 1] (or [max_cluster]
    1) this is exactly {!bread_nb}. *)

val awrite_call : t -> Buf.t -> iodone:(Buf.t -> unit) -> unit
(** Asynchronous write whose completion invokes [iodone] instead of
    auto-releasing ([B_CALL] wins over [B_ASYNC] in {!biodone}) — the
    splice write side: install the write handler in the header, then
    [bawrite] (§5.4). Works on cache buffers and {!getblk_hdr} headers. *)

val pin : t -> Buf.t -> unit
(** Take an alias reference on a busy buffer: its data area is about to
    be shared by one more downstream writer beyond its holder
    (splice-graph fan-out reads a source block once; the reader's hold
    serves the first edge and each further edge pins). Each reference
    must be dropped with {!unpin}; while any are held, {!brelse}
    refuses the buffer, so the writer done last — the one that finds
    no pin left — releases it, exactly once. *)

val unpin : t -> Buf.t -> unit
(** Drop one alias reference. The buffer stays busy: whoever is done
    with it last releases it with {!brelse}. Raises [Invalid_argument]
    if the buffer is not pinned — a double release. *)

val invalidate_cached : t -> Blkdev.t -> int -> unit
(** If [(dev, blkno)] is cached, discard it (sleeping while it is busy).
    Unlike [getblk]-then-invalidate, a block that is absent is left
    absent. Used by splice to keep the cache coherent with its
    write-around of the destination blocks. Process context. *)

val getblk_hdr : t -> Blkdev.t -> int -> Buf.t
(** A bare buffer header for the splice write side (§5.4): not indexed in
    the cache, owning no data area of its own — the caller points
    [b_data] at the read-side buffer's data, or [b_cluster] at a run of
    them for one multi-block transfer. A write hands those areas to the
    device's store by reference, so they must be sealed: no one writes
    them again. Release with {!release_hdr}. *)

val release_hdr : t -> Buf.t -> unit
(** Return a {!getblk_hdr} header to the header pool. *)

(** {1 Introspection} *)

val busy_count : t -> int
(** Pool buffers currently busy. Like the two counts below, a fold over
    the pool's buffers, O(pool size): the buffers' flags and refcounts
    are the only record, so no counter can drift from them. *)

val pinned_count : t -> int
(** Pool buffers currently holding at least one alias reference. *)

val dirty_count : t -> int
(** Pool buffers currently marked delayed-write. *)

val hash_buckets : t -> int
(** Bufhash chains: the smallest power of two at least the pool size.
    A block hashes to chain [(device id + block) mod hash_buckets]. *)

val check_invariants : t -> unit
(** Validate structural invariants (every hashed buffer on exactly one
    bufhash chain, in its key's bucket, under a unique identity; busy
    buffers off the free list; every other pool buffer on the free or
    dirty list its flags name, in LRU order); raises [Failure] on
    violation. Testing aid. *)
