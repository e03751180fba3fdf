(** RAM-disk driver.

    Mirrors the paper's RAM disk: a block device backed by statically
    allocated kernel memory. A transfer is a [bcopy] performed by the CPU
    at memory speed — so RAM-disk "I/O" costs pure CPU time, no
    mechanical delay, which is exactly what makes the copy-elimination
    benefit of splice most visible (Tables 1 and 2, RAM rows). The copy
    time is stolen from whatever is running, like the driver's bcopy
    would be, and completion is delivered when the copy finishes.

    To the simulated kernel the disk is zero-filled, statically
    allocated memory. On the host its contents live in a
    {!Blkdev.store}, which shares each block's sealed area with its
    callers instead of copying it; a never-written block reads as
    zeros. Each request moves one block per data area
    ([Blkdev.req.r_bufs]). *)

open Kpath_sim

type t
(** A RAM disk. *)

type arbiter
(** Serialises bcopies across RAM disks sharing one CPU: two drivers on
    the same machine cannot copy simultaneously. *)

val arbiter : unit -> arbiter
(** A fresh arbiter (one per machine). *)

val create :
  name:string ->
  copy_rate:float ->
  block_size:int ->
  nblocks:int ->
  ?arbiter:arbiter ->
  ?charge_in_context:(Time.span -> bool) ->
  engine:Engine.t ->
  intr:Blkdev.intr ->
  unit ->
  t
(** [create ()] builds a RAM disk whose transfers proceed at [copy_rate]
    bytes per second of CPU time. Pass the machine's [arbiter] so that
    sibling RAM disks serialise their copies.

    As in a real UNIX driver, the bcopy runs in whatever context called
    [strategy]: [charge_in_context span] should charge [span] to the
    current process and return [true] when there is one (a system call
    doing RAM-disk I/O pays for its own copy and is scheduled fairly);
    when it returns [false] — splice handlers, callout context — the
    copy is stolen as interrupt-level time. Defaults to never-in-context
    (always steal). *)

val blkdev : t -> Blkdev.t
(** The generic block-device view. *)

val read_block_direct : t -> int -> bytes
(** A copy of a block's stored contents (testing aid); see
    {!Blkdev.read_block_direct}. *)

val inject_error : t -> blkno:int -> unit
(** One-shot I/O error on the next request touching [blkno]. *)

val serviced : t -> int
(** Total requests completed. *)
