(** The paper's user programs, as simulated processes.

    Three programs drive the §6 experiments: a compute-bound test
    program measuring CPU availability, the classic read/write [cp], and
    the splice-based [scp]. All are ordinary coroutine bodies built on
    {!Kpath_kernel.Syscall}. *)

open Kpath_sim
open Kpath_proc
open Kpath_core
open Kpath_kernel

type copy_stats = {
  mutable bytes_copied : int;
  mutable copies_done : int;  (** complete file copies finished *)
  mutable copy_started : Time.t;
  mutable copy_finished : Time.t;  (** of the last completed copy *)
}

val fresh_copy_stats : unit -> copy_stats

type test_stats = {
  mutable ops_done : int;
  mutable test_started : Time.t;  (** when the test program was started *)
  mutable test_finished : Time.t option;
}

val fresh_test_stats : unit -> test_stats

val pattern_byte : int -> char
(** Deterministic file contents: byte at offset [i]. Writers generate it
    and verifiers recompute it. Every 4 KB page of a file differs from
    every other, so blocks of 4 KB or more are all distinct and a block
    landing at another block's offset fails verification. *)

val fill_pattern : bytes -> file_off:int -> unit
(** Fill a buffer with the pattern for a chunk starting at [file_off]. *)

val pattern_mismatches : bytes -> pos:int -> len:int -> file_off:int -> int
(** Number of bytes in [buf.[pos..pos+len)] that differ from the pattern
    at [file_off..] — a bounds-unchecked tight loop, the verifier for
    streaming experiments that cross gigabytes. *)

val spawn_test_program :
  Machine.t -> ops:int -> ?op_cost:Time.span -> test_stats -> Process.t
(** The CPU-availability probe: performs [ops] compute operations of
    [op_cost] each (default 1 ms), recording completion time. *)

val write_pattern :
  Syscall.env -> string -> Syscall.open_flag list -> bytes:int -> unit
(** From a process: open the path with the flags, write [bytes] of the
    pattern through ordinary writes of 64 KB, then [fsync] and close. *)

val spawn_file_writer : Machine.t -> path:string -> bytes:int -> Process.t
(** Create (or truncate) a file and fill it with the pattern
    ({!write_pattern}) — the experiment setup step. *)

val spawn_cp :
  Machine.t ->
  src:string ->
  dst:string ->
  ?bufsize:int ->
  ?pace:float ->
  ?loop_until:bool ref ->
  copy_stats ->
  Process.t
(** The baseline copier: an 8 KB read/write loop ending in [fsync]
    (§6.2). With [loop_until] it repeats whole-file copies until the
    flag turns true (the CP contention environment). With [pace] (bytes
    per second) the loop throttles itself to a fixed application data
    rate — the continuous-media regime the paper's introduction
    motivates, used by the CPU-availability experiment so both copy
    mechanisms move data at the same rate. *)

val spawn_scp :
  Machine.t ->
  src:string ->
  dst:string ->
  ?config:Flowctl.config ->
  ?chunk_bytes:int ->
  ?pace:float ->
  ?loop_until:bool ref ->
  copy_stats ->
  Process.t
(** The splice-based copier. Unpaced: one synchronous whole-file splice
    per copy. Paced: bounded-size splices of [chunk_bytes] (default
    64 KB) at the target rate — the paper's §4 technique of limiting the
    transfer quantum to control the rate. *)

val spawn_mcp :
  Machine.t ->
  src:string ->
  dst:string ->
  ?loop_until:bool ref ->
  copy_stats ->
  Process.t
(** The memory-mapped copier the paper's §7 contrasts with (Govindan &
    Anderson-style): map source and destination, then one user-space
    copy per page. Modeled per page pair: two page faults (trap + PTE
    cost each), a device read for the source page, one user copy, and a
    delayed write-back of the dirty destination page, with an msync at
    the end. Eliminates [read]/[write] syscalls and one copy versus
    [cp], but keeps the process and the VM machinery on the data path —
    exactly the contrast the paper draws. *)

val spawn_verifier :
  Machine.t -> path:string -> expect_bytes:int -> (bool -> unit) -> Process.t
(** Read the file back and check it against the pattern; the callback
    receives the verdict. *)
