(** Canned filter programs, in the textual format.

    These serve as executable documentation of the ISA, as fixtures for
    the graph-integration tests, and as the workloads for
    [bench sweep-prog]. The [*_src] values are assembler source; the
    corresponding functions assemble and verify them (raising
    [Invalid_argument] only on a bug in the source — these programs are
    part of the test suite). *)

val checksum_src : string
(** FNV-1a over the payload mixed with the block number — bit-identical
    to the built-in [Graph.Checksum] stage. Emits the digest as key 0,
    which the graph folds into the edge checksum. *)

val checksum : unit -> Vm.prog

val tee_hash : unit -> Vm.prog
(** Content hash of the payload emitted as key 1: a tee that records a
    fingerprint instead of copying the bytes. *)

val dropper : modulo:int -> Vm.prog
(** Drops every block whose number is a multiple of [modulo] (>= 1). *)

val router : fanout:int -> Vm.prog
(** Redirects block [b] to sibling edge [b mod fanout]. *)

val xor_mask : key:int -> Vm.prog
(** Transforms the payload in place (copy-on-write): XORs every byte
    with [key land 0xff]. Self-inverse. *)

val xor_stream : key:int -> Vm.prog
(** Keyed xor-stream cipher (copy-on-write): XORs every byte with a
    per-block key byte derived from [key] and the block number, so
    identical plaintext blocks encrypt differently. The loop body is
    the scatter/store idiom; self-inverse for the same key. *)

val histogram_src : string
(** Block-local byte histogram + entropy probe, read-only: clears a
    256-cell scratch arena, fills it with the histogram idiom
    ([Ldsx]/[Stsx] indexed by the payload byte), and emits the number
    of distinct byte values as key 4 — a cheap compressibility /
    encrypted-payload signal next to the disk. *)

val histogram : unit -> Vm.prog

val dedup_chunks : bits:int -> Vm.prog
(** Content-defined chunking for dedup, read-only: a multiplicative
    rolling hash over the payload; positions where its low [bits]
    (1..24) bits are all ones are chunk boundaries (expected chunk
    [2^bits] bytes), and the hash at each boundary is emitted as
    key 3 — the chunk fingerprint a dedup index would look up. The
    loop is the rolling-hash idiom. *)

val bounded_copy : unit -> Vm.prog
(** Mirrors the 32-byte header into the next 32 bytes (copy-on-write),
    skipping blocks shorter than 64 bytes. The leading [jge len]
    guard lets the range analysis prove every payload access of the
    loop in bounds, so the compiled loop runs with no runtime payload
    checks — the guard-then-raw-copy shape that demonstrates the
    [`Proven] path end to end. *)

val oob_probe : unit -> Vm.prog
(** Verifier-accepted but faults at run time: loads one byte past the
    payload. Exercises the edge fault/abort path. *)
