(** Closure-compiling backend for verified filter programs.

    {!Vm.exec} pays a dispatch — a fuel check, two counter bumps, a
    27-way match and an operand decode — for every executed
    instruction. This module removes it by translating verified
    bytecode to OCaml closures {e once, at load time}: a leader
    analysis splits the program into basic blocks (jump targets and
    the [Loop]/[End] structure start blocks; jumps, loop edges and
    verdicts end them), each straight-line instruction becomes a
    closure with its operands resolved at compile time (register index
    or immediate baked in), and the closures of a block are chained by
    direct continuation calls. Executing a block costs one indirect
    call per instruction and a single batched step-count update;
    blocks tail-call their successors (the verifier admits only
    forward jumps, so the one back-edge is [End] returning to its loop
    body), so compiled code needs no dispatch loop and no host stack
    depth proportional to the program. A loop whose whole body is a
    single basic block is fused further into a counted host loop with
    its step charge batched across iterations — the interpreter's
    per-iteration bookkeeping survives only in the loop book an
    in-body fault uses to unwind the batched charge. On top of that
    sits the loop-idiom pass, a small pattern library over bodies that
    walk the payload through a monotonically advancing counter — a
    single entry test then proves the whole loop fault-free and the
    scan runs with all state in host registers:

    - {e byte-scan fold}: load byte at the counter, fold, mix, mask,
      bump — the FNV/tee-hash shape. Under a low-bit mask
      ([m land (m + 1) = 0], -1 included) the scan folds into an
      unmasked 64-bit accumulator and masks once at exit; any other
      mask is applied every byte;
    - {e scatter/store}: load, ALU-transform, store back, bump —
      xor-stream cipher masks and byte remaps, writing the
      copy-on-write destination directly with the copy forced once at
      loop entry. [xor], [and] and [or] are each [(b land a) lxor c] on a
      byte, so one scan transforms eight bytes per step against the
      low bytes of [a] and [c] copied into a word, then a byte tail;
      [add] and [sub] run byte by byte;
    - {e histogram}: load, indexed scratch load ([Ldsx]), increment,
      indexed scratch store ([Stsx]), bump — the verifier's
      power-of-two arena rule (["scratch-index"]) is the proof that
      lets the host loop index the table unchecked;
    - {e rolling-hash window}: fold each byte into a window hash and
      emit at chunk boundaries — the content-defined-chunking shape;
      its conditional [Emit] splits the body into three blocks so it
      can never fuse, but the whole region is recognized at the [Loop]
      and runs as one scan, charging the skipped-[Emit] step
      difference per boundary. When the window mask is a low-bit mask
      and the boundary mask tests only bits inside it, the hash is
      masked only where it leaves the scan or is emitted; otherwise
      every byte.

    The ALU op and the masks are immediates of the matched
    instructions, so each variant is picked at compile time. A fold or
    rolling hash that misses the low-bit precondition reports
    [", per-step mask"] in its {!block_tiers} note.

    Anything an entry test cannot prove (or any shape not matched)
    falls back to the generic path and faults bit-identically.
    Register, scratch and loop-book indices were range-checked by the
    verifier and compile to unchecked accesses. Payload offsets are
    runtime values, but the verifier's range analysis classifies each
    load/store (and register-divisor [Div]/[Rem]) site: [`Proven]
    sites compile to unchecked byte ops on the generic and fused
    tiers — the idiom library's entry-test trick generalized to
    arbitrary verified programs — while [`Checked] sites keep their
    runtime test and the interpreter's byte-identical fault strings.

    The trusted surface is unchanged: {!compile} consumes only
    {!Vm.prog} values, which exist only by passing {!Vm.verify} — the
    compiler relies on the verifier's invariants (matched [Loop]/[End]
    nesting, jumps that stay inside their loop region, static scratch
    bounds, non-zero immediate divisors, and the range analysis's
    [`Proven] verdicts) rather than re-checking them, exactly as the
    interpreter does. Payload bounds and register divisors the
    analysis could not prove are still checked per access and fault
    with the interpreter's byte-identical messages.

    Observational equivalence is exact, not approximate: for every
    verified program, payload and per-edge state, {!exec} returns the
    same {!Vm.run} as {!Vm.exec} — same verdict, same [r_steps] (so
    per-instruction CPU accounting and the simulated timeline are
    bit-identical), same emit sequence, same payload bytes, and the
    same physical-identity contract on [r_data] (the input buffer
    itself unless a [Stp] forced the copy into a fresh clone or the
    caller's area; always the input when the caller owns it). The test
    suite enforces this over the fixture corpus, the canned samples
    and randomized programs ([vm-parity]). *)

type code
(** A compiled program: one closure per basic block plus the metadata
    to account steps exactly like the interpreter. Immutable and
    shareable — attach one [code] to any number of edges, each with
    its own {!state}. *)

val compile : Vm.prog -> code
(** Translate a verified program. Load-time cost is linear in the
    program; running it allocates nothing beyond what the interpreter
    allocates (the {!Vm.run} record, and the copy-on-write clone on the
    first [Stp] when the caller lends no area). Every recognized loop idiom is used, and every
    site the range analysis marked [`Proven] (see {!Vm.bounds_at})
    drops its runtime bounds or zero-divisor test. Neither changes
    observable behavior: an idiom's entry test hands any count it
    cannot prove to the generic path, [`Proven] sites cannot fault,
    and step accounting and copy-on-write are preserved. *)

val prog : code -> Vm.prog
(** The verified program this code was compiled from. *)

type block_bounds = { bb_first : int; bb_last : int }
(** One basic block: instructions [bb_first .. bb_last] inclusive. *)

val blocks : code -> block_bounds array
(** The basic blocks found by the leader analysis, in program order —
    what [kpathctl prog] prints next to the disassembly. *)

val block_tiers : code -> string array
(** One note per basic block (parallel to {!blocks}) naming the
    compilation tier that fired: a named loop idiom (with
    [", per-step mask"] when a fold or rolling hash runs its slower
    masked scan), a fused or block-chained loop, or plain chained
    closures. [kpathctl prog] prints these so a slow program is
    diagnosable without reading the compiler. *)

type state
(** Mutable per-attachment state: scratch arena (persists across
    blocks), register file and loop books, all preallocated so a run
    does not allocate. One [state] per edge; never share across
    edges. *)

val new_state : code -> state

val exec :
  ?into:bytes ->
  code ->
  state ->
  data:bytes ->
  len:int ->
  lblk:int ->
  emit:(int -> int -> unit) ->
  Vm.run
(** Run the compiled program over one block, with {!Vm.exec}'s exact
    contract (registers zeroed per run, scratch persistent, synchronous
    [emit], and the same copy-on-write destinations: [data] is mutated
    only when [into] is [data] itself, and a lent area receives the
    copy on the first [Stp]). Interrupt-safe: compiled closures perform
    no I/O, no blocking and no allocation. *)
