(** A verified register machine for per-block filter programs.

    The splice graph's built-in filter stages (Checksum / Throttle /
    Tee) are fixed at compile time. This module provides the modern
    alternative argued for by the BPF-for-storage line of work: small
    user-supplied programs pushed into the in-kernel data path and made
    safe by a {e static verifier} rather than by trust. A program that
    passes {!verify} provably

    - terminates within its declared fuel bound (backward control flow
      exists only through the bounded {!insn.Loop} construct, and the
      structural worst-case cost is checked against the fuel),
    - never reads or writes outside the block payload or its private
      scratch arena (payload accesses are bounds-checked at run time
      and fault the edge; scratch offsets are immediate and checked
      statically), and
    - never blocks: the instruction set has no I/O, no allocation
      beyond the one copy-on-write payload clone (none when the caller
      lends an area or owns the block), and no calls — so an
      accepted program is safe to run from interrupt context inside
      the edge pump.

    Rejected programs yield a structured {!diag} naming the violated
    rule and the instruction offset, mirroring kpath-verify's findings:
    the verifier is itself a correctness tool whose rejections become
    test fixtures.

    The machine: {!max_regs} integer registers [r0..r7], a
    word-addressed scratch arena of up to {!max_scratch} cells that
    persists across blocks on the same edge (enabling dedup tables and
    cross-block state), read access to the current block's payload and
    logical block number, and four effect opcodes — transform a payload
    byte ({!insn.Stp}, applied to a private copy so aliased readers
    never observe the mutation; a caller that owns the block lets the
    program write it in place), drop the block, redirect it to a
    sibling edge's sink, or emit a key/value pair to the attachment
    point. *)

(** {1 Instruction set} *)

type reg = int
(** Register index, [0 .. max_regs - 1]. *)

type operand =
  | Reg of reg  (** the register's current value *)
  | Imm of int  (** an immediate constant *)

(** One instruction. ALU operations update their first (register)
    operand in place. Jump offsets are relative and must be strictly
    positive: the only backward control flow is [Loop]/[End]. *)
type insn =
  | Mov of reg * operand  (** [r <- v] *)
  | Add of reg * operand
  | Sub of reg * operand
  | Mul of reg * operand
  | Div of reg * operand  (** faults on a zero register divisor *)
  | Rem of reg * operand  (** faults on a zero register divisor *)
  | And of reg * operand
  | Or of reg * operand
  | Xor of reg * operand
  | Shl of reg * operand  (** shift count taken mod 64 *)
  | Shr of reg * operand  (** logical; shift count taken mod 64 *)
  | Len of reg  (** [r <- ] payload bytes in this block *)
  | Blkno of reg  (** [r <- ] logical block number *)
  | Ldp of reg * operand  (** load payload byte; faults out of bounds *)
  | Stp of operand * operand
      (** [Stp (off, v)] stores byte [v land 0xff] at payload offset
          [off], copy-on-write; faults out of bounds *)
  | Lds of reg * int  (** load scratch cell (static offset) *)
  | Sts of int * operand  (** store scratch cell (static offset) *)
  | Ldsx of reg * reg
      (** [Ldsx (r, ri)] loads the scratch cell at
          [ri land (scratch - 1)]. Admitted only over a non-empty
          power-of-two arena (rule ["scratch-index"]), which makes the
          masked access statically in bounds — the proof the compiled
          backend relies on to index the host array unchecked. *)
  | Stsx of reg * operand
      (** [Stsx (ri, v)] stores [v] at scratch cell
          [ri land (scratch - 1)]; same power-of-two requirement. *)
  | Jmp of int  (** relative forward jump: next pc is [pc + off] *)
  | Jeq of reg * operand * int  (** jump forward when [r = v] *)
  | Jne of reg * operand * int
  | Jlt of reg * operand * int
  | Jge of reg * operand * int
  | Loop of operand * int
      (** [Loop (count, cap)] runs the body (through the matching
          [End]) [min (max count 0) cap] times; [cap] is a static
          iteration bound the verifier charges against the fuel *)
  | End  (** closes the innermost [Loop] *)
  | Emit of operand * operand  (** deliver a key/value observation *)
  | Drop  (** verdict: discard this block *)
  | Redirect of operand  (** verdict: deliver via the nth sibling edge *)
  | Ret  (** verdict: pass the block through *)

(** Where the program is attached, restricting the effects it may use:
    an [Edge] program owns its block and may transform, drop or
    redirect it; a [Readonly] program (a probe) may only observe and
    [Emit]. *)
type context = Edge | Readonly

type spec = {
  s_insns : insn array;
  s_fuel : int;  (** declared execution budget, instructions *)
  s_scratch : int;  (** scratch arena cells to allocate *)
  s_context : context;
}
(** An unverified program as assembled or loaded. *)

(** {1 Limits} *)

val max_regs : int
(** Register-file size (8). *)

val max_scratch : int
(** Largest scratch arena, in cells. *)

val max_fuel : int
(** Largest declarable fuel. *)

val max_loop_count : int
(** Largest static loop cap. *)

val max_loop_depth : int
(** Deepest [Loop] nesting. *)

val max_insns : int
(** Longest accepted program. *)

(** {1 Verification} *)

type prog
(** A verified program. Values of this type exist only by passing
    {!verify}: holding a [prog] is proof of the termination and
    memory-safety argument, which is what keeps the in-kernel trusted
    surface at the size of the verifier rather than of every program. *)

type diag = {
  d_rule : string;  (** violated rule, e.g. ["unbounded-loop"] *)
  d_pc : int;  (** instruction offset, [-1] for whole-program rules *)
  d_msg : string;  (** human-readable explanation *)
}
(** A structured rejection. Rules: ["program-size"], ["fuel-bound"],
    ["scratch-oob"], ["scratch-index"], ["bad-register"],
    ["unbounded-loop"], ["loop-depth"], ["jump-oob"], ["div-by-zero"],
    ["effect-context"], ["range-oob"]. The last is produced by the
    range analysis: a payload access whose offset interval provably
    misses every admissible payload (always negative, or at/past a
    guard-derived length cap); its message names the violated interval,
    e.g. [off in [256, 256], len in [0, 255]]. *)

val verify : spec -> (prog, diag) result
(** Statically check a program. On success the returned {!prog} is a
    private copy: later mutation of [s_insns] cannot invalidate it.

    Beyond the structural rules, [verify] runs a flow-sensitive range
    analysis: an abstract interpreter tracking one interval per
    register (endpoints may be payload-relative, ["len-1"]) plus a
    known multiple-of fact, refined by conditional guards and widened
    through [Loop] back-edges via a monotone-counter envelope. Its
    verdict table (see {!accesses}) marks every payload load/store and
    register-divisor [Div]/[Rem] site [`Proven] — cannot fault on any
    admissible payload — or [`Checked]; the compiled backend elides the
    runtime test exactly at [`Proven] sites. *)

type access = {
  a_pc : int;  (** instruction offset of the faultable site *)
  a_kind : [ `Load | `Store | `Div ];
  a_bounds : [ `Proven | `Checked ];
      (** [`Proven]: the range analysis showed the access in bounds (or
          the divisor non-zero) on every path and payload, so the
          runtime check may be elided. *)
  a_range : string;
      (** the analyzed interval, e.g. ["off in [0, len-1]"], or
          ["unreachable"] for statically dead sites *)
}
(** One row of the range-analysis verdict table. *)

val accesses : prog -> access list
(** Every faultable site of the program in pc order: payload loads and
    stores, and [Div]/[Rem] with a register divisor. *)

val bounds_at : prog -> int -> [ `Proven | `Checked ]
(** The verdict at one pc; [`Checked] for pcs that are not a faultable
    site. This is the compiler's elision oracle. *)

val diag_to_string : diag -> string
(** ["rule at pc N: msg"] — one line, stable format. *)

val insns : prog -> insn array
(** The verified instruction sequence (a copy). *)

val fuel : prog -> int

val scratch_cells : prog -> int

val prog_context : prog -> context

val worst_cost : prog -> int
(** The verifier's structural worst-case instruction count; always
    [<= fuel prog]. *)

(** {1 Execution} *)

(** How a run ended. [Fault] carries the reason (payload access out of
    bounds, zero register divisor, …); the attachment point treats it
    like any other edge error. *)
type verdict = Pass | Drop | Redirect of int | Fault of string

type run = {
  r_verdict : verdict;
  r_steps : int;  (** instructions executed, for CPU accounting *)
  r_data : bytes;
      (** the payload after the run: the input buffer itself, or the
          program's private copy (a fresh clone or the caller's area)
          when it stored through [Stp]; always the input when the caller
          declared it owned *)
}

type state
(** Mutable per-attachment state: the scratch arena (persists across
    blocks) plus preallocated register and loop books so a run does
    not allocate. One [state] per edge; never share across edges. *)

val new_state : prog -> state

val exec :
  ?into:bytes ->
  prog ->
  state ->
  data:bytes ->
  len:int ->
  lblk:int ->
  emit:(int -> int -> unit) ->
  run
(** Run the program over one block. [data] is the block buffer ([len]
    payload bytes of it are visible). [into] is the copy-on-write
    destination:

    - omitted: [data] is shared and never mutated — the first [Stp]
      clones it, and [r_data] is the clone;
    - [data] itself: the caller owns the input, so stores land in it
      and [r_data == data]. The input is mutated only then;
    - any other buffer of [data]'s length: an area the caller lends —
      the first [Stp] copies all of [data] into it, stores land there,
      and [r_data] is the area exactly when a store ran.

    An area of another length raises [Invalid_argument]. Registers are
    zeroed per run; scratch persists. [emit k v] is called
    synchronously for each [Emit]. Deterministic: same program, state,
    block and destination give the same result. *)

(** {1 Backend support}

    Shared with {!Compile}, the closure-compiling backend, so both
    backends fault with byte-identical reasons. Not for general use:
    raising [Fault_exn] anywhere else bypasses the run accounting. *)

exception Fault_exn of string
(** Raised internally on a runtime fault (payload bounds, zero register
    divisor); caught by [exec] and turned into a [Fault] verdict. *)

val fault : ('a, unit, string, 'b) format4 -> 'a
(** [fault fmt ...] raises {!Fault_exn} with the formatted reason. *)

val cow_dest : data:bytes -> bytes option -> bytes
(** The copy-on-write destination {!exec}'s [into] names: [data] itself
    when owned, the lent area, or [Bytes.empty] for a fresh clone.
    Raises [Invalid_argument] on an area whose length differs from
    [data]'s. *)

val cow : data:bytes -> dest:bytes -> bytes
(** The private copy made on the first [Stp]: [dest] filled with all of
    [data], or a fresh clone when [dest] is [Bytes.empty]. *)
