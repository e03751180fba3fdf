(* Closure-compiling backend: verified bytecode -> OCaml closures, one
   per basic block, built once at load time. See compile.mli for the
   equivalence contract with the interpreter.

   Execution is direct-threaded: every block closure tail-calls its
   successor, so a run is one OCaml call chain with no dispatch loop.
   That is safe because the verifier only admits forward jumps — the
   single back-edge kind is [End] returning to its loop body, and that
   is bounded by the loop book (plus a defensive fuel check). Register,
   scratch and loop-book indices were range-checked by the verifier, so
   the compiled code uses unchecked array accesses; only payload
   offsets are runtime values and keep their bounds checks (they must
   fault, bit-identically to the interpreter). *)

type state = {
  c_regs : int array;
  c_scratch : int array;
  (* Loop books indexed by *static* nesting depth: the verifier proves
     jumps never cross a loop boundary, so the interpreter's dynamic
     loop stack always mirrors the static nesting and no runtime depth
     counter is needed. *)
  c_lleft : int array;
  mutable c_data : bytes;  (* the input buffer, this run *)
  mutable c_cur : bytes;  (* input, or the private copy after a Stp *)
  mutable c_dest : bytes;  (* copy-on-write destination ({!Vm.cow_dest}) *)
  mutable c_copied : bool;
  mutable c_len : int;
  mutable c_lblk : int;
  mutable c_emit : int -> int -> unit;
  mutable c_steps : int;
  mutable c_verdict : Vm.verdict;
}

type block_bounds = { bb_first : int; bb_last : int }

(* A block closure advances the machine and tail-calls the next block;
   it returns only when the program halts, verdict left in
   [c_verdict]. *)
type code = {
  k_prog : Vm.prog;
  k_entry : state -> unit;
  k_bounds : block_bounds array;
  (* One human-readable note per block: which compilation tier fired
     (named idiom / fused loop / chained closures). *)
  k_tiers : string array;
}

let no_emit (_ : int) (_ : int) = ()

let halt (_ : state) = ()

(* Copy on write at the first store: the input buffer is aliased
   across edges. An input the caller owns never gets here ([c_copied]
   starts true). *)
let cow st =
  st.c_cur <- Vm.cow ~data:st.c_data ~dest:st.c_dest;
  st.c_copied <- true

(* The idiom scans below are the targets of the loop-idiom recognition
   in [compile]. Each runs over [cur.(lo .. hi)] (never empty: a Loop
   hands over only positive counts) after the caller's entry test
   proved every offset in bounds, with all state in host registers —
   nothing round-trips through the register array inside a scan. The
   ALU op and the masks are immediates of the matched instructions, so
   [compile] picks each variant once, at load time. *)

(* [m] keeps its low bits only: [2^k - 1], or -1 for all of them. *)
let low_mask m = m land (m + 1) = 0

(* Byte-scan fold: [h <- ((h lxor byte) * v) land m] per byte. Under a
   low-bit mask the fold runs in an unmasked 64-bit accumulator and
   masks once at exit: xor and multiply never carry high bits into low
   ones, and [Int64.to_int] keeps the low 63 bits, which is OCaml's
   wrap-around. Any other mask is applied every step. *)
let fold_low cur lo hi h v m =
  let v = Int64.of_int v in
  let h = ref (Int64.of_int h) in
  for k = lo to hi do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get cur k))))
        v
  done;
  Int64.to_int !h land m

let fold_masked cur lo hi h v m =
  let h = ref h in
  for k = lo to hi do
    h := ((!h lxor Char.code (Bytes.unsafe_get cur k)) * v) land m
  done;
  !h

(* Scatter scans: transform the bytes in place with a scalar mask [m]
   and return the last transformed value, the full integer before
   truncation, since that is what the byte register holds after the
   loop. The caller forced the copy-on-write clone.

   For xor, and and or a byte's result depends only on [m land 0xff],
   and each is [(b land a) lxor c] for a byte [b]: xor is [a = -1,
   c = m], and is [a = m, c = 0], or is [a = lnot m, c = m].
   [scat_bits] applies that to eight bytes per step, against the low
   bytes of [a] and [c] copied into all eight of a word, then finishes
   with a byte tail; it returns the last byte as it was before the
   scan. *)
let[@inline] splat m =
  Int64.mul (Int64.of_int (m land 0xff)) 0x0101010101010101L

let scat_bits cur lo hi a c =
  let last = Char.code (Bytes.unsafe_get cur hi) in
  let wa = splat a and wc = splat c in
  let ba = a land 0xff and bc = c land 0xff in
  let k = ref lo in
  while !k + 7 <= hi do
    Bytes.set_int64_ne cur !k
      (Int64.logxor (Int64.logand (Bytes.get_int64_ne cur !k) wa) wc);
    k := !k + 8
  done;
  for k = !k to hi do
    let b = Char.code (Bytes.unsafe_get cur k) in
    Bytes.unsafe_set cur k (Char.unsafe_chr ((b land ba) lxor bc))
  done;
  last

let scat_xor cur lo hi m = scat_bits cur lo hi (-1) m lxor m

let scat_and cur lo hi m = scat_bits cur lo hi m 0 land m

let scat_or cur lo hi m = scat_bits cur lo hi (lnot m) m lor m

(* add and sub carry across bytes, so they keep a byte loop; [b - m] is
   [b + (-m)] under OCaml's wrap-around, the register value included. *)
let scat_add cur lo hi m =
  let last = Char.code (Bytes.unsafe_get cur hi) + m in
  for k = lo to hi do
    Bytes.unsafe_set cur k
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get cur k) + m) land 0xff))
  done;
  last

let scat_sub cur lo hi m = scat_add cur lo hi (-m)

(* Histogram scan: bump the scratch cell selected by each payload byte.
   The verifier admitted the indexed stores only over a power-of-two
   arena, so [land smask] is the whole bounds argument. *)
let hist_scan cur scratch smask lo hi =
  for k = lo to hi do
    let cell = Char.code (Bytes.unsafe_get cur k) land smask in
    Array.unsafe_set scratch cell (Array.unsafe_get scratch cell + 1)
  done

(* Rolling-hash scans, the heart of content-defined chunking: fold each
   byte into the window hash [h <- (h * a + byte) land m] and emit at
   every chunk boundary [(h land m2) = tv]. They return the final hash.
   A boundary charges its Emit step here, because only the scan knows
   how many fired; [roll_emit] is out of line so the loops stay small.
   [vsel] picks the emitted value the way the source program's Emit
   operand did: 0 the hash, 1 the (already bumped) position, 2 the
   byte, 3 the boundary register (= [tv] whenever it fires), anything
   else the immediate [vimm]. *)
let[@inline never] roll_emit st kimm vsel vimm tv h k b =
  st.c_steps <- st.c_steps + 1;
  st.c_emit kimm
    (match vsel with 0 -> h | 1 -> k + 1 | 2 -> b | 3 -> tv | _ -> vimm)

(* When [m] is a low-bit mask and [m2] tests only bits inside it, the
   hash needs no per-byte mask: its low bits are exact unmasked, the
   boundary test reads only those, and the hash is masked where it
   leaves the scan. *)
let roll_low st cur lo hi h a m m2 tv kimm vsel vimm =
  let h = ref h in
  for k = lo to hi do
    let b = Char.code (Bytes.unsafe_get cur k) in
    let x = (!h * a) + b in
    h := x;
    if x land m2 = tv then roll_emit st kimm vsel vimm tv (x land m) k b
  done;
  !h land m

let roll_masked st cur lo hi h a m m2 tv kimm vsel vimm =
  let h = ref h in
  for k = lo to hi do
    let b = Char.code (Bytes.unsafe_get cur k) in
    let x = ((!h * a) + b) land m in
    h := x;
    if x land m2 = tv then roll_emit st kimm vsel vimm tv x k b
  done;
  !h

(* The tier-report suffix of a fold or rolling hash whose masks miss
   the low-bit precondition. *)
let per_step_mask = ", per-step mask"

let is_terminator : Vm.insn -> bool = function
  | Vm.Jmp _ | Vm.Jeq _ | Vm.Jne _ | Vm.Jlt _ | Vm.Jge _ | Vm.Loop _
  | Vm.End | Vm.Drop | Vm.Redirect _ | Vm.Ret ->
    true
  | _ -> false

let[@kpath.intr] compile p =
  let insns = Vm.insns p in
  let n = Array.length insns in
  (* Elision oracle: [pv.(pc)] is true when the verifier's range
     analysis proved the faultable site at [pc] can never fault, so the
     arms below may drop the runtime test. This is the idiom library's
     entry-test trick generalized to arbitrary verified programs — the
     trusted surface is the analysis in [Vm], not anything here. *)
  let pv =
    Array.init (max n 1) (fun pc ->
        match Vm.bounds_at p pc with `Proven -> true | `Checked -> false)
  in
  let fuel = Vm.fuel p in
  (* Mask for indexed scratch access; only read when the program
     contains Ldsx/Stsx, in which case the verifier proved the arena a
     non-empty power of two. *)
  let smask = Vm.scratch_cells p - 1 in
  (* Loop structure. The program passed the verifier, so Loop/End pairs
     are matched and nest within max_loop_depth; rebuild the matching
     here instead of widening Vm's interface. *)
  let end_of = Array.make (max n 1) (-1) in
  let loop_of_end = Array.make (max n 1) (-1) in
  let depth_of = Array.make (max n 1) 0 in
  let stack = ref [] in
  for pc = 0 to n - 1 do
    match insns.(pc) with
    | Vm.Loop _ ->
      depth_of.(pc) <- List.length !stack;
      stack := pc :: !stack
    | Vm.End -> (
      match !stack with
      | lp :: rest ->
        end_of.(lp) <- pc;
        loop_of_end.(pc) <- lp;
        stack := rest
      | [] -> assert false (* verified: matched pairs *))
    | _ -> ()
  done;
  (match !stack with [] -> () | _ :: _ -> assert false);
  (* Leaders: pc 0, every jump target and every fallthrough out of a
     terminator. Loop bodies and loop exits are jump targets of the
     Loop/End edges. *)
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  let mark pc = if pc < n then leader.(pc) <- true in
  for pc = 0 to n - 1 do
    match insns.(pc) with
    | Vm.Jmp off -> mark (pc + off); mark (pc + 1)
    | Vm.Jeq (_, _, off) | Vm.Jne (_, _, off) | Vm.Jlt (_, _, off)
    | Vm.Jge (_, _, off) ->
      mark (pc + off);
      mark (pc + 1)
    | Vm.Loop _ ->
      mark (pc + 1);
      mark (end_of.(pc) + 1)
    | Vm.End | Vm.Drop | Vm.Redirect _ | Vm.Ret -> mark (pc + 1)
    | _ -> ()
  done;
  let blk_of_pc = Array.make (max n 1) (-1) in
  let nblocks = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then begin
      blk_of_pc.(pc) <- !nblocks;
      incr nblocks
    end
  done;
  let bounds = Array.make (max !nblocks 1) { bb_first = 0; bb_last = 0 } in
  let bi = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then begin
      let last = ref pc in
      while !last + 1 < n && not leader.(!last + 1) do
        incr last
      done;
      bounds.(!bi) <- { bb_first = pc; bb_last = !last };
      incr bi
    end
  done;
  let funs = Array.make (max !nblocks 1) halt in
  (* Per-block compilation-tier notes, filled in as blocks compile; the
     [kpathctl prog] report prints them so a slow program is
     diagnosable without reading this file. *)
  let tiers = Array.make (max !nblocks 1) "" in
  (* Blocks are compiled bottom-up, so a forward control edge resolves
     to the successor's closure right here at compile time; only the
     End back-edge reads [funs] at runtime (its body block sits above
     it). A target past the program end halts with a Pass verdict. *)
  let target pc = if pc >= n then halt else funs.(blk_of_pc.(pc)) in
  (* One straight-line instruction at [pc], [j] instructions into its
     block, chained to the rest of the block by [next]. Operands are
     resolved here, at compile time: each shape gets its own closure
     with the register index or immediate baked in. Steps are batched
     at the block terminator, so only the faulting exits account their
     partial progress via [fault_steps] ([j + 1] instructions ran, the
     faulting one included — exactly the interpreter's counter at the
     raise; inside a fused loop the batched pre-charge is unwound
     first). *)
  let step ~fault_steps pc j (next : state -> unit) : state -> unit =
    let bump = j + 1 in
    match insns.(pc) with
    | Vm.Mov (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs s);
        next st
    | Vm.Mov (r, Imm v) ->
      fun st ->
        Array.unsafe_set st.c_regs r v;
        next st
    | Vm.Add (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r + Array.unsafe_get regs s);
        next st
    | Vm.Add (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r + v);
        next st
    | Vm.Sub (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r - Array.unsafe_get regs s);
        next st
    | Vm.Sub (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r - v);
        next st
    | Vm.Mul (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r * Array.unsafe_get regs s);
        next st
    | Vm.Mul (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r * v);
        next st
    | Vm.Div (r, Reg s) ->
      if pv.(pc) then
        (* Range analysis proved the divisor non-zero. *)
        fun st ->
          let regs = st.c_regs in
          Array.unsafe_set regs r
            (Array.unsafe_get regs r / Array.unsafe_get regs s);
          next st
      else
        fun st ->
          let regs = st.c_regs in
          let d = Array.unsafe_get regs s in
          if d = 0 then begin
            fault_steps bump st;
            Vm.fault "division by zero at pc %d" pc
          end;
          Array.unsafe_set regs r (Array.unsafe_get regs r / d);
          next st
    | Vm.Div (r, Imm v) ->
      (* The verifier rejected constant zero divisors. *)
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r / v);
        next st
    | Vm.Rem (r, Reg s) ->
      if pv.(pc) then
        fun st ->
          let regs = st.c_regs in
          Array.unsafe_set regs r
            (Array.unsafe_get regs r mod Array.unsafe_get regs s);
          next st
      else
        fun st ->
          let regs = st.c_regs in
          let d = Array.unsafe_get regs s in
          if d = 0 then begin
            fault_steps bump st;
            Vm.fault "division by zero at pc %d" pc
          end;
          Array.unsafe_set regs r (Array.unsafe_get regs r mod d);
          next st
    | Vm.Rem (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r mod v);
        next st
    | Vm.And (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r land Array.unsafe_get regs s);
        next st
    | Vm.And (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r land v);
        next st
    | Vm.Or (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lor Array.unsafe_get regs s);
        next st
    | Vm.Or (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lor v);
        next st
    | Vm.Xor (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lxor Array.unsafe_get regs s);
        next st
    | Vm.Xor (r, Imm v) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lxor v);
        next st
    | Vm.Shl (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lsl (Array.unsafe_get regs s land 63));
        next st
    | Vm.Shl (r, Imm v) ->
      let sh = v land 63 in
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lsl sh);
        next st
    | Vm.Shr (r, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lsr (Array.unsafe_get regs s land 63));
        next st
    | Vm.Shr (r, Imm v) ->
      let sh = v land 63 in
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs r lsr sh);
        next st
    | Vm.Len r ->
      fun st ->
        Array.unsafe_set st.c_regs r st.c_len;
        next st
    | Vm.Blkno r ->
      fun st ->
        Array.unsafe_set st.c_regs r st.c_lblk;
        next st
    | Vm.Ldp (r, o) ->
      (* Cold path out of line; the hot path keeps the bounds test and
         the byte load inline with no helper call. *)
      let oob st off =
        fault_steps bump st;
        Vm.fault "payload load at %d outside %d bytes (pc %d)" off st.c_len
          pc
      in
      (match o with
       | Reg s when pv.(pc) ->
         (* Range analysis proved 0 <= off < len on every path. *)
         fun st ->
           let regs = st.c_regs in
           let off = Array.unsafe_get regs s in
           Array.unsafe_set regs r (Char.code (Bytes.unsafe_get st.c_cur off));
           next st
       | Reg s ->
         fun st ->
           let regs = st.c_regs in
           let off = Array.unsafe_get regs s in
           if off < 0 || off >= st.c_len then oob st off;
           Array.unsafe_set regs r (Char.code (Bytes.unsafe_get st.c_cur off));
           next st
       | Imm v when pv.(pc) ->
         fun st ->
           Array.unsafe_set st.c_regs r
             (Char.code (Bytes.unsafe_get st.c_cur v));
           next st
       | Imm v ->
         fun st ->
           if v < 0 || v >= st.c_len then oob st v;
           Array.unsafe_set st.c_regs r
             (Char.code (Bytes.unsafe_get st.c_cur v));
           next st)
    | Vm.Stp (o_off, o_v) ->
      let oob st off =
        fault_steps bump st;
        Vm.fault "payload store at %d outside %d bytes (pc %d)" off st.c_len
          pc
      in
      (* Proven arms drop only the bounds test; the copy-on-write logic
         is behavior, not a check, and stays byte-identical. *)
      (match (o_off, o_v) with
       | Reg a, Reg b when pv.(pc) ->
         fun st ->
           let regs = st.c_regs in
           let off = Array.unsafe_get regs a in
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur off
             (Char.unsafe_chr (Array.unsafe_get regs b land 0xff));
           next st
       | Reg a, Reg b ->
         fun st ->
           let regs = st.c_regs in
           let off = Array.unsafe_get regs a in
           if off < 0 || off >= st.c_len then oob st off;
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur off
             (Char.unsafe_chr (Array.unsafe_get regs b land 0xff));
           next st
       | Reg a, Imm v when pv.(pc) ->
         let b = Char.unsafe_chr (v land 0xff) in
         fun st ->
           let off = Array.unsafe_get st.c_regs a in
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur off b;
           next st
       | Reg a, Imm v ->
         let b = Char.unsafe_chr (v land 0xff) in
         fun st ->
           let off = Array.unsafe_get st.c_regs a in
           if off < 0 || off >= st.c_len then oob st off;
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur off b;
           next st
       | Imm o, Reg b when pv.(pc) ->
         fun st ->
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur o
             (Char.unsafe_chr (Array.unsafe_get st.c_regs b land 0xff));
           next st
       | Imm o, Reg b ->
         fun st ->
           if o < 0 || o >= st.c_len then oob st o;
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur o
             (Char.unsafe_chr (Array.unsafe_get st.c_regs b land 0xff));
           next st
       | Imm o, Imm v when pv.(pc) ->
         let b = Char.unsafe_chr (v land 0xff) in
         fun st ->
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur o b;
           next st
       | Imm o, Imm v ->
         let b = Char.unsafe_chr (v land 0xff) in
         fun st ->
           if o < 0 || o >= st.c_len then oob st o;
           if not st.c_copied then cow st;
           Bytes.unsafe_set st.c_cur o b;
           next st)
    | Vm.Lds (r, off) ->
      fun st ->
        Array.unsafe_set st.c_regs r (Array.unsafe_get st.c_scratch off);
        next st
    | Vm.Sts (off, Reg s) ->
      fun st ->
        Array.unsafe_set st.c_scratch off (Array.unsafe_get st.c_regs s);
        next st
    | Vm.Sts (off, Imm v) ->
      fun st ->
        Array.unsafe_set st.c_scratch off v;
        next st
    | Vm.Ldsx (r, ri) ->
      (* Verifier-admitted only over a power-of-two arena: the mask is
         the bounds proof. *)
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set regs r
          (Array.unsafe_get st.c_scratch (Array.unsafe_get regs ri land smask));
        next st
    | Vm.Stsx (ri, Reg s) ->
      fun st ->
        let regs = st.c_regs in
        Array.unsafe_set st.c_scratch
          (Array.unsafe_get regs ri land smask)
          (Array.unsafe_get regs s);
        next st
    | Vm.Stsx (ri, Imm v) ->
      fun st ->
        Array.unsafe_set st.c_scratch
          (Array.unsafe_get st.c_regs ri land smask)
          v;
        next st
    | Vm.Emit (ok, ov) -> (
      match (ok, ov) with
      | Reg a, Reg b ->
        fun st ->
          let regs = st.c_regs in
          st.c_emit (Array.unsafe_get regs a) (Array.unsafe_get regs b);
          next st
      | Reg a, Imm v ->
        fun st ->
          st.c_emit (Array.unsafe_get st.c_regs a) v;
          next st
      | Imm k, Reg b ->
        fun st ->
          st.c_emit k (Array.unsafe_get st.c_regs b);
          next st
      | Imm k, Imm v ->
        fun st ->
          st.c_emit k v;
          next st)
    | Vm.Jmp _ | Vm.Jeq _ | Vm.Jne _ | Vm.Jlt _ | Vm.Jge _ | Vm.Loop _
    | Vm.End | Vm.Drop | Vm.Redirect _ | Vm.Ret ->
      assert false (* terminators are compiled by [term] *)
  in
  let plain_fault_steps bump st = st.c_steps <- st.c_steps + bump in
  (* A loop whose whole body (through its End) is a single basic block
     runs a known number of instructions per iteration, so the Loop
     terminator fuses it into a counted for-loop: the step charge for
     all iterations is batched up front, the loop book only tracks the
     remaining count for fault unwinding, and no block dispatch happens
     per iteration. [body_nb] counts the body instructions plus the
     End. A fault [j] instructions into iteration with [i] remaining
     must read as if only the completed iterations were charged:
     subtract [i * body_nb], add [j + 1]. *)
  let fused_body lp end_pc =
    let d = depth_of.(lp) in
    let body_nb = end_pc - lp in
    let fault_steps bump st =
      st.c_steps <-
        st.c_steps + bump - (Array.unsafe_get st.c_lleft d * body_nb)
    in
    (* The End is implicit in the driver: the chain just returns. *)
    let rec build pc =
      if pc >= end_pc then halt
      else step ~fault_steps pc (pc - (lp + 1)) (build (pc + 1))
    in
    (d, body_nb, build (lp + 1))
  in
  (* The terminator of the block [first..last]: batch the whole block's
     step count ([nb] instructions all executed by the time control
     leaves), then tail-call the successor block. [bidx] is the block's
     index, for the tier report. *)
  let term bidx first last : state -> unit =
    let nb = last - first + 1 in
    match insns.(last) with
    | Vm.Jmp off ->
      let t = target (last + off) in
      fun st ->
        st.c_steps <- st.c_steps + nb;
        t st
    | Vm.Jeq (r, o, off) ->
      let tt = target (last + off) and tf = target (last + 1) in
      (match o with
       | Reg s ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           let regs = st.c_regs in
           if Array.unsafe_get regs r = Array.unsafe_get regs s then tt st
           else tf st
       | Imm v ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           if Array.unsafe_get st.c_regs r = v then tt st else tf st)
    | Vm.Jne (r, o, off) ->
      let tt = target (last + off) and tf = target (last + 1) in
      (match o with
       | Reg s ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           let regs = st.c_regs in
           if Array.unsafe_get regs r <> Array.unsafe_get regs s then tt st
           else tf st
       | Imm v ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           if Array.unsafe_get st.c_regs r <> v then tt st else tf st)
    | Vm.Jlt (r, o, off) ->
      let tt = target (last + off) and tf = target (last + 1) in
      (match o with
       | Reg s ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           let regs = st.c_regs in
           if Array.unsafe_get regs r < Array.unsafe_get regs s then tt st
           else tf st
       | Imm v ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           if Array.unsafe_get st.c_regs r < v then tt st else tf st)
    | Vm.Jge (r, o, off) ->
      let tt = target (last + off) and tf = target (last + 1) in
      (match o with
       | Reg s ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           let regs = st.c_regs in
           if Array.unsafe_get regs r >= Array.unsafe_get regs s then tt st
           else tf st
       | Imm v ->
         fun st ->
           st.c_steps <- st.c_steps + nb;
           if Array.unsafe_get st.c_regs r >= v then tt st else tf st)
    | Vm.Loop (o, cap) ->
      let lp = last in
      let end_pc = end_of.(lp) in
      let exit_ = target (end_pc + 1) in
      let body_blk = blk_of_pc.(lp + 1) in
      (* The Loop itself: clamp the count to [0, cap] as the
         interpreter does, skip a zero-count body, and hand any other
         count to [run], which owns control from there on. *)
      let counted (run : state -> int -> unit) =
        match o with
        | Reg s ->
          fun st ->
            st.c_steps <- st.c_steps + nb;
            let c = Array.unsafe_get st.c_regs s in
            let c = if c < 0 then 0 else if c > cap then cap else c in
            if c = 0 then exit_ st else run st c
        | Imm v ->
          let c = min (max v 0) cap in
          if c = 0 then
            fun st ->
              st.c_steps <- st.c_steps + nb;
              exit_ st
          else
            fun st ->
              st.c_steps <- st.c_steps + nb;
              run st c
      in
      let fusable =
        bounds.(body_blk).bb_first = lp + 1
        && bounds.(body_blk).bb_last = end_pc
      in
      if fusable then begin
        let d, body_nb, body = fused_body lp end_pc in
        (* Generic fused iteration: the whole count is charged up front
           and the loop book tracks the remaining count, which is all a
           fault needs to unwind the charge. *)
        let iterate st c =
          st.c_steps <- st.c_steps + (c * body_nb);
          let ll = st.c_lleft in
          for i = c downto 1 do
            Array.unsafe_set ll d i;
            body st
          done
        in
        (* Loop-idiom recognition, the pattern library. Every idiom is
           a body that touches payload offsets [i .. i+c-1] through a
           monotonically advancing counter, so one entry test ([i0 >= 0
           && c <= len - i0]) proves the whole loop fault-free and the
           scan runs with all state in host registers; final register
           effects are reproduced exactly as the interpreter leaves
           them. Anything the entry test cannot prove (or any shape not
           matched) takes the generic fused path, which faults
           bit-identically to the interpreter.

           - byte-scan fold: load, xor-fold, mix, mask, bump — the
             multiplicative hash ([fold_low], or [fold_masked] when the
             mask is not a low-bit one).
           - scatter/store: load, ALU-transform, store back, bump —
             xor-stream masks and byte remaps, writing the
             copy-on-write clone directly ([scat_*], eight bytes per
             step for xor, and and or). The clone is forced once at
             loop entry: the entry test already proved the first
             iteration's store in bounds.
           - histogram: load, indexed scratch load, increment, indexed
             scratch store, bump — scratch-table histograms
             ([hist_scan]); the verifier's power-of-two arena proof is
             what lets the host loop index the table unchecked. *)
        let idiom =
          if end_pc = lp + 6 then
            match
              ( insns.(lp + 1),
                insns.(lp + 2),
                insns.(lp + 3),
                insns.(lp + 4),
                insns.(lp + 5) )
            with
            | ( Vm.Ldp (r, Reg s),
                Vm.Xor (h, Reg s2),
                Vm.Mul (h2, Imm v),
                Vm.And (h3, Imm m),
                Vm.Add (i, Imm 1) )
              when s2 = r && h2 = h && h3 = h && i = s && r <> h && r <> s
                   && h <> s ->
              let fold, note =
                if low_mask m then (fold_low, "byte-scan fold idiom")
                else (fold_masked, "byte-scan fold idiom" ^ per_step_mask)
              in
              Some
                ( note,
                  fun st c ->
                    let regs = st.c_regs in
                    let i0 = Array.unsafe_get regs s in
                    if i0 >= 0 && c <= st.c_len - i0 then begin
                      st.c_steps <- st.c_steps + (c * body_nb);
                      let last = i0 + c - 1 in
                      Array.unsafe_set regs h
                        (fold st.c_cur i0 last (Array.unsafe_get regs h) v m);
                      Array.unsafe_set regs r
                        (Char.code (Bytes.unsafe_get st.c_cur last));
                      Array.unsafe_set regs s (i0 + c)
                    end
                    else iterate st c )
            | ( Vm.Ldp (b, Reg i),
                Vm.Ldsx (h, b2),
                Vm.Add (h2, Imm 1),
                Vm.Stsx (b3, Reg h3),
                Vm.Add (i2, Imm 1) )
              when b2 = b && h2 = h && b3 = b && h3 = h && i2 = i && b <> i
                   && h <> i && h <> b ->
              Some
                ( "histogram idiom",
                  fun st c ->
                    let regs = st.c_regs in
                    let i0 = Array.unsafe_get regs i in
                    if i0 >= 0 && c <= st.c_len - i0 then begin
                      st.c_steps <- st.c_steps + (c * body_nb);
                      let cur = st.c_cur in
                      let hi = i0 + c - 1 in
                      hist_scan cur st.c_scratch smask i0 hi;
                      let lastb = Char.code (Bytes.unsafe_get cur hi) in
                      Array.unsafe_set regs b lastb;
                      Array.unsafe_set regs h
                        (Array.unsafe_get st.c_scratch (lastb land smask));
                      Array.unsafe_set regs i (i0 + c)
                    end
                    else iterate st c )
            | _ -> None
          else if end_pc = lp + 5 then begin
            let op =
              match insns.(lp + 2) with
              | Vm.Xor (r2, o) -> Some (scat_xor, "xor", r2, o)
              | Vm.Add (r2, o) -> Some (scat_add, "add", r2, o)
              | Vm.Sub (r2, o) -> Some (scat_sub, "sub", r2, o)
              | Vm.And (r2, o) -> Some (scat_and, "and", r2, o)
              | Vm.Or (r2, o) -> Some (scat_or, "or", r2, o)
              | _ -> None
            in
            match (insns.(lp + 1), insns.(lp + 3), insns.(lp + 4), op) with
            | ( Vm.Ldp (r, Reg i),
                Vm.Stp (Reg i2, Reg r3),
                Vm.Add (i3, Imm 1),
                Some (scan, opname, r2, o) )
              when r2 = r && i2 = i && r3 = r && i3 = i && r <> i
                   && (match o with
                       | Reg s -> s <> r && s <> i
                       | Imm _ -> true) ->
              (* The mask operand is loop-invariant: the body writes
                 only [r] and [i], and a register operand was required
                 distinct from both. *)
              let get_m =
                match o with
                | Imm v -> fun (_ : state) -> v
                | Reg s -> fun st -> Array.unsafe_get st.c_regs s
              in
              Some
                ( "scatter/store (" ^ opname ^ ") idiom",
                  fun st c ->
                    let regs = st.c_regs in
                    let i0 = Array.unsafe_get regs i in
                    if i0 >= 0 && c <= st.c_len - i0 then begin
                      st.c_steps <- st.c_steps + (c * body_nb);
                      if not st.c_copied then cow st;
                      let v = scan st.c_cur i0 (i0 + c - 1) (get_m st) in
                      Array.unsafe_set regs r v;
                      Array.unsafe_set regs i (i0 + c)
                    end
                    else iterate st c )
            | _ -> None
          end
          else None
        in
        (tiers.(bidx) <-
           (match idiom with
            | Some (note, _) -> "fused loop: " ^ note
            | None ->
              Printf.sprintf "fused loop: generic %d-insn body" (body_nb - 1)));
        tiers.(body_blk) <-
          (match idiom with
           | Some (note, _) -> Printf.sprintf "body of b%d (%s)" bidx note
           | None -> Printf.sprintf "body of b%d (inlined in the fused loop)" bidx);
        let run_body =
          match idiom with Some (_, run) -> run | None -> iterate
        in
        counted (fun st c ->
            run_body st c;
            exit_ st)
      end
      else begin
        let d = depth_of.(lp) in
        let body = target (lp + 1) in
        let chained st c =
          Array.unsafe_set st.c_lleft d c;
          body st
        in
        (* Rolling-hash window idiom, the shape behind content-defined
           chunking: fold each byte into a window hash, bump the
           position, test the hash's low bits and emit at chunk
           boundaries. The conditional Emit splits the body into three
           blocks, so it can never fuse — but the whole region is
           recognizable at the Loop, and [roll_low] (or [roll_masked],
           when the masks miss its precondition) runs it with the
           window state in host registers. The entry test proves every
           load in bounds; a count the test cannot cover falls back to
           the block-chained body, which faults bit-identically. *)
        let rolling =
          if end_pc <> lp + 10 then None
          else
            match
              ( insns.(lp + 1),
                insns.(lp + 2),
                insns.(lp + 3),
                insns.(lp + 4),
                insns.(lp + 5),
                insns.(lp + 6),
                insns.(lp + 7),
                insns.(lp + 8),
                insns.(lp + 9) )
            with
            | ( Vm.Ldp (b, Reg i),
                Vm.Mul (h, Imm a),
                Vm.Add (h2, Reg b2),
                Vm.And (h3, Imm m),
                Vm.Add (i2, Imm 1),
                Vm.Mov (t, Reg h4),
                Vm.And (t2, Imm m2),
                Vm.Jne (t3, Imm tv, 2),
                Vm.Emit (Imm kimm, ov) )
              when h2 = h && b2 = b && h3 = h && i2 = i && h4 = h && t2 = t
                   && t3 = t && b <> i && b <> h && b <> t && h <> i
                   && h <> t && t <> i -> (
              let vsel, vimm =
                match ov with
                | Reg rv when rv = h -> (0, 0)
                | Reg rv when rv = i -> (1, 0)
                | Reg rv when rv = b -> (2, 0)
                | Reg rv when rv = t -> (3, 0)
                | Imm v -> (4, v)
                | Reg _ -> (-1, 0)
              in
              let scan, suffix =
                if low_mask m && m2 land lnot m = 0 then (roll_low, "")
                else (roll_masked, per_step_mask)
              in
              match vsel with
              | -1 -> None
              | _ ->
                Some
                  ( suffix,
                    fun st c ->
                      let regs = st.c_regs in
                      let i0 = Array.unsafe_get regs i in
                      if i0 >= 0 && c <= st.c_len - i0 then begin
                        (* 9 of the 10 body instructions run every
                           iteration (the Emit is skipped off-boundary);
                           the scan charges each boundary's Emit as it
                           fires. *)
                        st.c_steps <- st.c_steps + (c * 9);
                        let hi = i0 + c - 1 in
                        let h' =
                          scan st st.c_cur i0 hi (Array.unsafe_get regs h) a m
                            m2 tv kimm vsel vimm
                        in
                        Array.unsafe_set regs b
                          (Char.code (Bytes.unsafe_get st.c_cur hi));
                        Array.unsafe_set regs h h';
                        Array.unsafe_set regs t (h' land m2);
                        Array.unsafe_set regs i (i0 + c);
                        exit_ st
                      end
                      else chained st c ))
            | _ -> None
        in
        (match rolling with
         | Some (suffix, _) ->
           tiers.(bidx) <-
             "loop: rolling-hash idiom" ^ suffix ^ " (multi-block body)";
           for bb = blk_of_pc.(lp + 1) to blk_of_pc.(end_pc) do
             tiers.(bb) <-
               Printf.sprintf "body of b%d (rolling-hash scan; chain is the fallback)"
                 bidx
           done
         | None -> tiers.(bidx) <- "loop: block-chained multi-block body");
        counted (match rolling with Some (_, run) -> run | None -> chained)
      end
    | Vm.End ->
      (* Only reached when its loop was not fused (multi-block body).
         The body block sits above this one, so the back-edge goes
         through [funs] at runtime; it carries the one defensive fuel
         check — the verifier proved worst-case cost <= fuel, so
         compiled code cannot trip it. *)
      let lp = loop_of_end.(last) in
      let d = depth_of.(lp) in
      let body_blk = blk_of_pc.(lp + 1) in
      let out = target (last + 1) in
      fun st ->
        st.c_steps <- st.c_steps + nb;
        let v = Array.unsafe_get st.c_lleft d - 1 in
        Array.unsafe_set st.c_lleft d v;
        if v > 0 then begin
          if st.c_steps > fuel then Vm.fault "fuel exhausted";
          (Array.unsafe_get funs body_blk) st
        end
        else out st
    | Vm.Drop ->
      fun st ->
        st.c_steps <- st.c_steps + nb;
        st.c_verdict <- Vm.Drop
    | Vm.Redirect (Reg s) ->
      fun st ->
        st.c_steps <- st.c_steps + nb;
        st.c_verdict <- Vm.Redirect (Array.unsafe_get st.c_regs s)
    | Vm.Redirect (Imm v) ->
      let verdict = Vm.Redirect v in
      fun st ->
        st.c_steps <- st.c_steps + nb;
        st.c_verdict <- verdict
    | Vm.Ret -> fun st -> st.c_steps <- st.c_steps + nb
    | _ ->
      (* Straight-line last instruction: the block falls through into
         the next leader (or off the end of the program). *)
      let t = target (last + 1) in
      fun st ->
        st.c_steps <- st.c_steps + nb;
        t st
  in
  let compile_block bidx first last : state -> unit =
    let straight_hi = if is_terminator insns.(last) then last - 1 else last in
    let tail = term bidx first last in
    let rec build pc =
      if pc > straight_hi then tail
      else step ~fault_steps:plain_fault_steps pc (pc - first) (build (pc + 1))
    in
    if tiers.(bidx) = "" then tiers.(bidx) <- "chained closures";
    build first
  in
  for b = !nblocks - 1 downto 0 do
    funs.(b) <- compile_block b bounds.(b).bb_first bounds.(b).bb_last
  done;
  {
    k_prog = p;
    k_entry = (if n = 0 then halt else funs.(0));
    k_bounds = (if n = 0 then [||] else Array.sub bounds 0 !nblocks);
    k_tiers = (if n = 0 then [||] else Array.sub tiers 0 !nblocks);
  }

let prog k = k.k_prog

let blocks k = Array.copy k.k_bounds

let block_tiers k = Array.copy k.k_tiers

let new_state k =
  {
    c_regs = Array.make Vm.max_regs 0;
    c_scratch = Array.make (max (Vm.scratch_cells k.k_prog) 1) 0;
    c_lleft = Array.make Vm.max_loop_depth 0;
    c_data = Bytes.empty;
    c_cur = Bytes.empty;
    c_dest = Bytes.empty;
    c_copied = false;
    c_len = 0;
    c_lblk = 0;
    c_emit = no_emit;
    c_steps = 0;
    c_verdict = Vm.Pass;
  }

let[@kpath.intr] exec ?into k st ~data ~len ~lblk ~emit =
  Array.fill st.c_regs 0 Vm.max_regs 0;
  st.c_data <- data;
  st.c_cur <- data;
  st.c_dest <- Vm.cow_dest ~data into;
  st.c_copied <- st.c_dest == data;
  st.c_len <- len;
  st.c_lblk <- lblk;
  st.c_emit <- emit;
  st.c_steps <- 0;
  st.c_verdict <- Vm.Pass;
  (try k.k_entry st with Vm.Fault_exn m -> st.c_verdict <- Vm.Fault m);
  let r =
    { Vm.r_verdict = st.c_verdict; r_steps = st.c_steps; r_data = st.c_cur }
  in
  (* Do not retain the block buffer (or a caller's emit closure) past
     the run: the buffer cache recycles aggressively. *)
  st.c_data <- Bytes.empty;
  st.c_cur <- Bytes.empty;
  st.c_dest <- Bytes.empty;
  st.c_emit <- no_emit;
  r
