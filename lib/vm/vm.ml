(* Register VM for per-block filter programs: static verifier and
   fuel-bounded interpreter. See vm.mli for the safety argument. *)

type reg = int

type operand = Reg of reg | Imm of int

type insn =
  | Mov of reg * operand
  | Add of reg * operand
  | Sub of reg * operand
  | Mul of reg * operand
  | Div of reg * operand
  | Rem of reg * operand
  | And of reg * operand
  | Or of reg * operand
  | Xor of reg * operand
  | Shl of reg * operand
  | Shr of reg * operand
  | Len of reg
  | Blkno of reg
  | Ldp of reg * operand
  | Stp of operand * operand
  | Lds of reg * int
  | Sts of int * operand
  | Ldsx of reg * reg
  | Stsx of reg * operand
  | Jmp of int
  | Jeq of reg * operand * int
  | Jne of reg * operand * int
  | Jlt of reg * operand * int
  | Jge of reg * operand * int
  | Loop of operand * int
  | End
  | Emit of operand * operand
  | Drop
  | Redirect of operand
  | Ret

type context = Edge | Readonly

type spec = {
  s_insns : insn array;
  s_fuel : int;
  s_scratch : int;
  s_context : context;
}

let max_regs = 8
let max_scratch = 1024
let max_fuel = 1_000_000
let max_loop_count = 65_536
let max_loop_depth = 4
let max_insns = 4096

(* Range-analysis verdict for one faultable site: a payload load/store
   or a register-divisor Div/Rem. [`Proven] means the analysis showed
   the access cannot fault on any admissible payload, so the compiler
   may elide its runtime check. *)
type access = {
  a_pc : int;
  a_kind : [ `Load | `Store | `Div ];
  a_bounds : [ `Proven | `Checked ];
  a_range : string;
}

type prog = {
  p_insns : insn array;
  p_fuel : int;
  p_scratch : int;
  p_context : context;
  p_cost : int;
  (* For [Loop] at pc, the pc of its matching [End]; -1 elsewhere. *)
  p_end_of : int array;
  (* Range-analysis results: one entry per faultable site, in pc order,
     and a per-pc projection of the [`Proven] bit for the compiler. *)
  p_accesses : access list;
  p_proven : bool array;
}

type diag = { d_rule : string; d_pc : int; d_msg : string }

let diag_to_string d =
  if d.d_pc < 0 then Printf.sprintf "%s: %s" d.d_rule d.d_msg
  else Printf.sprintf "%s at pc %d: %s" d.d_rule d.d_pc d.d_msg

(* {1 Verifier} *)

exception Reject of diag

let reject rule pc fmt =
  Printf.ksprintf
    (fun msg -> raise (Reject { d_rule = rule; d_pc = pc; d_msg = msg }))
    fmt

let check_reg pc r =
  if r < 0 || r >= max_regs then
    reject "bad-register" pc "r%d is not a register (r0..r%d)" r (max_regs - 1)

let check_operand pc = function Reg r -> check_reg pc r | Imm _ -> ()

(* Match Loop/End pairs and record, for every position, the pc of its
   innermost enclosing Loop (-1 at top level). The End instruction
   belongs to the loop it closes; position [n] (falling off the end) is
   top-level. Jumps may move only within their enclosing region, so the
   interpreter's loop stack always mirrors the static nesting. *)
let build_loops insns =
  let n = Array.length insns in
  let end_of = Array.make (max n 1) (-1) in
  let encl = Array.make (n + 1) (-1) in
  let stack = ref [] in
  for pc = 0 to n - 1 do
    encl.(pc) <- (match !stack with [] -> -1 | s :: _ -> s);
    match insns.(pc) with
    | Loop (count, cap) ->
      if List.length !stack >= max_loop_depth then
        reject "loop-depth" pc "loops nest deeper than %d" max_loop_depth;
      if cap < 1 || cap > max_loop_count then
        reject "unbounded-loop" pc "loop cap %d outside 1..%d" cap
          max_loop_count;
      check_operand pc count;
      stack := pc :: !stack
    | End -> (
      match !stack with
      | [] -> reject "unbounded-loop" pc "End without a matching Loop"
      | s :: rest ->
        end_of.(s) <- pc;
        stack := rest)
    | _ -> ()
  done;
  (match !stack with
   | s :: _ -> reject "unbounded-loop" s "Loop without a matching End"
   | [] -> ());
  (end_of, encl)

(* Structural worst case: straight-line code costs one per instruction,
   a loop costs its header plus cap * (body + End). Saturates well above
   max_fuel so nested caps cannot overflow. *)
let cost_ceiling = max_fuel * 16

let sat_add a b = if a > cost_ceiling - b then cost_ceiling else a + b

let sat_mul a b =
  if b = 0 then 0
  else if a > cost_ceiling / b then cost_ceiling
  else a * b

let worst_case insns end_of =
  let rec region pc stop =
    if pc >= stop then 0
    else
      match insns.(pc) with
      | Loop (_, cap) ->
        let e = end_of.(pc) in
        let body = region (pc + 1) e in
        sat_add 1 (sat_add (sat_mul cap (sat_add body 1)) (region (e + 1) stop))
      | _ -> sat_add 1 (region (pc + 1) stop)
  in
  region 0 (Array.length insns)

(* {1 Range analysis}

   A flow-sensitive abstract interpreter over the loop-structured CFG
   that bounds every register with an interval whose endpoints may be
   payload-relative ([B (1, k)] reads "len + k"), plus a "known
   multiple-of" fact for stride reasoning. Its product is the per-site
   verdict table above: payload accesses whose interval provably sits
   inside [0, len) are [`Proven] and compile to unchecked byte ops;
   everything else stays [`Checked] with the runtime test and fault
   string intact. An access whose interval provably misses every
   admissible payload (always negative, or at/past a guard-derived len
   cap) is rejected outright as "range-oob".

   Soundness under wraparound: payload lengths obey
   [len <= Sys.max_string_length < 2^57], and every concrete endpoint
   the analysis keeps is saturated into [-2^50, 2^50] ([big] below), so
   any value all of whose bounds are finite is confined to
   (-2^51, 2^57 + 2^51) and native [+]/[-]/[*] on such values cannot
   wrap. Transfer functions therefore demand fully finite operands
   before doing interval arithmetic and degrade to top otherwise;
   bitwise/mod results ([land] with a constant mask, [mod], shifts) are
   bounded by the operation itself and stay sound on any input.
   Multiple-of facts survive wrapping only for powers of two (2^63 is
   itself a power of two), so potentially-wrapping paths keep only the
   power-of-two part of the divisor. *)

type bound = NegInf | PosInf | B of int * int  (* B (l, k) = l*len + k *)

(* Abstract register value: [lo] <= value <= [hi], and value is a
   multiple of [m] ([m] = 0 means the value is exactly 0, [m] = 1 means
   nothing is known — the divisibility lattice join is gcd). *)
type av = { lo : bound; hi : bound; m : int }

let big = 1 lsl 50

let norm_lo = function B (_, k) when k < -big || k > big -> NegInf | b -> b

let norm_hi = function B (_, k) when k < -big || k > big -> PosInf | b -> b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let pow2part m = if m = 0 then 0 else m land -m

let av_top = { lo = NegInf; hi = PosInf; m = 1 }

let av_const k =
  { lo = norm_lo (B (0, k)); hi = norm_hi (B (0, k)); m = abs k }

let av_byte = { lo = B (0, 0); hi = B (0, 255); m = 1 }

let av_len = { lo = B (1, 0); hi = B (1, 0); m = 1 }

let av_finite a =
  (match a.lo with B _ -> true | _ -> false)
  && (match a.hi with B _ -> true | _ -> false)

(* [b1 <= b2] for every admissible len in [llo, lhi]. [lhi = max_int]
   means the length is unbounded above. *)
let bleq llo lhi b1 b2 =
  match (b1, b2) with
  | NegInf, _ | _, PosInf -> true
  | PosInf, _ | _, NegInf -> false
  | B (l1, k1), B (l2, k2) ->
    if l1 = l2 then k1 <= k2
    else if l1 = 0 then k1 <= llo + k2
    else lhi < max_int && lhi + k1 <= k2

(* Join endpoints: a sound lower (resp. upper) bound for either value.
   Incomparable concrete-vs-relative pairs fall back on the len range. *)
let bmin llo lhi b1 b2 =
  if bleq llo lhi b1 b2 then b1
  else if bleq llo lhi b2 b1 then b2
  else
    match (b1, b2) with
    | B (0, a), B (1, c) | B (1, c), B (0, a) ->
      norm_lo (B (0, min a (llo + c)))
    | _ -> NegInf

let bmax llo lhi b1 b2 =
  if bleq llo lhi b1 b2 then b2
  else if bleq llo lhi b2 b1 then b1
  else
    match (b1, b2) with
    | B (0, a), B (1, c) | B (1, c), B (0, a) ->
      if lhi < max_int then norm_hi (B (0, max a (lhi + c))) else PosInf
    | _ -> PosInf

(* Meet endpoints for guard refinement: both arguments are sound, keep
   the stronger one; when incomparable prefer a concrete lower bound
   (feeds the [>= 0] proof) and a len-relative upper bound (feeds the
   [<= len - 1] proof). *)
let meet_lo llo lhi b1 b2 =
  if bleq llo lhi b1 b2 then b2
  else if bleq llo lhi b2 b1 then b1
  else
    match (b1, b2) with
    | (B (0, _) as c), _ | _, (B (0, _) as c) -> c
    | _ -> b1

let meet_hi llo lhi b1 b2 =
  if bleq llo lhi b1 b2 then b1
  else if bleq llo lhi b2 b1 then b2
  else
    match (b1, b2) with
    | (B (1, _) as s), _ | _, (B (1, _) as s) -> s
    | _ -> b1

(* [lo > hi] for every admissible len: the path is infeasible. *)
let definitely_empty llo lhi lo hi =
  match (lo, hi) with
  | PosInf, _ | _, NegInf -> true
  | B (l1, k1), B (l2, k2) ->
    if l1 = l2 then k1 > k2
    else if l1 = 1 then llo + k1 > k2
    else lhi < max_int && k1 > lhi + k2
  | _ -> false

(* Endpoint addition; [l1 + l2 = 2] weakens through [len >= 0] on the
   low side and the len cap (if any) on the high side. *)
let badd_lo b1 b2 =
  match (b1, b2) with
  | B (l1, k1), B (l2, k2) ->
    if l1 + l2 <= 1 then norm_lo (B (l1 + l2, k1 + k2))
    else norm_lo (B (1, k1 + k2))
  | _ -> NegInf

let badd_hi lhi b1 b2 =
  match (b1, b2) with
  | B (l1, k1), B (l2, k2) ->
    if l1 + l2 <= 1 then norm_hi (B (l1 + l2, k1 + k2))
    else if lhi < max_int then norm_hi (B (1, k1 + k2 + lhi))
    else PosInf
  | _ -> PosInf

(* Negation swaps sides; [-(len + k)] needs the len range. *)
let bneg_lo _llo lhi b =
  (* lower bound for the negation of a value whose UPPER bound is b *)
  match b with
  | B (0, k) -> norm_lo (B (0, -k))
  | B (_, k) -> if lhi < max_int then norm_lo (B (0, -(lhi + k))) else NegInf
  | PosInf -> NegInf
  | NegInf -> PosInf

let bneg_hi llo _lhi b =
  (* upper bound for the negation of a value whose LOWER bound is b *)
  match b with
  | B (0, k) -> norm_hi (B (0, -k))
  | B (_, k) -> norm_hi (B (0, -(llo + k)))
  | NegInf -> PosInf
  | PosInf -> NegInf

let bound_to_string = function
  | NegInf -> "-inf"
  | PosInf -> "+inf"
  | B (0, k) -> string_of_int k
  | B (_, 0) -> "len"
  | B (_, k) -> if k > 0 then Printf.sprintf "len+%d" k else Printf.sprintf "len%d" k

(* Abstract machine state: one [av] per register plus the admissible
   payload-length range on this path (guards against a len-valued
   register narrow it). *)
type rstate = { rs : av array; mutable r_llo : int; mutable r_lhi : int }

let copy_state s = { s with rs = Array.copy s.rs }

let join_av llo lhi a b =
  { lo = bmin llo lhi a.lo b.lo; hi = bmax llo lhi a.hi b.hi; m = gcd a.m b.m }

let join_state a b =
  let llo = min a.r_llo b.r_llo and lhi = max a.r_lhi b.r_lhi in
  {
    rs = Array.init max_regs (fun i -> join_av llo lhi a.rs.(i) b.rs.(i));
    r_llo = llo;
    r_lhi = lhi;
  }

let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (join_state a b)

let infeasible st =
  st.r_lhi < st.r_llo
  || Array.exists
       (fun a -> definitely_empty st.r_llo st.r_lhi a.lo a.hi)
       st.rs

let av_operand st = function Reg r -> st.rs.(r) | Imm k -> av_const k

let nonneg st a = bleq st.r_llo st.r_lhi (B (0, 0)) a.lo

let round_down m k = k - (((k mod m) + m) mod m)

let round_up m k = -round_down m (-k)

(* Tighten register [i] with a new upper (resp. lower) bound, folding
   concrete endpoints to the nearest multiple-of-[m] and — when the
   register is len-valued — propagating the guard into the state's
   admissible length range. *)
let set_hi st i ub =
  let a = st.rs.(i) in
  (match (a.lo, ub) with
   | B (1, la), B (0, k) -> st.r_lhi <- min st.r_lhi (k - la)
   | _ -> ());
  let hi = meet_hi st.r_llo st.r_lhi a.hi (norm_hi ub) in
  let hi =
    match hi with B (0, k) when a.m > 1 -> B (0, round_down a.m k) | h -> h
  in
  st.rs.(i) <- { a with hi }

let set_lo st i lb =
  let a = st.rs.(i) in
  (match (a.hi, lb) with
   | B (1, ha), B (0, k) -> st.r_llo <- max st.r_llo (max 0 (k - ha))
   | _ -> ());
  let lo = meet_lo st.r_llo st.r_lhi a.lo (norm_lo lb) in
  let lo =
    match lo with B (0, k) when a.m > 1 -> B (0, round_up a.m k) | l -> l
  in
  st.rs.(i) <- { a with lo }

let b_add_k b d = match b with B (l, k) -> B (l, k + d) | inf -> inf

let av_singleton a =
  match (a.lo, a.hi) with
  | B (0, k1), B (0, k2) when k1 = k2 -> Some k1
  | _ -> None

(* Saturating nonnegative helpers for loop-trip arithmetic. *)
let sadd_big a b = if a >= big - b then big else a + b

let smul_big a b = if b > 0 && a > big / b then big else a * b

let av_add _llo lhi a b =
  if av_finite a && av_finite b then
    {
      lo = badd_lo a.lo b.lo;
      hi = badd_hi lhi a.hi b.hi;
      m = gcd a.m b.m;
    }
  else { av_top with m = pow2part (gcd a.m b.m) }

let av_sub llo lhi a b =
  if av_finite a && av_finite b then
    {
      lo = badd_lo a.lo (bneg_lo llo lhi b.hi);
      hi = badd_hi lhi a.hi (bneg_hi llo lhi b.lo);
      m = gcd a.m b.m;
    }
  else { av_top with m = pow2part (gcd a.m b.m) }

(* Concretize an endpoint through the len range; None if unbounded. *)
let conc_lo llo = function
  | B (0, k) -> Some k
  | B (_, k) -> Some (llo + k)
  | _ -> None

let conc_hi lhi = function
  | B (0, k) -> Some k
  | B (_, k) -> if lhi < max_int then Some (lhi + k) else None
  | _ -> None

let av_mul llo lhi a b =
  (* Multiple-of fact through a product: full [m1 * m2] when it fits,
     else only the power-of-two part (which survives wraparound). *)
  let mul_m m1 m2 =
    if m1 = 0 || m2 = 0 then 0
    else if m1 <= big / m2 then m1 * m2
    else
      let p = pow2part m1 and q = pow2part m2 in
      if p <= big / q then p * q else big
  in
  let cmul x y =
    if x = 0 || y = 0 then Some 0
    else if abs y <= max_int / abs x then Some (x * y)
    else None
  in
  match (av_singleton a, av_singleton b) with
  | Some 0, _ | _, Some 0 -> av_const 0
  | _, Some 1 -> a
  | Some 1, _ -> b
  | _ ->
    (* Concretize both factors; the endpoint products are checked, so
       the interval hull is computed without wrapping, and the hull
       being representable means the runtime product cannot wrap. *)
    let products =
      match
        ( conc_lo llo a.lo, conc_hi lhi a.hi, conc_lo llo b.lo,
          conc_hi lhi b.hi )
      with
      | Some al, Some ah, Some bl, Some bh -> (
        match (cmul al bl, cmul al bh, cmul ah bl, cmul ah bh) with
        | Some p1, Some p2, Some p3, Some p4 ->
          Some (min (min p1 p2) (min p3 p4), max (max p1 p2) (max p3 p4))
        | _ -> None)
      | _ -> None
    in
    let m = mul_m a.m b.m in
    (match products with
     | Some (lo, hi) ->
       { lo = norm_lo (B (0, lo)); hi = norm_hi (B (0, hi)); m }
     | None -> { av_top with m = pow2part m })

let av_and llo lhi a b_op =
  let nn = bleq llo lhi (B (0, 0)) a.lo in
  match b_op with
  | { lo = B (0, k); hi = B (0, k'); m = _ } when k = k' ->
    if k = 0 then av_const 0
    else
      let m = max (pow2part k) (pow2part a.m) in
      if k > 0 then
        let hi = if nn && bleq llo lhi a.hi (B (0, k)) then a.hi else B (0, k) in
        { lo = B (0, 0); hi; m }
      else if nn then { lo = B (0, 0); hi = a.hi; m }
      else { av_top with m }
  | b ->
    let m = max (pow2part a.m) (pow2part b.m) in
    if nn then { lo = B (0, 0); hi = a.hi; m }
    else if bleq llo lhi (B (0, 0)) b.lo then { lo = B (0, 0); hi = b.hi; m }
    else { av_top with m }

let av_orxor llo lhi a b =
  let m = pow2part (gcd a.m b.m) in
  if bleq llo lhi (B (0, 0)) a.lo && bleq llo lhi (B (0, 0)) b.lo then
    (* x lor y and x lxor y are both <= x + y for nonnegative x, y *)
    { lo = B (0, 0); hi = badd_hi lhi a.hi b.hi; m }
  else { av_top with m }

(* Refine a private copy of [st0] under "r CMP o is true"; None means
   the refined path is infeasible (the branch can never go this way). *)
let refine st0 r o cmp =
  match o with
  | Reg s when s = r -> (
    (* r CMP r: trivially true or trivially false *)
    match cmp with
    | `Lt | `Ne -> None
    | `Ge | `Eq -> Some (copy_state st0))
  | _ ->
    let st = copy_state st0 in
    (match cmp with
     | `Lt ->
       set_hi st r (b_add_k (av_operand st o).hi (-1));
       (match o with
        | Reg s -> set_lo st s (b_add_k st.rs.(r).lo 1)
        | Imm _ -> ())
     | `Ge ->
       set_lo st r (av_operand st o).lo;
       (match o with
        | Reg s -> set_hi st s st.rs.(r).hi
        | Imm _ -> ())
     | `Eq ->
       let b = av_operand st o in
       set_hi st r b.hi;
       set_lo st r b.lo;
       (match o with
        | Reg s ->
          set_hi st s st.rs.(r).hi;
          set_lo st s st.rs.(r).lo
        | Imm _ -> ())
     | `Ne -> (
       (* Only a singleton disequality moves an interval endpoint. *)
       match av_singleton (av_operand st o) with
       | Some k ->
         (match st.rs.(r).lo with
          | B (0, kl) when kl = k -> set_lo st r (B (0, k + 1))
          | _ -> ());
         (match st.rs.(r).hi with
          | B (0, kh) when kh = k -> set_hi st r (B (0, k - 1))
          | _ -> ())
       | None -> ()));
    if infeasible st then None else Some st

(* The walker. Regions are [start, stop) slices of one loop-nesting
   level. Jumps are forward-only and cannot cross loop boundaries, so a
   single ascending pass with a join table per jump target reaches a
   sound result without fixpoint iteration. Loops use a one-shot
   widening: registers written in the body only by [Add r, Imm d] with
   d >= 0 are monotone counters whose body-entry values across all
   iterations are covered by [entry, entry + (trips - 1) * stride];
   every other written register widens to top. One pass over the body
   under that envelope therefore visits each site with a loop
   invariant. *)
let analyze_ranges insns end_of encl n =
  let verdicts = Array.make (max n 1) None in
  let pending = Array.make (n + 1) None in
  let record pc kind proven range =
    verdicts.(pc) <- Some (kind, proven, range)
  in
  (* A site on a statically dead path never executes: trivially proven. *)
  let record_unreachable pc =
    match insns.(pc) with
    | Ldp _ -> record pc `Load true "unreachable"
    | Stp _ -> record pc `Store true "unreachable"
    | Div (_, Reg _) | Rem (_, Reg _) -> record pc `Div true "unreachable"
    | _ -> ()
  in
  let payload_site st pc kind o =
    let a = av_operand st o in
    let llo = st.r_llo and lhi = st.r_lhi in
    (* Deliberately narrow rejection: only accesses that are concretely
       impossible (always negative, or at/past a guard-derived length
       cap) are range-oob. An access at exactly [len] with no guard in
       sight stays admissible and faults at runtime, as it always has. *)
    let oob =
      bleq llo lhi a.hi (B (0, -1))
      || (lhi < max_int && bleq llo lhi (B (0, lhi)) a.lo)
    in
    if oob then
      reject "range-oob" pc
        "payload %s provably out of bounds: off in [%s, %s], len in [%d, %s]"
        (match kind with `Load -> "load" | _ -> "store")
        (bound_to_string a.lo) (bound_to_string a.hi) llo
        (if lhi = max_int then "inf" else string_of_int lhi);
    let proven =
      bleq llo lhi (B (0, 0)) a.lo && bleq llo lhi a.hi (B (1, -1))
    in
    record pc kind proven
      (Printf.sprintf "off in [%s, %s]" (bound_to_string a.lo)
         (bound_to_string a.hi))
  in
  let div_site st pc o =
    match o with
    | Imm _ -> ()
    | Reg s ->
      let a = st.rs.(s) in
      let llo = st.r_llo and lhi = st.r_lhi in
      (* A provably-zero divisor is NOT rejected: like an unguarded
         payload probe it simply faults at runtime. *)
      let proven =
        bleq llo lhi (B (0, 1)) a.lo || bleq llo lhi a.hi (B (0, -1))
      in
      record pc `Div proven
        (Printf.sprintf "divisor in [%s, %s]" (bound_to_string a.lo)
           (bound_to_string a.hi))
  in
  let apply st pc insn =
    let llo = st.r_llo and lhi = st.r_lhi in
    match insn with
    | Mov (r, o) -> st.rs.(r) <- av_operand st o
    | Add (r, o) -> st.rs.(r) <- av_add llo lhi st.rs.(r) (av_operand st o)
    | Sub (r, o) -> st.rs.(r) <- av_sub llo lhi st.rs.(r) (av_operand st o)
    | Mul (r, o) -> st.rs.(r) <- av_mul llo lhi st.rs.(r) (av_operand st o)
    | Div (r, o) ->
      div_site st pc o;
      let a = st.rs.(r) in
      st.rs.(r) <-
        (match o with
         | Imm d when d >= 1 && nonneg st a ->
           let lo =
             match conc_lo llo a.lo with
             | Some k -> norm_lo (B (0, max k 0 / d))
             | None -> B (0, 0)
           in
           let hi =
             match a.hi with
             | B (0, k) -> norm_hi (B (0, max k 0 / d))
             | B (_, k) -> B (1, max k 0)
             | h -> h
           in
           let m =
             if a.m = 0 then 0
             else if a.m mod d = 0 then a.m / d
             else 1
           in
           { lo; hi; m }
         | Reg _
           when nonneg st a && bleq llo lhi (B (0, 1)) (av_operand st o).lo
           ->
           { lo = B (0, 0); hi = a.hi; m = 1 }
         | _ -> av_top)
    | Rem (r, o) ->
      div_site st pc o;
      let a = st.rs.(r) in
      st.rs.(r) <-
        (match o with
         | Imm d0 when d0 <> 0 ->
           let d = abs d0 in
           let m = gcd a.m d in
           if nonneg st a then
             let hi =
               if bleq llo lhi a.hi (B (0, d - 1)) then a.hi else B (0, d - 1)
             in
             { lo = B (0, 0); hi; m }
           else { lo = B (0, -(d - 1)); hi = B (0, d - 1); m }
         | Reg _ ->
           if nonneg st a then { lo = B (0, 0); hi = a.hi; m = 1 }
           else av_top
         | Imm _ -> av_top)
    | And (r, o) -> st.rs.(r) <- av_and llo lhi st.rs.(r) (av_operand st o)
    | Or (r, o) | Xor (r, o) ->
      st.rs.(r) <- av_orxor llo lhi st.rs.(r) (av_operand st o)
    | Shl (r, o) ->
      let a = st.rs.(r) in
      st.rs.(r) <-
        (match av_singleton (av_operand st o) with
         | Some s0 ->
           let s = s0 land 63 in
           if s = 0 then a
           else if s <= 45 then av_mul llo lhi a (av_const (1 lsl s))
           else { av_top with m = pow2part a.m }
         | None -> { av_top with m = pow2part a.m })
    | Shr (r, o) ->
      let a = st.rs.(r) in
      st.rs.(r) <-
        (match av_singleton (av_operand st o) with
         | Some s0 ->
           let s = s0 land 63 in
           if s = 0 then a
           else if nonneg st a && av_finite a then
             let lo =
               match conc_lo llo a.lo with
               | Some k -> B (0, max k 0 lsr s)
               | None -> B (0, 0)
             in
             let hi =
               match a.hi with
               | B (0, k) -> B (0, max k 0 lsr s)
               | B (_, k) -> B (1, max k 0)
               | h -> h
             in
             { lo; hi; m = 1 }
           else if s >= 13 then
             (* x lsr s < 2^(63-s) regardless of sign *)
             { lo = B (0, 0); hi = B (0, (1 lsl (63 - s)) - 1); m = 1 }
           else { lo = B (0, 0); hi = PosInf; m = 1 }
         | None ->
           if nonneg st a then { lo = B (0, 0); hi = a.hi; m = 1 }
           else av_top)
    | Len r -> st.rs.(r) <- av_len
    | Blkno r -> st.rs.(r) <- av_top
    | Ldp (r, o) ->
      payload_site st pc `Load o;
      st.rs.(r) <- av_byte
    | Stp (o_off, _) -> payload_site st pc `Store o_off
    | Lds (r, _) | Ldsx (r, _) -> st.rs.(r) <- av_top
    | Sts _ | Stsx _ | Emit _ -> ()
    | Jmp _ | Jeq _ | Jne _ | Jlt _ | Jge _ | Loop _ | End | Drop
    | Redirect _ | Ret ->
      ()
  in
  let rec analyze_region start stop cur0 =
    let cur = ref cur0 in
    let pc = ref start in
    while !pc < stop do
      let here = !pc in
      (match pending.(here) with
       | Some _ as p ->
         cur := join_opt !cur p;
         pending.(here) <- None
       | None -> ());
      (match (insns.(here), !cur) with
       | Loop _, None ->
         let e = end_of.(here) in
         for q = here + 1 to e - 1 do
           record_unreachable q
         done;
         pc := e + 1
       | Loop (count, cap), Some st ->
         let e = end_of.(here) in
         cur := analyze_loop here e st count cap;
         pc := e + 1
       | _, None ->
         record_unreachable here;
         incr pc
       | Jmp off, Some st ->
         pending.(here + off) <- join_opt pending.(here + off) (Some st);
         cur := None;
         incr pc
       | ( (Jeq (r, o, off) | Jne (r, o, off) | Jlt (r, o, off)
           | Jge (r, o, off)),
           Some st ) ->
         let taken, fall =
           match insns.(here) with
           | Jeq _ -> (`Eq, `Ne)
           | Jne _ -> (`Ne, `Eq)
           | Jlt _ -> (`Lt, `Ge)
           | _ -> (`Ge, `Lt)
         in
         (match refine st r o taken with
          | Some _ as t ->
            pending.(here + off) <- join_opt pending.(here + off) t
          | None -> ());
         cur := refine st r o fall;
         incr pc
       | (Drop | Redirect _ | Ret), Some _ ->
         cur := None;
         incr pc
       | insn, Some st ->
         apply st here insn;
         incr pc)
    done;
    let out = join_opt !cur pending.(stop) in
    pending.(stop) <- None;
    out
  and analyze_loop lp e entry count cap =
    let ccap v = min (max v 0) cap in
    (* Path on which the body never runs (count <= 0). *)
    let skip =
      match count with
      | Imm v -> if ccap v = 0 then Some (copy_state entry) else None
      | Reg s ->
        let st = copy_state entry in
        set_hi st s (B (0, 0));
        if infeasible st then None else Some st
    in
    (* Path into the body (count >= 1). *)
    let body_entry =
      match count with
      | Imm v -> if ccap v >= 1 then Some (copy_state entry) else None
      | Reg s ->
        let st = copy_state entry in
        set_lo st s (B (0, 1));
        if infeasible st then None else Some st
    in
    match body_entry with
    | None ->
      for q = lp + 1 to e - 1 do
        record_unreachable q
      done;
      skip
    | Some st0 ->
      let lhi = st0.r_lhi in
      (* Upper bound on the trip count; prefer a len-relative form so
         counters driven by [Loop (Reg len)] prove [<= len - 1]. *)
      let c_hi =
        match count with
        | Imm v -> B (0, ccap v)
        | Reg s -> (
          match st0.rs.(s).hi with
          | B (1, k) -> B (1, max k 0)
          | B (0, k) -> B (0, min (max k 1) cap)
          | _ -> B (0, cap))
      in
      (* Classify body writes per register. *)
      let d_tot = Array.make max_regs 0 in
      let d_g = Array.make max_regs 0 in
      let written = Array.make max_regs false in
      let pure = Array.make max_regs true in
      (* Product of inner-loop caps enclosing pc [q] within this body:
         an Add there can execute that many times per outer trip. *)
      let mult q =
        let rec go l acc =
          if l <= lp || l < 0 then acc
          else
            match insns.(l) with
            | Loop (_, icap) -> go encl.(l) (smul_big acc icap)
            | _ -> acc
        in
        go encl.(q) 1
      in
      for q = lp + 1 to e - 1 do
        match insns.(q) with
        | Add (r, Imm d) when d >= 0 ->
          written.(r) <- true;
          d_tot.(r) <- sadd_big d_tot.(r) (smul_big d (mult q));
          d_g.(r) <- gcd d_g.(r) d
        | Mov (r, _) | Add (r, _) | Sub (r, _) | Mul (r, _) | Div (r, _)
        | Rem (r, _) | And (r, _) | Or (r, _) | Xor (r, _) | Shl (r, _)
        | Shr (r, _) | Len r | Blkno r | Ldp (r, _) | Lds (r, _)
        | Ldsx (r, _) ->
          written.(r) <- true;
          pure.(r) <- false
        | _ -> ()
      done;
      (* Widened body-entry envelope. *)
      let env = copy_state st0 in
      for i = 0 to max_regs - 1 do
        if written.(i) then
          if pure.(i) then begin
            let a = st0.rs.(i) in
            let d = d_tot.(i) in
            (* Bound on the increments accumulated before the last
               body entry: (trips - 1) * stride. *)
            let extra =
              if d = 0 then Some (B (0, 0))
              else
                match c_hi with
                | B (1, k) when d = 1 -> Some (B (1, k - 1))
                | B (0, c) ->
                  let x = smul_big (max (c - 1) 0) d in
                  if x >= big then None else Some (B (0, x))
                | _ ->
                  let x = smul_big (max (cap - 1) 0) d in
                  if x >= big then None else Some (B (0, x))
            in
            env.rs.(i) <-
              (match extra with
               | Some ex when av_finite a ->
                 { lo = a.lo; hi = badd_hi lhi a.hi ex; m = gcd a.m d_g.(i) }
               | _ -> { av_top with m = pow2part (gcd a.m d_g.(i)) })
          end
          else env.rs.(i) <- av_top
      done;
      let out = analyze_region (lp + 1) e (Some env) in
      join_opt skip out
  in
  let init =
    {
      rs = Array.init max_regs (fun _ -> av_const 0);
      r_llo = 0;
      r_lhi = max_int;
    }
  in
  ignore (analyze_region 0 n (Some init) : rstate option);
  let accs = ref [] in
  for pc = n - 1 downto 0 do
    match verdicts.(pc) with
    | Some (kind, proven, range) ->
      accs :=
        {
          a_pc = pc;
          a_kind = kind;
          a_bounds = (if proven then `Proven else `Checked);
          a_range = range;
        }
        :: !accs
    | None -> ()
  done;
  let proven =
    Array.init (max n 1) (fun pc ->
        match verdicts.(pc) with Some (_, p, _) -> p | None -> false)
  in
  (!accs, proven)

let check_insn ~scratch ~context ~encl ~n pc insn =
  let jump off =
    if off < 1 then
      reject "unbounded-loop" pc
        "backward or self jump (offset %d); loop with Loop/End instead" off;
    let target = pc + off in
    if target > n then
      reject "jump-oob" pc "jump target %d past program end %d" target n;
    if encl.(target) <> encl.(pc) then
      reject "jump-oob" pc "jump target %d crosses a loop boundary" target
  in
  let scratch_cell off =
    if off < 0 || off >= scratch then
      reject "scratch-oob" pc "scratch cell %d outside 0..%d" off (scratch - 1)
  in
  (* Indexed scratch access is masked to [idx land (scratch - 1)], so it
     is statically in bounds exactly when the arena is a non-empty power
     of two — the proof the compiler relies on to elide the check. *)
  let scratch_indexable name =
    if scratch = 0 || scratch land (scratch - 1) <> 0 then
      reject "scratch-index" pc
        "%s needs a power-of-two scratch arena (scratch %d)" name scratch
  in
  let effect name =
    if context = Readonly then
      reject "effect-context" pc "%s not allowed in a read-only program" name
  in
  match insn with
  | Mov (r, o) | Add (r, o) | Sub (r, o) | Mul (r, o)
  | And (r, o) | Or (r, o) | Xor (r, o) | Shl (r, o) | Shr (r, o) ->
    check_reg pc r;
    check_operand pc o
  | Div (r, o) | Rem (r, o) ->
    check_reg pc r;
    check_operand pc o;
    (match o with
     | Imm 0 -> reject "div-by-zero" pc "constant zero divisor"
     | _ -> ())
  | Len r | Blkno r -> check_reg pc r
  | Ldp (r, o) ->
    check_reg pc r;
    check_operand pc o
  | Stp (o_off, o_v) ->
    effect "Stp";
    check_operand pc o_off;
    check_operand pc o_v
  | Lds (r, off) ->
    check_reg pc r;
    scratch_cell off
  | Sts (off, o) ->
    scratch_cell off;
    check_operand pc o
  | Ldsx (r, ri) ->
    check_reg pc r;
    check_reg pc ri;
    scratch_indexable "Ldsx"
  | Stsx (ri, o) ->
    check_reg pc ri;
    check_operand pc o;
    scratch_indexable "Stsx"
  | Jmp off -> jump off
  | Jeq (r, o, off) | Jne (r, o, off) | Jlt (r, o, off) | Jge (r, o, off) ->
    check_reg pc r;
    check_operand pc o;
    jump off
  | Loop _ | End -> ()  (* checked by build_loops *)
  | Emit (ok, ov) ->
    check_operand pc ok;
    check_operand pc ov
  | Drop -> effect "Drop"
  | Redirect o ->
    effect "Redirect";
    check_operand pc o
  | Ret -> ()

let verify spec =
  try
    let insns = Array.copy spec.s_insns in
    let n = Array.length insns in
    if n > max_insns then
      reject "program-size" (-1) "%d instructions exceed the %d limit" n
        max_insns;
    if spec.s_fuel <= 0 then
      reject "fuel-bound" (-1) "declared fuel %d must be positive" spec.s_fuel;
    if spec.s_fuel > max_fuel then
      reject "fuel-bound" (-1) "declared fuel %d exceeds the %d limit"
        spec.s_fuel max_fuel;
    if spec.s_scratch < 0 || spec.s_scratch > max_scratch then
      reject "scratch-oob" (-1) "scratch size %d outside 0..%d" spec.s_scratch
        max_scratch;
    let end_of, encl = build_loops insns in
    Array.iteri
      (check_insn ~scratch:spec.s_scratch ~context:spec.s_context ~encl ~n)
      insns;
    let cost = worst_case insns end_of in
    if cost > spec.s_fuel then
      reject "fuel-bound" (-1)
        "worst-case cost %s exceeds declared fuel %d"
        (if cost > max_fuel then ">" ^ string_of_int max_fuel
         else string_of_int cost)
        spec.s_fuel;
    (* Range analysis runs last so structurally broken programs keep
       their structural rules; it yields the per-site verdict table and
       rejects provably-out-of-range accesses ("range-oob"). *)
    let acc, proven = analyze_ranges insns end_of encl n in
    Ok
      {
        p_insns = insns;
        p_fuel = spec.s_fuel;
        p_scratch = spec.s_scratch;
        p_context = spec.s_context;
        p_cost = cost;
        p_end_of = end_of;
        p_accesses = acc;
        p_proven = proven;
      }
  with Reject d -> Error d

let insns p = Array.copy p.p_insns

let fuel p = p.p_fuel

let scratch_cells p = p.p_scratch

let prog_context p = p.p_context

let worst_cost p = p.p_cost

let accesses p = p.p_accesses

let bounds_at p pc =
  if pc >= 0 && pc < Array.length p.p_proven && p.p_proven.(pc) then `Proven
  else `Checked

(* {1 Interpreter} *)

(* Constructor names overlap with [insn] (Drop, Redirect); matches and
   constructions below are disambiguated by their expected type. *)
type verdict = Pass | Drop | Redirect of int | Fault of string

type run = { r_verdict : verdict; r_steps : int; r_data : bytes }

type state = {
  st_regs : int array;
  st_scratch : int array;
  st_loop_start : int array;
  st_loop_left : int array;
}

let new_state p =
  {
    st_regs = Array.make max_regs 0;
    st_scratch = Array.make (max p.p_scratch 1) 0;
    st_loop_start = Array.make max_loop_depth 0;
    st_loop_left = Array.make max_loop_depth 0;
  }

exception Fault_exn of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault_exn m)) fmt

(* Operand decode, hoisted out of [exec]: defining it inside the run
   captured [regs] and allocated a closure per block, which shows up
   once a fan-out pushes millions of blocks through an edge program. *)
let[@inline] ev regs = function Reg r -> regs.(r) | Imm k -> k

let cow_dest ~data = function
  | None -> Bytes.empty
  | Some a ->
    if a != data && Bytes.length a <> Bytes.length data then
      invalid_arg "exec: the copy-on-write area and the input differ in length";
    a

let cow ~data ~dest =
  if dest == Bytes.empty then Bytes.copy data
  else begin
    Bytes.blit data 0 dest 0 (Bytes.length data);
    dest
  end

let[@kpath.intr] exec ?into p st ~data ~len ~lblk ~emit =
  let code = p.p_insns in
  let n = Array.length code in
  let regs = st.st_regs in
  Array.fill regs 0 max_regs 0;
  let scratch = st.st_scratch in
  let lstart = st.st_loop_start and lleft = st.st_loop_left in
  let depth = ref 0 in
  let fuel = ref p.p_fuel in
  let steps = ref 0 in
  let cur = ref data in
  let dest = cow_dest ~data into in
  (* An input the caller owns is its own private copy. *)
  let copied = ref (dest == data) in
  let pc = ref 0 in
  let verdict = ref Pass in
  (try
     while !pc < n do
       (* Defense in depth: the verifier proved p_cost <= p_fuel, so a
          verified program cannot exhaust this counter. *)
       if !fuel <= 0 then fault "fuel exhausted";
       decr fuel;
       incr steps;
       let here = !pc in
       incr pc;
       match code.(here) with
       | Mov (r, o) -> regs.(r) <- ev regs o
       | Add (r, o) -> regs.(r) <- regs.(r) + ev regs o
       | Sub (r, o) -> regs.(r) <- regs.(r) - ev regs o
       | Mul (r, o) -> regs.(r) <- regs.(r) * ev regs o
       | Div (r, o) ->
         let d = ev regs o in
         if d = 0 then fault "division by zero at pc %d" here;
         regs.(r) <- regs.(r) / d
       | Rem (r, o) ->
         let d = ev regs o in
         if d = 0 then fault "division by zero at pc %d" here;
         regs.(r) <- regs.(r) mod d
       | And (r, o) -> regs.(r) <- regs.(r) land ev regs o
       | Or (r, o) -> regs.(r) <- regs.(r) lor ev regs o
       | Xor (r, o) -> regs.(r) <- regs.(r) lxor ev regs o
       | Shl (r, o) -> regs.(r) <- regs.(r) lsl (ev regs o land 63)
       | Shr (r, o) -> regs.(r) <- regs.(r) lsr (ev regs o land 63)
       | Len r -> regs.(r) <- len
       | Blkno r -> regs.(r) <- lblk
       | Ldp (r, o) ->
         let off = ev regs o in
         if off < 0 || off >= len then
           fault "payload load at %d outside %d bytes (pc %d)" off len here;
         regs.(r) <- Char.code (Bytes.unsafe_get !cur off)
       | Stp (o_off, o_v) ->
         let off = ev regs o_off in
         if off < 0 || off >= len then
           fault "payload store at %d outside %d bytes (pc %d)" off len here;
         if not !copied then begin
           (* Copy on write: the input buffer is aliased across edges. *)
           cur := cow ~data ~dest;
           copied := true
         end;
         Bytes.unsafe_set !cur off (Char.unsafe_chr (ev regs o_v land 0xff))
       | Lds (r, off) -> regs.(r) <- scratch.(off)
       | Sts (off, o) -> scratch.(off) <- ev regs o
       | Ldsx (r, ri) ->
         (* The verifier admits Ldsx/Stsx only over a power-of-two
            arena, so the mask keeps the access in bounds. *)
         regs.(r) <- Array.unsafe_get scratch (regs.(ri) land (p.p_scratch - 1))
       | Stsx (ri, o) ->
         Array.unsafe_set scratch
           (regs.(ri) land (p.p_scratch - 1))
           (ev regs o)
       | Jmp off -> pc := here + off
       | Jeq (r, o, off) -> if regs.(r) = ev regs o then pc := here + off
       | Jne (r, o, off) -> if regs.(r) <> ev regs o then pc := here + off
       | Jlt (r, o, off) -> if regs.(r) < ev regs o then pc := here + off
       | Jge (r, o, off) -> if regs.(r) >= ev regs o then pc := here + off
       | Loop (count, cap) ->
         let c = min (max (ev regs count) 0) cap in
         if c = 0 then pc := p.p_end_of.(here) + 1
         else begin
           lstart.(!depth) <- !pc;
           lleft.(!depth) <- c;
           incr depth
         end
       | End ->
         if !depth = 0 then fault "End with an empty loop stack (pc %d)" here;
         let d = !depth - 1 in
         lleft.(d) <- lleft.(d) - 1;
         if lleft.(d) > 0 then pc := lstart.(d) else depth := d
       | Emit (ok, ov) -> emit (ev regs ok) (ev regs ov)
       | Drop ->
         verdict := (Drop : verdict);
         pc := n
       | Redirect o ->
         verdict := (Redirect (ev regs o) : verdict);
         pc := n
       | Ret -> pc := n
     done
   with Fault_exn m -> verdict := Fault m);
  { r_verdict = !verdict; r_steps = !steps; r_data = !cur }
