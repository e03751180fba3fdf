(* Filter VM: verifier rejections name their rule, accepted programs
   terminate within fuel, the interpreter computes what it should, and
   the assembler round-trips. *)

module Vm = Kpath_vm.Vm
module Asm = Kpath_vm.Asm
module Samples = Kpath_vm.Samples

let spec ?(fuel = 1000) ?(scratch = 0) ?(context = Vm.Edge) insns =
  { Vm.s_insns = Array.of_list insns; s_fuel = fuel; s_scratch = scratch;
    s_context = context }

let accept ?fuel ?scratch ?context insns =
  match Vm.verify (spec ?fuel ?scratch ?context insns) with
  | Ok p -> p
  | Error d -> Alcotest.failf "unexpected rejection: %s" (Vm.diag_to_string d)

let reject ?fuel ?scratch ?context insns expected () =
  match Vm.verify (spec ?fuel ?scratch ?context insns) with
  | Ok _ -> Alcotest.failf "expected %s rejection" expected
  | Error d -> Alcotest.(check string) "rule" expected d.Vm.d_rule

(* Run [p] over [data] with a fresh state; returns (verdict, emits). *)
let run ?(data = "the quick brown fox jumps over the lazy dog") ?(lblk = 0) p =
  let data = Bytes.of_string data in
  let emits = ref [] in
  let r =
    Vm.exec p (Vm.new_state p) ~data ~len:(Bytes.length data) ~lblk
      ~emit:(fun k v -> emits := (k, v) :: !emits)
  in
  (r, List.rev !emits)

let verdict =
  Alcotest.testable
    (fun fmt -> function
      | Vm.Pass -> Format.fprintf fmt "Pass"
      | Vm.Drop -> Format.fprintf fmt "Drop"
      | Vm.Redirect k -> Format.fprintf fmt "Redirect %d" k
      | Vm.Fault m -> Format.fprintf fmt "Fault %S" m)
    ( = )

(* {1 Verifier rejections} *)

let rejections =
  [
    ("backward jump", reject [ Vm.Mov (0, Imm 0); Vm.Jmp (-1) ] "unbounded-loop");
    ("self jump", reject [ Vm.Jmp 0 ] "unbounded-loop");
    ("stray End", reject [ Vm.End; Vm.Ret ] "unbounded-loop");
    ("unclosed Loop", reject [ Vm.Loop (Imm 3, 8); Vm.Ret ] "unbounded-loop");
    ( "zero loop cap",
      reject [ Vm.Loop (Imm 3, 0); Vm.End ] "unbounded-loop" );
    ( "oversized loop cap",
      reject [ Vm.Loop (Imm 3, Vm.max_loop_count + 1); Vm.End ]
        "unbounded-loop" );
    ( "loops nested too deep",
      reject
        (List.init (Vm.max_loop_depth + 1) (fun _ -> Vm.Loop (Imm 1, 2))
        @ List.init (Vm.max_loop_depth + 1) (fun _ -> Vm.End))
        "loop-depth" );
    ("jump past end", reject [ Vm.Jmp 5; Vm.Ret ] "jump-oob");
    ( "jump into a loop body",
      reject
        [ Vm.Jmp 2; Vm.Loop (Imm 1, 2); Vm.Mov (0, Imm 0); Vm.End; Vm.Ret ]
        "jump-oob" );
    ( "jump out of a loop body",
      reject
        [ Vm.Loop (Imm 1, 2); Vm.Jmp 3; Vm.End; Vm.Ret ]
        "jump-oob" );
    ( "scratch load out of bounds",
      reject ~scratch:4 [ Vm.Lds (0, 4); Vm.Ret ] "scratch-oob" );
    ( "scratch store negative",
      reject ~scratch:4 [ Vm.Sts (-1, Imm 0); Vm.Ret ] "scratch-oob" );
    ( "scratch without an arena",
      reject [ Vm.Lds (0, 0); Vm.Ret ] "scratch-oob" );
    ( "scratch size above limit",
      reject ~scratch:(Vm.max_scratch + 1) [ Vm.Ret ] "scratch-oob" );
    ( "indexed scratch load without an arena",
      reject [ Vm.Ldsx (0, 1); Vm.Ret ] "scratch-index" );
    ( "indexed scratch store without an arena",
      reject [ Vm.Stsx (0, Imm 1); Vm.Ret ] "scratch-index" );
    ( "indexed scratch arena not a power of two",
      reject ~scratch:3 [ Vm.Ldsx (0, 1); Vm.Ret ] "scratch-index" );
    ( "indexed scratch store into a 48-cell arena",
      reject ~scratch:48 [ Vm.Stsx (0, Imm 1); Vm.Ret ] "scratch-index" );
    ("negative fuel", reject ~fuel:(-5) [ Vm.Ret ] "fuel-bound");
    ("zero fuel", reject ~fuel:0 [ Vm.Ret ] "fuel-bound");
    ( "fuel above limit",
      reject ~fuel:(Vm.max_fuel + 1) [ Vm.Ret ] "fuel-bound" );
    ( "worst case exceeds fuel",
      reject ~fuel:10
        [ Vm.Loop (Imm 10, 100); Vm.Mov (0, Imm 1); Vm.End ]
        "fuel-bound" );
    ( "nested caps saturate, not overflow",
      reject ~fuel:Vm.max_fuel
        [
          Vm.Loop (Imm 1, Vm.max_loop_count);
          Vm.Loop (Imm 1, Vm.max_loop_count);
          Vm.Loop (Imm 1, Vm.max_loop_count);
          Vm.Mov (0, Imm 1);
          Vm.End;
          Vm.End;
          Vm.End;
        ]
        "fuel-bound" );
    ("register too high", reject [ Vm.Mov (8, Imm 0) ] "bad-register");
    ("operand register too high", reject [ Vm.Mov (0, Reg 9) ] "bad-register");
    ("constant zero divisor", reject [ Vm.Div (0, Imm 0) ] "div-by-zero");
    ("constant zero modulus", reject [ Vm.Rem (0, Imm 0) ] "div-by-zero");
    ( "drop in read-only context",
      reject ~context:Vm.Readonly [ Vm.Drop ] "effect-context" );
    ( "store in read-only context",
      reject ~context:Vm.Readonly [ Vm.Stp (Imm 0, Imm 0) ] "effect-context" );
    ( "redirect in read-only context",
      reject ~context:Vm.Readonly [ Vm.Redirect (Imm 1) ] "effect-context" );
    ( "program too long",
      reject (List.init (Vm.max_insns + 1) (fun _ -> Vm.Ret)) "program-size" );
    ( "constant negative payload load",
      reject [ Vm.Ldp (0, Imm (-1)); Vm.Ret ] "range-oob" );
    ( "negative register offset store",
      reject
        [ Vm.Mov (0, Imm (-4)); Vm.Stp (Reg 0, Imm 1); Vm.Ret ]
        "range-oob" );
  ]

let test_rejection_pc () =
  (* The diagnostic points at the offending instruction. *)
  match Vm.verify (spec [ Vm.Ret; Vm.Mov (0, Imm 1); Vm.Jmp (-1) ]) with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error d ->
    Alcotest.(check int) "pc" 2 d.Vm.d_pc;
    Alcotest.(check string) "rule" "unbounded-loop" d.Vm.d_rule

let test_range_oob_pc () =
  (* A guard can cap the payload length: loading at the cap is then
     provably out of bounds. The diag names the exact rule, points at
     the load, and includes the violated interval so the failure is
     actionable from the CLI. *)
  match
    Vm.verify
      (spec
         [
           Vm.Len 0;
           Vm.Jlt (0, Imm 256, 2);
           Vm.Ret;
           Vm.Mov (1, Imm 256);
           Vm.Ldp (2, Reg 1);
           Vm.Ret;
         ])
  with
  | Ok _ -> Alcotest.fail "expected range-oob rejection"
  | Error d ->
    Alcotest.(check string) "rule" "range-oob" d.Vm.d_rule;
    Alcotest.(check int) "pc" 4 d.Vm.d_pc;
    let line = Vm.diag_to_string d in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message names the interval (%s)" line)
      true
      (contains line "off in [256, 256]" && contains line "len in [0, 255]")

(* {1 Range analysis verdicts} *)

let all_proven name p =
  let accs = Vm.accesses p in
  Alcotest.(check bool) (name ^ " has payload accesses") true (accs <> []);
  List.iter
    (fun a ->
      match a.Vm.a_bounds with
      | `Proven -> ()
      | `Checked ->
        Alcotest.failf "%s: pc %d (%s) not proven" name a.Vm.a_pc a.Vm.a_range)
    accs

let test_analysis_proves_samples () =
  (* The acceptance bar for the analysis: every payload access of the
     canned loop workloads is statically in bounds, so the compiled
     generic tier runs them with no runtime checks even with the idiom
     library disabled. *)
  all_proven "checksum" (Samples.checksum ());
  all_proven "tee_hash" (Samples.tee_hash ());
  all_proven "xor_mask" (Samples.xor_mask ~key:0x5a);
  all_proven "xor_stream" (Samples.xor_stream ~key:0x17);
  all_proven "histogram" (Samples.histogram ());
  all_proven "dedup_chunks" (Samples.dedup_chunks ~bits:12);
  all_proven "bounded_copy" (Samples.bounded_copy ())

let test_analysis_keeps_checks () =
  (* oob_probe loads at offset = len: not provable (and it does fault
     at run time), so its site must stay Checked — the analysis only
     rejects accesses that are wrong on every payload. *)
  let p = Samples.oob_probe () in
  match Vm.accesses p with
  | [ { Vm.a_bounds = `Checked; a_kind = `Load; _ } ] -> ()
  | _ -> Alcotest.fail "oob_probe should keep its one checked load"

let test_bounds_at () =
  let p = Samples.bounded_copy () in
  let accs = Vm.accesses p in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "bounds_at pc %d agrees" a.Vm.a_pc)
        true
        (Vm.bounds_at p a.Vm.a_pc = a.Vm.a_bounds))
    accs;
  (* Non-sites answer Checked: the compiler may never elide there. *)
  Alcotest.(check bool) "non-site is Checked" true (Vm.bounds_at p 0 = `Checked)

(* {1 Range-analysis probes} *)

(* Hand-built corners of the range analysis: a guard that holds on only
   one path into a load, strides ending exactly at (or one past) the
   guarded length, min_int arithmetic, a decrementing counter, a masked
   and scaled offset, nested loops. Each case pins the verdict at every
   faultable site and what the program does at a few payload lengths;
   the compiled closures must agree with the interpreter on every run,
   so a proven (check-elided) site that could fault would show up as a
   mismatch. *)
let probe insns ~sites ~runs () =
  let p = accept ~fuel:Vm.max_fuel ~scratch:8 insns in
  let site a =
    Printf.sprintf "pc %d %s %s (%s)" a.Vm.a_pc
      (match a.Vm.a_kind with
       | `Load -> "load"
       | `Store -> "store"
       | `Div -> "div")
      (match a.Vm.a_bounds with `Proven -> "proven" | `Checked -> "checked")
      a.Vm.a_range
  in
  Alcotest.(check (list string)) "site verdicts" sites
    (List.map site (Vm.accesses p));
  let code = Kpath_vm.Compile.compile p in
  List.iter
    (fun (len, expect, steps) ->
      let data = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
      let emit _ _ = () in
      let ir = Vm.exec p (Vm.new_state p) ~data ~len ~lblk:5 ~emit in
      let cr =
        Kpath_vm.Compile.exec code (Kpath_vm.Compile.new_state code) ~data
          ~len ~lblk:5 ~emit
      in
      let at what = Printf.sprintf "%s at len %d" what len in
      Alcotest.check verdict (at "interp verdict") expect ir.Vm.r_verdict;
      Alcotest.(check int) (at "interp steps") steps ir.Vm.r_steps;
      Alcotest.check verdict (at "compiled verdict") ir.Vm.r_verdict
        cr.Vm.r_verdict;
      Alcotest.(check int) (at "compiled steps") ir.Vm.r_steps cr.Vm.r_steps;
      Alcotest.(check bytes) (at "compiled payload") ir.Vm.r_data cr.Vm.r_data)
    runs

let load_fault off len pc =
  Vm.Fault
    (Printf.sprintf "payload load at %d outside %d bytes (pc %d)" off len pc)

let probes =
  let open Vm in
  [
    (* Only the guarded path has len >= 64; the unguarded one reaches
       the same load, so it stays checked. *)
    ( "join-guard",
      probe
        [ Len 0; Jge (0, Imm 64, 2); Jmp 1; Ldp (1, Imm 10); Ret ]
        ~sites:[ "pc 3 load checked (off in [10, 10])" ]
        ~runs:
          [
            (0, load_fault 10 0 3, 4);
            (5, load_fault 10 5 3, 4);
            (64, Pass, 4);
            (128, Pass, 4);
          ] );
    (* 16 trips of stride 2 reach offset 30: a len >= 31 guard proves
       it... *)
    ( "stride-edge",
      probe
        [
          Len 0; Jge (0, Imm 31, 2); Ret; Mov (1, Imm 0); Loop (Imm 16, 16);
          Ldp (2, Reg 1); Add (1, Imm 2); End; Ret;
        ]
        ~sites:[ "pc 5 load proven (off in [0, 30])" ]
        ~runs:[ (0, Pass, 3); (30, Pass, 3); (31, Pass, 53); (100, Pass, 53) ]
    );
    (* ...and len >= 30 does not: offset 30 faults at len 30. *)
    ( "stride-under",
      probe
        [
          Len 0; Jge (0, Imm 30, 2); Ret; Mov (1, Imm 0); Loop (Imm 16, 16);
          Ldp (2, Reg 1); Add (1, Imm 2); End; Ret;
        ]
        ~sites:[ "pc 5 load checked (off in [0, 30])" ]
        ~runs:[ (0, Pass, 3); (30, load_fault 30 30 5, 50); (31, Pass, 53) ]
    );
    (* The classic byte scan, Loop (Reg len). *)
    ( "len-scan",
      probe
        [
          Len 0; Mov (1, Imm 0); Loop (Reg 0, 65536); Ldp (2, Reg 1);
          Add (1, Imm 1); End; Ret;
        ]
        ~sites:[ "pc 3 load proven (off in [0, len-1])" ]
        ~runs:[ (0, Pass, 4); (1, Pass, 7); (100, Pass, 304) ] );
    (* min_int immediates through arithmetic and a guard. *)
    ( "min-int",
      probe
        [
          Mov (0, Imm min_int); Add (0, Imm 1); Jlt (0, Imm 5, 2); Ret;
          Ldp (1, Reg 0); Ret;
        ]
        ~sites:[ "pc 4 load checked (off in [-inf, 4])" ]
        ~runs:
          [
            (0, load_fault (min_int + 1) 0 4, 4);
            (10, load_fault (min_int + 1) 10 4, 4);
          ] );
    (* A counter decremented through Sub widens to top and stays
       checked. *)
    ( "dec-counter",
      probe
        [
          Len 0; Jge (0, Imm 64, 2); Ret; Mov (1, Imm 10); Loop (Imm 16, 16);
          Ldp (2, Reg 1); Sub (1, Imm 1); End; Ret;
        ]
        ~sites:[ "pc 5 load checked (off in [-inf, +inf])" ]
        ~runs:[ (0, Pass, 3); (64, load_fault (-1) 64 5, 38) ] );
    (* A len-driven scatter: load and store at the counter. *)
    ( "scatter-guard",
      probe
        [
          Len 0; Jge (0, Imm 1, 2); Ret; Mov (1, Imm 0); Loop (Reg 0, 65536);
          Ldp (2, Reg 1); Xor (2, Imm 0x5a); Stp (Reg 1, Reg 2); Add (1, Imm 1);
          End; Ret;
        ]
        ~sites:
          [
            "pc 5 load proven (off in [0, len-1])";
            "pc 7 store proven (off in [0, len-1])";
          ]
        ~runs:[ (0, Pass, 3); (1, Pass, 10); (7, Pass, 40); (300, Pass, 1505) ]
    );
    (* A masked then scaled block number: [0, 1020], multiple of 4. *)
    ( "mul-of",
      probe
        [
          Len 0; Jge (0, Imm 1024, 2); Ret; Blkno 1; And (1, Imm 0xff);
          Shl (1, Imm 2); Ldp (2, Reg 1); Ret;
        ]
        ~sites:[ "pc 6 load proven (off in [0, 1020])" ]
        ~runs:[ (1023, Pass, 3); (1024, Pass, 7); (2048, Pass, 7) ] );
    (* The counter advances in the inner body of two nested loops. *)
    ( "nested",
      probe
        [
          Len 0; Jge (0, Imm 64, 2); Ret; Mov (1, Imm 0); Loop (Imm 8, 8);
          Loop (Imm 8, 8); Ldp (2, Reg 1); Add (1, Imm 1); End; End; Ret;
        ]
        ~sites:[ "pc 6 load proven (off in [0, 63])" ]
        ~runs:[ (0, Pass, 3); (63, Pass, 3); (64, Pass, 213); (100, Pass, 213) ]
    );
  ]

let test_readonly_emit_ok () =
  ignore (accept ~context:Vm.Readonly [ Vm.Len 0; Vm.Emit (Imm 1, Reg 0) ])

let test_continue_jump_ok () =
  (* Jumping to the loop's own End is "continue" and is accepted. *)
  ignore
    (accept
       [ Vm.Loop (Imm 4, 8); Vm.Jeq (0, Imm 0, 2); Vm.Add (1, Imm 1); Vm.End ])

(* {1 Interpreter} *)

let test_alu () =
  let p =
    accept
      [
        Vm.Mov (0, Imm 7); Vm.Mul (0, Imm 6); Vm.Emit (Imm 0, Reg 0);
        Vm.Mov (1, Imm 13); Vm.Rem (1, Imm 5); Vm.Emit (Imm 1, Reg 1);
        Vm.Mov (2, Imm 1); Vm.Shl (2, Imm 10); Vm.Emit (Imm 2, Reg 2);
      ]
  in
  let r, emits = run p in
  Alcotest.check verdict "pass" Vm.Pass r.Vm.r_verdict;
  Alcotest.(check (list (pair int int)))
    "emits" [ (0, 42); (1, 3); (2, 1024) ] emits

let test_loop_clamps () =
  let counted count cap =
    let p =
      accept
        [
          Vm.Mov (0, Imm count);
          Vm.Loop (Reg 0, cap);
          Vm.Add (1, Imm 1);
          Vm.End;
          Vm.Emit (Imm 0, Reg 1);
        ]
    in
    match run p with
    | _, [ (0, n) ] -> n
    | _ -> Alcotest.fail "expected one emit"
  in
  Alcotest.(check int) "count below cap" 5 (counted 5 8);
  Alcotest.(check int) "count clamped to cap" 8 (counted 100 8);
  Alcotest.(check int) "zero count skips body" 0 (counted 0 8);
  Alcotest.(check int) "negative count skips body" 0 (counted (-3) 8)

let test_nested_loops () =
  let p =
    accept
      [
        Vm.Loop (Imm 3, 4);
        Vm.Loop (Imm 5, 8);
        Vm.Add (0, Imm 1);
        Vm.End;
        Vm.End;
        Vm.Emit (Imm 0, Reg 0);
      ]
  in
  let _, emits = run p in
  Alcotest.(check (list (pair int int))) "3*5 iterations" [ (0, 15) ] emits

let test_payload_fault () =
  let p = accept [ Vm.Len 0; Vm.Ldp (1, Reg 0); Vm.Ret ] in
  let r, _ = run p in
  match r.Vm.r_verdict with
  | Vm.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_runtime_div_fault () =
  let p = accept [ Vm.Mov (0, Imm 9); Vm.Div (0, Reg 1); Vm.Ret ] in
  let r, _ = run p in
  match r.Vm.r_verdict with
  | Vm.Fault m ->
    Alcotest.(check bool) "names the division" true
      (String.length m >= 8 && String.sub m 0 8 = "division")
  | _ -> Alcotest.fail "expected fault"

let test_verdicts () =
  let r, _ = run (accept [ Vm.Drop ]) in
  Alcotest.check verdict "drop" Vm.Drop r.Vm.r_verdict;
  let r, _ = run (accept [ Vm.Blkno 0; Vm.Redirect (Reg 0) ]) ~lblk:3 in
  Alcotest.check verdict "redirect" (Vm.Redirect 3) r.Vm.r_verdict;
  let r, _ = run (accept [ Vm.Ret; Vm.Drop ]) in
  Alcotest.check verdict "ret before drop" Vm.Pass r.Vm.r_verdict

let test_cow_transform () =
  let data = Bytes.of_string "abcdef" in
  let p =
    accept [ Vm.Ldp (0, Imm 0); Vm.Xor (0, Imm 0x20); Vm.Stp (Imm 0, Reg 0) ]
  in
  let r =
    Vm.exec p (Vm.new_state p) ~data ~len:6 ~lblk:0 ~emit:(fun _ _ -> ())
  in
  Alcotest.(check bool) "copied" false (r.Vm.r_data == data);
  Alcotest.(check string) "original untouched" "abcdef" (Bytes.to_string data);
  Alcotest.(check string) "transform applied" "Abcdef"
    (Bytes.to_string r.Vm.r_data);
  (* No store: the input buffer itself comes back (zero copies). *)
  let p2 = accept [ Vm.Ldp (0, Imm 0) ] in
  let r2 =
    Vm.exec p2 (Vm.new_state p2) ~data ~len:6 ~lblk:0 ~emit:(fun _ _ -> ())
  in
  Alcotest.(check bool) "not copied" true (r2.Vm.r_data == data)

let test_scratch_persists () =
  let p =
    accept ~scratch:1
      [ Vm.Lds (0, 0); Vm.Add (0, Imm 1); Vm.Sts (0, Reg 0);
        Vm.Emit (Imm 0, Reg 0) ]
  in
  let st = Vm.new_state p in
  let data = Bytes.make 4 'x' in
  let seen = ref [] in
  for _ = 1 to 3 do
    ignore
      (Vm.exec p st ~data ~len:4 ~lblk:0 ~emit:(fun _ v -> seen := v :: !seen))
  done;
  Alcotest.(check (list int)) "counter advances" [ 3; 2; 1 ] !seen

let test_indexed_scratch_masks () =
  (* Ldsx/Stsx mask the index register with [scratch - 1]: on a 4-cell
     arena index 13 is cell 1, and a negative index wraps the same way
     (-3 land 3 = 1). A power-of-two arena is exactly what makes the
     mask a bounds proof, which is why the verifier demands one. *)
  let p =
    accept ~scratch:4
      [ Vm.Mov (0, Imm 13); Vm.Stsx (0, Imm 77); Vm.Lds (2, 1);
        Vm.Emit (Imm 0, Reg 2); Vm.Mov (3, Imm (-3)); Vm.Ldsx (4, 3);
        Vm.Emit (Imm 1, Reg 4); Vm.Ret ]
  in
  let _, emits = run p in
  Alcotest.(check (list (pair int int)))
    "masked cells round-trip"
    [ (0, 77); (1, 77) ]
    emits

(* {1 The checksum sample matches the built-in formula} *)

let reference_checksum ~lblk data len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.get data i)) * 0x01000193 land 0xffffffff
  done;
  (!h lxor ((lblk + 1) * 0x9e3779b9)) land 0xffffffff

let test_checksum_sample () =
  let p = Samples.checksum () in
  let rng = ref 42 in
  for lblk = 0 to 5 do
    let len = 1 + (lblk * 97) in
    let data =
      Bytes.init len (fun _ ->
          rng := (!rng * 1103515245) + 12345;
          Char.chr (!rng lsr 16 land 0xff))
    in
    let got = ref (-1) in
    let r =
      Vm.exec p (Vm.new_state p) ~data ~len ~lblk ~emit:(fun k v ->
          if k = 0 then got := v)
    in
    Alcotest.check verdict "pass" Vm.Pass r.Vm.r_verdict;
    Alcotest.(check int)
      (Printf.sprintf "digest lblk=%d" lblk)
      (reference_checksum ~lblk data len)
      !got
  done

let test_xor_mask_involution () =
  let p = Kpath_vm.Samples.xor_mask ~key:0x5a in
  let data = Bytes.of_string "splice graph payload" in
  let len = Bytes.length data in
  let once =
    Vm.exec p (Vm.new_state p) ~data ~len ~lblk:0 ~emit:(fun _ _ -> ())
  in
  let twice =
    Vm.exec p (Vm.new_state p) ~data:once.Vm.r_data ~len ~lblk:0
      ~emit:(fun _ _ -> ())
  in
  Alcotest.(check bool) "masked differs" false (Bytes.equal once.Vm.r_data data);
  Alcotest.(check string) "self-inverse" (Bytes.to_string data)
    (Bytes.to_string twice.Vm.r_data)

let test_samples_verify () =
  ignore (Samples.checksum ());
  ignore (Samples.tee_hash ());
  ignore (Samples.dropper ~modulo:4);
  ignore (Samples.router ~fanout:3);
  ignore (Samples.xor_mask ~key:0xff);
  ignore (Samples.oob_probe ());
  ignore (Samples.xor_stream ~key:0x17);
  ignore (Samples.histogram ());
  ignore (Samples.dedup_chunks ~bits:1);
  ignore (Samples.dedup_chunks ~bits:24);
  ignore (Samples.bounded_copy ());
  (match Samples.dedup_chunks ~bits:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dedup_chunks must reject bits = 0");
  let r, _ = run (Samples.oob_probe ()) in
  match r.Vm.r_verdict with
  | Vm.Fault _ -> ()
  | _ -> Alcotest.fail "oob_probe should fault"

(* {1 Assembler} *)

let test_asm_round_trip () =
  let check_rt name p =
    match Asm.load (Asm.print p) with
    | Error e -> Alcotest.failf "%s: reassembly failed: %s" name e
    | Ok p' ->
      Alcotest.(check bool)
        (name ^ " round-trips") true
        (Vm.insns p = Vm.insns p' && Vm.fuel p = Vm.fuel p'
        && Vm.scratch_cells p = Vm.scratch_cells p'
        && Vm.prog_context p = Vm.prog_context p')
  in
  check_rt "checksum" (Samples.checksum ());
  check_rt "tee_hash (readonly)" (Samples.tee_hash ());
  check_rt "dropper (jumpy)" (Samples.dropper ~modulo:7);
  check_rt "scratchy"
    (accept ~scratch:2
       [ Vm.Lds (0, 1); Vm.Jlt (0, Imm 5, 2); Vm.Sts (1, Reg 0); Vm.Ret ])

let test_asm_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "missing fuel" true (is_err (Asm.parse "    ret\n"));
  Alcotest.(check bool) "unknown label" true
    (is_err (Asm.parse "fuel 10\n    jmp nowhere\n"));
  Alcotest.(check bool) "bad mnemonic" true
    (is_err (Asm.parse "fuel 10\n    frob r1\n"));
  Alcotest.(check bool) "bad operand" true
    (is_err (Asm.parse "fuel 10\n    mov r1, banana\n"));
  Alcotest.(check bool) "duplicate label" true
    (is_err (Asm.parse "fuel 10\nx:\n    ret\nx:\n    ret\n"));
  (* Verifier rejections surface through load with the rule name. *)
  match Asm.load "fuel 10\nback:\n    jmp back\n" with
  | Error e ->
    Alcotest.(check bool) "names the rule" true
      (String.length e >= 14 && String.sub e 0 14 = "unbounded-loop")
  | Ok _ -> Alcotest.fail "backward jump must be rejected"

(* {1 Fixture corpus}

   Every *.kvm under vm_fixtures declares its expectation in the first
   line: "; expect: ok" or "; expect: <rule>". The same corpus runs
   under the @lint alias (test/vm_fixtures/check.ml). *)

let corpus_expectation path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  let prefix = "; expect:" in
  let n = String.length prefix in
  if String.length line <= n || String.sub line 0 n <> prefix then
    Alcotest.failf "%s: first line must be %S" path prefix
  else String.trim (String.sub line n (String.length line - n))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_corpus () =
  let dir = "vm_fixtures" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".kvm")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (List.length files >= 6);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let expected = corpus_expectation path in
      match Asm.parse (read_file path) with
      | Error e -> Alcotest.failf "%s: does not assemble: %s" f e
      | Ok spec -> (
        match (Vm.verify spec, expected) with
        | Ok _, "ok" -> ()
        | Ok _, rule -> Alcotest.failf "%s: accepted, expected %s" f rule
        | Error d, "ok" ->
          Alcotest.failf "%s: rejected: %s" f (Vm.diag_to_string d)
        | Error d, rule ->
          Alcotest.(check string) (f ^ " rule") rule d.Vm.d_rule))
    files

(* {1 Property: accepted programs halt within their fuel}

   The generator builds structurally valid programs (properly nested
   loops, in-region forward jumps); the property asserts the verifier
   accepts them and that execution over random payloads terminates
   within the statically computed worst case. *)

let gen_operand =
  QCheck.Gen.(
    frequency
      [ (3, map (fun r -> Vm.Reg r) (int_range 0 (Vm.max_regs - 1)));
        (2, map (fun k -> Vm.Imm k) (int_range (-8) 300)) ])

let gen_simple =
  QCheck.Gen.(
    let reg = int_range 0 (Vm.max_regs - 1) in
    frequency
      [
        (3, map2 (fun r o -> Vm.Mov (r, o)) reg gen_operand);
        (3, map2 (fun r o -> Vm.Add (r, o)) reg gen_operand);
        (2, map2 (fun r o -> Vm.Xor (r, o)) reg gen_operand);
        (1, map2 (fun r o -> Vm.Mul (r, o)) reg gen_operand);
        (1, map2 (fun r k -> Vm.Div (r, Imm k)) reg (int_range 1 9));
        (1, map2 (fun r o -> Vm.Shr (r, o)) reg gen_operand);
        (1, map (fun r -> Vm.Len r) reg);
        (1, map (fun r -> Vm.Blkno r) reg);
        (2, map2 (fun r o -> Vm.Ldp (r, o)) reg gen_operand);
        (1, map2 (fun a b -> Vm.Stp (a, b)) gen_operand gen_operand);
        (1, map2 (fun r off -> Vm.Lds (r, off)) reg (int_range 0 3));
        (1, map2 (fun off o -> Vm.Sts (off, o)) (int_range 0 3) gen_operand);
        (* Indexed scratch: the property specs use power-of-two arenas,
           so these always verify. *)
        (1, map2 (fun r ri -> Vm.Ldsx (r, ri)) reg reg);
        (1, map2 (fun ri o -> Vm.Stsx (ri, o)) reg gen_operand);
        (1, map2 (fun a b -> Vm.Emit (a, b)) gen_operand gen_operand);
      ])

let rec gen_body depth budget =
  QCheck.Gen.(
    if budget <= 0 then return []
    else
      frequency
        ([
           ( 6,
             let* i = gen_simple in
             let* rest = gen_body depth (budget - 1) in
             return (i :: rest) );
           ( 1,
             (* A guarded forward jump over [k] simple instructions. *)
             let* r = int_range 0 (Vm.max_regs - 1) in
             let* o = gen_operand in
             let* k = int_range 1 3 in
             let* skipped = list_repeat k gen_simple in
             let* rest = gen_body depth (budget - k - 1) in
             return ((Vm.Jne (r, o, k + 1) :: skipped) @ rest) );
         ]
        @
        if depth >= Vm.max_loop_depth - 1 then []
        else
          [
            ( 2,
              let* count = gen_operand in
              let* cap = int_range 1 12 in
              let* body = gen_body (depth + 1) (budget / 2) in
              let* rest = gen_body depth (budget / 2) in
              return ((Vm.Loop (count, cap) :: body) @ (Vm.End :: rest)) );
          ]))

let arb_program =
  QCheck.make
    ~print:(fun (insns, payload) ->
      Printf.sprintf "%d instructions, %d payload bytes" (List.length insns)
        (String.length payload))
    QCheck.Gen.(
      let* budget = int_range 0 40 in
      let* insns = gen_body 0 budget in
      let* payload = string_size ~gen:printable (int_range 0 512) in
      return (insns, payload))

let prop_accepted_halts =
  QCheck.Test.make ~count:300 ~name:"accepted programs halt within fuel"
    arb_program (fun (insns, payload) ->
      match Vm.verify (spec ~fuel:Vm.max_fuel ~scratch:4 insns) with
      | Error { Vm.d_rule = "range-oob"; _ } ->
        (* The generator freely emits accesses at constant negative
           offsets; the range analysis rightly rejects those programs
           as provably out of bounds. Every other rule would be a
           generator bug. *)
        true
      | Error d ->
        QCheck.Test.fail_reportf "generator produced a rejected program: %s"
          (Vm.diag_to_string d)
      | Ok p ->
        let data = Bytes.of_string payload in
        let r =
          Vm.exec p (Vm.new_state p) ~data ~len:(Bytes.length data) ~lblk:7
            ~emit:(fun _ _ -> ())
        in
        if r.Vm.r_steps > Vm.worst_cost p then
          QCheck.Test.fail_reportf "ran %d steps, worst case %d" r.Vm.r_steps
            (Vm.worst_cost p)
        else if r.Vm.r_verdict = Vm.Fault "fuel exhausted" then
          QCheck.Test.fail_reportf "verified program exhausted its fuel"
        else true)

let prop_verify_total =
  (* Wild instruction streams: verify always answers, and whatever it
     accepts still terminates. *)
  let gen_wild =
    QCheck.Gen.(
      let gi = int_range (-3) 70 in
      let any_op =
        oneof [ map (fun r -> Vm.Reg r) gi; map (fun k -> Vm.Imm k) gi ]
      in
      frequency
        [
          (4, gen_simple);
          (1, map2 (fun a b -> Vm.Div (a, b)) gi any_op);
          (1, map (fun off -> Vm.Jmp off) (int_range (-5) 10));
          ( 1,
            map2 (fun c cap -> Vm.Loop (c, cap)) any_op (int_range (-1) 20) );
          (1, return Vm.End);
          (1, return (Vm.Drop : Vm.insn));
          (1, map (fun o : Vm.insn -> Vm.Redirect o) any_op);
          (1, return Vm.Ret);
        ])
  in
  QCheck.Test.make ~count:500 ~name:"verify is total; accepted still halts"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) gen_wild))
    (fun insns ->
      match Vm.verify (spec ~fuel:10_000 ~scratch:2 insns) with
      | Error _ -> true
      | Ok p ->
        let data = Bytes.make 64 '\x2a' in
        let r =
          Vm.exec p (Vm.new_state p) ~data ~len:64 ~lblk:1
            ~emit:(fun _ _ -> ())
        in
        r.Vm.r_steps <= Vm.worst_cost p)

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case ("reject: " ^ name) `Quick f)
    rejections
  @ [
      Alcotest.test_case "rejection carries the pc" `Quick test_rejection_pc;
      Alcotest.test_case "range-oob names rule, pc and interval" `Quick
        test_range_oob_pc;
      Alcotest.test_case "range analysis proves the sample loops" `Quick
        test_analysis_proves_samples;
      Alcotest.test_case "unprovable access stays checked" `Quick
        test_analysis_keeps_checks;
      Alcotest.test_case "bounds_at mirrors the verdict table" `Quick
        test_bounds_at;
    ]
  @ List.map
      (fun (name, f) -> Alcotest.test_case ("range probe: " ^ name) `Quick f)
      probes
  @ [
      Alcotest.test_case "readonly may emit" `Quick test_readonly_emit_ok;
      Alcotest.test_case "continue jump accepted" `Quick test_continue_jump_ok;
      Alcotest.test_case "alu" `Quick test_alu;
      Alcotest.test_case "loop count clamps to cap" `Quick test_loop_clamps;
      Alcotest.test_case "nested loops" `Quick test_nested_loops;
      Alcotest.test_case "payload load faults out of bounds" `Quick
        test_payload_fault;
      Alcotest.test_case "runtime zero divisor faults" `Quick
        test_runtime_div_fault;
      Alcotest.test_case "verdicts" `Quick test_verdicts;
      Alcotest.test_case "copy-on-write transform" `Quick test_cow_transform;
      Alcotest.test_case "scratch persists across blocks" `Quick
        test_scratch_persists;
      Alcotest.test_case "indexed scratch masks into the arena" `Quick
        test_indexed_scratch_masks;
      Alcotest.test_case "checksum sample matches built-in formula" `Quick
        test_checksum_sample;
      Alcotest.test_case "xor mask is self-inverse" `Quick
        test_xor_mask_involution;
      Alcotest.test_case "all samples verify" `Quick test_samples_verify;
      Alcotest.test_case "assembler round trip" `Quick test_asm_round_trip;
      Alcotest.test_case "assembler errors" `Quick test_asm_errors;
      Alcotest.test_case "fixture corpus" `Quick test_corpus;
      QCheck_alcotest.to_alcotest prop_accepted_halts;
      QCheck_alcotest.to_alcotest prop_verify_total;
    ]
