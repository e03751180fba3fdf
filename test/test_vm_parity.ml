(* Differential suite: the closure-compiled VM backend must be
   observationally identical to the interpreter — same verdict, same
   r_steps (CPU accounting), same emit sequence, same payload bytes,
   same copy-on-write identity on r_data, under each copy-on-write
   destination a caller can name — over the canned samples,
   the fixture ok-corpus, hand-picked fault cases, every loop idiom's
   fast path and fallback, generic fused loops no idiom matches,
   random accepted programs and random idiom-shaped ones. The suite
   also pins the compilation tier each sample lands on. CI runs it on
   its own as the vm-parity step. *)

module Vm = Kpath_vm.Vm
module Compile = Kpath_vm.Compile
module Asm = Kpath_vm.Asm
module Samples = Kpath_vm.Samples

let pp_verdict fmt = function
  | Vm.Pass -> Format.fprintf fmt "Pass"
  | Vm.Drop -> Format.fprintf fmt "Drop"
  | Vm.Redirect k -> Format.fprintf fmt "Redirect %d" k
  | Vm.Fault m -> Format.fprintf fmt "Fault %S" m

(* The three copy-on-write destinations a caller can name ({!Vm.exec}'s
   [into]): none (a fresh clone), the input itself (owned: stores land
   in place), or a lent area of the input's length, prefilled with junk
   so a short copy would show. *)
type dest = Shared | Owned | Lent

let dests = [ Shared; Owned; Lent ]

let dest_name = function
  | Shared -> "shared"
  | Owned -> "owned"
  | Lent -> "lent area"

(* One backend's run of [p] over [src] with destination [dest]: the
   input buffer, the lent area (if any), the run and its emits. *)
let run_backend exec dest src lblk =
  let data = Bytes.of_string src in
  let into =
    match dest with
    | Shared -> None
    | Owned -> Some data
    | Lent -> Some (Bytes.make (Bytes.length data) '\xa5')
  in
  let emits = ref [] in
  let r =
    exec into ~data ~len:(Bytes.length data) ~lblk ~emit:(fun k v ->
        emits := (k, v) :: !emits)
  in
  (data, into, r, List.rev !emits)

(* Run [p] under both backends once per destination, each destination
   with its own state pair, and return the first difference found:
   between the backends (verdict, steps, emits, payload bytes,
   copy-on-write identity), or between a destination and the shared
   run's contract. An owned run's stores land in its input; a lent
   area is the result exactly when the shared run cloned, holding the
   clone's bytes, and the input stays untouched. *)
let parity_runs p =
  let code = Compile.compile p in
  let states =
    List.map (fun d -> (d, Vm.new_state p, Compile.new_state code)) dests
  in
  fun src lblk ->
    let shared = ref None in
    List.fold_left
      (fun err (dest, ist, cst) ->
        match err with
        | Some _ -> err
        | None ->
          let idata, iinto, ir, iem =
            run_backend (fun into -> Vm.exec ?into p ist) dest src lblk
          in
          let cdata, cinto, cr, cem =
            run_backend (fun into -> Compile.exec ?into code cst) dest src lblk
          in
          let diff fmt =
            Printf.ksprintf (fun m -> Some (dest_name dest ^ ": " ^ m)) fmt
          in
          let is_area into d =
            match into with Some a -> d == a | None -> false
          in
          let sbytes, scloned =
            match !shared with
            | Some v -> v
            | None ->
              let v = (Bytes.to_string ir.Vm.r_data, ir.Vm.r_data != idata) in
              shared := Some v;
              v
          in
          if ir.Vm.r_verdict <> cr.Vm.r_verdict then
            diff "verdicts differ: %s vs %s"
              (Format.asprintf "%a" pp_verdict ir.Vm.r_verdict)
              (Format.asprintf "%a" pp_verdict cr.Vm.r_verdict)
          else if ir.Vm.r_steps <> cr.Vm.r_steps then
            diff "steps differ: %d vs %d" ir.Vm.r_steps cr.Vm.r_steps
          else if iem <> cem then
            diff "emit sequences differ (%d vs %d emits)" (List.length iem)
              (List.length cem)
          else if not (Bytes.equal ir.Vm.r_data cr.Vm.r_data) then
            diff "payloads differ"
          else if (ir.Vm.r_data == idata) <> (cr.Vm.r_data == cdata) then
            diff "copy-on-write identity differs"
          else if Bytes.to_string ir.Vm.r_data <> sbytes then
            diff "payload differs from the shared run's"
          else
            match dest with
            | Shared ->
              if Bytes.to_string idata <> src || Bytes.to_string cdata <> src
              then diff "shared input mutated"
              else None
            | Owned ->
              if ir.Vm.r_data != idata || cr.Vm.r_data != cdata then
                diff "owned run did not stay in its input"
              else None
            | Lent ->
              if Bytes.to_string idata <> src || Bytes.to_string cdata <> src
              then diff "input mutated under a lent area"
              else if
                is_area iinto ir.Vm.r_data <> scloned
                || is_area cinto cr.Vm.r_data <> scloned
              then diff "area used %b, shared run cloned %b"
                  (is_area iinto ir.Vm.r_data) scloned
              else if (not scloned) && ir.Vm.r_data != idata then
                diff "unused area, but the result is not the input"
              else None)
      None states

(* Run [p] under the interpreter and the compiler over the same block
   sequence (one persistent state per backend and destination, so
   scratch carry-over is compared too) and fail on any observable that
   differs, so any divergence is a compiler bug by construction. [what]
   names the program in failures. *)
let assert_parity ?(what = "prog") p blocks =
  let run = parity_runs p in
  List.iteri
    (fun i (src, lblk) ->
      match run src lblk with
      | None -> ()
      | Some m -> Alcotest.failf "%s block %d: %s" what i m)
    blocks

let block n seed =
  String.init n (fun i -> Char.chr ((seed + (i * 31) + (i / 7)) land 0xff))

let standard_blocks =
  [ (block 512 3, 0); (block 64 91, 1); ("", 2); (block 300 17, 12345) ]

(* One block of the filter-graph workload's size, for the idiom tests:
   the host scans see the word counts and boundary densities they run
   at in the benchmark. *)
let workload_block = (block 8192 41, 6)

(* {1 Samples and fixtures} *)

let test_samples () =
  List.iter
    (fun (what, p) -> assert_parity ~what p standard_blocks)
    [
      ("checksum", Samples.checksum ());
      ("tee_hash", Samples.tee_hash ());
      ("dropper", Samples.dropper ~modulo:3);
      ("router", Samples.router ~fanout:4);
      ("xor_mask", Samples.xor_mask ~key:0x5a);
      ("oob_probe", Samples.oob_probe ());
      ("xor_stream", Samples.xor_stream ~key:0x6b);
      ("histogram", Samples.histogram ());
      ("dedup_chunks", Samples.dedup_chunks ~bits:4);
      ("bounded_copy", Samples.bounded_copy ());
    ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_ok_corpus () =
  let dir = "vm_fixtures" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".kvm")
    |> List.sort String.compare
  in
  let ran = ref 0 in
  List.iter
    (fun f ->
      match Asm.load (read_file (Filename.concat dir f)) with
      | Error _ -> ()  (* the rejected corpus is test_vm's business *)
      | Ok p ->
        incr ran;
        assert_parity ~what:f p standard_blocks)
    files;
  Alcotest.(check bool) "ok-corpus is non-empty" true (!ran >= 2)

(* {1 Fault and verdict corners} *)

let test_fault_parity () =
  (* Each case must fault with a byte-identical reason and identical
     partial step count under both backends. *)
  let cases =
    [
      ( "payload load oob",
        [ Vm.Len 0; Vm.Ldp (1, Reg 0); Vm.Ret ] );
      ( "payload store oob",
        (* The offset is -lblk - 1: always negative at run time, but
           opaque to the range analysis (Blkno is unbounded), so the
           program stays verifiable and faults in both backends. *)
        [
          Vm.Blkno 0;
          Vm.Mov (1, Imm 0);
          Vm.Sub (1, Reg 0);
          Vm.Sub (1, Imm 1);
          Vm.Stp (Reg 1, Imm 7);
          Vm.Ret;
        ] );
      ( "div by zero",
        [ Vm.Mov (0, Imm 9); Vm.Mov (1, Imm 0); Vm.Div (0, Reg 1); Vm.Ret ] );
      ( "rem by zero mid-loop",
        [
          Vm.Mov (0, Imm 4);
          Vm.Mov (1, Imm 2);
          Vm.Loop (Imm 8, 8);
          Vm.Sub (1, Imm 1);
          Vm.Rem (0, Reg 1);
          Vm.End;
          Vm.Ret;
        ] );
    ]
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = 1000; s_scratch = 0;
          s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p standard_blocks)
    cases

let test_verdict_parity () =
  let progs =
    [
      ("drop", [ (Vm.Drop : Vm.insn) ]);
      ("redirect reg", [ Vm.Blkno 0; Vm.Rem (0, Imm 3); Vm.Redirect (Reg 0) ]);
      ("redirect imm", [ Vm.Redirect (Imm 2) ]);
      ("empty", []);
      ( "jump skips drop",
        [ Vm.Len 0; Vm.Jge (0, Imm 1, 2); Vm.Drop; Vm.Ret ] );
      ( "scratch carries across blocks",
        [ Vm.Lds (0, 0); Vm.Add (0, Imm 1); Vm.Sts (0, Reg 0);
          Vm.Emit (Imm 7, Reg 0); Vm.Ret ] );
    ]
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = 1000; s_scratch = 2;
          s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p standard_blocks)
    progs

let test_fold_idiom () =
  (* The compiler recognizes the byte-scan multiplicative fold and runs
     it register-resident behind an entry bounds test. Exercise the
     fast path (count within bounds, zero and mid-payload starts), the
     fallback (overruns and negative starts must fault bit-identically
     mid-loop), and near-miss shapes that must not be specialized. *)
  let fold ~start ~loop ~body =
    [ Vm.Len 1; Vm.Mov (2, Imm 0x811c9dc5); Vm.Mov (0, Imm start); loop ]
    @ body
    @ [ Vm.End; Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 3);
        Vm.Emit (Imm 2, Reg 0); Vm.Ret ]
  in
  let fnv_masked m =
    [ Vm.Ldp (3, Reg 0); Vm.Xor (2, Reg 3); Vm.Mul (2, Imm 0x01000193);
      Vm.And (2, Imm m); Vm.Add (0, Imm 1) ]
  in
  let fnv_body = fnv_masked 0xffffffff in
  let cases =
    [
      ( "fold whole payload",
        fold ~start:0 ~loop:(Vm.Loop (Reg 1, 65536)) ~body:fnv_body );
      ( "fold under a mask that is not a low-bit mask",
        fold ~start:0 ~loop:(Vm.Loop (Reg 1, 65536))
          ~body:(fnv_masked 0xff00ff00) );
      ( "fold under the all-ones mask",
        fold ~start:3 ~loop:(Vm.Loop (Reg 1, 65536)) ~body:(fnv_masked (-1)) );
      ( "fold overruns payload",
        fold ~start:0 ~loop:(Vm.Loop (Imm 600, 65536)) ~body:fnv_body );
      ( "fold from mid-payload",
        fold ~start:100 ~loop:(Vm.Loop (Imm 100, 65536)) ~body:fnv_body );
      ( "fold from negative offset",
        fold ~start:(-1) ~loop:(Vm.Loop (Imm 5, 65536)) ~body:fnv_body );
      ( "near miss: counter is not the offset",
        fold ~start:0
          ~loop:(Vm.Loop (Imm 8, 65536))
          ~body:
            [ Vm.Ldp (3, Reg 0); Vm.Xor (2, Reg 3);
              Vm.Mul (2, Imm 0x01000193); Vm.And (2, Imm 0xffffffff);
              Vm.Add (4, Imm 1) ] );
      ( "near miss: byte register is the accumulator",
        fold ~start:0
          ~loop:(Vm.Loop (Imm 8, 65536))
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Xor (2, Reg 2);
              Vm.Mul (2, Imm 0x01000193); Vm.And (2, Imm 0xffffffff);
              Vm.Add (0, Imm 1) ] );
    ]
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 0; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p (standard_blocks @ [ workload_block ]))
    cases

let test_scatter_idiom () =
  (* The scatter/store idiom rewrites Ldp/transform/Stp/Add loops into
     one entry bounds test plus a host loop writing the copy-on-write
     clone directly. Exercise every transform op, immediate and
     register-held keys, mid-payload starts, overruns that fault
     mid-loop after partial writes, and near-miss shapes that must stay
     on the generic per-store-checked path — including a store that
     bounds-faults before the clone would happen, so the CoW hoist may
     not clone early. xor, and and or run eight bytes per step: keys
     with bits above the low byte, and every start and count that
     splits a scan into words and a byte tail, check the word
     transform against the interpreter's byte loop. *)
  let scatter ?(pre = []) ~start ~loop ~body () =
    [ Vm.Len 1 ] @ pre
    @ [ Vm.Mov (0, Imm start); loop ]
    @ body
    @ [ Vm.End; Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 0); Vm.Ret ]
  in
  let body op = [ Vm.Ldp (2, Reg 0); op; Vm.Stp (Reg 0, Reg 2); Vm.Add (0, Imm 1) ] in
  let whole = Vm.Loop (Reg 1, 65536) in
  let cases =
    [
      ("scatter xor whole payload", scatter ~start:0 ~loop:whole ~body:(body (Vm.Xor (2, Imm 0x5a))) ());
      ("scatter add whole payload", scatter ~start:0 ~loop:whole ~body:(body (Vm.Add (2, Imm 0x21))) ());
      ("scatter sub whole payload", scatter ~start:0 ~loop:whole ~body:(body (Vm.Sub (2, Imm 0x13))) ());
      ("scatter and whole payload", scatter ~start:0 ~loop:whole ~body:(body (Vm.And (2, Imm 0x7f))) ());
      ("scatter or whole payload", scatter ~start:0 ~loop:whole ~body:(body (Vm.Or (2, Imm 0x80))) ());
      ( "scatter with register-held key",
        scatter ~pre:[ Vm.Mov (4, Imm 0xa7) ] ~start:0 ~loop:whole
          ~body:(body (Vm.Xor (2, Reg 4))) () );
      ( "scatter from mid-payload",
        scatter ~start:100 ~loop:(Vm.Loop (Imm 150, 65536))
          ~body:(body (Vm.Xor (2, Imm 0x33))) () );
      ( "scatter overruns payload",
        scatter ~start:0 ~loop:(Vm.Loop (Imm 600, 65536))
          ~body:(body (Vm.Xor (2, Imm 0x5a))) () );
      ( "scatter from negative offset",
        scatter ~start:(-1) ~loop:(Vm.Loop (Imm 5, 65536))
          ~body:(body (Vm.Xor (2, Imm 0x5a))) () );
      ( "scatter store faults before the clone",
        (* First Stp is out of bounds: the bounds check fires before the
           copy-on-write clone, so the input must stay aliased. *)
        scatter ~pre:[ Vm.Mov (4, Imm 1000) ] ~start:0 ~loop:whole
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Xor (2, Imm 3); Vm.Stp (Reg 4, Reg 2);
              Vm.Add (0, Imm 1) ]
          () );
      ( "near miss: store offset is not the counter",
        scatter ~pre:[ Vm.Mov (3, Imm 0) ] ~start:0 ~loop:whole
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Xor (2, Imm 1); Vm.Stp (Reg 3, Reg 2);
              Vm.Add (0, Imm 1) ]
          () );
      ( "near miss: key register is the byte register",
        scatter ~start:0 ~loop:whole ~body:(body (Vm.Xor (2, Reg 2))) () );
      ( "near miss: counter strides by 2",
        scatter ~start:0
          ~loop:(Vm.Loop (Imm 100, 65536))
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Xor (2, Imm 9); Vm.Stp (Reg 0, Reg 2);
              Vm.Add (0, Imm 2) ]
          () );
    ]
  in
  let word_ops =
    [ ("xor", fun (r, o) -> Vm.Xor (r, o));
      ("and", fun (r, o) -> Vm.And (r, o));
      ("or", fun (r, o) -> Vm.Or (r, o)) ]
  in
  let wide_keys =
    List.concat_map
      (fun (opname, op) ->
        [ ( "scatter " ^ opname ^ " with key 0x1a7",
            scatter ~start:0 ~loop:whole ~body:(body (op (2, Vm.Imm 0x1a7))) ()
          );
          ( "scatter " ^ opname ^ " with key 0x1a7 in a register",
            scatter ~pre:[ Vm.Mov (4, Imm 0x1a7) ] ~start:0 ~loop:whole
              ~body:(body (op (2, Vm.Reg 4))) () ) ])
      word_ops
  in
  let splits =
    List.concat_map
      (fun (opname, op) ->
        List.concat_map
          (fun start ->
            List.init 17 (fun c ->
                let count = c + 1 in
                ( Printf.sprintf "scatter %s from %d, %d bytes" opname start
                    count,
                  scatter ~start ~loop:(Vm.Loop (Imm count, 65536))
                    ~body:(body (op (2, Vm.Imm 0x1a7))) () )))
          [ 1; 2; 3; 4; 5; 6; 7 ])
      word_ops
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 0; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p (standard_blocks @ [ workload_block ]))
    (cases @ wide_keys @ splits)

let test_histogram_idiom () =
  (* The histogram idiom turns Ldp/Ldsx/Add/Stsx/Add loops into host
     array increments over the scratch arena; the verifier's
     power-of-two proof is what justifies the unchecked indexing.
     After the counted loop every program dumps the whole arena through
     a second (generic) loop so scratch contents take part in parity.
     Cover the arena at its static bound (a block of 0xff bytes hits
     the last cell of a 256-cell table), masked wrap-around on small
     arenas, the degenerate 1-cell arena, overruns and negative starts
     on the fallback path, and near misses. *)
  let hist ~scratch ~start ~loop ~body =
    let insns =
      [ Vm.Len 1; Vm.Mov (0, Imm start); loop ]
      @ body
      @ [ Vm.End; Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 3);
          Vm.Emit (Imm 2, Reg 0); Vm.Mov (4, Imm 0);
          Vm.Loop (Imm scratch, 1024); Vm.Ldsx (5, 4);
          Vm.Emit (Imm 9, Reg 5); Vm.Add (4, Imm 1); Vm.End; Vm.Ret ]
    in
    (scratch, insns)
  in
  let body =
    [ Vm.Ldp (2, Reg 0); Vm.Ldsx (3, 2); Vm.Add (3, Imm 1);
      Vm.Stsx (2, Reg 3); Vm.Add (0, Imm 1) ]
  in
  let whole = Vm.Loop (Reg 1, 65536) in
  let cases =
    [
      ("histogram over 256 cells", hist ~scratch:256 ~start:0 ~loop:whole ~body);
      ("histogram wraps a 16-cell arena", hist ~scratch:16 ~start:0 ~loop:whole ~body);
      ("histogram into a single cell", hist ~scratch:1 ~start:0 ~loop:whole ~body);
      ( "histogram overruns payload",
        hist ~scratch:256 ~start:0 ~loop:(Vm.Loop (Imm 600, 65536)) ~body );
      ( "histogram from negative offset",
        hist ~scratch:256 ~start:(-1) ~loop:(Vm.Loop (Imm 5, 65536)) ~body );
      ( "near miss: count register aliases the byte register",
        hist ~scratch:256 ~start:0 ~loop:whole
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Ldsx (2, 2); Vm.Add (2, Imm 1);
              Vm.Stsx (2, Reg 2); Vm.Add (0, Imm 1) ] );
      ( "near miss: store indexed by the counter",
        hist ~scratch:256 ~start:0 ~loop:whole
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Ldsx (3, 2); Vm.Add (3, Imm 1);
              Vm.Stsx (0, Reg 3); Vm.Add (0, Imm 1) ] );
      ( "near miss: increment is not 1",
        hist ~scratch:256 ~start:0 ~loop:whole
          ~body:
            [ Vm.Ldp (2, Reg 0); Vm.Ldsx (3, 2); Vm.Add (3, Imm 2);
              Vm.Stsx (2, Reg 3); Vm.Add (0, Imm 1) ] );
    ]
  in
  let blocks =
    standard_blocks @ [ (String.make 9 '\xff', 77); workload_block ]
  in
  List.iter
    (fun (what, (scratch, insns)) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = scratch; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p blocks)
    cases

let test_rolling_idiom () =
  (* The rolling-hash idiom recognizes the content-defined-chunking
     region at its Loop — the conditional Emit keeps the body from ever
     fusing — and runs it with the window state in host registers.
     Cover every emit-value selector, dense and absent boundaries,
     payload edges (empty and one-byte blocks ride along in the block
     list), overruns and negative starts on the block-chained fallback,
     and near misses that must stay on the chain. *)
  let roll ?(m = 0xffffff) ?(m2 = 0x3) ?(tv = 0x3)
      ?(emitv = (Vm.Reg 2 : Vm.operand)) ?(key = (Vm.Imm 3 : Vm.operand))
      ?(jne = true) ?(start = 0) ?(loop = Vm.Loop (Reg 1, 65536)) () =
    [ Vm.Len 1; Vm.Mov (2, Imm 0); Vm.Mov (0, Imm start); loop;
      Vm.Ldp (3, Reg 0); Vm.Mul (2, Imm 0x01000193); Vm.Add (2, Reg 3);
      Vm.And (2, Imm m); Vm.Add (0, Imm 1); Vm.Mov (4, Reg 2);
      Vm.And (4, Imm m2);
      (if jne then Vm.Jne (4, Imm tv, 2) else Vm.Jeq (4, Imm tv, 2));
      Vm.Emit (key, emitv); Vm.End; Vm.Emit (Imm 0, Reg 2);
      Vm.Emit (Imm 1, Reg 0); Vm.Emit (Imm 2, Reg 3); Vm.Emit (Imm 4, Reg 4);
      Vm.Ret ]
  in
  let cases =
    [
      ("rolling hash emits the window hash", roll ());
      ("rolling hash emits the position", roll ~emitv:(Vm.Reg 0) ());
      ("rolling hash emits the byte", roll ~emitv:(Vm.Reg 3) ());
      ("rolling hash emits the test register", roll ~emitv:(Vm.Reg 4) ());
      ("rolling hash emits an immediate", roll ~emitv:(Vm.Imm 42) ());
      ("rolling hash with boundaries every byte", roll ~m2:0 ~tv:0 ());
      ("rolling hash with no boundaries", roll ~m2:0xffffff ~tv:1 ());
      ( "rolling hash under a mask that is not a low-bit mask",
        roll ~m:0xfff0ff ~m2:0xf ~tv:0x5 () );
      ( "rolling hash tests bits outside its mask",
        roll ~m:0xff ~m2:0x1ff ~tv:0xff () );
      ( "rolling hash overruns payload",
        roll ~loop:(Vm.Loop (Imm 600, 65536)) () );
      ( "rolling hash from negative offset",
        roll ~start:(-1) ~loop:(Vm.Loop (Imm 5, 65536)) () );
      ("near miss: boundary test is inverted", roll ~jne:false ());
      ("near miss: emit key is a register", roll ~key:(Vm.Reg 4) ());
      ("near miss: emit value register is dead", roll ~emitv:(Vm.Reg 5) ());
    ]
  in
  let blocks =
    standard_blocks @ [ ("A", 9); (block 1 200, 10); workload_block ]
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 0; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p -> assert_parity ~what p blocks)
    cases

let test_generic_loops () =
  (* Fused loops no idiom matches run the generic tier: one closure per
     body instruction, the count charged up front and unwound by the
     loop book on a fault. A fixed count of 256 fits the 512-byte block
     and faults mid-loop on the shorter ones (the 1-byte block faults
     on the second iteration). *)
  let loop body =
    [ Vm.Len 1; Vm.Mov (2, Imm 0x811c9dc5); Vm.Mov (0, Imm 0);
      Vm.Loop (Imm 256, 256) ]
    @ body
    @ [ Vm.End; Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 0);
        Vm.Emit (Imm 2, Reg 3); Vm.Ret ]
  in
  let cases =
    [
      ( "fnv with the counter bump moved up",
        loop
          [ Vm.Ldp (3, Reg 0); Vm.Add (0, Imm 1); Vm.Xor (2, Reg 3);
            Vm.Mul (2, Imm 0x01000193); Vm.And (2, Imm 0xffffffff) ] );
      ( "store through a copied offset register",
        loop
          [ Vm.Ldp (2, Reg 0); Vm.Mov (3, Reg 0); Vm.Xor (2, Imm 0x5a);
            Vm.Stp (Reg 3, Reg 2); Vm.Add (0, Imm 1) ] );
      ( "unguarded strided sum",
        loop [ Vm.Ldp (3, Reg 0); Vm.Add (2, Reg 3); Vm.Add (0, Imm 2) ] );
      ( "store faults mid-loop after the clone",
        (* Offsets 0, 2, 4, ...: the first store clones the payload, a
           later one runs off its end. *)
        loop
          [ Vm.Mov (3, Reg 0); Vm.Add (3, Reg 0); Vm.Stp (Reg 3, Reg 0);
            Vm.Add (0, Imm 1) ] );
    ]
  in
  let blocks =
    standard_blocks @ [ ("A", 4); (block 100 5, 6); (block 255 7, 8) ]
  in
  List.iter
    (fun (what, insns) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 0; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error d ->
        Alcotest.failf "%s: unexpected rejection: %s" what
          (Vm.diag_to_string d)
      | Ok p ->
        let tier = (Compile.block_tiers (Compile.compile p)).(0) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: generic fused loop (%s)" what tier)
          true
          (String.starts_with ~prefix:"fused loop: generic" tier);
        assert_parity ~what p blocks)
    cases

(* {1 Basic-block structure} *)

let test_sample_tiers () =
  (* Every sample's hot loop lands on the tier it was written for; an
     idiom that silently stops matching fails here. *)
  let fold =
    [ "fused loop: byte-scan fold idiom"; "body of b0 (byte-scan fold idiom)";
      "chained closures" ]
  in
  let scatter =
    [ "fused loop: scatter/store (xor) idiom";
      "body of b0 (scatter/store (xor) idiom)"; "chained closures" ]
  in
  let rolling_body = "body of b0 (rolling-hash scan; chain is the fallback)" in
  List.iter
    (fun (what, p, want) ->
      Alcotest.(check (list string))
        (what ^ " tiers") want
        (Array.to_list (Compile.block_tiers (Compile.compile p))))
    [
      ("checksum", Samples.checksum (), fold);
      ("tee_hash", Samples.tee_hash (), fold);
      ("xor_mask", Samples.xor_mask ~key:0x5a, scatter);
      ("xor_stream", Samples.xor_stream ~key:0x6b, scatter);
      ( "histogram",
        Samples.histogram (),
        [ "fused loop: generic 2-insn body";
          "body of b0 (inlined in the fused loop)";
          "fused loop: histogram idiom"; "body of b2 (histogram idiom)";
          "loop: block-chained multi-block body"; "chained closures";
          "chained closures"; "chained closures"; "chained closures" ] );
      ( "dedup_chunks",
        Samples.dedup_chunks ~bits:11,
        [ "loop: rolling-hash idiom (multi-block body)"; rolling_body;
          rolling_body; rolling_body; "chained closures" ] );
      ( "bounded_copy",
        Samples.bounded_copy (),
        [ "chained closures"; "chained closures";
          "fused loop: generic 5-insn body";
          "body of b2 (inlined in the fused loop)"; "chained closures" ] );
    ]

let test_mask_tiers () =
  (* A fold or rolling hash whose masks miss the low-bit precondition
     runs the per-step-mask scan, and the tier report says so; the
     samples' masks all meet it, so their pinned tiers carry no suffix. *)
  let tier insns =
    let spec =
      { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel; s_scratch = 0;
        s_context = Vm.Edge }
    in
    match Vm.verify spec with
    | Error d -> Alcotest.failf "unexpected rejection: %s" (Vm.diag_to_string d)
    | Ok p -> (Compile.block_tiers (Compile.compile p)).(0)
  in
  let fold m =
    [ Vm.Len 1; Vm.Mov (0, Imm 0); Vm.Loop (Reg 1, 65536); Vm.Ldp (3, Reg 0);
      Vm.Xor (2, Reg 3); Vm.Mul (2, Imm 0x01000193); Vm.And (2, Imm m);
      Vm.Add (0, Imm 1); Vm.End; Vm.Ret ]
  in
  let roll m m2 =
    [ Vm.Len 1; Vm.Mov (0, Imm 0); Vm.Loop (Reg 1, 65536); Vm.Ldp (3, Reg 0);
      Vm.Mul (2, Imm 0x01000193); Vm.Add (2, Reg 3); Vm.And (2, Imm m);
      Vm.Add (0, Imm 1); Vm.Mov (4, Reg 2); Vm.And (4, Imm m2);
      Vm.Jne (4, Imm 0, 2); Vm.Emit (Imm 3, Reg 2); Vm.End; Vm.Ret ]
  in
  List.iter
    (fun (what, insns, want) ->
      Alcotest.(check string) what want (tier insns))
    [
      ( "fold, low-bit mask",
        fold 0xffffffff,
        "fused loop: byte-scan fold idiom" );
      ("fold, all-ones mask", fold (-1), "fused loop: byte-scan fold idiom");
      ( "fold, other mask",
        fold 0xff00ff00,
        "fused loop: byte-scan fold idiom, per-step mask" );
      ( "rolling hash, low-bit masks",
        roll 0xffffff 0x7ff,
        "loop: rolling-hash idiom (multi-block body)" );
      ( "rolling hash, other mask",
        roll 0xfff0ff 0xf,
        "loop: rolling-hash idiom, per-step mask (multi-block body)" );
      ( "rolling hash, test outside the mask",
        roll 0xff 0x1ff,
        "loop: rolling-hash idiom, per-step mask (multi-block body)" );
    ]

let test_block_structure () =
  (* Blocks tile the program: contiguous, in order, no gaps. *)
  List.iter
    (fun (what, p) ->
      let code = Compile.compile p in
      let bs = Compile.blocks code in
      let n = Array.length (Vm.insns p) in
      Alcotest.(check bool) (what ^ ": has blocks") true (Array.length bs > 0);
      Array.iteri
        (fun i { Compile.bb_first; bb_last } ->
          if i = 0 then
            Alcotest.(check int) (what ^ ": starts at 0") 0 bb_first
          else
            Alcotest.(check int)
              (what ^ ": contiguous")
              (bs.(i - 1).Compile.bb_last + 1)
              bb_first;
          Alcotest.(check bool) (what ^ ": ordered") true (bb_last >= bb_first))
        bs;
      Alcotest.(check int)
        (what ^ ": covers program")
        (n - 1)
        bs.(Array.length bs - 1).Compile.bb_last)
    [
      ("checksum", Samples.checksum ());
      ("dropper", Samples.dropper ~modulo:2);
      ("xor_mask", Samples.xor_mask ~key:1);
      ("xor_stream", Samples.xor_stream ~key:1);
      ("histogram", Samples.histogram ());
      ("dedup_chunks", Samples.dedup_chunks ~bits:11);
    ]

(* {1 Steady-state allocation}

   Both backends must run without per-block allocation: nothing beyond
   the run record and a handful of words per run, independent of the
   payload size. A per-byte or per-insn allocation would show up as
   thousands of words per 4 KB block. *)

let minor_words_per_run exec_once =
  let runs = 200 in
  exec_once ();  (* warm up *)
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    exec_once ()
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let test_zero_alloc () =
  (* A store-bearing program clones the 4 KB payload, by design; a clone
     that size goes straight to the major heap, so xor_stream's word
     loop is measured here too: a boxed Int64 per word would cost
     thousands of minor words per run. Lent an area, it copies into the
     area instead and allocates no more than a read-only run. *)
  List.iter
    (fun (what, p, lend) ->
      let code = Compile.compile p in
      let ist = Vm.new_state p and cst = Compile.new_state code in
      let data = Bytes.make 4096 '\x55' in
      let into = if lend then Some (Bytes.create 4096) else None in
      let emit _ _ = () in
      let interp () =
        ignore (Vm.exec ?into p ist ~data ~len:4096 ~lblk:3 ~emit : Vm.run)
      in
      let compiled () =
        ignore
          (Compile.exec ?into code cst ~data ~len:4096 ~lblk:3 ~emit : Vm.run)
      in
      let wi = minor_words_per_run interp in
      let wc = minor_words_per_run compiled in
      Alcotest.(check bool)
        (Printf.sprintf "%s: interpreter allocates O(1) per run (%.1f words)"
           what wi)
        true (wi < 64.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: compiled allocates O(1) per run (%.1f words)"
           what wc)
        true (wc < 64.0))
    [
      ("checksum", Samples.checksum (), false);
      ("histogram", Samples.histogram (), false);
      ("dedup_chunks", Samples.dedup_chunks ~bits:11, false);
      ("xor_stream", Samples.xor_stream ~key:0x6b, false);
      ("xor_stream into a lent area", Samples.xor_stream ~key:0x6b, true);
    ]

(* {1 Random programs} *)

(* The QCheck form of [assert_parity]: run [p] over two blocks of
   [payload] (scratch carry-over too) and fail the property on the
   first observable that differs. *)
let check_runs p payload =
  let run = parity_runs p in
  List.iter
    (fun lblk ->
      match run payload lblk with
      | None -> ()
      | Some m -> QCheck.Test.fail_reportf "block %d: %s" lblk m)
    [ 7; 8 ]

let prop_differential =
  QCheck.Test.make ~count:400 ~name:"random accepted programs: backends agree"
    Test_vm.arb_program (fun (insns, payload) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 4; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error { Vm.d_rule = "range-oob"; _ } ->
        (* Constant negative payload offsets out of the generator are
           now (correctly) rejected statically; nothing to compare. *)
        true
      | Error d ->
        QCheck.Test.fail_reportf "generator produced a rejected program: %s"
          (Vm.diag_to_string d)
      | Ok p ->
        check_runs p payload;
        true)

(* {1 Idiom-shaped programs}

   Random programs rarely take an idiom's exact shape, so this
   generator builds only those shapes, with the knobs each host scan
   branches on drawn at random: the ALU op and its key (immediate or
   register-held, often wider than a byte), the fold and window masks
   (low-bit ones, all ones, and arbitrary ones), the boundary mask and
   value (inside the window mask or not), the emitted value, the
   histogram's arena, the start (negative ones included), the count
   (immediate or the payload length) and the payload length. Starts
   and counts that overrun the payload run the fallback path. *)

let arb_idiom =
  QCheck.Gen.(
    let mask =
      frequency
        [
          (3, map (fun k -> (1 lsl k) - 1) (int_range 0 62));
          (1, return (-1));
          (2, int);
        ]
    in
    let key = frequency [ (2, int_range 0 0xfff); (1, int) ] in
    let* payload = string_size (int_range 0 96) in
    let* start = int_range (-2) 40 in
    let* count =
      (* Mostly counts that fit from the start, so the scans run. *)
      let fits = String.length payload - start in
      frequency
        [
          ( (if fits > 0 then 4 else 0),
            map (fun c -> Vm.Imm c) (int_range 1 (max 1 fits)) );
          (2, map (fun c -> Vm.Imm c) (int_range 0 100));
          (1, return (Vm.Reg 1));
        ]
    in
    let head = [ Vm.Len 1; Vm.Mov (0, Imm start); Vm.Loop (count, 65536) ] in
    let* shape =
      oneof
        [
          (let* h0 = int and* v = int and* m = mask in
           return
             ( Printf.sprintf "fold h0 %#x v %#x mask %#x" h0 v m,
               0,
               (Vm.Mov (2, Imm h0) :: head)
               @ [ Vm.Ldp (3, Reg 0); Vm.Xor (2, Reg 3); Vm.Mul (2, Imm v);
                   Vm.And (2, Imm m); Vm.Add (0, Imm 1); Vm.End;
                   Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 3) ] ));
          (let* opname, op =
             oneofl
               [
                 ("xor", fun (r, o) -> Vm.Xor (r, o));
                 ("add", fun (r, o) -> Vm.Add (r, o));
                 ("sub", fun (r, o) -> Vm.Sub (r, o));
                 ("and", fun (r, o) -> Vm.And (r, o));
                 ("or", fun (r, o) -> Vm.Or (r, o));
               ]
           and* k = key
           and* in_reg = bool in
           let pre, o =
             if in_reg then ([ Vm.Mov (4, Imm k) ], Vm.Reg 4) else ([], Vm.Imm k)
           in
           return
             ( Printf.sprintf "scatter %s key %#x%s" opname k
                 (if in_reg then " (register)" else ""),
               0,
               pre @ head
               @ [ Vm.Ldp (2, Reg 0); op (2, o); Vm.Stp (Reg 0, Reg 2);
                   Vm.Add (0, Imm 1); Vm.End; Vm.Emit (Imm 0, Reg 2) ] ));
          (let* bits = int_range 0 8 in
           let cells = 1 lsl bits in
           return
             ( Printf.sprintf "histogram over %d cells" cells,
               cells,
               head
               @ [ Vm.Ldp (2, Reg 0); Vm.Ldsx (3, 2); Vm.Add (3, Imm 1);
                   Vm.Stsx (2, Reg 3); Vm.Add (0, Imm 1); Vm.End;
                   Vm.Emit (Imm 0, Reg 2); Vm.Emit (Imm 1, Reg 3);
                   Vm.Mov (4, Imm 0); Vm.Loop (Imm cells, 256); Vm.Ldsx (5, 4);
                   Vm.Emit (Imm 9, Reg 5); Vm.Add (4, Imm 1); Vm.End ] ));
          (let* h0 = int and* a = int and* m = mask in
           let* m2 =
             frequency
               [
                 (3, map (fun k -> ((1 lsl k) - 1) land m) (int_range 0 4));
                 (1, map (fun k -> (1 lsl k) - 1) (int_range 0 10));
                 (1, int);
               ]
           in
           let* tv =
             frequency [ (3, map (fun x -> x land m2) int); (1, int_range 0 7) ]
           and* emitv =
             oneofl [ Vm.Reg 2; Vm.Reg 0; Vm.Reg 3; Vm.Reg 4; Vm.Imm 42 ]
           in
           return
             ( Printf.sprintf "rolling hash h0 %#x a %#x mask %#x m2 %#x tv %#x"
                 h0 a m m2 tv,
               0,
               (Vm.Mov (2, Imm h0) :: head)
               @ [ Vm.Ldp (3, Reg 0); Vm.Mul (2, Imm a); Vm.Add (2, Reg 3);
                   Vm.And (2, Imm m); Vm.Add (0, Imm 1); Vm.Mov (4, Reg 2);
                   Vm.And (4, Imm m2); Vm.Jne (4, Imm tv, 2);
                   Vm.Emit (Imm 3, emitv); Vm.End; Vm.Emit (Imm 0, Reg 2);
                   Vm.Emit (Imm 1, Reg 3); Vm.Emit (Imm 4, Reg 4) ] ));
        ]
    in
    let desc, scratch, body = shape in
    return (desc, scratch, body @ [ Vm.Emit (Imm 2, Reg 0); Vm.Ret ], payload))

let prop_idioms =
  QCheck.Test.make ~count:1000
    ~name:"idiom-shaped programs: backends agree"
    (QCheck.make
       ~print:(fun (desc, _, insns, payload) ->
         Printf.sprintf "%s, %d instructions, payload %S" desc
           (List.length insns) payload)
       arb_idiom)
    (fun (_, scratch, insns, payload) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = scratch; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error { Vm.d_rule = "range-oob"; _ } ->
        (* A negative start with a short constant count loads only
           below the payload: rejected statically, as it should be. *)
        true
      | Error d ->
        QCheck.Test.fail_reportf "generator produced a rejected program: %s"
          (Vm.diag_to_string d)
      | Ok p ->
        check_runs p payload;
        true)

(* {1 Guard-biased programs: the range analysis is sound}

   The generator builds programs shaped like real filters — a length
   guard up front, then strided counter loops, masked block-dependent
   probes and len-relative accesses — exactly the refinement shapes
   the range analysis exists for. Some fragments are provable under
   the guard, some are not, and some are provably wrong (tolerated as
   range-oob rejections). For every accepted program and a ladder of
   adversarial payload lengths clustered around the guard bound, the
   property asserts the soundness contract directly: the interpreter
   runs FIRST, and a fault whose pc the analysis marked [`Proven] fails
   the suite before any unchecked compiled code runs. Then the
   compiled code must match the interpreter on every observable. *)

let fault_pc msg =
  (* Fault reasons carry their site as "... pc N" (the payload strings
     close a paren after it); take the last occurrence. *)
  let n = String.length msg in
  let last = ref None in
  for i = 0 to n - 3 do
    if String.sub msg i 3 = "pc " then begin
      let j = ref (i + 3) in
      let v = ref 0 in
      let any = ref false in
      while
        !j < n && msg.[!j] >= '0' && msg.[!j] <= '9'
      do
        v := (!v * 10) + (Char.code msg.[!j] - Char.code '0');
        incr j;
        any := true
      done;
      if !any then last := Some !v
    end
  done;
  !last

let arb_guarded =
  QCheck.Gen.(
    let reg = int_range 2 (Vm.max_regs - 1) in
    let fragment =
      frequency
        [
          ( 4,
            (* Strided counter scan: offsets base, base+s, ...,
               base+(c-1)s — provable when the envelope fits under the
               guard, checked (or rejected) when it does not. *)
            let* c = int_range 1 64 in
            let* stride = int_range 1 4 in
            let* base = int_range (-2) 8 in
            let* dst = reg in
            let* store = bool in
            return
              ([ Vm.Mov (0, Imm base); Vm.Loop (Imm c, c); Vm.Ldp (dst, Reg 0) ]
              @ (if store then [ Vm.Stp (Reg 0, Reg dst) ] else [])
              @ [ Vm.Add (0, Imm stride); Vm.End ]) );
          ( 2,
            (* Masked block-dependent probe: the offset register is
               unbounded until the And. *)
            let* mask = oneofl [ 0x0f; 0x1f; 0x3f; 0x7f; 0xff; 0x1ff ] in
            let* dst = reg in
            return
              [
                Vm.Blkno dst; Vm.Mul (dst, Imm 0x9e3779b9);
                Vm.And (dst, Imm mask); Vm.Ldp (dst, Reg dst);
              ] );
          ( 2,
            (* len-relative tail probe: off = len - k. *)
            let* k = int_range 1 8 in
            let* dst = reg in
            return
              [
                Vm.Len dst; Vm.Sub (dst, Imm k); Vm.Ldp (dst, Reg dst);
                Vm.Emit (Imm 1, Reg dst);
              ] );
          ( 1,
            (* Direct immediate access, sometimes past the guard. *)
            let* off = int_range 0 350 in
            let* dst = reg in
            return [ Vm.Ldp (dst, Imm off) ] );
        ]
    in
    let* g = int_range 1 300 in
    let* frags = list_size (int_range 1 4) fragment in
    let insns =
      [ Vm.Len 1; Vm.Jge (1, Imm g, 2); Vm.Ret ]
      @ List.concat frags @ [ Vm.Ret ]
    in
    let* extra_len = int_range 0 511 in
    return (g, insns, extra_len))

let prop_guarded_sound =
  QCheck.Test.make ~count:400
    ~name:"guard-biased programs: proven sites never fault; backends agree"
    (QCheck.make
       ~print:(fun (g, insns, extra_len) ->
         Printf.sprintf "guard %d, %d instructions, extra len %d" g
           (List.length insns) extra_len)
       arb_guarded)
    (fun (g, insns, extra_len) ->
      let spec =
        { Vm.s_insns = Array.of_list insns; s_fuel = Vm.max_fuel;
          s_scratch = 0; s_context = Vm.Edge }
      in
      match Vm.verify spec with
      | Error { Vm.d_rule = "range-oob"; _ } ->
        (* Provably-wrong fragments are meant to be generated; the
           static rejection is the right answer. *)
        true
      | Error d ->
        QCheck.Test.fail_reportf "generator produced a rejected program: %s"
          (Vm.diag_to_string d)
      | Ok p ->
        let code = Compile.compile p in
        let check_len l =
          let data = Bytes.init l (fun i -> Char.chr ((i * 37) land 0xff)) in
          let iemits = ref [] in
          let ir =
            Vm.exec p (Vm.new_state p) ~data ~len:l ~lblk:13
              ~emit:(fun k v -> iemits := (k, v) :: !iemits)
          in
          (* Soundness first, before any unchecked code runs: a fault
             at a pc the analysis called Proven is an analysis bug. *)
          (match ir.Vm.r_verdict with
           | Vm.Fault m -> (
             match fault_pc m with
             | Some pc -> (
               match Vm.bounds_at p pc with
               | `Proven ->
                 QCheck.Test.fail_reportf
                   "len %d: proven site faulted: %s" l m
               | `Checked -> ())
             | None -> ())
           | _ -> ());
          let cemits = ref [] in
          let cr =
            Compile.exec code (Compile.new_state code) ~data ~len:l ~lblk:13
              ~emit:(fun k v -> cemits := (k, v) :: !cemits)
          in
          if ir.Vm.r_verdict <> cr.Vm.r_verdict then
            QCheck.Test.fail_reportf "len %d verdicts differ: %s vs %s" l
              (Format.asprintf "%a" pp_verdict ir.Vm.r_verdict)
              (Format.asprintf "%a" pp_verdict cr.Vm.r_verdict);
          if ir.Vm.r_steps <> cr.Vm.r_steps then
            QCheck.Test.fail_reportf "len %d steps differ: %d vs %d" l
              ir.Vm.r_steps cr.Vm.r_steps;
          if !iemits <> !cemits then
            QCheck.Test.fail_reportf "len %d emit sequences differ" l;
          if not (Bytes.equal ir.Vm.r_data cr.Vm.r_data) then
            QCheck.Test.fail_reportf "len %d payloads differ" l;
          if (ir.Vm.r_data == data) <> (cr.Vm.r_data == data) then
            QCheck.Test.fail_reportf "len %d copy-on-write identity differs" l
        in
        (* Adversarial lengths cluster around the guard bound, where a
           refinement off-by-one would show. *)
        List.iter check_len
          (List.sort_uniq compare
             [ 0; 1; max 0 (g - 1); g; g + 1; extra_len; 509 ]);
        true)

let suite =
  [
    Alcotest.test_case "samples agree under both backends" `Quick test_samples;
    Alcotest.test_case "fixture ok-corpus agrees" `Quick test_ok_corpus;
    Alcotest.test_case "fault reasons and steps agree" `Quick test_fault_parity;
    Alcotest.test_case "verdict corners agree" `Quick test_verdict_parity;
    Alcotest.test_case "fold idiom: fast path and fallbacks agree" `Quick
      test_fold_idiom;
    Alcotest.test_case "scatter idiom: fast path and fallbacks agree" `Quick
      test_scatter_idiom;
    Alcotest.test_case "histogram idiom: fast path and fallbacks agree" `Quick
      test_histogram_idiom;
    Alcotest.test_case "rolling-hash idiom: fast path and fallbacks agree"
      `Quick test_rolling_idiom;
    Alcotest.test_case "generic fused loops agree, faults included" `Quick
      test_generic_loops;
    Alcotest.test_case "basic blocks tile the program" `Quick
      test_block_structure;
    Alcotest.test_case "sample hot loops land on their tiers" `Quick
      test_sample_tiers;
    Alcotest.test_case "tiers name the per-step mask scans" `Quick
      test_mask_tiers;
    Alcotest.test_case "both backends run without per-block allocation" `Quick
      test_zero_alloc;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_guarded_sound;
    QCheck_alcotest.to_alcotest prop_idioms;
  ]
