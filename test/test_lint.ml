(* kpath-verify: each known-bad fixture yields exactly its expected
   finding; the known-good fixture yields none; escapes on nested
   bindings suppress exactly the rule they name, and an unjustified
   escape suppresses nothing. *)

module Lint = Kpath_lint.Lint

let fixture name =
  Filename.concat "lint_fixtures/.lint_fixtures.objs/byte"
    ("lint_fixtures__" ^ String.capitalize_ascii name ^ ".cmt")

let run name = Lint.run [ fixture name ]

let rules result = List.map (fun f -> f.Lint.rule) result.Lint.r_findings

let check_single name expected_rule () =
  let result = run name in
  Alcotest.(check (list string))
    (name ^ " findings") [ expected_rule ] (rules result)

let test_good () =
  let result = run "fix_good" in
  Alcotest.(check (list string)) "no findings" [] (rules result)

(* A [Hashtbl.Make] instance's iter is in hash order like [Hashtbl]'s;
   its sorted fold is not reported. *)
let test_inttbl () =
  match (run "fix_inttbl").Lint.r_findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "hashtbl-order" f.Lint.rule;
    Alcotest.(check bool) "names the iter" true (Util.contains f.Lint.msg "Itbl.iter")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_chain () =
  let result = run "fix_intr" in
  match result.Lint.r_findings with
  | [ f ] ->
    Alcotest.(check bool)
      "chain names the blocking callee" true
      (let contains s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       contains f.Lint.msg "Cache.biowait" && contains f.Lint.msg "Process.block")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_all_at_once () =
  (* The five bad fixtures analyzed together still yield exactly one
     finding each (no cross-fixture interference). *)
  let result =
    Lint.run
      [ fixture "fix_intr"; fixture "fix_leak"; fixture "fix_double";
        fixture "fix_rng"; fixture "fix_polyeq" ]
  in
  Alcotest.(check (list string))
    "all five"
    [ "buf-double-release"; "buf-leak"; "intr-blocks"; "poly-compare"; "rng" ]
    (List.sort String.compare (rules result))

let test_nested_nolint () =
  (* [@kpath.nolint] on bindings inside a nested module (Outer.Inner)
     suppresses exactly the named rule; the sibling violation without an
     escape still fires, and so does one whose escape has an empty
     justification, which is a finding of its own. *)
  let result = run "fix_nested_nolint" in
  Alcotest.(check (list string))
    "nested escapes" [ "bad-annotation"; "rng"; "rng" ]
    (List.sort String.compare (rules result))

let test_json () =
  let result = run "fix_rng" in
  let json = Lint.to_json result in
  Alcotest.(check bool) "json mentions rule" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains json "\"rule\": \"rng\"" && contains json "\"findings\": 1")

let suite =
  [
    Alcotest.test_case "intr fixture: sleep under interrupt" `Quick
      (check_single "fix_intr" "intr-blocks");
    Alcotest.test_case "intr fixture: chain reported" `Quick test_chain;
    Alcotest.test_case "leak fixture: buffer escapes unreleased" `Quick
      (check_single "fix_leak" "buf-leak");
    Alcotest.test_case "double fixture: brelse twice" `Quick
      (check_single "fix_double" "buf-double-release");
    Alcotest.test_case "rng fixture: stray Random.int" `Quick
      (check_single "fix_rng" "rng");
    Alcotest.test_case "wallclock fixture: host clock read" `Quick
      (check_single "fix_wallclock" "wallclock");
    Alcotest.test_case "polyeq fixture: List.mem over closure variant" `Quick
      (check_single "fix_polyeq" "poly-compare");
    Alcotest.test_case "inttbl fixture: unsorted functor-table iter" `Quick
      test_inttbl;
    Alcotest.test_case "good fixture: zero findings" `Quick test_good;
    Alcotest.test_case "nested module nolint honored" `Quick
      test_nested_nolint;
    Alcotest.test_case "bad fixtures together" `Quick test_all_at_once;
    Alcotest.test_case "json artifact shape" `Quick test_json;
  ]
