open Kpath_sim

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.next a <> Rng.next b)

let test_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "bound <= 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_float_bounds () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.fail "float out of bounds"
  done

let test_exponential_positive () =
  let r = Rng.create ~seed:11 in
  let sum = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Rng.exponential r ~mean:5.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  let mean = !sum /. 2000.0 in
  if mean < 4.0 || mean > 6.0 then
    Alcotest.failf "exponential mean off: %f" mean

let test_shuffle_permutes () =
  let r = Rng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_split_independence () =
  let r = Rng.create ~seed:5 in
  let child = Rng.split r in
  Alcotest.(check bool) "parent and child diverge" true
    (Rng.next r <> Rng.next child)

(* Stats *)

let test_counters () =
  let s = Stats.create () in
  let c = Stats.counter s "a" in
  Stats.incr c;
  Stats.add c 4;
  Alcotest.(check int) "value" 5 (Stats.value c);
  Alcotest.(check int) "get" 5 (Stats.get s "a");
  Alcotest.(check int) "unknown is 0" 0 (Stats.get s "nope");
  Alcotest.(check bool) "same counter identity" true (Stats.counter s "a" == c);
  Alcotest.check_raises "negative add" (Invalid_argument "Stats.add: negative increment")
    (fun () -> Stats.add c (-1))

let test_to_list_sorted () =
  let s = Stats.create () in
  Stats.incr (Stats.counter s "zz");
  Stats.incr (Stats.counter s "aa");
  Alcotest.(check (list string)) "sorted names" [ "aa"; "zz" ]
    (List.map fst (Stats.to_list s))

(* Keys are declared once; each registry resolves a key to its own
   counter, the one [counter]/[get] reach by name. *)
let k_x = Stats.key "x"

let k_x_again = Stats.key "x"

let k_h = Stats.key "h"

let test_keys () =
  let s1 = Stats.create () and s2 = Stats.create () in
  Alcotest.(check int) "unused key creates nothing" 0
    (List.length (Stats.to_list s1));
  Stats.add (Stats.at s1 k_x) 3;
  Stats.incr (Stats.at s1 k_x_again);
  Stats.incr (Stats.at s2 k_x);
  Alcotest.(check int) "by name" 4 (Stats.get s1 "x");
  Alcotest.(check bool) "same counter as by name" true
    (Stats.at s1 k_x == Stats.counter s1 "x");
  Alcotest.(check int) "registries independent" 1 (Stats.get s2 "x");
  Histogram.add (Stats.hist s1 k_h) 7;
  Alcotest.(check int) "histogram by name" 1
    (Histogram.count (Stats.histogram s1 "h"));
  Alcotest.(check int) "other registry's histogram empty" 0
    (Histogram.count (Stats.hist s2 k_h))

(* A bump through a resolved key hashes no name and allocates nothing. *)
let test_key_bump_no_alloc () =
  let s = Stats.create () in
  Stats.incr (Stats.at s k_x);
  ignore (Stats.hist s k_h);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Stats.incr (Stats.at s k_x);
    Histogram.add (Stats.hist s k_h) 5
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "counted" 10_001 (Stats.get s "x");
  if words > 0.0 then Alcotest.failf "key bump allocated %.0f words" words

(* Histogram *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 2; 3; 100; 1000 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "total" 1106 (Histogram.total h);
  Alcotest.(check (option int)) "min" (Some 0) (Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 1000) (Histogram.max_value h);
  Alcotest.(check bool) "p50 small" true (Histogram.percentile h 50.0 <= 3);
  Alcotest.(check bool) "p100 covers max" true (Histogram.percentile h 100.0 >= 1000);
  Alcotest.check_raises "percentile nan"
    (Invalid_argument "Histogram.percentile: out of range") (fun () ->
      ignore (Histogram.percentile h Float.nan))

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile h 50.0));
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Histogram.add: negative sample") (fun () ->
      Histogram.add h (-1))

let prop_histogram_buckets_cover =
  QCheck.Test.make ~name:"histogram buckets partition samples" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let bucket_total =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.buckets h)
      in
      bucket_total = List.length xs)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_float_bounds;
    Alcotest.test_case "rng exponential" `Quick test_exponential_positive;
    Alcotest.test_case "rng shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "rng split" `Quick test_split_independence;
    Alcotest.test_case "stats counters" `Quick test_counters;
    Alcotest.test_case "stats sorted listing" `Quick test_to_list_sorted;
    Alcotest.test_case "stats keys" `Quick test_keys;
    Alcotest.test_case "key bump allocates nothing" `Quick
      test_key_bump_no_alloc;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
    Alcotest.test_case "histogram empty/invalid" `Quick test_histogram_empty;
    Util.qcheck prop_histogram_buckets_cover;
  ]
