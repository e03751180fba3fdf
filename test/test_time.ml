open Kpath_sim

let check_int = Alcotest.(check int)

let test_constructors () =
  check_int "us" 1_000 (Time.to_ns (Time.us 1));
  check_int "ms" 1_000_000 (Time.to_ns (Time.ms 1));
  check_int "sec" 1_000_000_000 (Time.to_ns (Time.sec 1));
  check_int "of_sec_f" 1_500_000_000 (Time.to_ns (Time.of_sec_f 1.5));
  check_int "of_us_f rounds" 1_500 (Time.to_ns (Time.of_us_f 1.5))

let test_negative_rejected () =
  Alcotest.check_raises "ns" (Invalid_argument "Time.ns: negative") (fun () ->
      ignore (Time.ns (-1)));
  Alcotest.check_raises "of_sec_f" (Invalid_argument "Time.of_sec_f: negative")
    (fun () -> ignore (Time.of_sec_f (-0.5)));
  (* Every comparison with NaN is false; a guard written as [s < 0.0]
     would let it through to [int_of_float], which yields [min_int]. *)
  Alcotest.check_raises "of_sec_f nan" (Invalid_argument "Time.of_sec_f: negative")
    (fun () -> ignore (Time.of_sec_f Float.nan));
  Alcotest.check_raises "of_us_f nan" (Invalid_argument "Time.of_us_f: negative")
    (fun () -> ignore (Time.of_us_f Float.nan))

let test_arithmetic () =
  let t = Time.ms 5 in
  check_int "add" 6_000_000 (Time.to_ns (Time.add t (Time.ms 1)));
  check_int "sub" 4_000_000 (Time.to_ns (Time.sub t (Time.ms 1)));
  check_int "diff" 1_000_000 (Time.to_ns (Time.diff t (Time.ms 4)));
  check_int "scale" 15_000_000 (Time.to_ns (Time.scale t 3));
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Time.sub: negative result") (fun () ->
      ignore (Time.sub (Time.ms 1) (Time.ms 2)));
  Alcotest.check_raises "diff underflow"
    (Invalid_argument "Time.diff: negative result") (fun () ->
      ignore (Time.diff (Time.ms 1) (Time.ms 2)))

let test_ordering () =
  Alcotest.(check bool) "lt" true Time.(Time.ms 1 < Time.ms 2);
  Alcotest.(check bool) "ge" true Time.(Time.ms 2 >= Time.ms 2);
  Util.(Alcotest.check time) "min" (Time.ms 1) (Time.min (Time.ms 1) (Time.ms 2));
  Util.(Alcotest.check time) "max" (Time.ms 2) (Time.max (Time.ms 1) (Time.ms 2))

let test_rates () =
  (* 8 KB at 8 MB/s = 1 ms. *)
  Util.(Alcotest.check time) "span_of_bytes" (Time.ms 1)
    (Time.span_of_bytes ~bytes_per_sec:8.192e6 8192);
  Alcotest.(check (float 1e-6)) "rate round trip" 8.192e6
    (Time.rate_bytes_per_sec ~bytes:8192 (Time.ms 1));
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Time.span_of_bytes: rate <= 0") (fun () ->
      ignore (Time.span_of_bytes ~bytes_per_sec:0.0 1));
  Alcotest.check_raises "nan rate"
    (Invalid_argument "Time.span_of_bytes: rate <= 0") (fun () ->
      ignore (Time.span_of_bytes ~bytes_per_sec:Float.nan 1))

let test_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "17ns" (s (Time.ns 17));
  Alcotest.(check string) "us" "2.00us" (s (Time.us 2));
  Alcotest.(check string) "ms" "3.000ms" (s (Time.ms 3));
  Alcotest.(check string) "s" "4.0000s" (s (Time.sec 4))

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"time add/sub round-trips" ~count:500
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      let t = Time.ns a and d = Time.ns b in
      Time.equal t (Time.sub (Time.add t d) d))

let prop_span_of_bytes_monotone =
  QCheck.Test.make ~name:"span_of_bytes is monotone in size" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Time.(
        Time.span_of_bytes ~bytes_per_sec:1e6 lo
        <= Time.span_of_bytes ~bytes_per_sec:1e6 hi))

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "rates" `Quick test_rates;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Util.qcheck prop_add_sub_roundtrip;
    Util.qcheck prop_span_of_bytes_monotone;
  ]
