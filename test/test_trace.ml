open Kpath_sim
open Kpath_core
open Kpath_kernel
open Kpath_workloads
module Graph = Kpath_graph.Graph

let mk ?capacity () =
  let now = ref Time.zero in
  let t = Trace.create ?capacity ~clock:(fun () -> !now) () in
  (t, now)

let test_disabled_by_default () =
  let t, _ = mk () in
  let forced = ref false in
  Trace.emit t ~cat:"x" (fun () ->
      forced := true;
      "msg");
  Alcotest.(check bool) "message not forced" false !forced;
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded t)

let test_enable_records () =
  let t, now = mk () in
  Trace.enable t "io";
  Trace.emit t ~cat:"io" (fun () -> "first");
  now := Time.ms 5;
  Trace.emit t ~cat:"io" (fun () -> "second");
  Trace.emit t ~cat:"other" (fun () -> "ignored");
  (match Trace.events t with
   | [ a; b ] ->
     Alcotest.(check string) "msg a" "first" a.Trace.ev_msg;
     Alcotest.(check string) "msg b" "second" b.Trace.ev_msg;
     Alcotest.check Util.time "timestamped" (Time.ms 5) b.Trace.ev_time
   | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  Trace.disable t "io";
  Trace.emit t ~cat:"io" (fun () -> "late");
  Alcotest.(check int) "disable stops recording" 2 (Trace.recorded t)

let test_enable_all () =
  let t, _ = mk () in
  Trace.enable_all t;
  Trace.emit t ~cat:"anything" (fun () -> "x");
  Alcotest.(check int) "recorded" 1 (Trace.recorded t)

(* Regression: [disable cat] used to clear the [enable_all] flag, so a
   fully-enabled trace went dark when any single category was turned
   off. The two switches are independent. *)
let test_disable_keeps_enable_all () =
  let t, _ = mk () in
  Trace.enable_all t;
  Trace.enable t "io";
  Trace.disable t "io";
  Trace.emit t ~cat:"io" (fun () -> "still recorded");
  Trace.emit t ~cat:"other" (fun () -> "also recorded");
  Alcotest.(check int) "enable_all survives disable" 2 (Trace.recorded t);
  Trace.disable_all t;
  Trace.emit t ~cat:"io" (fun () -> "dark");
  Alcotest.(check int) "disable_all stops everything" 2 (Trace.recorded t);
  (* Per-category enables also cleared by disable_all. *)
  let t2, _ = mk () in
  Trace.enable t2 "io";
  Trace.disable_all t2;
  Trace.emit t2 ~cat:"io" (fun () -> "dark");
  Alcotest.(check int) "categories cleared" 0 (Trace.recorded t2)

let test_dump_json () =
  let t, now = mk () in
  Trace.enable_all t;
  Trace.emit t ~cat:"io" (fun () -> "plain");
  now := Time.us 1500;
  Trace.emit t ~cat:"net" (fun () -> "quote \" backslash \\ newline \n done");
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Trace.dump_json fmt t;
  Format.pp_print_flush fmt ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one object per event" 2 (List.length lines);
  let l1 = List.nth lines 0 and l2 = List.nth lines 1 in
  Alcotest.(check bool) "fields present" true
    (Util.contains l1 "\"cat\":\"io\"" && Util.contains l1 "\"msg\":\"plain\"");
  Alcotest.(check bool) "timestamp in us" true
    (Util.contains l2 "\"t_us\":1500.0");
  Alcotest.(check bool) "quotes escaped" true
    (Util.contains l2 "quote \\\" backslash \\\\ newline \\n done");
  (* Every line is minimally well-formed JSON: balanced braces, no raw
     control characters or unescaped quotes inside values. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "object shaped" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      String.iter (fun c -> Alcotest.(check bool) "no raw control" true (c >= ' ')) l)
    lines

let test_ring_wraps () =
  let t, _ = mk ~capacity:4 () in
  Trace.enable t "c";
  for i = 1 to 10 do
    Trace.emit t ~cat:"c" (fun () -> string_of_int i)
  done;
  let evs = Trace.events t in
  Alcotest.(check int) "keeps capacity" 4 (List.length evs);
  Alcotest.(check (list string)) "latest survive" [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.ev_msg) evs);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.events t))

let test_splice_emits () =
  let s = Experiments.make_setup ~disk:`Ram ~file_bytes:(64 * 1024) () in
  Experiments.cold_caches s;
  let m = s.Experiments.machine in
  Trace.enable (Machine.trace m) "splice";
  let stats = Programs.fresh_copy_stats () in
  let _c =
    Programs.spawn_scp m ~src:s.Experiments.src_path ~dst:s.Experiments.dst_path
      stats
  in
  Machine.run m;
  let evs = Trace.events (Machine.trace m) in
  let has needle =
    List.exists (fun e -> Util.contains e.Trace.ev_msg needle) evs
  in
  Alcotest.(check bool) "start event" true (has "started");
  Alcotest.(check bool) "per-block write events" true (has "write done");
  Alcotest.(check bool) "completion event" true (has "completed");
  (* 8 blocks: bounded, per-block events present. *)
  Alcotest.(check bool) "sane volume" true (List.length evs >= 10)

let test_splice_overlap_rejected () =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"d0" ~kind:`Ram () in
  let rejected = ref false in
  let _p =
    Machine.spawn m ~name:"p" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive)
            ~ninodes:16
        in
        let f = Kpath_fs.Fs.create_file fs "/f" in
        let buf = Bytes.create 8192 in
        for i = 0 to 7 do
          ignore (Kpath_fs.Fs.write fs f ~off:(i * 8192) ~len:8192 buf ~pos:0)
        done;
        (* splice(2) from a file: a one-edge graph under splice's
           names. *)
        let self_copy off_blocks =
          let g =
            Graph.create (Machine.graph_ctx m) ~naming:Graph.splice_naming
              ~fs ~ino:f ~size:(4 * 8192) ()
          in
          ignore (Graph.connect g (Endpoint.dst_file fs f ~off_blocks ()));
          Graph.start g;
          g
        in
        (* Overlapping self-copy: blocks 0..3 onto 2..5. *)
        (try ignore (self_copy 2)
         with Kpath_fs.Fs_error.Error (Kpath_fs.Fs_error.Einval _) ->
           rejected := true);
        (* Non-overlapping self-copy is allowed: blocks 0..3 onto 4..7. *)
        match Graph.wait (self_copy 4) with
        | Ok n -> Alcotest.(check int) "copied half onto tail" (4 * 8192) n
        | Error e -> Alcotest.fail e)
  in
  Machine.run m;
  Alcotest.(check bool) "overlap rejected" true !rejected

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "enable/disable" `Quick test_enable_records;
    Alcotest.test_case "enable all" `Quick test_enable_all;
    Alcotest.test_case "disable keeps enable_all" `Quick
      test_disable_keeps_enable_all;
    Alcotest.test_case "dump json" `Quick test_dump_json;
    Alcotest.test_case "ring wrap" `Quick test_ring_wraps;
    Alcotest.test_case "splice emits events" `Quick test_splice_emits;
    Alcotest.test_case "same-file overlap" `Quick test_splice_overlap_rejected;
  ]
