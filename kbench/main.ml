(* kbench: one workload for a fixed host time, then its metrics.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   After one warm-up iteration the workload is repeated until [S]
   seconds have passed (and at least three times), each iteration in a
   process of its own. Every iteration is checked; its simulated results
   must be identical from one iteration to the next. The calibration
   loop runs just before and after each iteration, and host times are
   reported in reference-host seconds (see calib.ml). Information lines
   come first; the last line is the result as JSON. With --trace 0 it holds the end-to-end
   metrics (host timings as medians over iterations), with --trace 1
   the per-layer metrics, and the first measured iteration's spans go
   to DIR/trace-NAME.jsonl. *)

open Rig

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at q = a.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5))) in
  (at 0.25, at 0.75)

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Every simulated result and counter of one iteration, in canonical
   text: the digest a simulator-only change must leave unchanged. *)
let canonical it =
  let b = Buffer.create 4096 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%.17g\n" k v) (sorted it.values);
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v) (sorted it.counters);
  List.iter
    (fun (name, h) ->
      if Kpath_sim.Histogram.count h > 0 then
        Printf.bprintf b "%s=%d/%d/%d\n" name (Kpath_sim.Histogram.count h)
          (Kpath_sim.Histogram.percentile h 50.0)
          (Kpath_sim.Histogram.percentile h 99.0))
    [ ("splice.block_latency_us", it.splice_lat); ("graph.block_latency_us", it.graph_lat) ];
  Buffer.contents b

(* Host-clock span totals of one iteration, for the per-layer medians. *)
let host_spans =
  [ "sim.run"; "setup.mkfs"; "setup.write"; "verify"; "vm.load"; "vm.exec" ]

type sample = {
  it : iter;
  scale : float;
      (** [Calib.nominal_s] over the mean calibration time measured
          around [it]: host seconds times [scale] are reference-host
          seconds *)
  spans : (string * float) list;
  syscalls : int * float;  (** calls, simulated seconds inside them *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Run [f] in a child process forked from this one and return what it
   returns. Every iteration runs this way: the simulator keeps
   process-wide tables (TCP and UDP demultiplexing) that never forget a
   finished simulation, and they go with the child; each iteration also
   starts from the same heap, and peak RSS is one iteration's peak. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (* The child never returns into the caller's code. *)
    (try
       Unix.close rd;
       let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
       let oc = Unix.out_channel_of_descr wr in
       Marshal.to_channel oc r [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Marshal.from_channel ic with End_of_file -> Error "iteration process died" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    r

let end_to_end samples ~attempted ~failed =
  let first = (List.hd samples).it in
  [
    ("host_s", "s", median (List.map (fun s -> s.it.host_s *. s.scale) samples));
    ("setup_s", "s", median (List.map (fun s -> s.it.setup_s *. s.scale) samples));
    ("ok_frac", "frac", float_of_int (attempted - failed) /. float_of_int attempted);
    ("sim_kbps", "KB/s", value first "sim_kbps");
    ("sim_cpu_ms_per_mb", "sim_ms/MB", value first "sim_cpu_ms_per_mb");
  ]

let per_layer samples =
  let first = (List.hd samples).it in
  let c name = float_of_int (counter first name) in
  let v name = value first name in
  let h name = median (List.map (fun s -> List.assoc name s.spans *. s.scale) samples) in
  let pct hist p =
    if Kpath_sim.Histogram.count hist = 0 then 0.0
    else float_of_int (Kpath_sim.Histogram.percentile hist p)
  in
  let calls, wait = (List.hd samples).syscalls in
  let moved_mb = c "bytes_moved" /. mb in
  [
    (* sim: Engine *)
    ("sim.events", "count", c "sim.events");
    ("sim.run_host_s", "s", h "sim.run");
    ("sim.host_us_per_event", "us", ratio (h "sim.run" *. 1e6) (c "sim.events"));
    (* proc: Cpu, Sched *)
    ("cpu.user_s", "sim_s", c "cpu.user_ns" /. 1e9);
    ("cpu.sys_s", "sim_s", c "cpu.sys_ns" /. 1e9);
    ("cpu.intr_s", "sim_s", c "cpu.intr_ns" /. 1e9);
    ("cpu.ctx_s", "sim_s", c "cpu.ctx_ns" /. 1e9);
    ("cpu.busy_s", "sim_s", c "cpu.busy_ns" /. 1e9);
    ("cpu.interrupts", "count", c "cpu.interrupts");
    ("cpu.context_switches", "count", c "cpu.context_switches");
    ("cpu.busy_over_elapsed", "ratio", v "cpu.busy_over_elapsed");
    ("sched.dispatches", "count", c "sched.dispatches");
    ("sched.preemptions", "count", c "sched.preemptions");
    ("sched.wakeups", "count", c "sched.wakeups");
    (* kernel: Syscall, Machine *)
    ("syscall.calls", "count", float_of_int calls);
    ("syscall.wait_sim_s", "sim_s", wait);
    ("setup.mkfs_host_s", "s", h "setup.mkfs");
    ("setup.write_host_s", "s", h "setup.write");
    (* buf: Cache *)
    ("cache.hits", "count", c "cache.hits");
    ("cache.misses", "count", c "cache.misses");
    ("cache.hit_ratio", "ratio", ratio (c "cache.hits") (c "cache.hits" +. c "cache.misses"));
    ("cache.dev_reads", "count", c "cache.dev_reads");
    ("cache.dev_writes", "count", c "cache.dev_writes");
    ("cache.cluster_reads", "count", c "cache.cluster_reads");
    ("cache.cluster_writes", "count", c "cache.cluster_writes");
    ("cache.sleeps", "count", c "cache.sleeps");
    ("cache.pins", "count", c "cache.pins");
    (* dev: Disk *)
    ("disk.serviced", "count", c "disk.serviced");
    ("disk.seeks", "count", c "disk.seeks");
    ("disk.readahead_hits", "count", c "disk.readahead_hits");
    ("disk.intrs_per_mb", "1/MB", ratio (c "disk.serviced") moved_mb);
    (* fs *)
    ("fs.bytes_read", "bytes", c "fs.bytes_read");
    ("fs.bytes_written", "bytes", c "fs.bytes_written");
    (* core: Splice *)
    ("splice.reads_issued", "count", c "splice.reads_issued");
    ("splice.writes_issued", "count", c "splice.writes_issued");
    ("splice.cluster_reads", "count", c "splice.cluster_reads");
    ("splice.retries", "count", c "splice.retries");
    ("splice.block_latency_us.p50", "sim_us", pct first.splice_lat 50.0);
    ("splice.block_latency_us.p99", "sim_us", pct first.splice_lat 99.0);
    (* graph *)
    ("graph.reads_issued", "count", c "graph.reads_issued");
    ("graph.read_hits", "count", c "graph.read_hits");
    ("graph.blocks_aliased", "count", c "graph.blocks_aliased");
    ("graph.writes_issued", "count", c "graph.writes_issued");
    ("graph.retries", "count", c "graph.retries");
    ("graph.payload_snapshots", "count", c "graph.payload_snapshots");
    ("graph.block_latency_us.p50", "sim_us", pct first.graph_lat 50.0);
    ("graph.block_latency_us.p99", "sim_us", pct first.graph_lat 99.0);
    (* net: Tcp, Netif *)
    ("tcp.segs_out", "count", c "tcp.segs_out");
    ("tcp.retx", "count", c "tcp.retx");
    ("tcp.fast_retx", "count", c "tcp.fast_retx");
    ("tcp.retx_ratio", "ratio", v "tcp.retx_ratio");
    ("netif.tx_bytes", "bytes", c "netif.tx_bytes");
    ("netif.dropped_no_rx", "count", c "netif.dropped_no_rx");
    ("netif.goodput_ratio", "ratio", v "netif.goodput_ratio");
    ("netif.tx_over_capacity", "ratio", v "netif.tx_over_capacity");
    (* vm: Vm, Compile *)
    ("vm.load_host_ms", "ms", h "vm.load" *. 1000.0);
    ("vm.runs", "count", c "graph.prog_runs");
    ("vm.insns", "count", c "graph.prog_insns");
    ("vm.host_ns_per_insn", "ns",
     ratio (h "vm.exec" *. 1e9) (float_of_int first.vm_exec_insns));
    ("vm.prog_faults", "count", c "graph.prog_faults");
    (* workloads: the benchmark's own output checks *)
    ("verify.host_s", "s", h "verify");
  ]

(* The paper's value next to each simulated cell, for paper-tables. *)
let print_values it =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name Workloads.paper_cells with
      | Some paper ->
        Printf.printf "  %-22s sim %12.4f  paper %8.2f  err %+6.1f%%\n" name v paper
          (100.0 *. (v -. paper) /. paper)
      | None -> Printf.printf "  %-22s sim %12.4f\n" name v)
    (sorted it.values)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-tables | fanout-tcp | filter-graph");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with spans");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let data = input ~seed:!seed file_bytes in
  let errors = ref [] in
  if not (Bytes.equal data (input ~seed:!seed file_bytes)) then
    errors := [ "input generator is not deterministic" ];
  let run =
    match !workload with
    | "paper-tables" -> Workloads.paper
    | "fanout-tcp" -> Workloads.fanout
    | "filter-graph" ->
      let key = 1 + (Hashtbl.hash (!seed, "xor-stream key") land 0xffffff) in
      let expected = Workloads.expect data in
      fun it data -> Workloads.filter it data ~key ~expected
    | w ->
      prerr_endline ("unknown workload: " ^ w ^ "\n" ^ usage);
      exit 2
  in
  Span.on := !trace = 1;
  let iteration k =
    let child () =
      let cal0 = Calib.time () in
      Span.kept := [];
      Span.start_iteration k;
      let it = new_iter () in
      run it data;
      let scale = 2.0 *. Calib.nominal_s /. (cal0 +. Calib.time ()) in
      ( {
          it;
          scale;
          spans = List.map (fun n -> (n, Span.total n)) host_spans;
          syscalls = Span.sum_prefix "syscall.";
        },
        !Span.kept )
    in
    match in_child child with
    | Ok (s, kept) ->
      Span.kept := kept @ !Span.kept;
      Some s
    | Error e ->
      errors := e :: !errors;
      None
  in
  let warm = iteration 0 in
  let t0 = Unix.gettimeofday () in
  let rec loop k acc =
    if k > 3 && Unix.gettimeofday () -. t0 >= !seconds then List.rev acc
    else loop (k + 1) (match iteration k with Some s -> s :: acc | None -> acc)
  in
  let samples = loop 1 [] in
  let warm, samples =
    match (warm, samples) with
    | Some w, _ :: _ -> (w, samples)
    | _ ->
      List.iter prerr_endline !errors;
      prerr_endline "kbench: no iteration completed";
      exit 1
  in
  let all = warm :: samples in
  let attempted = List.fold_left (fun a s -> a + s.it.attempted) 0 all in
  let failed = List.fold_left (fun a s -> a + s.it.failed) 0 all in
  List.iter
    (fun s ->
      List.iter (fun e -> if not (List.mem e !errors) then errors := e :: !errors) s.it.errors)
    all;
  let digest = Digest.to_hex (Digest.string (canonical warm.it)) in
  if List.exists (fun s -> canonical s.it <> canonical warm.it) samples then
    errors := "simulated results differ between iterations" :: !errors;
  let first = (List.hd samples).it in
  let metrics =
    if !trace = 1 then per_layer samples else end_to_end samples ~attempted ~failed
  in
  let metrics =
    List.map
      (fun (name, unit, v) ->
        if Float.is_finite v then (name, unit, v)
        else begin
          errors := (name ^ " is not a finite number") :: !errors;
          (name, unit, 0.0)
        end)
      metrics
  in
  Printf.printf "kbench %s seed=%d trace=%d iterations=%d (+1 warm-up)\n" !workload !seed
    !trace (List.length samples);
  List.iter
    (fun (name, f) ->
      let xs = List.map f samples in
      let q1, q3 = quartiles xs in
      Printf.printf "%s: median %.4f  q1 %.4f  q3 %.4f  n %d\n" name (median xs) q1 q3
        (List.length xs))
    [
      ("raw host_s", fun s -> s.it.host_s);
      ("raw setup_s", fun s -> s.it.setup_s);
      ("calibration_s", fun s -> Calib.nominal_s /. s.scale);
      ("host_s", fun s -> s.it.host_s *. s.scale);
      ("setup_s", fun s -> s.it.setup_s *. s.scale);
    ];
  Printf.printf "simulated results (digest %s):\n" digest;
  print_values first;
  List.iter (fun e -> Printf.printf "ERROR: %s\n" e) (List.rev !errors);
  if !trace = 1 && !out <> "" then begin
    let path = Filename.concat !out ("trace-" ^ !workload ^ ".jsonl") in
    let oc = open_out path in
    Span.dump oc;
    close_out oc;
    Printf.printf "spans of iteration 1 written to %s\n" path
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = [] && failed = 0)
    attempted failed (json_metrics metrics)
