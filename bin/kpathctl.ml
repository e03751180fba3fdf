(* kpathctl: command-line driver for the kpath simulator.

   Subcommands:
     kpathctl info                         machine cost model
     kpathctl copy   [--disk ...] ...      one measured copy
     kpathctl cluster [--sizes N,...]      clustered-I/O transfer-size sweep
     kpathctl table1 [--ops N] [--natural] CPU availability rows
     kpathctl table2 [--size-mb N]         throughput rows
     kpathctl relay  [--datagrams N]       UDP relay comparison
     kpathctl graph  [--clients N] ...     splice-graph fan-out
     kpathctl prog   FILE                  verify + disassemble a filter program *)

open Cmdliner
open Kpath_kernel
open Kpath_workloads

let mb = 1024 * 1024

(* Reject a bad option value the way Cmdliner rejects a malformed one. *)
let usage_error msg =
  Format.eprintf "kpathctl: %s@." msg;
  exit 124

let disk_conv =
  let parse = function
    | "ram" -> Ok `Ram
    | "rz56" -> Ok `Rz56
    | "rz58" -> Ok `Rz58
    | s -> Error (`Msg (Printf.sprintf "unknown disk %S (ram|rz56|rz58)" s))
  in
  let print fmt d = Format.pp_print_string fmt (String.lowercase_ascii (Experiments.disk_name d)) in
  Arg.conv (parse, print)

let disk_arg =
  Arg.(value & opt disk_conv `Rz58 & info [ "disk" ] ~docv:"DISK" ~doc:"Disk model: ram, rz56 or rz58.")

let size_arg =
  Arg.(value & opt int 8 & info [ "size-mb" ] ~docv:"MB" ~doc:"File size in megabytes.")

let file_bytes size_mb =
  if size_mb < 1 then usage_error "--size-mb must be at least 1";
  size_mb * mb

let max_cluster_arg =
  Arg.(value
       & opt int Config.decstation_5000_200.Config.max_cluster
       & info [ "max-cluster" ] ~docv:"BLOCKS"
           ~doc:"Largest multi-block transfer the clustered I/O paths may \
                 build (1 = per-block I/O, the paper's original path).")

let config_with_cluster max_cluster =
  if max_cluster < 1 then usage_error "--max-cluster must be at least 1";
  { Config.decstation_5000_200 with Config.max_cluster }

(* info *)

let info_cmd =
  let run () =
    Format.printf "%a@." Kpath_kernel.Config.pp
      Kpath_kernel.Config.decstation_5000_200;
    Format.printf
      "flow control: read watermark %d, write watermark %d, burst %d@."
      Kpath_core.Flowctl.default.Kpath_core.Flowctl.read_lo
      Kpath_core.Flowctl.default.Kpath_core.Flowctl.write_hi
      Kpath_core.Flowctl.default.Kpath_core.Flowctl.read_burst
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the machine cost model.")
    Term.(const run $ const ())

(* copy *)

let copy_cmd =
  let mode_conv =
    let parse = function
      | "cp" -> Ok `Cp
      | "scp" -> Ok `Scp
      | "mcp" -> Ok `Mcp
      | s -> Error (`Msg (Printf.sprintf "unknown mode %S (cp|scp|mcp)" s))
    in
    Arg.conv
      ( parse,
        fun fmt m ->
          Format.pp_print_string fmt
            (match m with `Cp -> "cp" | `Scp -> "scp" | `Mcp -> "mcp") )
  in
  let mode_arg =
    Arg.(value & opt mode_conv `Scp
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"cp (read/write), scp (splice) or mcp (memory-mapped).")
  in
  let same_disk_arg =
    Arg.(value & flag & info [ "same-disk" ] ~doc:"Source and destination on one drive.")
  in
  let watermarks_arg =
    Arg.(value & opt (some (t3 ~sep:',' int int int)) None
         & info [ "watermarks" ] ~docv:"LO,HI,BURST" ~doc:"splice flow-control watermarks.")
  in
  let trace_arg =
    Arg.(value & opt (some int) None
         & info [ "trace" ] ~docv:"N"
             ~doc:"Record splice events; print the last $(docv) afterwards.")
  in
  let run disk size_mb mode same_disk watermarks trace max_cluster =
    let file_bytes = file_bytes size_mb in
    let config =
      Option.map
        (fun (lo, hi, burst) ->
          (match mode with
           | `Scp -> ()
           | `Cp | `Mcp -> usage_error "--watermarks applies only to --mode scp");
          try Kpath_core.Flowctl.make ~read_lo:lo ~write_hi:hi ~read_burst:burst
          with Invalid_argument msg -> usage_error ("--watermarks: " ^ msg))
        watermarks
    in
    let machine_config = config_with_cluster max_cluster in
    match trace with
    | None ->
      let m =
        Experiments.measure_copy ~mode ~disk ~file_bytes ~same_disk
          ~machine_config ?config ()
      in
      Format.printf "%s %d MB on %s%s: %.0f KB/s in %.2fs, verified=%b@."
        (match mode with `Cp -> "cp" | `Scp -> "scp" | `Mcp -> "mcp")
        size_mb
        (Experiments.disk_name disk)
        (if same_disk then " (same disk)" else "")
        m.Experiments.cm_kb_per_sec m.Experiments.cm_seconds
        m.Experiments.cm_verified
    | Some last_n ->
      (* Traced run: drive the setup by hand so the trace ring can be
         enabled before the copy starts. *)
      let s =
        Experiments.make_setup ~disk ~file_bytes ~same_disk ~machine_config ()
      in
      Experiments.cold_caches s;
      let machine = s.Experiments.machine in
      Kpath_sim.Trace.enable (Machine.trace machine) "splice";
      let stats = Programs.fresh_copy_stats () in
      let _copier =
        match mode with
        | `Cp ->
          Programs.spawn_cp machine ~src:s.Experiments.src_path
            ~dst:s.Experiments.dst_path stats
        | `Mcp ->
          Programs.spawn_mcp machine ~src:s.Experiments.src_path
            ~dst:s.Experiments.dst_path stats
        | `Scp ->
          Programs.spawn_scp machine ~src:s.Experiments.src_path
            ~dst:s.Experiments.dst_path ?config stats
      in
      Machine.run machine;
      let events = Kpath_sim.Trace.events (Machine.trace machine) in
      let skip = max 0 (List.length events - last_n) in
      List.iteri
        (fun i ev ->
          if i >= skip then
            Format.printf "%a@." Kpath_sim.Trace.pp_event ev)
        events;
      Format.printf "(%d events recorded, %d shown)@."
        (Kpath_sim.Trace.recorded (Machine.trace machine))
        (min last_n (List.length events));
      let h =
        Kpath_sim.Stats.histogram
          (Kpath_core.Splice.ctx_stats (Machine.splice_ctx machine))
          "splice.block_latency_us"
      in
      if Kpath_sim.Histogram.count h > 0 then
        Format.printf "block latency (us): %a@." Kpath_sim.Histogram.pp h
  in
  Cmd.v (Cmd.info "copy" ~doc:"Measure one cold file copy.")
    Term.(const run $ disk_arg $ size_arg $ mode_arg $ same_disk_arg
          $ watermarks_arg $ trace_arg $ max_cluster_arg)

(* cluster *)

let cluster_cmd =
  let sizes_arg =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16 ]
         & info [ "sizes" ] ~docv:"N,..."
             ~doc:"Cluster sizes to sweep (blocks per transfer).")
  in
  let run disk size_mb sizes =
    let file_bytes = file_bytes size_mb in
    if List.exists (fun s -> s < 1) sizes then
      usage_error "--sizes entries must be at least 1";
    List.iter
      (fun r ->
        Format.printf
          "%-5s cluster=%2d scp=%.0f KB/s intrs/MB=%.1f F_scp=%.3f@."
          (Experiments.disk_name r.Experiments.cl_disk)
          r.Experiments.cl_cluster r.Experiments.cl_scp_kbps
          r.Experiments.cl_intrs_per_mb r.Experiments.cl_f_scp)
      (Experiments.cluster_sweep ~disk ~file_bytes sizes)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Sweep the clustered-I/O transfer size: splice throughput, \
             device interrupts per MB and CPU availability vs. cluster size \
             (the paper's s7 'larger transfer units' projection).")
    Term.(const run $ disk_arg $ size_arg $ sizes_arg)

(* table1 *)

let table1_cmd =
  let ops_arg =
    Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"N" ~doc:"Test-program operations (1 ms each).")
  in
  let natural_arg =
    Arg.(value & flag & info [ "natural" ] ~doc:"Run copiers at device maximum instead of pacing to 1 MB/s.")
  in
  let run size_mb ops natural =
    let file_bytes = file_bytes size_mb in
    if ops < 1 then usage_error "--ops must be at least 1";
    let pace = if natural then None else Some 1.0e6 in
    List.iter
      (fun r ->
        Format.printf "%-5s F_cp=%.2f F_scp=%.2f I=%.2f (+%.0f%%)@."
          (Experiments.disk_name r.Experiments.av_disk)
          r.Experiments.av_f_cp r.Experiments.av_f_scp
          r.Experiments.av_improvement r.Experiments.av_pct)
      (Experiments.table1 ~file_bytes ~ops ~pace ())
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1 (CPU availability).")
    Term.(const run $ size_arg $ ops_arg $ natural_arg)

(* table2 *)

let table2_cmd =
  let run size_mb =
    let file_bytes = file_bytes size_mb in
    List.iter
      (fun r ->
        Format.printf "%-5s scp=%.0f KB/s cp=%.0f KB/s (+%.0f%%)@."
          (Experiments.disk_name r.Experiments.tp_disk)
          r.Experiments.tp_scp_kbps r.Experiments.tp_cp_kbps
          r.Experiments.tp_pct_improvement)
      (Experiments.table2 ~file_bytes ())
  in
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2 (throughput).")
    Term.(const run $ size_arg)

(* relay *)

let relay_cmd =
  let n_arg =
    Arg.(value & opt int 500 & info [ "datagrams" ] ~docv:"N" ~doc:"Datagrams to relay.")
  in
  let run n =
    if n < 1 then usage_error "--datagrams must be at least 1";
    List.iter
      (fun (name, mode) ->
        let r = Experiments.measure_relay ~mode ~datagrams:n () in
        Format.printf "%-8s: %d/%d delivered, %d dropped, CPU %.1f%%@." name
          r.Experiments.rm_datagrams n r.Experiments.rm_dropped
          (r.Experiments.rm_cpu_busy_frac *. 100.))
      [ ("process", `Process); ("splice", `Splice) ]
  in
  Cmd.v (Cmd.info "relay" ~doc:"Compare UDP relays: process vs splice.")
    Term.(const run $ n_arg)

(* media *)

let media_cmd =
  let load_arg =
    Arg.(value & opt int 0 & info [ "load" ] ~docv:"N" ~doc:"Competing compute-bound processes.")
  in
  let seconds_arg =
    Arg.(value & opt int 5 & info [ "seconds" ] ~docv:"S" ~doc:"Movie length in simulated seconds.")
  in
  let run load seconds =
    if load < 0 then usage_error "--load must not be negative";
    if seconds < 1 then usage_error "--seconds must be positive";
    List.iter
      (fun (name, player) ->
        let r = Experiments.measure_media ~player ~load ~seconds () in
        Format.printf
          "%-8s: %d frames (%d late), %d underruns, %.1f fps, player CPU %.2fs@."
          name r.Experiments.md_frames r.Experiments.md_late_frames
          r.Experiments.md_audio_underruns r.Experiments.md_fps
          r.Experiments.md_player_cpu_sec)
      [ ("process", `Process); ("splice", `Splice) ]
  in
  Cmd.v
    (Cmd.info "media" ~doc:"Compare movie players: read/write vs splice (s4).")
    Term.(const run $ load_arg $ seconds_arg)

(* graph *)

let graph_cmd =
  let clients_arg =
    Arg.(value & opt int 8
         & info [ "clients" ] ~docv:"N" ~doc:"TCP clients fed from one disk pass.")
  in
  let size_kb_arg =
    Arg.(value & opt int 1024
         & info [ "size-kb" ] ~docv:"KB" ~doc:"File size in kilobytes.")
  in
  let bandwidth_arg =
    Arg.(value & opt float 40.0
         & info [ "bandwidth" ] ~docv:"MBPS" ~doc:"Network segment bandwidth, MB/s.")
  in
  let window_arg =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"BLOCKS"
             ~doc:"Per-source cap on blocks simultaneously held (pending reads + aliased buffers).")
  in
  let throttle_arg =
    Arg.(value & opt (some float) None
         & info [ "throttle" ] ~docv:"BPS"
             ~doc:"Pace every edge to this rate in bytes/second (a Throttle filter).")
  in
  let checksum_arg =
    Arg.(value & flag
         & info [ "checksum" ] ~doc:"Run a Checksum filter stage on every edge.")
  in
  let prog_arg =
    Arg.(value & opt (some string) None
         & info [ "prog" ] ~docv:"FILE"
             ~doc:"Attach the filter program assembled from $(docv) to every \
                   edge. The program must pass the in-kernel verifier; a \
                   rejection prints the violated rule and instruction offset.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-json" ] ~docv:"FILE"
             ~doc:"Dump the per-block graph event log to $(docv), one JSON object per line.")
  in
  let run clients size_kb bandwidth window throttle checksum prog trace =
    if clients < 1 then usage_error "--clients must be at least 1";
    if size_kb < 1 then usage_error "--size-kb must be at least 1";
    if not (bandwidth > 0.0) then usage_error "--bandwidth must be positive";
    (match throttle with
     | Some bps when not (bps > 0.0) ->
       usage_error "--throttle must be positive"
     | _ -> ());
    (match window with
     | Some w when w < 1 -> usage_error "--window must be at least 1"
     | _ -> ());
    let prog_filter =
      match prog with
      | None -> []
      | Some path ->
        let text =
          try
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          with Sys_error msg -> usage_error ("cannot read program: " ^ msg)
        in
        (match Kpath_vm.Asm.load text with
         | Ok p -> [ Kpath_graph.Graph.Prog p ]
         | Error diag -> usage_error (Printf.sprintf "%s: %s" path diag))
    in
    let filters =
      (if checksum then [ Kpath_graph.Graph.Checksum ] else [])
      @ (match throttle with
         | Some bps -> [ Kpath_graph.Graph.Throttle bps ]
         | None -> [])
      @ prog_filter
    in
    let filters = if filters = [] then None else Some filters in
    let measure trace_json =
      Experiments.measure_fanout ~clients ~file_bytes:(size_kb * 1024)
        ~bandwidth:(bandwidth *. 1e6) ?filters ?window ?trace_json ()
    in
    let r =
      match trace with
      | None -> measure None
      | Some path ->
        let oc =
          try open_out path
          with Sys_error msg -> usage_error ("cannot open trace file: " ^ msg)
        in
        let fmt = Format.formatter_of_out_channel oc in
        let r = measure (Some fmt) in
        Format.pp_print_flush fmt ();
        close_out oc;
        r
    in
    Format.printf
      "fan-out %d KB x %d clients: %.0f KB/s aggregate in %.2fs, %d device \
       reads (one disk pass), server CPU %.2fs, verified=%b@."
      size_kb r.Experiments.fo_clients r.Experiments.fo_agg_kb_per_sec
      r.Experiments.fo_seconds r.Experiments.fo_device_reads
      r.Experiments.fo_server_cpu_sec r.Experiments.fo_verified;
    Format.printf "tcp: %d retransmits, %d zero-window probes@."
      r.Experiments.fo_retransmits r.Experiments.fo_persist_probes;
    if Option.is_some prog then
      Format.printf "filter program: %d runs, %d instructions executed@."
        r.Experiments.fo_prog_runs r.Experiments.fo_prog_insns;
    if r.Experiments.fo_pinned_after <> 0 then
      Format.printf "WARNING: %d buffers still pinned after completion@."
        r.Experiments.fo_pinned_after
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Stream one file to N TCP clients through a splice graph (fan-out).")
    Term.(const run $ clients_arg $ size_kb_arg $ bandwidth_arg $ window_arg
          $ throttle_arg $ checksum_arg $ prog_arg $ trace_arg)

(* prog *)

let prog_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Filter program source to verify and disassemble.")
  in
  let run path =
    let fail fmt = Format.kasprintf usage_error fmt in
    let text =
      try
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error msg -> fail "cannot read program: %s" msg
    in
    match Kpath_vm.Asm.load text with
    | Error diag -> fail "%s: %s" path diag
    | Ok p ->
      let insns = Kpath_vm.Vm.insns p in
      let code = Kpath_vm.Compile.compile p in
      let bs = Kpath_vm.Compile.blocks code in
      Format.printf "%s: verified, context %s@." path
        (match Kpath_vm.Vm.prog_context p with
         | Kpath_vm.Vm.Edge -> "edge"
         | Kpath_vm.Vm.Readonly -> "readonly");
      Format.printf
        "%d instructions, worst_cost %d <= fuel %d, scratch %d cells, %d \
         basic blocks@."
        (Array.length insns)
        (Kpath_vm.Vm.worst_cost p)
        (Kpath_vm.Vm.fuel p)
        (Kpath_vm.Vm.scratch_cells p)
        (Array.length bs);
      let accesses = Kpath_vm.Vm.accesses p in
      let proven =
        List.length
          (List.filter
             (fun a ->
               match a.Kpath_vm.Vm.a_bounds with
               | `Proven -> true
               | `Checked -> false)
             accesses)
      in
      Format.printf
        "range analysis: %d faultable sites, %d proven (checks elided)@."
        (List.length accesses) proven;
      let tiers = Kpath_vm.Compile.block_tiers code in
      Array.iteri
        (fun b { Kpath_vm.Compile.bb_first; bb_last } ->
          Format.printf "b%d: [%s]@." b tiers.(b);
          for pc = bb_first to bb_last do
            let note =
              match
                List.find_opt (fun a -> a.Kpath_vm.Vm.a_pc = pc) accesses
              with
              | None -> ""
              | Some a ->
                Format.sprintf "  ; %s %s, %s"
                  (match a.Kpath_vm.Vm.a_kind with
                   | `Load -> "load"
                   | `Store -> "store"
                   | `Div -> "div")
                  (match a.Kpath_vm.Vm.a_bounds with
                   | `Proven -> "proven"
                   | `Checked -> "checked")
                  a.Kpath_vm.Vm.a_range
            in
            Format.printf "  %4d: %s%s@." pc
              (Kpath_vm.Asm.insn_to_string ~pc insns.(pc))
              note
          done)
        bs
  in
  Cmd.v
    (Cmd.info "prog"
       ~doc:"Verify and disassemble a filter program without running it: \
             static cost against its fuel budget, scratch footprint, the \
             basic-block structure the closure compiler found, per block \
             the compilation tier that fired (named loop idiom, fused \
             loop, or plain chained closures), and the \
             range analysis's verdict at every faultable site — the \
             offset interval and whether the runtime check was proven \
             away — so a slow program is diagnosable without reading the \
             compiler. A rejected program prints the violated rule and \
             instruction offset and exits 124, exactly as graph --prog \
             would.")
    Term.(const run $ file_arg)

(* sendfile *)

let sendfile_cmd =
  let loss_arg =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Frame loss probability, in [0, 1).")
  in
  let run size_mb loss =
    let file_bytes = file_bytes size_mb in
    if not (loss >= 0.0 && loss < 1.0) then
      usage_error "--loss must be in [0, 1)";
    List.iter
      (fun (name, mode) ->
        let r =
          Experiments.measure_sendfile ~mode ~file_bytes ~loss ()
        in
        Format.printf
          "%-9s: verified=%b %.0f KB/s server-cpu %.2fs retransmits %d@." name
          r.Experiments.sf_verified r.Experiments.sf_kb_per_sec
          r.Experiments.sf_server_cpu_sec r.Experiments.sf_retransmits)
      [ ("readwrite", `ReadWrite); ("sendfile", `Sendfile) ]
  in
  Cmd.v
    (Cmd.info "sendfile" ~doc:"Serve a file over TCP: read/write vs splice.")
    Term.(const run $ size_arg $ loss_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "kpathctl" ~version:"1.0.0"
      ~doc:"Drive the kpath in-kernel data path simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ info_cmd; copy_cmd; cluster_cmd; table1_cmd; table2_cmd; relay_cmd;
            media_cmd; graph_cmd; prog_cmd; sendfile_cmd ]))
