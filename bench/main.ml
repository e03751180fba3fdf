(* Benchmark harness: regenerates every table of the paper's evaluation
   (§6) plus the ablations DESIGN.md calls out, printing measured values
   next to the paper's. It prints simulated results only, so every run
   prints the same bytes: EXPERIMENTS.md quotes each section of [all]'s
   output, and `dune runtest` checks the quotes (test/dune). Host-speed
   measurement lives in kbench/.

   Usage:
     dune exec bench/main.exe                 -- every target ([all])
     dune exec bench/main.exe -- table1       -- only Table 1
     dune exec bench/main.exe -- table2 ablation-watermarks ...
     dune exec bench/main.exe -- smoke        -- small sizes, JSON for CI
   The [targets] table at the end of this file lists every target; an
   unknown target name prints it. *)

open Kpath_workloads

let mb = 1024 * 1024

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* {1 Table 1} *)

(* The paper's Table 1 values. F_cp and F_scp follow from the quoted
   "percentage of the IDLE rate" figures in §6.2. *)
let paper_table1 = function
  | `Ram -> (2.00, 1.25, 1.60, 60.0)
  | `Rz56 -> (1.67, 1.43, 1.17, 17.0)
  | `Rz58 -> (1.67, 1.25, 1.33, 33.0)

let print_table1 ~pace () =
  let file_bytes = 8 * mb in
  (match pace with
   | Some rate ->
     header
       (Printf.sprintf
          "Table 1: CPU availability factors (copying %d MB file, both \
           copiers paced to %.1f MB/s)"
          (file_bytes / mb) (rate /. 1e6))
   | None ->
     header
       (Printf.sprintf
          "Table 1 (natural-rate variant): copiers run at device maximum (%d \
           MB file)"
          (file_bytes / mb)));
  Printf.printf "%-6s | %8s %8s | %8s %8s | %8s %8s | %8s %8s\n" "Disk" "F_cp"
    "paper" "F_scp" "paper" "I" "paper" "%impr" "paper";
  Printf.printf "%s\n" line;
  List.iter
    (fun r ->
      let p_fcp, p_fscp, p_i, p_pct = paper_table1 r.Experiments.av_disk in
      Printf.printf
        "%-6s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %7.0f%% %7.0f%%\n"
        (Experiments.disk_name r.Experiments.av_disk)
        r.Experiments.av_f_cp p_fcp r.Experiments.av_f_scp p_fscp
        r.Experiments.av_improvement p_i r.Experiments.av_pct p_pct)
    (Experiments.table1 ~file_bytes ~pace ());
  print_newline ()

(* {1 Table 2} *)

let paper_table2 = function
  | `Ram -> (Some 3343.0, Some 1884.0, Some 77.0)
  | `Rz56 | `Rz58 ->
    (* The RZ rows' numeric cells were lost in the source transcription
       of the paper; §6.3 says only that "the benefit of splice is
       minor" for real disks. *)
    (None, None, None)

let opt_cell = function Some v -> Printf.sprintf "%8.0f" v | None -> "  (lost)"

let print_table2 () =
  let file_bytes = 8 * mb in
  header
    (Printf.sprintf "Table 2: mean throughput (copying %d MB file, KB/s)"
       (file_bytes / mb));
  Printf.printf "%-6s | %8s %8s | %8s %8s | %8s %8s | %s\n" "Disk" "SCP"
    "paper" "CP" "paper" "%impr" "paper" "verified";
  Printf.printf "%s\n" line;
  List.iter
    (fun r ->
      let p_scp, p_cp, p_pct = paper_table2 r.Experiments.tp_disk in
      Printf.printf "%-6s | %8.0f %s | %8.0f %s | %7.0f%% %s | %s\n"
        (Experiments.disk_name r.Experiments.tp_disk)
        r.Experiments.tp_scp_kbps (opt_cell p_scp) r.Experiments.tp_cp_kbps
        (opt_cell p_cp) r.Experiments.tp_pct_improvement
        (match p_pct with
         | Some v -> Printf.sprintf "%7.0f%%" v
         | None -> "(minor)")
        "yes")
    (Experiments.table2 ~file_bytes ());
  print_newline ()

(* {1 Ablations} *)

let print_watermarks () =
  let file_bytes = 4 * mb in
  header
    (Printf.sprintf
       "Ablation (s5.5): flow-control watermarks, splice throughput, RZ58, \
        %d MB file  [paper: lo=3 hi=5 burst=5 'adequate']"
       (file_bytes / mb));
  let open Kpath_core in
  let configs =
    [
      Flowctl.lockstep;
      Flowctl.make ~read_lo:2 ~write_hi:2 ~read_burst:2;
      Flowctl.default;
      Flowctl.make ~read_lo:6 ~write_hi:10 ~read_burst:10;
      Flowctl.make ~read_lo:12 ~write_hi:20 ~read_burst:20;
    ]
  in
  Printf.printf "%-24s | %10s | %s\n" "config (lo/hi/burst)" "KB/s" "verified";
  Printf.printf "%s\n" line;
  List.iter
    (fun (c, m) ->
      Printf.printf "%-24s | %10.0f | %b\n"
        (Printf.sprintf "%d/%d/%d" c.Flowctl.read_lo c.Flowctl.write_hi
           c.Flowctl.read_burst)
        m.Experiments.cm_kb_per_sec m.Experiments.cm_verified)
    (Experiments.watermark_sweep ~disk:`Rz58 ~file_bytes configs);
  print_newline ()

let print_lockstep () =
  let file_bytes = 4 * mb in
  header
    "Ablation (s5.4): callout decoupling -- pipelined splice vs lock-step \
     (one block in flight)";
  let open Kpath_core in
  Printf.printf "%-6s | %14s | %14s | %s\n" "Disk" "pipelined KB/s"
    "lockstep KB/s" "speedup";
  Printf.printf "%s\n" line;
  List.iter
    (fun disk ->
      let pipe = Experiments.measure_copy ~mode:`Scp ~disk ~file_bytes () in
      let lock =
        Experiments.measure_copy ~mode:`Scp ~disk ~file_bytes
          ~config:Flowctl.lockstep ()
      in
      Printf.printf "%-6s | %14.0f | %14.0f | %5.2fx\n"
        (Experiments.disk_name disk) pipe.Experiments.cm_kb_per_sec
        lock.Experiments.cm_kb_per_sec
        (pipe.Experiments.cm_kb_per_sec /. lock.Experiments.cm_kb_per_sec))
    [ `Ram; `Rz56; `Rz58 ];
  print_newline ()

let print_size_sweep () =
  header
    "Sweep (s6.2): file-size sensitivity, RZ58  [paper: 'alternative sizes \
     statistically indistinguishable']";
  Printf.printf "%-8s | %10s | %10s | %8s\n" "size" "SCP KB/s" "CP KB/s"
    "%impr";
  Printf.printf "%s\n" line;
  List.iter
    (fun (size, scp, cp) ->
      Printf.printf "%5d MB | %10.0f | %10.0f | %7.0f%%\n" (size / mb)
        scp.Experiments.cm_kb_per_sec cp.Experiments.cm_kb_per_sec
        ((scp.Experiments.cm_kb_per_sec -. cp.Experiments.cm_kb_per_sec)
        /. cp.Experiments.cm_kb_per_sec *. 100.0))
    (Experiments.size_sweep ~disk:`Rz58
       [ 1 * mb; 2 * mb; 4 * mb; 8 * mb; 16 * mb ]);
  print_newline ()

let print_blocksize_sweep () =
  let file_bytes = 4 * mb in
  header
    "Sweep (substrate): filesystem/cache block size, RZ58, cp vs scp      [paper used the 8 KB FFS block]";
  Printf.printf "%-8s | %10s | %10s | %8s\n" "block" "SCP KB/s" "CP KB/s"
    "%impr";
  Printf.printf "%s\n" line;
  List.iter
    (fun block_size ->
      let machine_config =
        { Kpath_kernel.Config.decstation_5000_200 with
          Kpath_kernel.Config.block_size;
          ramdisk_blocks = 16 * mb / block_size;
        }
      in
      let scp =
        Experiments.measure_copy ~mode:`Scp ~disk:`Rz58 ~file_bytes
          ~machine_config ()
      in
      let cp =
        Experiments.measure_copy ~mode:`Cp ~disk:`Rz58 ~file_bytes
          ~machine_config ()
      in
      Printf.printf "%5d KB | %10.0f | %10.0f | %7.0f%%\n" (block_size / 1024)
        scp.Experiments.cm_kb_per_sec cp.Experiments.cm_kb_per_sec
        ((scp.Experiments.cm_kb_per_sec -. cp.Experiments.cm_kb_per_sec)
        /. cp.Experiments.cm_kb_per_sec *. 100.0))
    [ 4096; 8192; 16384 ];
  print_newline ()

let print_cachesize_sweep () =
  let file_bytes = 8 * mb in
  header
    "Sweep (substrate): buffer cache size, RZ58, 8 MB copy [paper: 3.2 MB      cache, file deliberately larger]";
  Printf.printf "%-8s | %10s | %10s\n" "cache" "SCP KB/s" "CP KB/s";
  Printf.printf "%s\n" line;
  List.iter
    (fun cache_kb ->
      let machine_config =
        { Kpath_kernel.Config.decstation_5000_200 with
          Kpath_kernel.Config.cache_bytes = cache_kb * 1024;
        }
      in
      let scp =
        Experiments.measure_copy ~mode:`Scp ~disk:`Rz58 ~file_bytes
          ~machine_config ()
      in
      let cp =
        Experiments.measure_copy ~mode:`Cp ~disk:`Rz58 ~file_bytes
          ~machine_config ()
      in
      Printf.printf "%5d KB | %10.0f | %10.0f\n" cache_kb
        scp.Experiments.cm_kb_per_sec cp.Experiments.cm_kb_per_sec)
    [ 1600; 3200; 6400 ];
  print_newline ()

let print_udp () =
  header
    "Extension (s5.1): UDP socket-to-socket splice vs recvfrom/sendto relay \
     (500 x 4 KB datagrams)";
  Printf.printf "%-10s | %10s | %8s | %10s\n" "relay" "delivered" "dropped"
    "CPU busy";
  Printf.printf "%s\n" line;
  List.iter
    (fun (name, mode) ->
      let r = Experiments.measure_relay ~mode () in
      Printf.printf "%-10s | %10d | %8d | %9.1f%%\n" name
        r.Experiments.rm_datagrams r.Experiments.rm_dropped
        (r.Experiments.rm_cpu_busy_frac *. 100.0))
    [ ("process", `Process); ("splice", `Splice) ];
  print_newline ()

let print_elevator () =
  let file_bytes = 4 * mb in
  header
    "Ablation (substrate): disk queue discipline, same-disk copy, RZ56 --      FIFO vs C-LOOK elevator";
  Printf.printf "%-6s | %12s | %14s | %s\n" "copier" "FIFO KB/s"
    "elevator KB/s" "speedup";
  Printf.printf "%s\n" line;
  List.iter
    (fun (name, mode) ->
      let fifo =
        Experiments.measure_copy ~mode ~disk:`Rz56 ~file_bytes ~same_disk:true
          ~disk_queue:Kpath_dev.Disk.Fifo ()
      in
      let elev =
        Experiments.measure_copy ~mode ~disk:`Rz56 ~file_bytes ~same_disk:true
          ~disk_queue:Kpath_dev.Disk.Elevator ()
      in
      Printf.printf "%-6s | %12.0f | %14.0f | %5.2fx\n" name
        fifo.Experiments.cm_kb_per_sec elev.Experiments.cm_kb_per_sec
        (elev.Experiments.cm_kb_per_sec /. fifo.Experiments.cm_kb_per_sec))
    [ ("cp", `Cp); ("scp", `Scp) ];
  print_newline ()

let print_media () =
  header
    "Extension (s1/s4): continuous-media playback under CPU load (5 s movie,      15 fps + 64 KB/s audio, RZ58)";
  Printf.printf "%-8s | %4s | %8s | %6s | %10s | %10s | %s\n" "player" "load"
    "frames" "late" "underruns" "player CPU" "fps";
  Printf.printf "%s\n" line;
  List.iter
    (fun (name, player) ->
      List.iter
        (fun load ->
          let r = Experiments.measure_media ~player ~load () in
          Printf.printf "%-8s | %4d | %8d | %6d | %10d | %9.2fs | %.1f\n" name
            load r.Experiments.md_frames r.Experiments.md_late_frames
            r.Experiments.md_audio_underruns r.Experiments.md_player_cpu_sec
            r.Experiments.md_fps)
        [ 0; 2; 4 ])
    [ ("process", `Process); ("splice", `Splice) ];
  print_newline ()

let print_relatedwork () =
  let file_bytes = 4 * mb in
  header
    "Related work (s7): copy mechanisms compared -- read/write (cp),      memory-mapped (mcp, Govindan/Anderson-style), splice (scp)";
  Printf.printf "%-6s | %-5s | %10s | %s\n" "Disk" "mode" "KB/s" "verified";
  Printf.printf "%s\n" line;
  List.iter
    (fun disk ->
      List.iter
        (fun (name, mode) ->
          let r = Experiments.measure_copy ~mode ~disk ~file_bytes () in
          Printf.printf "%-6s | %-5s | %10.0f | %b\n"
            (Experiments.disk_name disk) name r.Experiments.cm_kb_per_sec
            r.Experiments.cm_verified)
        [ ("cp", `Cp); ("mcp", `Mcp); ("scp", `Scp) ])
    [ `Ram; `Rz58 ];
  print_newline ()

let print_sendfile () =
  header
    "Extension (sendfile): file served over TCP, server CPU -- read/write      loop vs file-to-TCP splice (4 MB, RZ58 server disk)";
  Printf.printf "%-10s | %6s | %10s | %10s | %12s | %6s\n" "server" "loss"
    "verified" "KB/s" "server CPU" "retx";
  Printf.printf "%s\n" line;
  List.iter
    (fun loss ->
      List.iter
        (fun (name, mode) ->
          let r = Experiments.measure_sendfile ~mode ~loss () in
          Printf.printf "%-10s | %5.0f%% | %10b | %10.0f | %11.2fs | %6d\n"
            name (loss *. 100.) r.Experiments.sf_verified
            r.Experiments.sf_kb_per_sec r.Experiments.sf_server_cpu_sec
            r.Experiments.sf_retransmits)
        [ ("readwrite", `ReadWrite); ("sendfile", `Sendfile) ])
    [ 0.0; 0.01 ];
  print_newline ()

let print_fanout () =
  let file_bytes = 2 * mb in
  header
    (Printf.sprintf
       "Extension (splice graphs): %d MB file fanned out to N TCP clients, one \
        disk pass (RZ58 server, 40 MB/s segment)"
       (file_bytes / mb));
  Printf.printf "%-7s | %9s | %11s | %9s | %11s | %6s | %6s | %s\n" "clients"
    "agg KB/s" "KB/s/clnt" "dev reads" "server CPU" "retx" "probes" "verified";
  Printf.printf "%s\n" line;
  List.iter
    (fun n ->
      let r =
        Experiments.measure_fanout ~clients:n ~file_bytes ~bandwidth:40e6 ()
      in
      Printf.printf "%7d | %9.0f | %11.0f | %9d | %10.2fs | %6d | %6d | %b\n" n
        r.Experiments.fo_agg_kb_per_sec
        (r.Experiments.fo_agg_kb_per_sec /. float_of_int n)
        r.Experiments.fo_device_reads r.Experiments.fo_server_cpu_sec
        r.Experiments.fo_retransmits r.Experiments.fo_persist_probes
        r.Experiments.fo_verified)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ];
  Printf.printf
    "(aggregate should rise until the NIC or the client CPU saturates; dev \
     reads must not grow with N)\n";
  (* Per-block event log of one small run: the graph category traced and
     dumped as one JSON object per line, for offline timeline tooling. *)
  let path = "fanout-trace.jsonl" in
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  ignore
    (Experiments.measure_fanout ~clients:2 ~file_bytes:(256 * 1024)
       ~trace_json:fmt ());
  Format.pp_print_flush fmt ();
  close_out oc;
  Printf.printf "(per-block graph trace of a 2-client run written to %s)\n" path;
  print_newline ()

let print_timeline () =
  header
    "Figure-equivalent: test-program progress over time (ops per 250 ms,      RAM disk, 1 MB/s paced copy; idle rate = 250)";
  let render mode_name mode =
    let buckets =
      Experiments.availability_timeline ~mode ~disk:`Ram ~pace:1.0e6 ~ops:1500 ()
    in
    let cells =
      List.map
        (fun n ->
          (* 0-250 ops per bucket, rendered on an 8-level scale. *)
          let level = min 7 (n * 8 / 251) in
          String.make 1 (String.get " .:-=+*#" level))
        buckets
    in
    Printf.printf "%-4s |%s| (%d buckets; mean %.0f ops)\n" mode_name
      (String.concat "" cells) (List.length buckets)
      (float_of_int (List.fold_left ( + ) 0 buckets)
      /. float_of_int (max 1 (List.length buckets)))
  in
  render "cp" `Cp;
  render "scp" `Scp;
  Printf.printf
    "(denser = more CPU left for the test program; scp rows should be      darker and shorter)\n";
  print_newline ()

let print_cpuspeed_sweep () =
  let file_bytes = 4 * mb in
  header
    "What-if: CPU speed scaling (RAM + RZ58 throughput, 4 MB copy) -- how      the splice advantage moves as processors outpace devices";
  Printf.printf "%-22s | %-5s | %9s | %9s | %6s\n" "machine" "disk" "SCP KB/s"
    "CP KB/s" "%impr";
  Printf.printf "%s\n" line;
  List.iter
    (fun (label, machine_config) ->
      List.iter
        (fun disk ->
          let scp =
            Experiments.measure_copy ~mode:`Scp ~disk ~file_bytes
              ~machine_config ()
          in
          let cp =
            Experiments.measure_copy ~mode:`Cp ~disk ~file_bytes
              ~machine_config ()
          in
          Printf.printf "%-22s | %-5s | %9.0f | %9.0f | %5.0f%%\n" label
            (Experiments.disk_name disk) scp.Experiments.cm_kb_per_sec
            cp.Experiments.cm_kb_per_sec
            ((scp.Experiments.cm_kb_per_sec -. cp.Experiments.cm_kb_per_sec)
            /. cp.Experiments.cm_kb_per_sec *. 100.0))
        [ `Ram; `Rz58 ])
    [
      ("5000/200 (25MHz)", Kpath_kernel.Config.decstation_5000_200);
      ("5000/240 (40MHz)", Kpath_kernel.Config.decstation_5000_240);
      ( "4x what-if",
        Kpath_kernel.Config.scaled Kpath_kernel.Config.decstation_5000_200
          ~cpu_factor:4.0 );
    ];
  print_newline ()

(* {1 Cluster sweep (s7 "larger transfer units")} *)

let cluster_rows ~file_bytes ~ops ~sizes disks =
  List.concat_map
    (fun disk -> Experiments.cluster_sweep ~disk ~file_bytes ~ops sizes)
    disks

let print_cluster_sweep () =
  let file_bytes = 8 * mb in
  header
    (Printf.sprintf
       "Sweep (s7): clustered multi-block I/O, %d MB splice copy --      throughput, device interrupts and CPU availability vs. max_cluster"
       (file_bytes / mb));
  Printf.printf "%-5s | %7s | %9s | %9s | %7s\n" "Disk" "cluster" "SCP KB/s"
    "intrs/MB" "F_scp";
  Printf.printf "%s\n" line;
  List.iter
    (fun r ->
      Printf.printf "%-5s | %7d | %9.0f | %9.1f | %7.3f\n"
        (Experiments.disk_name r.Experiments.cl_disk)
        r.Experiments.cl_cluster r.Experiments.cl_scp_kbps
        r.Experiments.cl_intrs_per_mb r.Experiments.cl_f_scp)
    (cluster_rows ~file_bytes ~ops:2000 ~sizes:[ 1; 2; 4; 8; 16 ]
       [ `Ram; `Rz56; `Rz58 ]);
  Printf.printf
    "(interrupts/MB should fall ~linearly with the cluster size; cluster=1 \
     is the paper's per-block path)\n";
  print_newline ()

(* {1 Filter-program sweep: VM interpreter overhead vs built-in stages} *)

let prog_stages () =
  [
    `Plain;
    `Checksum;
    `Prog ("prog-checksum", [ Kpath_vm.Samples.checksum () ]);
    (* Two identical masks chain to the identity, so the pattern check
       still passes while the row prices a transforming program (and
       the copy-on-write it triggers) -- twice over. *)
    `Prog
      ( "prog-xor2",
        [
          Kpath_vm.Samples.xor_mask ~key:0x5a;
          Kpath_vm.Samples.xor_mask ~key:0x5a;
        ] );
    (* Same identity trick for the per-block keystream cipher: two
       identical xor-streams cancel, so the copy still verifies while
       each block is transformed twice (scatter/store idiom). *)
    `Prog
      ( "prog-xorstream2",
        [
          Kpath_vm.Samples.xor_stream ~key:0x6b;
          Kpath_vm.Samples.xor_stream ~key:0x6b;
        ] );
    (* Read-only probes: byte histogram (histogram idiom) and
       content-defined chunking (rolling-hash idiom). *)
    `Prog ("prog-histogram", [ Kpath_vm.Samples.histogram () ]);
    `Prog ("prog-dedup", [ Kpath_vm.Samples.dedup_chunks ~bits:11 ]);
  ]

let prog_rows ~file_bytes disks =
  List.map
    (fun disk ->
      ( disk,
        List.map
          (fun stage -> Experiments.measure_prog ~disk ~file_bytes ~stage ())
          (prog_stages ()) ))
    disks

let print_prog_sweep () =
  let file_bytes = 4 * mb in
  header
    (Printf.sprintf
       "Sweep: verified filter programs, %d MB splice-graph copy --      VM CPU per block vs the built-in Checksum stage"
       (file_bytes / mb));
  let nblocks = file_bytes / 8192 in
  Printf.printf "%-5s | %-15s | %9s | %7s | %9s | %9s\n" "Disk" "stage" "KB/s"
    "CPU s" "insns/blk" "us/blk";
  Printf.printf "%s\n" line;
  List.iter
    (fun (disk, rows) ->
      let plain_cpu =
        List.fold_left
          (fun acc r ->
            if r.Experiments.pr_stage = "plain" then r.Experiments.pr_cpu_sec
            else acc)
          0.0 rows
      in
      let builtin = ref None and prog = ref None in
      List.iter
        (fun r ->
          (match r.Experiments.pr_stage with
           | "checksum" -> builtin := r.Experiments.pr_checksum
           | "prog-checksum" -> prog := r.Experiments.pr_checksum
           | _ -> ());
          Printf.printf "%-5s | %-15s | %9.0f | %7.3f | %9.1f | %9.2f\n"
            (Experiments.disk_name disk) r.Experiments.pr_stage
            r.Experiments.pr_kb_per_sec r.Experiments.pr_cpu_sec
            (float_of_int r.Experiments.pr_insns /. float_of_int nblocks)
            ((r.Experiments.pr_cpu_sec -. plain_cpu) /. float_of_int nblocks
             *. 1e6))
        rows;
      Printf.printf "%-5s   checksum(builtin) = checksum(prog): %b\n"
        (Experiments.disk_name disk)
        (match (!builtin, !prog) with Some a, Some b -> a = b | _ -> false))
    (prog_rows ~file_bytes [ `Ram; `Rz58 ]);
  Printf.printf
    "(us/blk is the simulated CPU the stage adds per 8 KB block over the \
     plain edge; the FNV program\n runs ~6 instructions per payload byte. \
     Every tier charges the same simulated cost per instruction --\n the \
     compiled closures only cut the host wall-clock of executing them)\n";
  print_newline ()

(* {1 JSON output} *)

(* Results are flat: a document is a list of named values, each a
   scalar, an object of scalars or a list of such objects. Values are
   rendered to strings as the rows are built. *)

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let jstr s = "\"" ^ json_escape s ^ "\""

let jfloat decimals x = Printf.sprintf "%.*f" decimals x

let json_fields ~sep fields =
  String.concat sep
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)

let json_obj fields = "{" ^ json_fields ~sep:", " fields ^ "}"

let json_list rows = "[" ^ String.concat ", " (List.map json_obj rows) ^ "]"

let write_json path fields =
  let oc = open_out path in
  output_string oc ("{\n  " ^ json_fields ~sep:",\n  " fields ^ "\n}\n");
  close_out oc

(* {1 Smoke run: small-size tables + cluster sweep, JSON for CI} *)

let smoke () =
  let path = "BENCH_kpath.json" in
  let file_bytes = mb in
  let ops = 500 in
  let t1 = Experiments.table1 ~file_bytes ~ops ~pace:(Some 1.0e6) () in
  let t2 = Experiments.table2 ~file_bytes () in
  let cl =
    cluster_rows ~file_bytes ~ops:250 ~sizes:[ 1; 4; 8 ] [ `Ram; `Rz58 ]
  in
  let pr =
    match prog_rows ~file_bytes [ `Ram ] with
    | [ (_, rows) ] -> rows
    | _ -> assert false
  in
  let checksum_of stage =
    List.find_map
      (fun r ->
        if r.Experiments.pr_stage = stage then r.Experiments.pr_checksum
        else None)
      pr
  in
  let prog_checksums_match =
    match (checksum_of "checksum", checksum_of "prog-checksum") with
    | Some a, Some b -> a = b
    | _ -> false
  in
  let disk d = ("disk", jstr (Experiments.disk_name d)) in
  write_json path
    [
      ("benchmark", jstr "kpath");
      ("file_bytes", string_of_int file_bytes);
      ( "table1",
        json_list
          (List.map
             (fun r ->
               [
                 disk r.Experiments.av_disk;
                 ("f_cp", jfloat 4 r.Experiments.av_f_cp);
                 ("f_scp", jfloat 4 r.Experiments.av_f_scp);
               ])
             t1) );
      ( "table2",
        json_list
          (List.map
             (fun r ->
               [
                 disk r.Experiments.tp_disk;
                 ("scp_kbps", jfloat 1 r.Experiments.tp_scp_kbps);
                 ("cp_kbps", jfloat 1 r.Experiments.tp_cp_kbps);
               ])
             t2) );
      ( "cluster_sweep",
        json_list
          (List.map
             (fun r ->
               [
                 disk r.Experiments.cl_disk;
                 ("cluster", string_of_int r.Experiments.cl_cluster);
                 ("scp_kbps", jfloat 1 r.Experiments.cl_scp_kbps);
                 ("intrs_per_mb", jfloat 2 r.Experiments.cl_intrs_per_mb);
                 ("f_scp", jfloat 4 r.Experiments.cl_f_scp);
               ])
             cl) );
      ( "prog_sweep",
        json_list
          (List.map
             (fun r ->
               [
                 ("stage", jstr r.Experiments.pr_stage);
                 ("kb_per_sec", jfloat 1 r.Experiments.pr_kb_per_sec);
                 ("cpu_sec", jfloat 4 r.Experiments.pr_cpu_sec);
                 ("runs", string_of_int r.Experiments.pr_runs);
                 ("insns", string_of_int r.Experiments.pr_insns);
                 ("verified", string_of_bool r.Experiments.pr_verified);
               ])
             pr) );
      ("prog_checksum_match", string_of_bool prog_checksums_match);
    ];
  Printf.printf "smoke: results written to %s\n" path

(* {1 Targets} *)

type target = { name : string; doc : string; run : unit -> unit }

(* Every target, in the order [all] runs them. *)
let targets =
  let t name doc run = { name; doc; run } in
  [
    t "table1" "Table 1: CPU availability, copiers paced to 1 MB/s"
      (print_table1 ~pace:(Some 1.0e6));
    t "table2" "Table 2: copy throughput" print_table2;
    t "ablation-watermarks" "s5.5 flow-control watermarks" print_watermarks;
    t "ablation-lockstep" "s5.4 pipelined vs lock-step splice" print_lockstep;
    t "sweep-size" "file-size sensitivity" print_size_sweep;
    t "sweep-blocksize" "filesystem block size" print_blocksize_sweep;
    t "sweep-cachesize" "buffer cache size" print_cachesize_sweep;
    t "table-udp" "UDP relay: process vs splice" print_udp;
    t "table-media" "continuous-media playback under load" print_media;
    t "table-sendfile" "file served over TCP: read/write vs splice"
      print_sendfile;
    t "sweep-fanout" "fan-out to N TCP clients; writes fanout-trace.jsonl"
      print_fanout;
    t "sweep-cluster" "s7 clustered multi-block I/O" print_cluster_sweep;
    t "sweep-prog" "verified filter programs" print_prog_sweep;
    t "table-relatedwork" "s7 copy mechanisms: cp, mcp, scp" print_relatedwork;
    t "sweep-cpuspeed" "what-if CPU speed scaling" print_cpuspeed_sweep;
    t "timeline" "test-program progress over time" print_timeline;
    t "ablation-elevator" "FIFO vs C-LOOK disk queue" print_elevator;
    t "table1-natural" "Table 1 with copiers at device maximum"
      (print_table1 ~pace:None);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [TARGET...]   (no target = all)\n\
    \  all                  every target below, in order\n\
    \  smoke                small tables + sweeps, JSON to BENCH_kpath.json\n";
  List.iter (fun t -> Printf.eprintf "  %-20s %s\n" t.name t.doc) targets

(* Resolve one command-line word to an action. *)
let resolve = function
  | "all" -> Some (fun () -> List.iter (fun t -> t.run ()) targets)
  | "smoke" -> Some smoke
  | arg ->
    Option.map (fun t -> t.run) (List.find_opt (fun t -> t.name = arg) targets)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = if args = [] then [ "all" ] else args in
  let actions =
    List.map
      (fun arg ->
        match resolve arg with
        | Some act -> act
        | None ->
          Printf.eprintf "unknown target %s\n" arg;
          usage ();
          exit 1)
      args
  in
  Printf.printf
    "kpath bench -- reproduction of Fall & Pasquale, USENIX Winter 1993\n";
  Printf.printf "machine model: %s\n"
    (Format.asprintf "%a" Kpath_kernel.Config.pp
       Kpath_kernel.Config.decstation_5000_200);
  List.iter (fun act -> act ()) actions
