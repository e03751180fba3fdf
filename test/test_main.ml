(* Test entry point: one alcotest binary, one suite per module. *)

let () =
  Alcotest.run "kpath"
    [
      ("time", Test_time.suite);
      ("engine", Test_engine.suite);
      ("engine-equiv", Test_engine_equiv.suite);
      ("callout", Test_callout.suite);
      ("rng-stats", Test_rng_stats.suite);
      ("sched", Test_sched.suite);
      ("signal", Test_signal.suite);
      ("disk", Test_disk.suite);
      ("ramdisk-chardev-fb", Test_chardev.suite);
      ("cache", Test_cache.suite);
      ("fs", Test_fs.suite);
      ("fs-fuzz", Test_fs_fuzz.suite);
      ("net", Test_net.suite);
      ("tcp", Test_tcp.suite);
      ("flowctl", Test_flowctl.suite);
      ("trace", Test_trace.suite);
      ("splice", Test_splice.suite);
      ("vm", Test_vm.suite);
      ("vm-parity", Test_vm_parity.suite);
      ("graph", Test_graph.suite);
      ("kernel", Test_kernel.suite);
      ("workloads", Test_workloads.suite);
      ("lint", Test_lint.suite);
    ]
