open Kpath_sim

type t = {
  name : string;
  syscall_overhead : Time.span;
  ctx_switch_cost : Time.span;
  quantum : Time.span;
  disk_intr_service : Time.span;
  splice_handler_cost : Time.span;
  splice_setup_per_block : Time.span;
  udp_proto_cost : Time.span;
  page_fault_cost : Time.span;
  callout_tick : Time.span;
  vm_insn_cost : Time.span;
  sim_engine : Engine.backend;
  copy_rate : float;
  block_size : int;
  cache_bytes : int;
  max_cluster : int;
  ramdisk_blocks : int;
}

let decstation_5000_200 =
  {
    name = "DECstation 5000/200 (25MHz R3000, Ultrix 4.2A)";
    syscall_overhead = Time.us 30;
    ctx_switch_cost = Time.us 100;
    quantum = Time.ms 10;
    disk_intr_service = Time.us 60;
    splice_handler_cost = Time.us 25;
    splice_setup_per_block = Time.us 5;
    udp_proto_cost = Time.us 120;
    page_fault_cost = Time.us 500;
    callout_tick = Time.ms 1;
    (* One dispatched filter-program instruction: a handful of R3000
       cycles, charged per r_steps of the compiled program. *)
    vm_insn_cost = Time.ns 100;
    sim_engine = `Wheel;
    (* Effective large-copy bcopy rate: each byte is read uncached
       (10 MB/s) and written (20 MB/s) => 1/(1/10+1/20) ~ 6.7 MB/s.
       The 8 KB blocks moved here do not fit the 64 KB data cache once
       the loop touches user buffer + cache buffer + device memory. *)
    copy_rate = 6.7e6;
    block_size = 8192;
    cache_bytes = 3_200 * 1024;
    (* Cluster up to 8 contiguous blocks (64 KB) per device request —
       the transfer unit §7 proposes to amortise per-block strategy and
       interrupt costs. 1 disables clustering (the per-block paths). *)
    max_cluster = 8;
    ramdisk_blocks = 2048 (* 16 MB / 8 KB *);
  }

let scale_span f span = Time.of_us_f (Time.to_us_f span /. f)

let scaled c ~cpu_factor =
  if not (cpu_factor > 0.0) then invalid_arg "Config.scaled: factor <= 0";
  {
    c with
    name = Printf.sprintf "%s (x%.2g CPU)" c.name cpu_factor;
    syscall_overhead = scale_span cpu_factor c.syscall_overhead;
    ctx_switch_cost = scale_span cpu_factor c.ctx_switch_cost;
    disk_intr_service = scale_span cpu_factor c.disk_intr_service;
    splice_handler_cost = scale_span cpu_factor c.splice_handler_cost;
    splice_setup_per_block = scale_span cpu_factor c.splice_setup_per_block;
    udp_proto_cost = scale_span cpu_factor c.udp_proto_cost;
    page_fault_cost = scale_span cpu_factor c.page_fault_cost;
    vm_insn_cost = scale_span cpu_factor c.vm_insn_cost;
    copy_rate = c.copy_rate *. cpu_factor;
  }

let decstation_5000_240 =
  {
    (scaled decstation_5000_200 ~cpu_factor:(40.0 /. 25.0)) with
    name = "DECstation 5000/240 (40MHz R3400, Ultrix 4.2A)";
  }

let copy_cost c n = Time.span_of_bytes ~bytes_per_sec:c.copy_rate n

let cache_nbufs c = c.cache_bytes / c.block_size

let pp fmt c =
  Format.fprintf fmt
    "%s: syscall=%a ctx=%a copy=%.1fMB/s block=%d cache=%dKB" c.name Time.pp
    c.syscall_overhead Time.pp c.ctx_switch_cost (c.copy_rate /. 1e6)
    c.block_size (c.cache_bytes / 1024)
