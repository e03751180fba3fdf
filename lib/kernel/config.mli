(** Machine cost model.

    Every CPU and memory cost the simulation charges, in one record. The
    defaults describe the paper's testbed (§6.1): a DECstation 5000/200
    (25 MHz MIPS R3000, 32 MB memory, 3.2 MB buffer cache) running
    Ultrix 4.2A. Rates come straight from the paper; per-operation
    overheads are plausible values for that class of machine, chosen
    once and never tuned per-experiment. *)

open Kpath_sim

type t = {
  name : string;
  (* CPU-time costs *)
  syscall_overhead : Time.span;
      (** kernel entry/exit per system call (30 us) *)
  ctx_switch_cost : Time.span;  (** full context switch (100 us) *)
  quantum : Time.span;  (** scheduler timeslice (10 ms) *)
  disk_intr_service : Time.span;  (** SCSI completion interrupt (60 us) *)
  splice_handler_cost : Time.span;
      (** one splice read/write handler activation (25 us) *)
  splice_setup_per_block : Time.span;
      (** bmap + table fill per block at splice setup (5 us) *)
  udp_proto_cost : Time.span;
      (** protocol processing per datagram in the process path (120 us) *)
  page_fault_cost : Time.span;
      (** trap + PTE handling per page fault, excluding any disk I/O
          (500 us — §7's memory-mapped alternative pays this per page) *)
  callout_tick : Time.span;  (** callout list clock period (1 ms) *)
  vm_insn_cost : Time.span;
      (** CPU charged per executed filter-program instruction
          ([r_steps]) (100 ns — a handful of R3000 cycles per
          dispatched bytecode) *)
  sim_engine : Engine.backend;
      (** always [`Wheel], a value {!Engine.create} accepts and
          ignores: the engine has one queue, an event heap. A one-value
          field kept only because kbench passes
          [~backend:config.sim_engine] *)
  (* Memory rates (bytes/second) *)
  copy_rate : float;
      (** kernel/user copy (copyin/copyout) and driver bcopy: the
          partial-page write rate, 20 MB/s *)
  (* Buffer cache *)
  block_size : int;  (** filesystem block size (8 KB) *)
  cache_bytes : int;  (** buffer cache size (3.2 MB) *)
  max_cluster : int;
      (** largest run of physically contiguous blocks coalesced into a
          single device request by the cluster I/O paths (8 blocks =
          64 KB, the larger transfer unit of §7; 1 disables clustering) *)
  (* RAM disk *)
  ramdisk_blocks : int;  (** 16 MB of kernel BSS *)
}

val decstation_5000_200 : t
(** The paper's primary machine. *)

val decstation_5000_240 : t
(** The paper's second test machine (§5): a 40 MHz R3400 — per-operation
    CPU costs scaled by 25/40 and memory copy rate up accordingly. *)

val scaled : t -> cpu_factor:float -> t
(** [scaled c ~cpu_factor] is [c] with every CPU cost divided by — and
    the memory copy rate multiplied by — [cpu_factor]: a what-if machine
    for studying how the splice advantage moves as processors outpace
    devices. Device speeds are untouched. *)

val copy_cost : t -> int -> Time.span
(** [copy_cost c n] is the CPU time to copy [n] bytes at the memory copy
    rate. *)

val cache_nbufs : t -> int
(** Number of cache buffers implied by [cache_bytes] / [block_size]. *)

val pp : Format.formatter -> t -> unit
