open Kpath_sim

type error = Io_error of string

let pp_error fmt (Io_error msg) = Format.fprintf fmt "I/O error: %s" msg

type req = {
  r_blkno : int;
  r_data : bytes;
  r_count : int;
  r_write : bool;
  r_done : error option -> unit;
}

type intr = service:Time.span -> (unit -> unit) -> unit

type t = {
  dv_name : string;
  dv_id : int;
  dv_block_size : int;
  dv_nblocks : int;
  dv_strategy : req -> unit;
  dv_pending : unit -> int;
  dv_stats : Stats.t;
}

let id_counter = ref 0

let next_id () =
  incr id_counter;
  !id_counter

let check_req t req =
  if req.r_count <= 0 then invalid_arg "Blkdev: r_count <= 0";
  if req.r_count mod t.dv_block_size <> 0 then
    invalid_arg "Blkdev: r_count not a whole number of blocks";
  if req.r_count > Bytes.length req.r_data then
    invalid_arg "Blkdev: r_count exceeds data area";
  let nblk = req.r_count / t.dv_block_size in
  if req.r_blkno < 0 || req.r_blkno + nblk > t.dv_nblocks then
    invalid_arg
      (Printf.sprintf "Blkdev %s: block range [%d,%d) out of [0,%d)" t.dv_name
         req.r_blkno (req.r_blkno + nblk) t.dv_nblocks)

let blocks_of_req t req = req.r_count / t.dv_block_size
