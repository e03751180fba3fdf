open Kpath_sim

type error = Io_error of string

type req = {
  r_blkno : int;
  r_bufs : bytes array;
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
  dv_stats : Stats.t;
}

let id_counter = ref 0

let next_id () =
  incr id_counter;
  !id_counter

let check_req t req =
  let nblk = Array.length req.r_bufs in
  if nblk = 0 then invalid_arg "Blkdev: empty request";
  if Array.exists (fun data -> Bytes.length data <> t.dv_block_size) req.r_bufs
  then invalid_arg "Blkdev: data area not one block long";
  if req.r_blkno < 0 || req.r_blkno + nblk > t.dv_nblocks then
    invalid_arg
      (Printf.sprintf "Blkdev %s: block range [%d,%d) out of [0,%d)" t.dv_name
         req.r_blkno (req.r_blkno + nblk) t.dv_nblocks)

type store = {
  st_name : string;
  st_block_size : int;
  (* Sealed areas, never written in place; every never-written block
     shares one zero area. *)
  st_blocks : bytes array;
  mutable st_poisoned : int list; (* one-shot error injection *)
}

let store ~name ~block_size ~nblocks =
  {
    st_name = name;
    st_block_size = block_size;
    st_blocks = Array.make nblocks (Bytes.make block_size '\000');
    st_poisoned = [];
  }

(* A single-block request consumes the poison. A multi-block request
   fails WITHOUT consuming it: the cluster layer above reacts to a failed
   clustered transfer by breaking it up into single-block retries (the
   4.3BSD cluster-breakup path), and the retry of exactly the bad block
   must still see the error so it is isolated to that block's buffer
   header alone. *)
let poisoned_hit s req =
  let nblk = Array.length req.r_bufs in
  let in_range b = b >= req.r_blkno && b < req.r_blkno + nblk in
  let hit = List.exists in_range s.st_poisoned in
  if hit && nblk = 1 then
    s.st_poisoned <- List.filter (fun b -> not (in_range b)) s.st_poisoned;
  hit

let transfer s req =
  if poisoned_hit s req then Some (Io_error (s.st_name ^ ": hard error"))
  else begin
    let bufs = req.r_bufs in
    for i = 0 to Array.length bufs - 1 do
      if req.r_write then s.st_blocks.(req.r_blkno + i) <- bufs.(i)
      else bufs.(i) <- s.st_blocks.(req.r_blkno + i)
    done;
    None
  end

let check_blkno s fn blkno =
  if blkno < 0 || blkno >= Array.length s.st_blocks then
    invalid_arg (s.st_name ^ ": " ^ fn)

let read_block_direct s blkno =
  check_blkno s "read_block_direct" blkno;
  Bytes.copy s.st_blocks.(blkno)

let write_block_direct s blkno data =
  check_blkno s "write_block_direct" blkno;
  if Bytes.length data <> s.st_block_size then
    invalid_arg (s.st_name ^ ": write_block_direct: wrong block length");
  s.st_blocks.(blkno) <- Bytes.copy data

let inject_error s ~blkno = s.st_poisoned <- blkno :: s.st_poisoned
