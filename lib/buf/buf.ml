open Kpath_dev

let b_busy = 0x01
let b_done = 0x02
let b_delwri = 0x04
let b_async = 0x08
let b_call = 0x10
let b_read = 0x20
let b_error_flag = 0x40
let b_inval = 0x80

type t = {
  b_id : int;
  mutable b_dev : Blkdev.t option;
  mutable b_blkno : int;
  mutable b_lblkno : int;
  mutable b_refs : int;
  mutable b_data : bytes;
  mutable b_sealed : bool;
  mutable b_cluster : bytes array;
  mutable b_flags : int;
  mutable b_error : Blkdev.error option;
  mutable b_iodone : (t -> unit) option;
  mutable b_waiters : (unit -> unit) list;
  mutable b_stamp : int;
  mutable b_in_hash : bool;
}

let make ~id ~data_size =
  {
    b_id = id;
    b_dev = None;
    b_blkno = -1;
    b_lblkno = -1;
    b_refs = 0;
    b_data = Bytes.make data_size '\000';
    b_sealed = false;
    b_cluster = [||];
    b_flags = 0;
    b_error = None;
    b_iodone = None;
    b_waiters = [];
    b_stamp = 0;
    b_in_hash = false;
  }

let has b f = b.b_flags land f <> 0

let set b f = b.b_flags <- b.b_flags lor f

let clear b f = b.b_flags <- b.b_flags land lnot f

let valid b = has b b_done && not (has b b_error_flag)

let pp fmt b =
  let flag name f = if has b f then name else "" in
  Format.fprintf fmt "buf#%d %s/%d [%s%s%s%s%s%s%s%s]" b.b_id
    (match b.b_dev with Some d -> d.Blkdev.dv_name | None -> "?")
    b.b_blkno (flag "B" b_busy) (flag "D" b_done) (flag "W" b_delwri)
    (flag "A" b_async) (flag "C" b_call) (flag "R" b_read)
    (flag "E" b_error_flag) (flag "I" b_inval)
