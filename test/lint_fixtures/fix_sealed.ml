(* Known-bad fixture: an Fs-style write fills a buffer's data area
   without first making it private with [Cache.own]; the area may be
   sealed, shared with the device store. Expected: exactly one
   [sealed-write] finding, in [zero_fill]; [zero_fill_owned] and the
   read in [peek] are clean. *)

module Buf = struct
  type t = { mutable b_data : bytes }
end

module Cache = struct
  let getblk (_dev : int) (_blkno : int) : Buf.t = { Buf.b_data = Bytes.empty }

  let own (_cache : int) (_b : Buf.t) ~keep:(_ : bool) = ()

  let bdwrite (_b : Buf.t) = ()

  let brelse (_b : Buf.t) = ()
end

let zero_fill blkno =
  let b = Cache.getblk 0 blkno in
  Bytes.fill b.Buf.b_data 0 (Bytes.length b.Buf.b_data) '\000';
  Cache.bdwrite b

let zero_fill_owned blkno =
  let b = Cache.getblk 0 blkno in
  Cache.own 0 b ~keep:false;
  Bytes.fill b.Buf.b_data 0 (Bytes.length b.Buf.b_data) '\000';
  Cache.bdwrite b

let peek blkno dst =
  let b = Cache.getblk 0 blkno in
  Bytes.blit b.Buf.b_data 0 dst 0 (Bytes.length dst);
  Cache.brelse b
