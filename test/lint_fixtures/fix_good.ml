(* Known-good fixture: exercises every rule family without violating
   any of them. Expected: zero findings.

   - the interrupt handler calls only non-blocking code;
   - the acquired buffer is released exactly once on every path;
   - the Hashtbl.fold feeds directly into List.sort (the sorted-fold
     idiom), so enumeration order cannot leak out. *)

module Buf = struct
  type t = { mutable data : int }
end

module Cache = struct
  let bread (_dev : int) (_blkno : int) : Buf.t = { Buf.data = 0 }

  let brelse (_b : Buf.t) = ()

  let biodone (_b : Buf.t) = ()
end

let[@kpath.intr] completion_handler (b : Buf.t) = Cache.biodone b

let balanced ok =
  let b = Cache.bread 0 7 in
  if ok then begin
    ignore b.Buf.data;
    Cache.brelse b
  end
  else Cache.brelse b

let sorted_counts (tbl : (string, int) Hashtbl.t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
