(* Known-bad fixture: a functor-built int table enumerated in hash
   order. [Itbl.iter] visits keys in bucket order, which follows the
   hash function rather than the simulation; the sorted fold beside it
   is the accepted idiom. Expected: exactly one [hashtbl-order] finding,
   on the iter. *)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k = k land max_int
end)

let dump tbl = Itbl.iter (fun k _ -> print_int k) tbl

let keys tbl = Itbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare
