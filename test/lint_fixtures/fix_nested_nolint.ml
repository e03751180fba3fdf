(* Nested-module escapes: [@kpath.nolint] on bindings reached through a
   module path (Outer.Inner) must suppress exactly the named rule and
   nothing else. Expected: three findings, [rng] twice (the two
   unsuppressed violations below) and one [bad-annotation] (the escape
   with an empty justification, which suppresses nothing); the
   justified hashtbl-order and buf-leak escapes are honored even though
   their bindings are two modules deep. *)

module Buf = struct
  type t = { mutable data : int }
end

module Cache = struct
  let bread (_dev : int) (_blkno : int) : Buf.t = { Buf.data = 0 }

  let brelse (_b : Buf.t) = ()
end

module Outer = struct
  module Inner = struct
    (* Suppressed: diagnostic dump, enumeration order immaterial. *)
    let[@kpath.nolint "hashtbl-order: debug dump, order immaterial"] dump
        (tbl : (string, int) Hashtbl.t) =
      Hashtbl.iter (fun k v -> Printf.printf "%s=%d\n" k v) tbl

    (* Suppressed: the header is parked for a completion handler the
       checker cannot see from here. *)
    let[@kpath.nolint "buf-leak: parked for the completion chain"] park () =
      let b = Cache.bread 0 7 in
      ignore b.Buf.data

    (* NOT suppressed: the hashtbl-order escape above must not leak
       onto this sibling. *)
    let jitter () = Random.int 10

    (* NOT suppressed: an escape without a justification is itself a
       finding. *)
    let[@kpath.nolint "rng: "] roll () = Random.int 6

    let balanced () =
      let b = Cache.bread 0 9 in
      ignore b.Buf.data;
      Cache.brelse b
  end
end
