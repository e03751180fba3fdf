include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiply by an odd constant, then fold the high bits down: the
     table indexes buckets by the low bits, and packed keys (a TCP
     demux key keeps interface ids in its high bits) differ there. *)
  let hash k =
    let h = k * 0x9e3779b97f4a7c1 in
    h lxor (h lsr 31)
end)
