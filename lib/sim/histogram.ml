let nbuckets = 63

type t = {
  counts : int array; (* bucket i holds values in [2^(i-1), 2^i), bucket 0 holds 0 *)
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make nbuckets 0; count = 0; total = 0; min_v = max_int; max_v = -1 }

(* bucket 1 holds [1,2), bucket 2 holds [2,4), ... *)
let rec bucket_from v i acc = if acc > v then i else bucket_from v (i + 1) (acc * 2)

let bucket_of v = if v = 0 then 0 else bucket_from v 0 1

let add h v =
  if v < 0 then invalid_arg "Histogram.add: negative sample";
  let b = Stdlib.min (bucket_of v) (nbuckets - 1) in
  h.counts.(b) <- h.counts.(b) + 1;
  h.count <- h.count + 1;
  h.total <- h.total + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let count h = h.count

let total h = h.total

let mean h = if h.count = 0 then nan else float_of_int h.total /. float_of_int h.count

let min_value h = if h.count = 0 then None else Some h.min_v

let max_value h = if h.count = 0 then None else Some h.max_v

let bucket_bounds i =
  if i = 0 then (0, 0)
  else ((1 lsl (i - 1)), (1 lsl i) - 1)

let percentile h p =
  if h.count = 0 then invalid_arg "Histogram.percentile: empty";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Histogram.percentile: out of range";
  let target = int_of_float (ceil (p /. 100.0 *. float_of_int h.count)) in
  let target = Stdlib.max 1 target in
  let rec go i acc =
    if i >= nbuckets then h.max_v
    else
      let acc = acc + h.counts.(i) in
      if acc >= target then snd (bucket_bounds i) else go (i + 1) acc
  in
  go 0 0

let buckets h =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.counts.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      out := (lo, hi, h.counts.(i)) :: !out
    end
  done;
  !out

let pp fmt h =
  if h.count = 0 then Format.fprintf fmt "(empty)"
  else
    Format.fprintf fmt "n=%d mean=%.1f min=%d max=%d p50<=%d p99<=%d" h.count
      (mean h) h.min_v h.max_v (percentile h 50.0) (percentile h 99.0)
