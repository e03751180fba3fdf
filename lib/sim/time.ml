type t = int

type span = t

let zero = 0

let ns n =
  if n < 0 then invalid_arg "Time.ns: negative" else n

let us n = ns (n * 1_000)

let ms n = ns (n * 1_000_000)

let sec n = ns (n * 1_000_000_000)

let of_sec_f s =
  if not (s >= 0.0) then invalid_arg "Time.of_sec_f: negative"
  else int_of_float (Float.round (s *. 1e9))

let of_us_f u =
  if not (u >= 0.0) then invalid_arg "Time.of_us_f: negative"
  else int_of_float (Float.round (u *. 1e3))

let to_ns t = t

let to_sec_f t = float_of_int t /. 1e9

let to_us_f t = float_of_int t /. 1e3

let add t d = t + d

let sub t d =
  if d > t then invalid_arg "Time.sub: negative result" else t - d

let diff a b =
  if b > a then invalid_arg "Time.diff: negative result" else a - b

let scale d k =
  if k < 0 then invalid_arg "Time.scale: negative factor" else d * k

let compare = Int.compare

let equal = Int.equal

let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b

let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b

let span_of_bytes ~bytes_per_sec n =
  if not (Stdlib.( > ) bytes_per_sec 0.0) then
    invalid_arg "Time.span_of_bytes: rate <= 0";
  if n < 0 then invalid_arg "Time.span_of_bytes: negative size";
  int_of_float (Float.round (float_of_int n /. bytes_per_sec *. 1e9))

let rate_bytes_per_sec ~bytes d =
  if d = 0 then infinity else float_of_int bytes /. to_sec_f d

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (float_of_int t /. 1e3)
  else if t < 1_000_000_000 then
    Format.fprintf fmt "%.3fms" (float_of_int t /. 1e6)
  else Format.fprintf fmt "%.4fs" (to_sec_f t)
