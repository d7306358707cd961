(* Raw per-op samples and the order statistics computed from them.

   Samples are kept as they were measured (no bucketing), so a
   percentile of a distribution that sits entirely under 1 ms is still
   resolved to the microsecond. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let to_array t = Array.sub t.data 0 t.len
let sum t = Array.fold_left ( +. ) 0. (to_array t)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample such that at least [p] percent of
   the samples are <= it, i.e. the ceil(p·n/100)-th smallest. [p·n] is
   formed before dividing so integral ranks stay exact. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
    a.(max 1 (min n rank) - 1)

let percentile a p = percentile_sorted (sorted a) p

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so spreads computed here match the ones computed from the
   same values by a Python script. A single value is its own quartiles. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median a =
  let _, m, _ = quartiles a in
  m

(* Inter-quartile distance as a share of the median. *)
let spread a =
  let q1, m, q3 = quartiles a in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
