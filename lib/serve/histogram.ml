let buckets = 20

type t = {
  counts_ : int array;
  mutable count_ : int;
  mutable total_ms_ : float;
  mutable max_ms_ : float;
}

let create () =
  { counts_ = Array.make buckets 0; count_ = 0; total_ms_ = 0.; max_ms_ = 0. }

let bucket_of_ms ms =
  let rec go i bound =
    if ms <= bound || i = buckets - 1 then i else go (i + 1) (bound *. 2.)
  in
  go 0 1.

(* Upper bound of bucket [i] in ms: [2^i]. *)
let bound_ms i =
  let i = if i < 0 then 0 else if i >= buckets then buckets - 1 else i in
  (* the overflow bucket shares the last bounded bucket's figure *)
  let i = min i (buckets - 2) in
  Float.of_int (1 lsl i)

let add t ms =
  let ms = if ms < 0. then 0. else ms in
  t.counts_.(bucket_of_ms ms) <- t.counts_.(bucket_of_ms ms) + 1;
  t.count_ <- t.count_ + 1;
  t.total_ms_ <- t.total_ms_ +. ms;
  if ms > t.max_ms_ then t.max_ms_ <- ms

let of_counts arr =
  let t = create () in
  Array.iteri
    (fun i c ->
      let i = min i (buckets - 1) in
      t.counts_.(i) <- t.counts_.(i) + c;
      t.count_ <- t.count_ + c)
    arr;
  t

let count t = t.count_
let mean_ms t = if t.count_ = 0 then 0. else t.total_ms_ /. float_of_int t.count_
let max_ms t = t.max_ms_
let counts t = Array.copy t.counts_

let percentile t p =
  if t.count_ = 0 then 0.
  else begin
    let p = if p <= 0. then 1e-6 else if p > 100. then 100. else p in
    (* rank of the target observation, 1-based *)
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count_)))
    in
    let rec go i seen =
      if i >= buckets - 1 then bound_ms (buckets - 1)
      else
        let seen = seen + t.counts_.(i) in
        if seen >= rank then bound_ms i else go (i + 1) seen
    in
    go 0 0
  end

let percentiles_line t =
  Printf.sprintf "p50<=%gms p95<=%gms p99<=%gms" (percentile t 50.)
    (percentile t 95.) (percentile t 99.)

let pp_counts_line t =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i c ->
      if c > 0 then
        if i = buckets - 1 then
          Buffer.add_string b (Printf.sprintf " >%g:%d" (bound_ms i) c)
        else Buffer.add_string b (Printf.sprintf " <=%g:%d" (bound_ms i) c))
    t.counts_;
  Buffer.contents b
