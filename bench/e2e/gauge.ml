(* How fast the machine runs at the moment, from a fixed probe timed
   between ops, and op timings rescaled to the probe's reference speed.

   The benchmark's host is shared, and other tenants contend for its
   caches in phases of 5 to 20 seconds: the same cold [Query.eval] then
   takes up to 1.8 times as long, while a loop that stays in registers
   keeps its speed. A probe that reads and writes random bytes of a
   2 MB buffer slows down by the same factor in the same seconds. An op
   that took [dt] seconds while the probes around it took [p] each is
   reported as [dt *. reference_s /. p]: its time on this machine at a
   fixed level of contention for the caches. README.md has the
   measurements.

   The probe allocates nothing, so the code under test cannot change
   its timing through the garbage collector, and it runs only between
   timed intervals, never inside one. *)

let buffer = Bytes.make (1 lsl 21) '\000'

(* [n] read-modify-writes of [buffer] at the offsets of a full-period
   linear congruential walk over its 2^21 bytes, the same on every call. *)
let walk n =
  let mask = Bytes.length buffer - 1 in
  let x = ref 0 in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land mask;
    Bytes.unsafe_set buffer !x (Char.unsafe_chr ((Char.code (Bytes.unsafe_get buffer !x) + 1) land 255))
  done

(* A probe is [readings] timed walks after an untimed one that brings
   the buffer back into the caches. Readings vary by about 13% within
   a second, independently of each other, so the gauge takes the median
   of every reading around an op. *)
let warm_steps = 50_000
let timed_steps = 300_000
let readings = 3

(* The speed times are rescaled to: near the middle of the probe's
   readings on the 2-vCPU VM the README tables come from (the medians
   of its runs ranged from 0.85 to 1.6 ms). *)
let reference_s = 0.0012

(* Probes are at least [interval] apart when taken with [tick]; the
   readings within [margin] of an op count towards its rescaling. *)
let interval = 0.25
let margin = 1.

type t = { at : Stats.t; took : Stats.t; mutable next : float }

let create () = { at = Stats.create (); took = Stats.create (); next = neg_infinity }

(* Take a probe now. *)
let measure g =
  walk warm_steps;
  for _ = 1 to readings do
    let t0 = Unix.gettimeofday () in
    walk timed_steps;
    Stats.add g.at t0;
    Stats.add g.took (Unix.gettimeofday () -. t0)
  done;
  g.next <- Unix.gettimeofday () +. interval

(* Take a probe if the last one is [interval] old. *)
let tick g = if Unix.gettimeofday () >= g.next then measure g

(* The probe time around [t0, t1]: the median of the readings taken
   within [margin] of it, or the nearest reading when there is none.
   [at] holds the readings' start times, [took] their durations. *)
let probe_around ~at ~took ~t0 ~t1 =
  let n = Array.length at in
  if n = 0 then invalid_arg "Gauge.probe_around: no probe";
  let near = ref [] in
  for i = n - 1 downto 0 do
    if at.(i) >= t0 -. margin && at.(i) <= t1 +. margin then near := took.(i) :: !near
  done;
  match !near with
  | [] ->
    let mid = (t0 +. t1) /. 2. in
    let best = ref 0 in
    Array.iteri (fun i a -> if Float.abs (a -. mid) < Float.abs (at.(!best) -. mid) then best := i) at;
    took.(!best)
  | l -> Stats.median (Array.of_list l)

(* What times measured during [t0, t1] are multiplied by. *)
let factor g ~t0 ~t1 =
  reference_s /. probe_around ~at:(Stats.to_array g.at) ~took:(Stats.to_array g.took) ~t0 ~t1

(* [ops] as (start, seconds) pairs, each in seconds at the reference
   speed. *)
let rescale g ops = Array.map (fun (t0, dt) -> dt *. factor g ~t0 ~t1:(t0 +. dt)) ops

let median_s g = Stats.median (Stats.to_array g.took)
let count g = Stats.count g.took

let describe ~median_s ~count =
  Printf.sprintf
    "machine gauge: probe median %.4f ms over %d readings, reference %.4f ms; times are scaled by reference/probe"
    (median_s *. 1000.) count (reference_s *. 1000.)
