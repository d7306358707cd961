(* Open-loop load: requests fall due on a schedule fixed in advance,
   whatever the system does, so a stall delays every request queued
   behind it instead of slowing the generator down. *)

(* Poisson arrivals: offsets in seconds from the start of the phase. *)
let poisson st ~rate ~duration =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type outcome = { due : float; start : float; finish : float; ok : bool }

(* Timed from when the request was due, so the wait a stall imposes on
   later requests is counted. A failed request misses every limit. *)
let latency o = if o.ok then o.finish -. o.due else infinity

(* How late the generator sent the request. *)
let lateness o = Float.max 0. (o.start -. o.due)

(* The [p]th percentile of each of [windows] consecutive, equal-count
   stretches of [latencies] (in schedule order), so that one transient
   stall of the machine moves one window, not the whole run. *)
let window_percentiles ~windows ~p latencies =
  let n = Array.length latencies in
  let k = max 1 (min windows n) in
  Array.init k (fun w ->
      let lo = w * n / k and hi = (w + 1) * n / k in
      Stats.percentile (Array.sub latencies lo (hi - lo)) p)

(* The dispatch policy of [drive] as a pure model: each of [conns]
   connections takes the next due request as soon as it is free, and
   request [i] then takes [service i] seconds. *)
let simulate ~conns ~service due =
  let free = Array.make conns 0. in
  Array.mapi
    (fun i d ->
      let c = ref 0 in
      Array.iteri (fun j t -> if t < free.(!c) then c := j) free;
      let start = Float.max d free.(!c) in
      let finish = start +. service i in
      free.(!c) <- finish;
      { due = d; start; finish; ok = true })
    due

(* A sleep overshoots by the kernel's timer slack (50 us by default)
   plus the wake-up; the last stretch before a due time is spun
   instead, yielding to the other client thread. *)
let spin_s = 0.0001

(* Send request [i] at absolute time [due.(i)] over [workers] threads,
   each owning one connection ([send w i] returns whether request [i]
   succeeded on worker [w]'s connection). *)
let drive ~workers ~due send =
  let n = Array.length due in
  let out = Array.make n { due = 0.; start = 0.; finish = 0.; ok = false } in
  let next = Atomic.make 0 in
  let worker w () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let d = due.(i) in
        let wait = d -. Unix.gettimeofday () in
        if wait > spin_s then Thread.delay (wait -. spin_s);
        while Unix.gettimeofday () < d do
          Thread.yield ()
        done;
        let start = Unix.gettimeofday () in
        let ok = send w i in
        out.(i) <- { due = d; start; finish = Unix.gettimeofday (); ok };
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init workers (fun w -> Thread.create (worker w) ()));
  out
