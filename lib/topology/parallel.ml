(* A fault-tolerant fan-out over a persistent work-stealing pool of
   OCaml 5 domains (stdlib only, no domainslib).

   One pool per process: worker domains are spawned lazily the first
   time a fan-out asks for them, grown monotonically to the largest
   requested count minus one (the caller is always a worker too), and
   joined at process exit. Work is distributed through a shared FIFO
   injector plus one deque per worker: a worker pops its own deque
   LIFO (so nested fan-outs from inside a job run depth-first, hot in
   cache), then takes from the injector, then steals FIFO from the
   front of other workers' deques. The caller of a fan-out helps run
   jobs — any job, not just its own — until its group completes, so
   the pool never deadlocks on nested submissions. All queue state
   sits behind one mutex: jobs here are chunk-sized (milliseconds),
   so scheduler contention is noise; the design optimizes for
   determinism and simple invariants, not nanosecond queue ops.

   Cancellation: the submitter's ambient [Cancel] token is captured at
   submission and installed around each job on whichever domain runs
   it, so cancelling the submitter trips every worker processing its
   jobs (the ambient slot itself is domain-local).

   Failure discipline of [map]/[map_init] (the parallel path): every
   chunk settles before any exception escapes — no lost chunks.
   Failed chunks are retried once, sequentially, on the caller; only
   if the retry fails too does the call raise, with all per-chunk
   failures aggregated into a single typed
   [Fact_error.Worker_failure]. Cancellation is the exception to the
   retry rule: when every failure is a [Cancelled]/[Deadline_exceeded]
   stop request, the first one is re-raised directly — retrying
   cancelled work would defeat the point of cancelling it.

   Workers may construct simplices (and hence intern vertices): the
   intern table is mutex-protected, and everything a constructor
   returns is immutable, so results are safely published through the
   release/acquire pair on the pool mutex. Workers must not touch
   mutable complex caches (e.g. [Complex.all_simplices]) on shared
   complexes. *)

open Fact_resilience

let env_domains =
  match Sys.getenv_opt "FACT_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let default = Atomic.make env_domains
let set_default_domains d = Atomic.set default (max 1 d)
let default_domains () = Atomic.get default

(* Split [xs] into [k] contiguous chunks of near-equal length. *)
let chunks k xs =
  let len = List.length xs in
  let k = max 1 (min k len) in
  let base = len / k and extra = len mod k in
  let rec take n xs acc =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) rest (x :: acc)
  in
  let rec loop i xs acc =
    if i >= k then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs [] in
      loop (i + 1) rest (chunk :: acc)
  in
  loop 0 xs []

let guard f = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* The persistent pool.                                               *)
(* ------------------------------------------------------------------ *)

(* A two-list deque: own end at the back (LIFO pop), steal end at the
   front (FIFO). Amortized O(1); always accessed under [pool.lock]. *)
module Deque = struct
  type 'a t = { mutable front : 'a list; mutable back : 'a list }
  (* [front] is front-to-back order, [back] is back-to-front. *)

  let create () = { front = []; back = [] }

  let push_back d x = d.back <- x :: d.back

  let pop_back d =
    match d.back with
    | x :: rest ->
      d.back <- rest;
      Some x
    | [] -> (
      match List.rev d.front with
      | [] -> None
      | x :: rest ->
        d.front <- [];
        d.back <- rest;
        Some x)

  let steal_front d =
    match d.front with
    | x :: rest ->
      d.front <- rest;
      Some x
    | [] -> (
      match List.rev d.back with
      | [] -> None
      | x :: rest ->
        d.back <- [];
        d.front <- rest;
        Some x)
end

type job = unit -> unit
(* Jobs never raise: results and exceptions are captured inside. *)

type pool = {
  lock : Mutex.t;
  wake : Condition.t;
      (* new work, a job completion, or shutdown — waiters re-check *)
  injector : job Queue.t;
  mutable deques : job Deque.t array; (* slot [i] belongs to worker [i] *)
  mutable workers : unit Domain.t list;
  mutable nworkers : int;
  mutable closing : bool;
  spawned : int Atomic.t; (* domains ever spawned, for the bench *)
}

let pool =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    injector = Queue.create ();
    deques = [||];
    workers = [];
    nworkers = 0;
    closing = false;
    spawned = Atomic.make 0;
  }

let domain_spawns () = Atomic.get pool.spawned

(* Which pool worker (if any) is the current domain? *)
let worker_id : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Next job for a taker: own deque (LIFO), injector (FIFO), then steal
   (FIFO) scanning the other deques. Call with [pool.lock] held. *)
let take_locked my =
  let own =
    match my with
    | Some i when i < Array.length pool.deques ->
      Deque.pop_back pool.deques.(i)
    | _ -> None
  in
  match own with
  | Some _ as j -> j
  | None -> (
    match Queue.take_opt pool.injector with
    | Some _ as j -> j
    | None ->
      let n = Array.length pool.deques in
      let rec steal k =
        if k >= n then None
        else if my = Some k then steal (k + 1)
        else
          match Deque.steal_front pool.deques.(k) with
          | Some _ as j -> j
          | None -> steal (k + 1)
      in
      steal 0)

let worker_loop i =
  Mutex.lock pool.lock;
  let rec go () =
    match take_locked (Some i) with
    | Some job ->
      Mutex.unlock pool.lock;
      (try job () with _ -> ());
      Mutex.lock pool.lock;
      go ()
    | None ->
      if pool.closing then Mutex.unlock pool.lock
      else begin
        Condition.wait pool.wake pool.lock;
        go ()
      end
  in
  go ()

(* Grow the pool to [n] workers. Call with [pool.lock] held. *)
let ensure_workers_locked n =
  let n = max 0 (min n 126) (* leave headroom under the domain cap *) in
  if n > pool.nworkers && not pool.closing then begin
    let old = Array.length pool.deques in
    if n > old then
      pool.deques <-
        Array.init n (fun i ->
            if i < old then pool.deques.(i) else Deque.create ());
    for i = pool.nworkers to n - 1 do
      Atomic.incr pool.spawned;
      let d =
        Domain.spawn (fun () ->
            Domain.DLS.set worker_id (Some i);
            worker_loop i)
      in
      pool.workers <- d :: pool.workers
    done;
    pool.nworkers <- n
  end

let shutdown () =
  Mutex.lock pool.lock;
  pool.closing <- true;
  Condition.broadcast pool.wake;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.lock;
  List.iter Domain.join ws

let () = at_exit shutdown

let run_all ?workers thunks =
  match thunks with
  | [] -> []
  | [ t ] -> [ guard t ]
  | _ ->
    let requested =
      match workers with Some w -> max 1 w | None -> default_domains ()
    in
    let n = List.length thunks in
    let slots = Array.make n None in
    let remaining = ref n (* guarded by pool.lock *) in
    let tok = Cancel.current () in
    let mk i t () =
      let r = guard (fun () -> Cancel.with_token tok t) in
      Mutex.lock pool.lock;
      slots.(i) <- Some r;
      decr remaining;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.lock
    in
    let jobs = List.mapi mk thunks in
    Mutex.lock pool.lock;
    ensure_workers_locked (requested - 1);
    let my = Domain.DLS.get worker_id in
    (match my with
    | Some i when i < Array.length pool.deques ->
      (* nested fan-out from inside a job: keep it on our own deque so
         it runs depth-first (and stays stealable). Pushed last job
         first, so this worker pops the group in submission order and
         thieves take its last jobs. *)
      List.iter (Deque.push_back pool.deques.(i)) (List.rev jobs)
    | _ -> List.iter (fun j -> Queue.add j pool.injector) jobs);
    Condition.broadcast pool.wake;
    (* Help until the group completes: run any available job — ours or
       another group's — and sleep only when nothing is runnable
       (then our jobs are in flight on workers and their completion
       wakes us). *)
    let rec wait_done () =
      if !remaining > 0 then
        match take_locked my with
        | Some job ->
          Mutex.unlock pool.lock;
          job ();
          Mutex.lock pool.lock;
          wait_done ()
        | None ->
          if !remaining > 0 then begin
            Condition.wait pool.wake pool.lock;
            wait_done ()
          end
    in
    wait_done ();
    Mutex.unlock pool.lock;
    Array.to_list (Array.map Option.get slots)

(* ------------------------------------------------------------------ *)
(* Chunked fan-out with the retry/aggregate failure discipline.       *)
(* ------------------------------------------------------------------ *)

let fan_out ~fn ?workers runners =
  match runners with
  | [] -> []
  | [ r ] -> r ()
  | rs ->
    let results = run_all ?workers rs in
    let failures =
      List.filter_map (function Error (e, _) -> Some e | Ok _ -> None) results
    in
    if failures = [] then
      List.concat_map (function Ok r -> r | Error _ -> assert false) results
    else if List.for_all Fact_error.is_cancellation failures then
      (* a stop request, not a broken worker: propagate promptly *)
      reraise
        (List.find_map (function Error e -> Some e | Ok _ -> None) results
        |> Option.get)
    else begin
      (* fall back to sequential execution of the failed chunks *)
      let retried =
        List.map2
          (fun result runner ->
            match result with Ok v -> Ok v | Error _ -> guard runner)
          results rs
      in
      let still =
        List.filter_map (function Error e -> Some e | Ok _ -> None) retried
      in
      match still with
      | [] ->
        List.concat_map (function Ok r -> r | Error _ -> assert false) retried
      | ((e, _) as first) :: _ ->
        if Fact_error.is_cancellation e then reraise first
        else
          Fact_error.raise_error
            (Worker_failure
               {
                 fn;
                 failed = List.length still;
                 chunks = List.length results;
                 first = Printexc.to_string e;
               })
    end

let map ?domains f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains <= 1 then List.map f xs
  else
    match chunks domains xs with
    | [] | [ _ ] -> List.map f xs
    | cs ->
      fan_out ~fn:"Parallel.map" ~workers:domains
        (List.map (fun chunk () -> List.map f chunk) cs)

let concat_map ?domains f xs = List.concat (map ?domains f xs)

let map_init ?domains init f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains <= 1 then
    let ctx = init () in
    List.map (f ctx) xs
  else
    match chunks domains xs with
    | [] | [ _ ] ->
      let ctx = init () in
      List.map (f ctx) xs
    | cs ->
      fan_out ~fn:"Parallel.map_init" ~workers:domains
        (List.map
           (fun chunk () ->
             let ctx = init () in
             List.map (f ctx) chunk)
           cs)
