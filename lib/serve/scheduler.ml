open Fact_sexp
module Fact_error = Fact_resilience.Fact_error
module Cancel = Fact_resilience.Cancel
module Cache = Fact_resilience.Cache

module Result_cache = Cache.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type cached = { query_sx : Sexp.t; payload : string; from_disk : bool }
type outcome = { payload : string; source : Wire.source }

type job = {
  digest : string;
  query : Query.t;
  deadline_s : float option;
  deadline_abs : float option;
  submitted : float;
  mutable result : (outcome, Fact_error.t) result option;
}

type t = {
  lock : Mutex.t;
  queue_cond : Condition.t;
  done_cond : Condition.t;
  mutable queue : job list; (* newest first; executor reverses *)
  in_flight : (string, job) Hashtbl.t;
  cache : cached Result_cache.t;
  store_ : Store.t option;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable dedup_ : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable jobs_run : int;
  mutable stopping : bool;
  mutable executor : Thread.t option;
}

let record_latency t endpoint ms =
  (* called with [t.lock] held *)
  let h =
    match Hashtbl.find_opt t.hists endpoint with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.add t.hists endpoint h;
      h
  in
  Histogram.add h ms

(* ---------------------------- executor ---------------------------- *)

let run_job t job =
  let finish result =
    (match result with
    | Ok payload ->
      let query_sx = Query.to_sexp job.query in
      Result_cache.add t.cache job.digest
        { query_sx; payload; from_disk = false };
      (* write-through is best-effort: a failed persist degrades to a
         recompute after restart, it must not fail the request *)
      Option.iter
        (fun s ->
          try Store.put s ~digest:job.digest ~query:query_sx ~payload
          with Sys_error _ | Unix.Unix_error _ -> ())
        t.store_
    | Error _ -> ());
    Mutex.lock t.lock;
    t.jobs_run <- t.jobs_run + 1;
    job.result <-
      Some
        (match result with
        | Ok payload -> Ok { payload; source = Wire.Computed }
        | Error e -> Error e);
    Hashtbl.remove t.in_flight job.digest;
    record_latency t (Query.endpoint job.query)
      ((Unix.gettimeofday () -. job.submitted) *. 1000.);
    Condition.broadcast t.done_cond;
    Mutex.unlock t.lock
  in
  let remaining =
    match job.deadline_abs with
    | None -> None
    | Some abs -> Some (abs -. Unix.gettimeofday ())
  in
  match remaining with
  | Some r when r <= 0. ->
    finish
      (Error
         (Fact_error.Deadline_exceeded
            {
              where = "Scheduler.run_job";
              budget_s = Option.value job.deadline_s ~default:0.;
            }))
  | _ -> (
    let compute () = Query.eval job.query in
    let run =
      match remaining with
      | None -> compute
      | Some r -> fun () -> Cancel.with_token (Cancel.create ~deadline_s:r ()) compute
    in
    match run () with
    | payload -> finish (Ok payload)
    | exception Fact_error.Error e -> finish (Error e)
    | exception (Failure m | Invalid_argument m) ->
      finish (Error (Fact_error.Precondition { fn = "Query.eval"; what = m })))

let rec executor_loop t =
  Mutex.lock t.lock;
  while t.queue = [] && not t.stopping do
    Condition.wait t.queue_cond t.lock
  done;
  if t.queue = [] then Mutex.unlock t.lock (* stopping: drain done *)
  else begin
    let batch = List.rev t.queue in
    t.queue <- [];
    t.batches <- t.batches + 1;
    let size = List.length batch in
    if size > t.max_batch then t.max_batch <- size;
    Mutex.unlock t.lock;
    List.iter (run_job t) batch;
    executor_loop t
  end

(* ------------------------------ api ------------------------------- *)

let create ?store ?cache_cap () =
  let on_evict digest c =
    (* persist evicted results so a later miss reads the store instead
       of recomputing; entries loaded from disk are already there.
       Best-effort: the hook outlives this scheduler in the cache
       registry (force_evict_all can fire it after the store's
       directory is gone), so IO failures are swallowed, never raised
       into whoever triggered the eviction *)
    if not c.from_disk then
      Option.iter
        (fun s ->
          try Store.put s ~digest ~query:c.query_sx ~payload:c.payload
          with Sys_error _ | Unix.Unix_error _ -> ())
        store
  in
  let cache =
    Result_cache.create ~name:"serve.results" ?cap:cache_cap ~on_evict
      ~equal:(fun a b -> String.equal a.payload b.payload)
      ()
  in
  (* warm start: every valid persisted result becomes a resident entry *)
  Option.iter
    (fun s ->
      Store.iter s (fun ~digest ~query ~payload ->
          Result_cache.add cache digest
            { query_sx = query; payload; from_disk = true }))
    store;
  let t =
    {
      lock = Mutex.create ();
      queue_cond = Condition.create ();
      done_cond = Condition.create ();
      queue = [];
      in_flight = Hashtbl.create 16;
      cache;
      store_ = store;
      hists = Hashtbl.create 8;
      dedup_ = 0;
      batches = 0;
      max_batch = 0;
      jobs_run = 0;
      stopping = false;
      executor = None;
    }
  in
  t.executor <- Some (Thread.create executor_loop t);
  t

let store t = t.store_

let wait_for t job =
  (* lock held on entry; released on return *)
  while job.result = None do
    Condition.wait t.done_cond t.lock
  done;
  let r = Option.get job.result in
  Mutex.unlock t.lock;
  r

let submit t ?deadline_s query =
  let digest = Digest.of_query query in
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    Error (Fact_error.Cancelled { where = "Scheduler.submit: shutting down" })
  end
  else
    match Hashtbl.find_opt t.in_flight digest with
    | Some job ->
      t.dedup_ <- t.dedup_ + 1;
      wait_for t job
    | None -> (
      match Result_cache.find_opt t.cache digest with
      | Some c ->
        record_latency t (Query.endpoint query)
          ((Unix.gettimeofday () -. now) *. 1000.);
        Mutex.unlock t.lock;
        Ok
          {
            payload = c.payload;
            source = (if c.from_disk then Wire.Disk else Wire.Memory);
          }
      | None ->
        let job =
          {
            digest;
            query;
            deadline_s;
            deadline_abs = Option.map (fun d -> now +. d) deadline_s;
            submitted = now;
            result = None;
          }
        in
        Hashtbl.add t.in_flight digest job;
        t.queue <- job :: t.queue;
        Condition.signal t.queue_cond;
        wait_for t job)

let dedup t =
  Mutex.lock t.lock;
  let d = t.dedup_ in
  Mutex.unlock t.lock;
  d

let latency t endpoint =
  Mutex.lock t.lock;
  let h =
    Option.map
      (fun h -> Histogram.of_counts (Histogram.counts h))
      (Hashtbl.find_opt t.hists endpoint)
  in
  Mutex.unlock t.lock;
  h

let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then Mutex.unlock t.lock
  else begin
    t.stopping <- true;
    (* fail queued-but-not-started jobs promptly *)
    List.iter
      (fun job ->
        job.result <-
          Some
            (Error
               (Fact_error.Cancelled
                  { where = "Scheduler.shutdown: job dropped" }));
        Hashtbl.remove t.in_flight job.digest)
      t.queue;
    t.queue <- [];
    Condition.broadcast t.queue_cond;
    Condition.broadcast t.done_cond;
    let executor = t.executor in
    t.executor <- None;
    Mutex.unlock t.lock;
    Option.iter Thread.join executor
  end

(* ------------------------------ stats ----------------------------- *)

let stats_text t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Mutex.lock t.lock;
  let hists =
    Hashtbl.fold (fun ep h acc -> (ep, h) :: acc) t.hists []
    |> List.sort compare
  in
  let dedup_ = t.dedup_ and batches = t.batches in
  let max_batch = t.max_batch and jobs_run = t.jobs_run in
  Mutex.unlock t.lock;
  pf "endpoints:\n";
  if hists = [] then pf "  (no requests yet)\n";
  List.iter
    (fun (ep, h) ->
      pf "  %-10s count=%d mean_ms=%.3f max_ms=%.3f %s\n" ep
        (Histogram.count h) (Histogram.mean_ms h) (Histogram.max_ms h)
        (Histogram.percentiles_line h);
      pf "  %-10s hist:%s\n" "" (Histogram.pp_counts_line h))
    hists;
  pf "scheduler: dedup_joins=%d batches=%d max_batch=%d jobs_run=%d\n"
    dedup_ batches max_batch jobs_run;
  let cs = Result_cache.stats t.cache in
  pf "result cache: hits=%d misses=%d evictions=%d size=%d cap=%d\n"
    cs.Cache.hits cs.Cache.misses cs.Cache.evictions cs.Cache.size cs.Cache.cap;
  (match t.store_ with
  | None -> pf "store: (none)\n"
  | Some s ->
    let st = Store.stats s in
    pf "store: dir=%s entries=%d puts=%d gets=%d hits=%d misses=%d corrupt=%d\n"
      (Store.dir s) (Store.entries s) st.Store.puts st.Store.gets st.Store.hits
      st.Store.misses st.Store.corrupt);
  pf "pipeline caches:\n";
  List.iter
    (fun (name, (s : Cache.stats)) ->
      pf "  %-28s hits=%d misses=%d evictions=%d size=%d cap=%d\n" name
        s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.size s.Cache.cap)
    (Cache.all_stats ());
  Buffer.contents buf
