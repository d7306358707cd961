(* Tests for the resilience layer: the typed error taxonomy,
   cooperative cancellation, bounded memo caches with recompute
   auditing, the fault-tolerant parallel fan-out, exploration
   checkpoint/resume, and the chaos harness. *)

open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_runtime
open Fact_tasks
open Fact_check
open Fact_resilience

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ps = Pset.of_list

let check_precondition name ~fn f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a Precondition Fact_error" name
  | exception Fact_error.Error (Fact_error.Precondition { fn = got; _ }) ->
    Alcotest.(check string) name fn got
  | exception e ->
    Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Fact_error                                                         *)
(* ------------------------------------------------------------------ *)

let test_error_taxonomy () =
  let pre = Fact_error.Precondition { fn = "f"; what = "w" } in
  let dead = Fact_error.Deadline_exceeded { where = "x"; budget_s = 1.0 } in
  let can = Fact_error.Cancelled { where = "x" } in
  let wrk =
    Fact_error.Worker_failure { fn = "f"; failed = 1; chunks = 2; first = "e" }
  in
  let res = Fact_error.Resource_limit { what = "w"; limit = 1; got = 2 } in
  check "precondition exit" 2 (Fact_error.exit_code pre);
  check "deadline exit" 3 (Fact_error.exit_code dead);
  check "cancelled exit" 4 (Fact_error.exit_code can);
  check "worker exit" 5 (Fact_error.exit_code wrk);
  check "resource exit" 6 (Fact_error.exit_code res);
  check_bool "deadline is cancellation" true
    (Fact_error.is_cancellation (Fact_error.Error dead));
  check_bool "cancelled is cancellation" true
    (Fact_error.is_cancellation (Fact_error.Error can));
  check_bool "worker is not" false
    (Fact_error.is_cancellation (Fact_error.Error wrk));
  check_bool "other exceptions are not" false
    (Fact_error.is_cancellation Exit);
  (* messages carry the taxonomy case and the origin *)
  Alcotest.(check string)
    "to_string" "fact_error(precondition): f: w" (Fact_error.to_string pre);
  Alcotest.(check string)
    "registered printer" "fact_error(cancelled): x"
    (Printexc.to_string (Fact_error.Error can))

(* ------------------------------------------------------------------ *)
(* Cancel                                                             *)
(* ------------------------------------------------------------------ *)

let test_cancel_token () =
  (* the inert token *)
  Cancel.check ~where:"t" Cancel.never;
  check_bool "never not cancelled" false (Cancel.cancelled Cancel.never);
  (* external trigger *)
  let t = Cancel.create () in
  Cancel.check ~where:"t" t;
  Cancel.cancel t;
  check_bool "triggered" true (Cancel.cancelled t);
  (match Cancel.check ~where:"t" t with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Fact_error.Error (Fact_error.Cancelled { where }) ->
    Alcotest.(check string) "where" "t" where);
  (* poll-count trip: k polls pass, the k+1-st raises *)
  let t = Cancel.create ~trip_after:2 () in
  Cancel.check ~where:"t" t;
  Cancel.check ~where:"t" t;
  (match Cancel.check ~where:"t" t with
  | () -> Alcotest.fail "expected trip"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> ());
  (* deadline *)
  let t = Cancel.create ~deadline_s:0.01 () in
  Cancel.check ~where:"t" t;
  Unix.sleepf 0.02;
  (match Cancel.check ~where:"t" t with
  | () -> Alcotest.fail "expected deadline"
  | exception Fact_error.Error (Fact_error.Deadline_exceeded { budget_s; _ })
    ->
    check_bool "budget recorded" true (budget_s > 0.));
  (* ambient install/restore, including on exceptions *)
  let t = Cancel.create () in
  Cancel.with_token t (fun () ->
      check_bool "installed" true (Cancel.current () == t));
  check_bool "restored" true (Cancel.current () == Cancel.never);
  (try
     Cancel.with_token t (fun () -> raise Exit)
   with Exit -> ());
  check_bool "restored after raise" true (Cancel.current () == Cancel.never);
  (* validation *)
  check_precondition "bad deadline" ~fn:"Cancel.create" (fun () ->
      Cancel.create ~deadline_s:(-1.) ());
  check_precondition "bad trip_after" ~fn:"Cancel.create" (fun () ->
      Cancel.create ~trip_after:(-1) ())

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

module Int_cache = Cache.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let test_cache_bounded () =
  let c = Int_cache.create ~name:"test.bounded" ~cap:8 ~equal:Int.equal () in
  for k = 0 to 99 do
    check "value" (2 * k) (Int_cache.find_or_add c k (fun k -> 2 * k))
  done;
  let s = Int_cache.stats c in
  check_bool "size bounded" true (s.Cache.size <= 8);
  check "all misses" 100 s.Cache.misses;
  check_bool "evicted" true (s.Cache.evictions >= 92);
  (* the most recent key is still resident *)
  ignore (Int_cache.find_or_add c 99 (fun _ -> Alcotest.fail "not cached"));
  check "hit counted" 1 (Int_cache.stats c).Cache.hits

let test_cache_recompute_audit () =
  let c = Int_cache.create ~name:"test.audit" ~cap:8 ~equal:Int.equal () in
  Cache.set_check true;
  Fun.protect
    ~finally:(fun () -> Cache.set_check false)
    (fun () ->
      for k = 0 to 3 do
        ignore (Int_cache.find_or_add c k (fun k -> 10 * k))
      done;
      Int_cache.force_evict c;
      check "emptied" 0 (Int_cache.stats c).Cache.size;
      (* recomputing the same value is fine... *)
      check "clean recompute" 20
        (Int_cache.find_or_add c 2 (fun k -> 10 * k));
      (* ...but an evicted entry recomputing differently is an
         invariant violation, surfaced as a typed error. *)
      check_precondition "divergent recompute" ~fn:"Cache(test.audit)"
        (fun () -> Int_cache.find_or_add c 3 (fun k -> (10 * k) + 1)))

let test_cache_cap_identity () =
  (* R_A is the same complex whatever the cache cap and however often
     the caches are flushed. *)
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let reference = Ra.complex alpha ~n:3 in
  let old_cap = Cache.default_cap () in
  Fun.protect
    ~finally:(fun () -> Cache.set_default_cap old_cap)
    (fun () ->
      List.iter
        (fun cap ->
          Cache.set_default_cap cap;
          Cache.clear_all ();
          check_bool
            (Printf.sprintf "cap %d" cap)
            true
            (Complex.equal (Ra.complex alpha ~n:3) reference))
        [ 64; 1024; 0 ]);
  Cache.clear_all ();
  (* counters aggregate across the registry *)
  ignore (Ra.complex alpha ~n:3);
  let stats = Cache.all_stats () in
  check_bool "registry populated" true (List.length stats >= 5);
  check_bool "work happened" true
    (List.exists (fun (_, s) -> s.Cache.misses > 0) stats);
  Cache.reset_counters ();
  check_bool "counters reset" true
    (List.for_all
       (fun (_, s) -> s.Cache.misses = 0 && s.Cache.hits = 0)
       (Cache.all_stats ()))

(* ------------------------------------------------------------------ *)
(* Parallel fault tolerance                                           *)
(* ------------------------------------------------------------------ *)

let items = List.init 48 Fun.id

let test_parallel_worker_failure () =
  (* a fault deterministic in the input fails the retry too and
     surfaces as one aggregated Worker_failure *)
  (match
     Parallel.map ~domains:4
       (fun x -> if x mod 2 = 0 then failwith "boom" else x)
       items
   with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception
      Fact_error.Error
        (Fact_error.Worker_failure { fn; failed; chunks; first }) ->
    Alcotest.(check string) "fn" "Parallel.map" fn;
    check "chunks" 4 chunks;
    check "all chunks failed" 4 failed;
    check_bool "first cause recorded" true
      (String.length first > 0));
  (* no leaked domains, no poisoned state: the next fan-out succeeds *)
  Alcotest.(check (list int))
    "fan-out reusable" (List.map succ items)
    (Parallel.map ~domains:4 succ items);
  (* map_init path aggregates the same way *)
  match
    Parallel.map_init ~domains:4
      (fun () -> ())
      (fun () _ -> failwith "boom")
      items
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Fact_error.Error (Fact_error.Worker_failure { fn; _ }) ->
    Alcotest.(check string) "map_init fn" "Parallel.map_init" fn

let test_parallel_transient_retry () =
  (* fails the first time it is called on one item, then succeeds:
     the sequential retry on the parent absorbs it *)
  let lock = Mutex.create () in
  let tripped = ref false in
  let f x =
    if x = 17 then begin
      Mutex.lock lock;
      let first = not !tripped in
      tripped := true;
      Mutex.unlock lock;
      if first then failwith "transient"
    end;
    x * 3
  in
  Alcotest.(check (list int))
    "retried to success"
    (List.map (fun x -> x * 3) items)
    (Parallel.map ~domains:4 f items)

let test_parallel_cancellation_passthrough () =
  (* cancellation is a stop request, not a worker failure: it must
     escape unwrapped and skip the retry *)
  let t = Cancel.create ~trip_after:0 () in
  match
    Cancel.with_token t (fun () ->
        Parallel.map ~domains:4
          (fun x ->
            Cancel.poll ~where:"test";
            x)
          items)
  with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> ()

let test_parallel_domains_identity () =
  let alpha = Agreement.of_adversary Adversary.fig5b in
  let reference = Ra.complex alpha ~n:3 in
  let old = Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_default_domains old)
    (fun () ->
      List.iter
        (fun d ->
          Parallel.set_default_domains d;
          Cache.clear_all ();
          check_bool
            (Printf.sprintf "domains %d" d)
            true
            (Complex.equal (Ra.complex alpha ~n:3) reference))
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Typed preconditions at API boundaries                              *)
(* ------------------------------------------------------------------ *)

let test_typed_preconditions () =
  check_precondition "Schedule.random non-participant" ~fn:"Schedule.random"
    (fun () ->
      Schedule.random ~seed:1 ~n:3 ~participants:(ps [ 0; 1 ])
        ~crashes:[ (2, 0) ]);
  let task = Set_consensus.task_fixed ~n:2 ~k:1 ~inputs:[ 0; 1 ] in
  check_precondition "Solver.solve empty protocol" ~fn:"Solver.solve"
    (fun () ->
      Solver.solve ~protocol:(Complex.of_facets ~n:2 []) ~task);
  let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
  check_precondition "Adaptive_consensus empty Q"
    ~fn:"Adaptive_consensus.solve" (fun () ->
      Adaptive_consensus.solve
        ~task:(Affine_task.full_chr ~n:2 ~ell:2)
        ~alpha ~q:Pset.empty ~proposals:Fun.id
        ~picker:(Affine_runner.random_picker ~seed:1)
        ());
  let one = Affine_task.full_chr ~n:2 ~ell:1 in
  check_precondition "Affine_task.iterate m=0" ~fn:"Affine_task.iterate"
    (fun () -> Affine_task.iterate one 0);
  let other = Affine_task.full_chr ~n:3 ~ell:1 in
  check_precondition "Affine_task.compose universes"
    ~fn:"Affine_task.compose" (fun () -> Affine_task.compose one other);
  check_precondition "Chaos.run budget" ~fn:"Chaos.run" (fun () ->
      Chaos.run ~max_faults:0 ())

(* ------------------------------------------------------------------ *)
(* Explore: checkpoint/resume                                         *)
(* ------------------------------------------------------------------ *)

let stats_agree name (a : _ Explore.stats) (b : _ Explore.stats) =
  check (name ^ " runs") a.Explore.runs b.Explore.runs;
  check (name ^ " truncated") a.Explore.truncated b.Explore.truncated;
  check (name ^ " pruned") a.Explore.pruned b.Explore.pruned;
  check (name ^ " patterns") a.Explore.crash_patterns b.Explore.crash_patterns;
  check (name ^ " violations")
    (List.length a.Explore.violations)
    (List.length b.Explore.violations);
  check_bool (name ^ " exhausted") a.Explore.exhausted b.Explore.exhausted

let interrupted_is ~n ~max_runs =
  let last = ref None in
  let stats, _ =
    Harness.explore_immediate_snapshot ~max_runs ~checkpoint_every:1
      ~on_checkpoint:(fun ck -> last := Some ck)
      ~n ()
  in
  check_bool "interrupted" false stats.Explore.exhausted;
  match !last with
  | Some ck -> ck
  | None -> Alcotest.fail "no checkpoint emitted"

let test_checkpoint_resume_is () =
  List.iter
    (fun (n, max_runs, fubini) ->
      let base, base_parts = Harness.explore_immediate_snapshot ~n () in
      check_bool "baseline exhaustive" true base.Explore.exhausted;
      check "baseline partitions" fubini (List.length base_parts);
      let ck = interrupted_is ~n ~max_runs in
      (* serialization round-trip *)
      let ck =
        match Checkpoint.of_string (Checkpoint.to_string ck) with
        | Ok ck' ->
          Alcotest.(check string)
            "checkpoint round-trip" (Checkpoint.to_string ck)
            (Checkpoint.to_string ck');
          ck'
        | Error e -> Alcotest.failf "checkpoint parse: %s" e
      in
      let resumed, parts =
        Harness.explore_immediate_snapshot ~resume:ck ~n ()
      in
      stats_agree (Printf.sprintf "is n=%d" n) base resumed;
      check "resumed partitions" fubini (List.length parts);
      check_bool "same partitions" true
        (List.for_all2 Opart.equal base_parts parts))
    [ (2, 3, 3); (3, 200, 13) ]

let test_checkpoint_resume_alg1 () =
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:2 ~t:1) in
  let participants = Pset.full 2 in
  let base = Harness.explore_algorithm1 ~alpha ~participants () in
  check_bool "baseline exhaustive" true base.Explore.exhausted;
  check "no violations" 0 (List.length base.Explore.violations);
  let last = ref None in
  let interrupted =
    Harness.explore_algorithm1 ~max_runs:1500 ~checkpoint_every:100
      ~on_checkpoint:(fun ck -> last := Some ck)
      ~alpha ~participants ()
  in
  check_bool "interrupted" false interrupted.Explore.exhausted;
  let ck = Option.get !last in
  let resumed = Harness.explore_algorithm1 ~resume:ck ~alpha ~participants () in
  stats_agree "alg1 n=2" base resumed

let test_checkpoint_mismatch () =
  let ck = interrupted_is ~n:2 ~max_runs:3 in
  check_precondition "wrong protocol" ~fn:"Harness.explore_algorithm1"
    (fun () ->
      Harness.explore_algorithm1 ~resume:ck
        ~alpha:(Agreement.of_adversary (Adversary.wait_free 2))
        ~participants:(Pset.full 2) ());
  check_precondition "wrong universe" ~fn:"Harness.explore_immediate_snapshot"
    (fun () -> Harness.explore_immediate_snapshot ~resume:ck ~n:3 ())

let test_explore_cancellation_flushes () =
  (* a deadline mid-search still leaves a resumable checkpoint *)
  let last = ref None in
  let t = Cancel.create ~trip_after:50 () in
  (match
     Cancel.with_token t (fun () ->
         Harness.explore_immediate_snapshot
           ~on_checkpoint:(fun ck -> last := Some ck)
           ~n:3 ())
   with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> ());
  let ck = Option.get !last in
  let base, base_parts = Harness.explore_immediate_snapshot ~n:3 () in
  let resumed, parts = Harness.explore_immediate_snapshot ~resume:ck ~n:3 () in
  stats_agree "after cancel" base resumed;
  check "partitions" (List.length base_parts) (List.length parts)

let test_checkpoint_resume_parallel () =
  (* Pooled exploration: cancel mid-search at 4 domains, round-trip
     the snapshot through the textual format, resume under the
     pool — final stats bit-identical to an uninterrupted run. *)
  let last = ref None in
  let t = Cancel.create ~trip_after:12 () in
  (match
     Cancel.with_token t (fun () ->
         Harness.explore_immediate_snapshot ~domains:4 ~checkpoint_every:5
           ~on_checkpoint:(fun ck -> last := Some ck)
           ~n:3 ())
   with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> ());
  let ck = Option.get !last in
  let ck =
    match Checkpoint.of_string (Checkpoint.to_string ck) with
    | Ok ck' ->
      Alcotest.(check string)
        "pooled snapshot round-trip" (Checkpoint.to_string ck)
        (Checkpoint.to_string ck');
      ck'
    | Error e -> Alcotest.failf "checkpoint parse: %s" e
  in
  let base, base_parts = Harness.explore_immediate_snapshot ~n:3 () in
  let resumed, parts =
    Harness.explore_immediate_snapshot ~resume:ck ~domains:4 ~n:3 ()
  in
  stats_agree "parallel resume" base resumed;
  check "partitions" (List.length base_parts) (List.length parts);
  check_bool "same partitions" true
    (List.for_all2 Opart.equal base_parts parts)

(* Checkpoints written before every exploration ran as subtree tasks,
   both by [fact explore --protocol is -n 3 --max-runs 700 --checkpoint F
   --checkpoint-every 100]: at [--domains 1] (the inline layout of the
   old single-DFS writer) and at [--domains 4] ([subtrees] layout). *)
let inline_layout_ck =
  "((protocol is) (n 3) (participants (0 1 2)) (runs 328) (truncated \
  0) (pruned 272) (patterns (0)) (frontier ((s0 ()) (s0 ()) (s1 \
  (s0)) (s1 ()) (s0 ()) (s0 ()) (s0 ()) (s0 ()) (s1 (s0)) (s1 ()) \
  (s2 (s1 s0)) (s2 ()) (s0 ()) (s2 (s1)))) (parts (((0) (1) (2)) \
  ((0) (2) (1)) ((0) (1 2)) ((1) (0) (2)) ((0 1) (2)) ((2) (0) (1)) \
  ((0 2) (1)))))"

let subtrees_layout_ck =
  "((protocol is) (n 3) (participants (0 1 2)) (subtrees (((prefix \
  ((s0 ()) (s0 ()) (s0 ()))) (status (done (runs 320) (truncated 0) \
  (pruned 268) (patterns (0)) (exhausted true)))) ((prefix ((s0 ()) \
  (s0 ()) (s1 (s0)))) (status (active (runs 53) (truncated 0) \
  (pruned 47) (patterns (0)) (frontier ((s0 ()) (s0 ()) (s1 (s0)) \
  (s1 ()) (s0 ()) (s1 (s0))))))) ((prefix ((s0 ()) (s0 ()) (s2 (s1 \
  s0)))) (status todo)) ((prefix ((s0 ()) (s1 (s0)) (s1 ()))) \
  (status todo)) ((prefix ((s0 ()) (s1 (s0)) (s2 (s1)))) (status \
  todo)) ((prefix ((s0 ()) (s2 (s1 s0)) (s2 ()))) (status todo)) \
  ((prefix ((s1 (s0)) (s1 ()) (s1 ()))) (status todo)) ((prefix ((s1 \
  (s0)) (s1 ()) (s2 (s1)))) (status todo)) ((prefix ((s1 (s0)) (s2 \
  (s1)) (s2 ()))) (status todo)) ((prefix ((s2 (s1 s0)) (s2 ()) (s2 \
  ()))) (status todo)))) (parts (((0) (1) (2)) ((0) (2) (1)) ((0) (1 \
  2)) ((1) (0) (2)) ((0 1) (2)) ((2) (0) (1)) ((0 2) (1)))))"

let test_checkpoint_older_files () =
  let parse text =
    match Checkpoint.of_string text with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "older checkpoint rejected: %s" e
  in
  let inline = parse inline_layout_ck in
  (match inline.Checkpoint.state with
  | [ { Explore.prefix = []; progress = Explore.Active _ } ] -> ()
  | _ -> Alcotest.fail "inline layout should load as one root active task");
  (* the subtrees writer is unchanged: an old file re-serializes as is *)
  Alcotest.(check string)
    "subtrees layout bytes" subtrees_layout_ck
    (Checkpoint.to_string (parse subtrees_layout_ck));
  List.iter
    (fun (layout, ck) ->
      List.iter
        (fun domains ->
          let name = Printf.sprintf "%s at %d domains" layout domains in
          let stats, parts =
            Harness.explore_immediate_snapshot ~resume:ck ~domains ~n:3 ()
          in
          check (name ^ " runs") 1522 stats.Explore.runs;
          check (name ^ " pruned") 1338 stats.Explore.pruned;
          check_bool (name ^ " exhausted") true stats.Explore.exhausted;
          check (name ^ " partitions") 13 (List.length parts))
        [ 1; 2 ])
    [ ("inline", inline); ("subtrees", parse subtrees_layout_ck) ]

let test_checkpoint_save_atomic () =
  let dir = Filename.temp_dir "fact-ck" "" in
  let file = Filename.concat dir "is.ck" in
  let first = interrupted_is ~n:2 ~max_runs:2 in
  let second = interrupted_is ~n:2 ~max_runs:3 in
  Checkpoint.save file first;
  Checkpoint.save file second;
  Alcotest.(check (array string)) "no temp file left" [| "is.ck" |]
    (Sys.readdir dir);
  (match Checkpoint.load file with
  | Ok ck ->
    Alcotest.(check string)
      "loads back equal" (Checkpoint.to_string second)
      (Checkpoint.to_string ck)
  | Error e -> Alcotest.failf "reload: %s" e);
  Sys.remove file;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Chaos                                                              *)
(* ------------------------------------------------------------------ *)

let test_chaos () =
  let audit = Cache.checking () in
  Fun.protect ~finally:(fun () -> Cache.set_check audit) @@ fun () ->
  Cache.set_check false;
  let stats = Chaos.run ~seed:11 ~max_faults:60 () in
  check_bool "audit flag stays off" false (Cache.checking ());
  check "all injected" 60 stats.Chaos.injected;
  Alcotest.(check (list string)) "no violations" [] stats.Chaos.violations;
  let count = Chaos.count stats in
  check_bool "every kind exercised" true
    (count "worker crash" > 0
    && count "transient" > 0
    && count "evictions" > 0
    && count "explore storms" > 0
    && count "assertion sweeps" > 0);
  check_bool "typed errors observed" true (stats.Chaos.typed_errors > 0);
  check_bool "completions observed" true (stats.Chaos.recovered > 0);
  (* the seeded fault sequence is pinned *)
  List.iter
    (fun (kind, n) -> check kind n (count kind))
    [
      ("worker crash", 9);
      ("transient", 16);
      ("cancel", 11);
      ("evictions", 8);
      ("explore storms", 7);
      ("assertion sweeps", 9);
    ];
  Cache.set_check true;
  ignore (Chaos.run ~seed:11 ~max_faults:3 ());
  check_bool "audit flag stays on" true (Cache.checking ())

let test_ra_cancellation () =
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let reference = Ra.complex alpha ~n:3 in
  (* poll-trip: even a warm pipeline cancels promptly *)
  (match
     Cancel.with_token
       (Cancel.create ~trip_after:5 ())
       (fun () -> Ra.complex alpha ~n:3)
   with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> ());
  (* an already-expired deadline raises the deadline error *)
  (match
     Cancel.with_token
       (Cancel.create ~deadline_s:1e-9 ())
       (fun () ->
         Unix.sleepf 0.001;
         Ra.complex alpha ~n:3)
   with
  | _ -> Alcotest.fail "expected deadline"
  | exception Fact_error.Error (Fact_error.Deadline_exceeded _) -> ());
  (* the pipeline is unharmed afterwards *)
  check_bool "pipeline healthy" true
    (Complex.equal (Ra.complex alpha ~n:3) reference)

(* ---------------------------- backoff ----------------------------- *)

let test_backoff_policy () =
  let p = Backoff.make ~base_ms:50. ~multiplier:2. ~max_ms:400. () in
  (* deterministic exponential growth, capped *)
  Alcotest.(check (list (float 0.001)))
    "schedule doubles then caps"
    [ 50.; 100.; 200.; 400.; 400. ]
    (Backoff.schedule p ~attempts:5);
  (* huge attempt numbers must saturate at the cap, not overflow *)
  Alcotest.(check (float 0.001)) "no overflow at attempt 10_000" 400.
    (Backoff.delay_ms p ~attempt:10_000);
  Alcotest.(check (float 0.001)) "negative attempts clamp to base" 50.
    (Backoff.delay_ms p ~attempt:(-3));
  (* bad policies are typed refusals, not NaN machines *)
  check_precondition "negative base" ~fn:"Backoff.make" (fun () ->
      Backoff.make ~base_ms:(-1.) ());
  check_precondition "shrinking multiplier" ~fn:"Backoff.make" (fun () ->
      Backoff.make ~multiplier:0.5 ());
  check_precondition "cap below base" ~fn:"Backoff.make" (fun () ->
      Backoff.make ~base_ms:100. ~max_ms:50. ())

let suite =
  [
    Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
    Alcotest.test_case "backoff policy" `Quick test_backoff_policy;
    Alcotest.test_case "cancel token" `Quick test_cancel_token;
    Alcotest.test_case "cache bounded" `Quick test_cache_bounded;
    Alcotest.test_case "cache recompute audit" `Quick
      test_cache_recompute_audit;
    Alcotest.test_case "cache cap identity" `Quick test_cache_cap_identity;
    Alcotest.test_case "parallel worker failure" `Quick
      test_parallel_worker_failure;
    Alcotest.test_case "parallel transient retry" `Quick
      test_parallel_transient_retry;
    Alcotest.test_case "parallel cancellation passthrough" `Quick
      test_parallel_cancellation_passthrough;
    Alcotest.test_case "parallel domains identity" `Quick
      test_parallel_domains_identity;
    Alcotest.test_case "typed preconditions" `Quick test_typed_preconditions;
    Alcotest.test_case "checkpoint/resume (is)" `Quick
      test_checkpoint_resume_is;
    Alcotest.test_case "checkpoint/resume (alg1)" `Slow
      test_checkpoint_resume_alg1;
    Alcotest.test_case "checkpoint mismatch" `Quick test_checkpoint_mismatch;
    Alcotest.test_case "cancellation flushes checkpoint" `Quick
      test_explore_cancellation_flushes;
    Alcotest.test_case "checkpoint/resume under the pool" `Slow
      test_checkpoint_resume_parallel;
    Alcotest.test_case "checkpoint older layouts resume" `Quick
      test_checkpoint_older_files;
    Alcotest.test_case "checkpoint save atomic" `Quick
      test_checkpoint_save_atomic;
    Alcotest.test_case "chaos storm" `Slow test_chaos;
    Alcotest.test_case "R_A cancellation" `Quick test_ra_cancellation;
  ]
