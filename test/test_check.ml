(* Tests for lib/check: decision traces, deterministic replay, the
   DFS explorer with sleep-set pruning and crash injection, greedy
   counterexample shrinking, and the Gen/Shrink/Prop property core.

   The headline checks are the model-checking ones: exhaustive
   exploration of small instances against the paper's topological
   oracles — one-shot IS interleavings vs the facets of Chr s (the
   ordered-set-partition correspondence), and Algorithm 1 vs R_A
   (Theorem 7) with crash injection up to the α-model bound. *)

open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_runtime
open Fact_check

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ps = Pset.of_list

(* ------------------------------------------------------------------ *)
(* Trace: construction, validation, serialization                     *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let tr =
    Trace.make ~n:3 ~participants:(ps [ 0; 1; 2 ])
      [ Trace.Step 0; Trace.Step 1; Trace.Crash 2; Trace.Step 0 ]
  in
  let s = Trace.to_string tr in
  check_str "printed form"
    "((n 3) (participants (0 1 2)) (decisions (s0 s1 c2 s0)))" s;
  (match Trace.of_string s with
  | Ok tr2 -> check_bool "round-trip" true (Trace.equal tr tr2)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  check "crashes" 1 (Pset.cardinal (Trace.crashes tr))

let test_trace_parse_errors () =
  let bad s =
    match Trace.of_string s with Ok _ -> false | Error _ -> true
  in
  check_bool "garbage" true (bad "hello");
  check_bool "unclosed" true (bad "((n 2) (participants (0 1)");
  check_bool "bad decision" true
    (bad "((n 2) (participants (0 1)) (decisions (x0)))");
  check_bool "step after crash" true
    (bad "((n 2) (participants (0 1)) (decisions (c0 s0)))");
  check_bool "non-participant" true
    (bad "((n 2) (participants (0)) (decisions (s1)))")

let test_trace_validation () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "decision on crashed" true
    (raises (fun () ->
         Trace.make ~n:2 ~participants:(Pset.full 2)
           [ Trace.Crash 0; Trace.Step 0 ]));
  check_bool "non-participant" true
    (raises (fun () ->
         Trace.make ~n:2 ~participants:(ps [ 0 ]) [ Trace.Step 1 ]))

(* ------------------------------------------------------------------ *)
(* Replay: controlled schedules are deterministic                      *)
(* ------------------------------------------------------------------ *)

let counter_procs () =
  (* Two processes interleaving writes and snapshots over shared
     memory; the decided values depend on the interleaving. *)
  let mem = Memory.create 2 in
  Array.init 2 (fun _ pid ->
      let open Proc in
      let* () = Memory.update mem ~pid (10 * (pid + 1)) in
      let* snap = Memory.snapshot mem in
      let* () = Memory.update mem ~pid (100 * (pid + 1)) in
      return
        (Array.to_list snap |> List.filter_map Fun.id |> List.fold_left ( + ) 0))

let test_replay_matches_sequential () =
  (* The trace of a fully sequential schedule replays to the same
     decisions as Schedule.sequential itself. *)
  let schedule = Schedule.sequential ~n:2 ~participants:(Pset.full 2) in
  let direct = Exec.run ~schedule (counter_procs ()) in
  let steps_of pid =
    match direct.Exec.outcomes.(pid) with
    | Exec.Decided _ -> ()
    | _ -> Alcotest.failf "p%d did not decide" pid
  in
  steps_of 0;
  steps_of 1;
  (* p0 runs to completion (4 scheduled steps: the start plus one per
     Memory request), then p1. *)
  let tr =
    Trace.make ~n:2 ~participants:(Pset.full 2)
      [ Trace.Step 0; Trace.Step 0; Trace.Step 0; Trace.Step 0;
        Trace.Step 1; Trace.Step 1; Trace.Step 1; Trace.Step 1 ]
  in
  let replayed = Replay.run ~procs:(counter_procs ()) tr in
  check_bool "same decisions" true
    (Exec.decided replayed = Exec.decided direct)

let test_replay_deterministic () =
  let tr =
    Trace.make ~n:2 ~participants:(Pset.full 2)
      [ Trace.Step 0; Trace.Step 1; Trace.Step 1; Trace.Step 0;
        Trace.Step 0; Trace.Step 1; Trace.Step 1; Trace.Step 0 ]
  in
  let r1 = Replay.run ~procs:(counter_procs ()) tr in
  let r2 = Replay.run ~procs:(counter_procs ()) tr in
  check_bool "identical decisions" true (Exec.decided r1 = Exec.decided r2)

let test_replay_crash () =
  (* Crashing p0 before its first step: p1 sees only itself. *)
  let tr =
    Trace.make ~n:2 ~participants:(Pset.full 2)
      [ Trace.Crash 0; Trace.Step 1; Trace.Step 1; Trace.Step 1;
        Trace.Step 1 ]
  in
  let r = Replay.run ~procs:(counter_procs ()) tr in
  (match r.Exec.outcomes.(0) with
  | Exec.Crashed 0 -> ()
  | _ -> Alcotest.fail "p0 should crash with 0 steps");
  Alcotest.(check (list (pair int int))) "p1 sees only itself" [ (1, 20) ]
    (Exec.decided r)

(* ------------------------------------------------------------------ *)
(* Explorer: exhaustive IS vs the Chr s oracle (ordered partitions)    *)
(* ------------------------------------------------------------------ *)

let test_explore_is_n2 () =
  let stats, parts = Harness.explore_immediate_snapshot ~n:2 () in
  check_bool "exhaustive" true stats.Explore.exhausted;
  check "violations" 0 (List.length stats.Explore.violations);
  check "truncated" 0 stats.Explore.truncated;
  check "ordered partitions = fubini 2" (Opart.fubini 2) (List.length parts);
  (* Oracle: the partitions are exactly those enumerated by Opart,
     i.e. the facets of Chr s. *)
  let expected = List.sort Opart.compare (Opart.enumerate (Pset.full 2)) in
  check_bool "= Opart.enumerate" true
    (List.for_all2 Opart.equal parts expected)

let test_explore_is_n3_oracle () =
  (* n=3: all 13 ordered set partitions (the 13 facets of Chr s,
     Figure 1a) arise from explored interleavings, and nothing else. *)
  let stats, parts = Harness.explore_immediate_snapshot ~n:3 () in
  check_bool "exhaustive" true stats.Explore.exhausted;
  check "violations" 0 (List.length stats.Explore.violations);
  check "ordered partitions = fubini 3" (Opart.fubini 3) (List.length parts);
  let expected = List.sort Opart.compare (Opart.enumerate (Pset.full 3)) in
  check_bool "= facets of Chr s via Opart" true
    (List.for_all2 Opart.equal parts expected);
  (* and via the complex itself *)
  let chr_runs =
    List.sort Opart.compare
      (List.map Chr.run_of_facet (Complex.facets (Chr.standard 3 |> Chr.subdivide)))
  in
  check_bool "= runs of Chr s facets" true
    (List.for_all2 Opart.equal parts chr_runs)

(* ------------------------------------------------------------------ *)
(* Explorer: Algorithm 1 vs R_A (Theorem 7), with crash injection      *)
(* ------------------------------------------------------------------ *)

let test_explore_alg1_waitfree_n2 () =
  (* Exhaustive, with the α-model crash budget α(Π)−1 = 1: every
     interleaving and crash placement keeps outputs inside R_A. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
  let stats =
    Harness.explore_algorithm1 ~alpha ~participants:(Pset.full 2) ()
  in
  check_bool "exhaustive" true stats.Explore.exhausted;
  check "violations" 0 (List.length stats.Explore.violations);
  check "truncated" 0 stats.Explore.truncated;
  (* crash patterns: {}, {0}, {1} *)
  check "crash patterns" 3 stats.Explore.crash_patterns

let test_explore_alg1_1of_n2 () =
  (* 1-OF: the wait phase spins, so runs truncate at the depth bound;
     the bounded space is still fully covered and violation-free. *)
  let alpha = Agreement.k_obstruction_free ~n:2 ~k:1 in
  let stats =
    Harness.explore_algorithm1 ~alpha ~participants:(Pset.full 2)
      ~max_depth:48 ()
  in
  check_bool "exhaustive (bounded)" true stats.Explore.exhausted;
  check "violations" 0 (List.length stats.Explore.violations);
  check_bool "wait loops were truncated" true (stats.Explore.truncated > 0)

let test_explore_alg1_waitfree_n3_bounded () =
  (* n=3 under a run budget: crash injection reaches all 7 α-model
     patterns (≤ 2 crashes among 3 processes); no violation. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 3) in
  let stats =
    Harness.explore_algorithm1 ~alpha ~participants:(Pset.full 3)
      ~max_runs:30_000 ()
  in
  check "violations" 0 (List.length stats.Explore.violations);
  check "crash patterns" 7 stats.Explore.crash_patterns;
  check_bool "hit the run budget" true (not stats.Explore.exhausted)

let test_explore_sleep_sets_prune () =
  (* Two processes writing to distinct cells: all interleavings
     commute, so sleep sets collapse the space to very few complete
     runs (vs 6 = C(4,2) without reduction for 2 steps each). *)
  let procs () =
    let mem = Memory.create 2 in
    Array.init 2 (fun _ pid ->
        Proc.bind (Memory.update mem ~pid pid) (fun () -> Proc.return pid))
  in
  let stats =
    Explore.explore ~n:2 ~participants:(Pset.full 2)
      ~subject:(fun () -> Subject.of_procs ~prop:(fun _ -> true) (procs ()))
      ()
  in
  check_bool "exhaustive" true stats.Explore.exhausted;
  check_bool "pruned something" true (stats.Explore.pruned > 0);
  (* Disjoint writes commute: strictly fewer complete runs than the
     2-step × 2-process interleaving count. *)
  check_bool "reduced" true (stats.Explore.runs < 6)

(* ------------------------------------------------------------------ *)
(* Counterexample pipeline: find → shrink → replay (skip_wait)         *)
(* ------------------------------------------------------------------ *)

let alpha_1of2 = Agreement.k_obstruction_free ~n:2 ~k:1
let ra_1of2 = Ra.complex alpha_1of2 ~n:2

let skip_wait_procs () =
  let inst = Algorithm1.create_instance ~n:2 in
  Array.init 2 (fun _ pid ->
      Algorithm1.process ~skip_wait:true inst alpha_1of2 ~pid)

let skip_wait_fails r = not (Harness.alg1_prop ~ra:ra_1of2 r)

let test_skip_wait_counterexample () =
  (* The explorer finds a run of the hand-broken protocol (no wait
     phase) escaping R_A; shrinking keeps it failing; the shrunk trace
     serializes, parses back byte-identically, and replays to the same
     failure every time. *)
  let stats =
    Harness.explore_algorithm1 ~skip_wait:true ~alpha:alpha_1of2
      ~participants:(Pset.full 2) ~max_depth:48 ~stop_on_violation:true ()
  in
  match stats.Explore.violations with
  | [] -> Alcotest.fail "no counterexample found for skip_wait"
  | v :: _ ->
    let tr = v.Explore.trace in
    check_bool "violation reproduces" true
      (skip_wait_fails (Replay.run ~procs:(skip_wait_procs ()) tr));
    let shrunk = Minimize.shrink ~procs:skip_wait_procs ~fails:skip_wait_fails tr in
    check_bool "shrunk no longer" true (Trace.length shrunk <= Trace.length tr);
    check_bool "shrunk still fails" true
      (skip_wait_fails (Replay.run ~procs:(skip_wait_procs ()) shrunk));
    (* serialization round-trip is byte-identical *)
    let s = Trace.to_string shrunk in
    (match Trace.of_string s with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok tr2 ->
      check_str "byte-identical" s (Trace.to_string tr2);
      (* deterministic replay: same decided outputs on every replay *)
      let d1 = Exec.decided (Replay.run ~procs:(skip_wait_procs ()) tr2) in
      let d2 = Exec.decided (Replay.run ~procs:(skip_wait_procs ()) tr2) in
      check_bool "replay deterministic" true
        (List.map fst d1 = List.map fst d2
        && List.for_all2
             (fun (_, a) (_, b) ->
               Simplex.equal
                 (Algorithm1.simplex_of_outputs [ a ])
                 (Algorithm1.simplex_of_outputs [ b ]))
             d1 d2))

let test_shrink_reduces_padded_trace () =
  (* Pad a real counterexample with no-op decisions (steps of already
     finished processes are skipped at replay): the padded trace still
     fails, and the shrinker strictly reduces it. *)
  let stats =
    Harness.explore_algorithm1 ~skip_wait:true ~alpha:alpha_1of2
      ~participants:(Pset.full 2) ~max_depth:48 ~stop_on_violation:true ()
  in
  let ce =
    match stats.Explore.violations with
    | v :: _ -> v.Explore.trace
    | [] -> Alcotest.fail "no counterexample found"
  in
  let padded =
    Trace.make ~n:2 ~participants:(Pset.full 2)
      (Trace.decisions ce
      @ [ Trace.Step 1; Trace.Step 0; Trace.Step 1; Trace.Step 0;
          Trace.Step 1; Trace.Step 0 ])
  in
  check_bool "padded trace fails" true
    (skip_wait_fails (Replay.run ~procs:(skip_wait_procs ()) padded));
  let shrunk =
    Minimize.shrink ~procs:skip_wait_procs ~fails:skip_wait_fails padded
  in
  check_bool "still fails" true
    (skip_wait_fails (Replay.run ~procs:(skip_wait_procs ()) shrunk));
  check_bool "strictly shorter" true
    (Trace.length shrunk < Trace.length padded);
  check_bool "no more context switches" true
    (Minimize.context_switches shrunk <= Minimize.context_switches padded)

(* ------------------------------------------------------------------ *)
(* Property core: Gen / Shrink / Prop                                  *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let g = Gen.list ~len:(Gen.int_range 0 10) (Gen.int 1000) in
  let a = Gen.run ~seed:7 g and b = Gen.run ~seed:7 g in
  check_bool "same seed, same value" true (a = b);
  let c = Gen.run ~seed:8 g in
  check_bool "different seed differs" true (a <> c);
  (* subset generators respect their bounds *)
  for seed = 0 to 20 do
    let p = Gen.run ~seed (Gen.pset ~n:3) in
    check_bool "nonempty" false (Pset.is_empty p);
    check_bool "inside universe" true (Pset.subset p (Pset.full 3))
  done

let test_prop_pass_and_fail () =
  (match
     Prop.check ~count:50 ~seed:1 ~name:"sorted concat"
       (Gen.list ~len:(Gen.int_range 0 8) (Gen.int 100))
       (fun l -> List.length (List.sort compare l) = List.length l)
   with
  | Prop.Ok { count } -> check "all ran" 50 count
  | Prop.Fail _ -> Alcotest.fail "true property failed");
  (* a failing property shrinks to the minimal counterexample *)
  match
    Prop.check ~count:200 ~seed:1 ~name:"all < 50" ~shrink:Shrink.int
      (Gen.int 1000)
      (fun x -> x < 50)
  with
  | Prop.Ok _ -> Alcotest.fail "false property passed"
  | Prop.Fail { original; shrunk; _ } ->
    check_bool "original fails" true (original >= 50);
    check "shrunk to boundary" 50 shrunk

let test_prop_iteration_replays_standalone () =
  (* The state of iteration i is Random.State.make [|seed; i|]: a
     reported failure replays without rerunning iterations 0..i-1. *)
  let gen = Gen.int 1_000_000 in
  match
    Prop.check ~count:100 ~seed:42 ~name:"evens" gen (fun x -> x mod 2 = 0)
  with
  | Prop.Ok _ -> Alcotest.fail "should fail"
  | Prop.Fail { iteration; original; _ } ->
    let replayed = gen (Random.State.make [| 42; iteration |]) in
    check "standalone replay" original replayed

let test_prop_exception_is_failure () =
  match
    Prop.check ~count:10 ~seed:3 ~name:"raises" (Gen.int 10) (fun _ ->
        failwith "boom")
  with
  | Prop.Ok _ -> Alcotest.fail "raising property passed"
  | Prop.Fail { error; _ } ->
    check_bool "error recorded" true
      (match error with Some e -> e <> "" | None -> false)

let test_shrink_int_well_founded () =
  (* Shrink candidates are strictly smaller in absolute value, so any
     greedy descent terminates. *)
  List.iter
    (fun i ->
      List.iter
        (fun c -> check_bool "smaller" true (abs c < abs i))
        (Shrink.int i))
    [ 1; 2; 17; 1000 ];
  check "no candidates for 0" 0 (List.length (Shrink.int 0))

(* ------------------------------------------------------------------ *)
(* Determinism regressions: seeded schedules vs FACT_DOMAINS           *)
(* ------------------------------------------------------------------ *)

let alg1_fingerprint alpha schedule =
  let report = Algorithm1.run alpha ~schedule in
  List.map
    (fun (pid, o) ->
      (pid, Pset.to_mask o.Algorithm1.view1, List.map fst o.Algorithm1.view2))
    (Exec.decided report)

let test_schedule_random_deterministic () =
  let alpha = Agreement.of_adversary (Adversary.wait_free 3) in
  for seed = 1 to 10 do
    let mk () =
      Schedule.random ~seed ~n:3 ~participants:(Pset.full 3) ~crashes:[]
    in
    check_bool "same seed, same run" true
      (alg1_fingerprint alpha (mk ()) = alg1_fingerprint alpha (mk ()))
  done

let test_schedule_alpha_model_deterministic () =
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  for seed = 1 to 10 do
    let mk () = Schedule.alpha_model ~seed alpha ~participation:(Pset.full 3) in
    check_bool "same faulty set" true
      (Pset.equal (Schedule.faulty (mk ())) (Schedule.faulty (mk ())));
    check_bool "same seed, same run" true
      (alg1_fingerprint alpha (mk ()) = alg1_fingerprint alpha (mk ()))
  done

let test_schedules_independent_of_domains () =
  (* Seeded schedules must not depend on the Parallel fan-out
     (FACT_DOMAINS): runs are byte-identical at 1 and 4 domains. *)
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let saved = Parallel.default_domains () in
  let fingerprints domains =
    Parallel.set_default_domains domains;
    List.init 5 (fun seed ->
        let sr =
          Schedule.random ~seed ~n:3 ~participants:(Pset.full 3) ~crashes:[]
        in
        let sa = Schedule.alpha_model ~seed alpha ~participation:(Pset.full 3) in
        (alg1_fingerprint alpha sr, alg1_fingerprint alpha sa))
  in
  let at1 = fingerprints 1 in
  let at4 = fingerprints 4 in
  Parallel.set_default_domains saved;
  check_bool "identical under 1 vs 4 domains" true (at1 = at4)

(* ------------------------------------------------------------------ *)
(* Parallel exploration: bit-identical to the sequential engine        *)
(* ------------------------------------------------------------------ *)

let is_fingerprint ~domains n =
  let stats, parts = Harness.explore_immediate_snapshot ~domains ~n () in
  ( stats.Explore.runs,
    stats.Explore.truncated,
    stats.Explore.pruned,
    stats.Explore.crash_patterns,
    stats.Explore.exhausted,
    List.map (Format.asprintf "%a" Opart.pp) parts )

let test_explore_parallel_is_identical () =
  (* The work-stealing fan-out must not change a single count: runs,
     pruned prefixes, crash patterns and the recovered partitions are
     bit-identical whatever the domain count. *)
  List.iter
    (fun n ->
      let seq = is_fingerprint ~domains:1 n in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "IS n=%d identical at %d domains" n d)
            true
            (is_fingerprint ~domains:d n = seq))
        [ 2; 4 ])
    [ 2; 3 ]

let test_explore_parallel_alg1_identical () =
  let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
  let fingerprint domains =
    let stats =
      Harness.explore_algorithm1 ~domains ~alpha ~participants:(Pset.full 2)
        ()
    in
    ( stats.Explore.runs,
      stats.Explore.truncated,
      stats.Explore.pruned,
      stats.Explore.crash_patterns,
      List.length stats.Explore.violations,
      stats.Explore.exhausted )
  in
  let seq = fingerprint 1 in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "Alg1 n=2 identical at %d domains" d)
        true
        (fingerprint d = seq))
    [ 2; 4 ]

let test_explore_parallel_counterexample () =
  (* stop_on_violation keeps the lowest subtree's first violation, so
     the counterexample — and therefore its shrink — is the sequential
     one under any fan-out. *)
  let shrunk_at domains =
    let stats =
      Harness.explore_algorithm1 ~skip_wait:true ~domains ~alpha:alpha_1of2
        ~participants:(Pset.full 2) ~max_depth:48 ~stop_on_violation:true ()
    in
    match stats.Explore.violations with
    | [] -> Alcotest.fail "no counterexample found for skip_wait"
    | v :: _ ->
      Trace.to_string
        (Minimize.shrink ~procs:skip_wait_procs ~fails:skip_wait_fails
           v.Explore.trace)
  in
  let seq = shrunk_at 1 in
  List.iter
    (fun d ->
      check_str
        (Printf.sprintf "shrunk counterexample identical at %d domains" d)
        seq (shrunk_at d))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Budgeted parallel exploration: committed runs only                 *)
(* ------------------------------------------------------------------ *)

let test_explore_budget_identical () =
  (* Under a run budget the parallel driver commits exactly the runs of
     the in-order search: the stats line and the partition list (built
     from committed runs only) agree at 1, 2 and 4 domains. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
  let is_at ~domains ~max_runs =
    let s, parts =
      Harness.explore_immediate_snapshot ~domains ~max_runs ~n:3 ()
    in
    ( Format.asprintf "%a" Explore.pp_stats s,
      List.map (Format.asprintf "%a" Opart.pp) parts )
  in
  let alg1_at ~domains ~max_runs =
    let s =
      Harness.explore_algorithm1 ~domains ~max_runs ~alpha
        ~participants:(Pset.full 2) ()
    in
    (Format.asprintf "%a" Explore.pp_stats s, [])
  in
  List.iter
    (fun (name, at) ->
      List.iter
        (fun max_runs ->
          let seq = at ~domains:1 ~max_runs in
          List.iter
            (fun d ->
              check_bool
                (Printf.sprintf "%s max_runs=%d identical at %d domains" name
                   max_runs d)
                true
                (at ~domains:d ~max_runs = seq))
            [ 2; 4 ])
        [ 1; 50; 333; 2000 ])
    [ ("IS n=3", is_at); ("alg1 n=2", alg1_at) ]

(* ------------------------------------------------------------------ *)
(* Branching from saved states = replay from the root                 *)
(* ------------------------------------------------------------------ *)

let differential name ~config ~n ~participants ~subject =
  (* Every 97th counted run of an exhaustive search (the first, the
     98th, ...), replayed from its trace against a fresh subject, must
     give the report the explorer recorded, and fail exactly when the
     explorer recorded it as a violation: restoring saved states (undo
     trail, step values, event logs) is exact. *)
  let sampled = ref [] in
  let counted = ref 0 in
  let classify (o : _ Explore.outcome) =
    incr counted;
    if (!counted - 1) mod 97 = 0 then sampled := o :: !sampled;
    None
  in
  let stats =
    Explore.explore ~config ~classify ~domains:1 ~n ~participants ~subject ()
  in
  check_bool (name ^ " exhaustive") true stats.Explore.exhausted;
  check_bool (name ^ " sampled") true (!sampled <> []);
  List.iter
    (fun (o : _ Explore.outcome) ->
      let report, verdict =
        Replay.run_subject ~truncated:o.truncated ~subject:(subject ())
          o.trace
      in
      let tr = Trace.to_string o.trace in
      check_bool (name ^ " same report " ^ tr) true (report = o.report);
      let recorded =
        List.exists
          (fun (v : _ Explore.outcome) -> Trace.equal v.trace o.trace)
          stats.Explore.violations
      in
      check_bool (name ^ " same verdict " ^ tr) recorded
        (Result.is_error verdict))
    !sampled;
  List.length stats.Explore.violations

let test_branching_equals_replay () =
  let wf2 = Agreement.of_adversary (Adversary.wait_free 2) in
  let depth = Explore.config ~max_depth:64 () in
  let p3 = Pset.full 3 and p2 = Pset.full 2 in
  let alg1_config =
    Explore.config ~max_crashes:1 ~crashable:p2 ~max_depth:64 ()
  in
  (* an event-level assertion whose verdict varies from run to run,
     so the saved event logs are checked too *)
  let before =
    Assertion.Before
      (Assertion.Decides (Pset.singleton 0), Assertion.Decides (Pset.singleton 1))
  in
  let v =
    [
      differential "IS n=3" ~config:depth ~n:3 ~participants:p3
        ~subject:(Harness.is_subject ~n:3 ());
      differential "IS n=3 before" ~config:depth ~n:3 ~participants:p3
        ~subject:(Harness.is_subject ~assertion:before ~n:3 ());
      differential "alg1 wait-free n=2" ~config:alg1_config ~n:2
        ~participants:p2
        ~subject:(Harness.alg1_subject ~alpha:wf2 ~participants:p2 ());
      differential "alg1 footprint" ~config:alg1_config ~n:2 ~participants:p2
        ~subject:
          (Harness.alg1_subject
             ~assertion:(Assertion.Frame (p2, Harness.alg1_object_names))
             ~alpha:wf2 ~participants:p2 ());
      differential "wsmin n=3" ~config:depth ~n:3 ~participants:p3
        ~subject:(Harness.wsmin_subject ~n:3 ());
      differential "wsmin n=3 agreement-1" ~config:depth ~n:3
        ~participants:p3
        ~subject:(Harness.wsmin_subject ~assertion:(Assertion.Agreement 1) ~n:3 ());
    ]
  in
  Alcotest.(check (list bool))
    "which searches record violations"
    [ false; true; false; false; false; true ]
    (List.map (fun k -> k > 0) v)

let suite =
  [
    ("trace: round-trip", `Quick, test_trace_roundtrip);
    ("trace: parse errors", `Quick, test_trace_parse_errors);
    ("trace: validation", `Quick, test_trace_validation);
    ("replay: matches sequential", `Quick, test_replay_matches_sequential);
    ("replay: deterministic", `Quick, test_replay_deterministic);
    ("replay: crash decision", `Quick, test_replay_crash);
    ("explore: IS n=2 = Chr s facets", `Quick, test_explore_is_n2);
    ("explore: IS n=3 oracle (13 partitions)", `Slow, test_explore_is_n3_oracle);
    ("explore: Alg1 wait-free n=2 exhaustive", `Slow, test_explore_alg1_waitfree_n2);
    ("explore: Alg1 1-OF n=2 bounded", `Slow, test_explore_alg1_1of_n2);
    ("explore: Alg1 wait-free n=3 budget", `Slow, test_explore_alg1_waitfree_n3_bounded);
    ("explore: sleep sets prune commuting writes", `Quick, test_explore_sleep_sets_prune);
    ("counterexample: find/shrink/replay (skip_wait)", `Slow, test_skip_wait_counterexample);
    ("counterexample: shrinking reduces padding", `Slow, test_shrink_reduces_padded_trace);
    ("gen: explicit-seed determinism", `Quick, test_gen_deterministic);
    ("prop: pass and shrink-to-boundary", `Quick, test_prop_pass_and_fail);
    ("prop: iteration replays standalone", `Quick, test_prop_iteration_replays_standalone);
    ("prop: exception counts as failure", `Quick, test_prop_exception_is_failure);
    ("shrink: int is well-founded", `Quick, test_shrink_int_well_founded);
    ("determinism: Schedule.random per seed", `Quick, test_schedule_random_deterministic);
    ("determinism: Schedule.alpha_model per seed", `Quick, test_schedule_alpha_model_deterministic);
    ("determinism: independent of FACT_DOMAINS", `Quick, test_schedules_independent_of_domains);
    ("parallel explore: IS counts identical at 1/2/4 domains", `Slow, test_explore_parallel_is_identical);
    ("parallel explore: Alg1 counts identical at 1/2/4 domains", `Slow, test_explore_parallel_alg1_identical);
    ("parallel explore: identical shrunk counterexample", `Slow, test_explore_parallel_counterexample);
    ("parallel explore: budgeted runs identical at 1/2/4 domains", `Slow, test_explore_budget_identical);
    ("explore: branching from saved states equals replay", `Slow, test_branching_equals_replay);
  ]
