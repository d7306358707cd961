(* The declarative assertion DSL: oracle ports (bit-identical
   fingerprints), mutation-tested assertions, frame-rule soundness
   against Op commutativity, serialization round-trips, shrinking, and
   checkpoint resume under assertions. *)

open Fact_topology
open Fact_adversary
open Fact_runtime
open Fact_check

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ported oracles keep the historical exploration counts, at any      *)
(* domain count.                                                      *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_is () =
  List.iter
    (fun domains ->
      let name = Printf.sprintf "is n=3 domains=%d" domains in
      let stats, parts = Harness.explore_immediate_snapshot ~domains ~n:3 () in
      check (name ^ " runs") 1522 stats.Explore.runs;
      check (name ^ " pruned") 1338 stats.Explore.pruned;
      check (name ^ " truncated") 0 stats.Explore.truncated;
      check (name ^ " violations") 0 (List.length stats.Explore.violations);
      check (name ^ " partitions") 13 (List.length parts);
      check_bool (name ^ " exhausted") true stats.Explore.exhausted)
    [ 1; 2; 4 ]

let test_fingerprint_alg1 () =
  let alpha = Agreement.of_adversary (Adversary.wait_free 2) in
  List.iter
    (fun domains ->
      let name = Printf.sprintf "alg1 wf n=2 domains=%d" domains in
      let stats =
        Harness.explore_algorithm1 ~domains ~alpha ~participants:(Pset.full 2)
          ()
      in
      check (name ^ " runs") 4825 stats.Explore.runs;
      check (name ^ " pruned") 14762 stats.Explore.pruned;
      check (name ^ " crash patterns") 3 stats.Explore.crash_patterns;
      check (name ^ " violations") 0 (List.length stats.Explore.violations);
      check_bool (name ^ " exhausted") true stats.Explore.exhausted)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Mutation tests: every seeded mutant is caught by its assertion,    *)
(* and the shrunk counterexample replays standalone, including after  *)
(* a serialization round-trip of the trace.                           *)
(* ------------------------------------------------------------------ *)

let test_mutants_caught () =
  List.iter
    (fun (spec : Mutant.spec) ->
      let name = spec.Mutant.m_protocol ^ "/" ^ spec.m_name in
      match Mutant.hunt spec with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok c ->
        check_bool (name ^ " caught by " ^ spec.m_caught_by) true
          (String.length c.Mutant.c_message
           >= String.length spec.m_caught_by
          && String.sub c.c_message 0 (String.length spec.m_caught_by)
             = spec.m_caught_by);
        check_bool (name ^ " non-empty counterexample") true
          (Trace.length c.c_trace > 0);
        (* the trace survives a textual round-trip and still convicts
           a fresh instance of the mutant *)
        let s = Trace.to_string c.c_trace in
        (match Trace.of_string s with
        | Error e -> Alcotest.failf "%s: trace parse: %s" name e
        | Ok tr ->
          check_str (name ^ " trace round-trip") s (Trace.to_string tr);
          (match Mutant.check_trace spec ~truncated:c.c_truncated tr with
          | Error _ -> ()
          | Ok () ->
            Alcotest.failf "%s: round-tripped trace no longer fails" name)))
    Mutant.all

let test_intact_protocols_pass () =
  (* The same suites on the unmutated protocols find nothing: the
     mutants are caught for being broken, not for being explored. *)
  let stats = Harness.explore_snapmin ~n:3 () in
  check "wsmin n=3 violations" 0 (List.length stats.Explore.violations);
  check_bool "wsmin n=3 exhausted" true stats.Explore.exhausted;
  let stats =
    Harness.explore_snapmin ~n:2 ~assertion:(Assertion.Agreement 1) ()
  in
  check_bool "wsmin does not solve consensus" true
    (List.length stats.Explore.violations > 0)

(* ------------------------------------------------------------------ *)
(* Frame rule vs Op commutativity (property-based)                    *)
(* ------------------------------------------------------------------ *)

(* Two shared objects: processes 0 and 1 write-then-snapshot object
   "a"; process 2 writes object "b". The assertion's footprint is
   {0, 1}, so process 2's steps are outside it and commute (distinct
   objects) with every footprint step. *)
let framed_subject =
  let assertion =
    Assertion.All
      [
        Assertion.Frame (Pset.of_list [ 0; 1 ], [ "a" ]);
        Assertion.Eventually
          (Assertion.Touches (Pset.of_list [ 0; 1 ], [ "a" ]));
      ]
  in
  Assertion.subject ~participants:(Pset.full 3)
    ~make:(fun () ->
      let a = Memory.create 3 in
      let b = Memory.create 3 in
      let update_snapshot pid =
        let open Proc in
        let* () = Memory.update a ~pid pid in
        let* snap = Memory.snapshot a in
        return (Array.length snap)
      in
      let procs =
        [|
          update_snapshot;
          update_snapshot;
          (fun pid -> Proc.bind (Memory.update b ~pid pid) (fun () -> Proc.return 0));
        |]
      in
      ( procs,
        Assertion.env
          ~objects:[ ("a", Memory.id a); ("b", Memory.id b) ]
          () ))
    assertion

(* Per-process step counts: start + update + snapshot for 0 and 1,
   start + update for 2. *)
let framed_steps = [| 3; 3; 2 |]

let interleavings_gen counts =
  (* a random shuffle of the fixed per-process step multiset, as a
     decision list *)
  QCheck.Gen.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pool =
        Array.to_list counts
        |> List.mapi (fun pid k -> List.init k (fun _ -> pid))
        |> List.concat |> Array.of_list
      in
      let len = Array.length pool in
      for i = len - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- t
      done;
      Array.to_list pool |> List.map (fun p -> Trace.Step p))
    QCheck.Gen.(0 -- max_int)

let verdict_of ~subject tr = Result.is_ok (Replay.check ~subject tr)

let prop_frame_rule_swaps =
  (* Swapping adjacent decisions where at least one process is outside
     the assertion's footprint (and the steps are independent — here
     structurally, distinct objects) never flips the verdict. *)
  let n = 3 in
  let footprint =
    match
      Assertion.footprint
        (Assertion.All
           [
             Assertion.Frame (Pset.of_list [ 0; 1 ], [ "a" ]);
             Assertion.Eventually
               (Assertion.Touches (Pset.of_list [ 0; 1 ], [ "a" ]));
           ])
    with
    | Some f -> f
    | None -> Alcotest.fail "frame assertion should have a footprint"
  in
  QCheck.Test.make ~name:"frame rule: out-of-footprint swaps keep verdicts"
    ~count:60
    (QCheck.make (interleavings_gen framed_steps))
    (fun decisions ->
      let tr = Trace.make ~n ~participants:(Pset.full n) decisions in
      let v0 = verdict_of ~subject:framed_subject tr in
      let arr = Array.of_list decisions in
      let ok = ref true in
      for i = 0 to Array.length arr - 2 do
        let pid = function Trace.Step p | Trace.Crash p -> p in
        let p, q = (pid arr.(i), pid arr.(i + 1)) in
        if p <> q && (not (Pset.mem p footprint) || not (Pset.mem q footprint))
        then begin
          let swapped = Array.copy arr in
          swapped.(i) <- arr.(i + 1);
          swapped.(i + 1) <- arr.(i);
          let tr' =
            Trace.make ~n ~participants:(Pset.full n)
              (Array.to_list swapped)
          in
          if verdict_of ~subject:framed_subject tr' <> v0 then ok := false
        end
      done;
      !ok)

let prop_commuting_swaps_wsmin =
  (* The report-level schemas on wsmin: swapping adjacent decisions
     whose observed pending operations commute (per Op.commute, the
     sleep-set relation) is Mazurkiewicz-equivalent, so the verdict of
     [Agreement 1] is unchanged — even though its footprint is empty
     and its verdict genuinely varies across interleavings. *)
  let n = 2 in
  let subject () =
    Harness.wsmin_subject ~n ~assertion:(Assertion.Agreement 1) () ()
  in
  let observed_ops tr =
    (* instrument a replay to learn each decision's pending operation *)
    let ops = ref [] in
    ignore
      (Exec.run
         ~on_step:(fun ~pid op -> ops := (pid, op) :: !ops)
         ~schedule:(Replay.schedule tr) (subject ()).Subject.procs);
    Array.of_list (List.rev !ops)
  in
  QCheck.Test.make ~name:"commuting swaps keep Agreement verdicts" ~count:60
    (QCheck.make (interleavings_gen [| 3; 3 |]))
    (fun decisions ->
      let tr = Trace.make ~n ~participants:(Pset.full n) decisions in
      let v0 = verdict_of ~subject tr in
      let ops = observed_ops tr in
      let arr = Array.of_list decisions in
      let ok = ref true in
      for i = 0 to min (Array.length arr) (Array.length ops) - 2 do
        let pid = function Trace.Step p | Trace.Crash p -> p in
        let p, q = (pid arr.(i), pid arr.(i + 1)) in
        if p <> q && Op.commute (snd ops.(i)) (snd ops.(i + 1)) then begin
          let swapped = Array.copy arr in
          swapped.(i) <- arr.(i + 1);
          swapped.(i + 1) <- arr.(i);
          let tr' =
            Trace.make ~n ~participants:(Pset.full n)
              (Array.to_list swapped)
          in
          if verdict_of ~subject tr' <> v0 then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Serialization round-trip (property-based)                          *)
(* ------------------------------------------------------------------ *)

let pset_gen n =
  QCheck.Gen.map
    (fun bits ->
      Pset.of_list
        (List.filter (fun i -> (bits lsr i) land 1 = 1) (List.init n Fun.id)))
    (QCheck.Gen.int_bound ((1 lsl n) - 1))

let objs_gen =
  QCheck.Gen.map
    (fun bits ->
      List.filteri
        (fun i _ -> (bits lsr i) land 1 = 1)
        [ "a"; "mem"; "reg-is1" ])
    (QCheck.Gen.int_bound 7)

let atom_gen =
  let open QCheck.Gen in
  let ps = pset_gen 4 in
  oneof
    [
      map (fun p -> Assertion.Steps p) ps;
      map (fun p -> Assertion.Crashes p) ps;
      map (fun p -> Assertion.Decides p) ps;
      map2 (fun p o -> Assertion.Touches (p, o)) ps objs_gen;
    ]

let assertion_gen =
  let open QCheck.Gen in
  let ps = pset_gen 4 in
  let leaf =
    oneof
      [
        map (fun b -> Assertion.Const b) bool;
        map (fun a -> Assertion.Always a) atom_gen;
        map (fun a -> Assertion.Eventually a) atom_gen;
        map2 (fun a b -> Assertion.Before (a, b)) atom_gen atom_gen;
        (* [Some Pset.empty] prints as the bare [(eventually-decides)],
           i.e. normalizes to [None] on parse — generate the normal
           form only *)
        map
          (fun p ->
            if Pset.is_empty p then Assertion.Eventually_decides None
            else Assertion.Eventually_decides (Some p))
          ps;
        map2 (fun p o -> Assertion.Frame (p, o)) ps objs_gen;
        map (fun k -> Assertion.Agreement k) (1 -- 4);
        return Assertion.Validity;
        map
          (fun i -> Assertion.Named (List.nth [ "is-valid-views"; "in-ra" ] i))
          (0 -- 1);
      ]
  in
  sized_size (0 -- 4)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun t -> Assertion.Not t) (self (n - 1));
               map (fun l -> Assertion.All l) (list_size (0 -- 3) (self (n / 2)));
               map (fun l -> Assertion.Any l) (list_size (0 -- 3) (self (n / 2)));
               map2
                 (fun a b -> Assertion.Implies (a, b))
                 (self (n / 2)) (self (n / 2));
             ]))

let prop_sexp_roundtrip =
  QCheck.Test.make ~name:"assertion sexp round-trip" ~count:300
    (QCheck.make ~print:Assertion.to_string assertion_gen)
    (fun t ->
      match Assertion.of_string (Assertion.to_string t) with
      | Ok t' -> t' = t && Assertion.to_string t' = Assertion.to_string t
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Shrinking of violating traces                                      *)
(* ------------------------------------------------------------------ *)

let test_shrink_wsmin_violation () =
  let subject () =
    Harness.wsmin_subject ~n:2 ~assertion:(Assertion.Agreement 1) () ()
  in
  let stats =
    Harness.explore_snapmin ~n:2 ~assertion:(Assertion.Agreement 1)
      ~stop_on_violation:true ()
  in
  let ce =
    match stats.Explore.violations with
    | v :: _ -> v.Explore.trace
    | [] -> Alcotest.fail "no agreement-1 counterexample"
  in
  (* pad with no-op decisions: still fails, and shrinking strictly
     reduces while preserving the failure *)
  let padded =
    Trace.make ~n:2 ~participants:(Pset.full 2)
      (Trace.decisions ce
      @ [ Trace.Step 0; Trace.Step 1; Trace.Step 0; Trace.Step 1 ])
  in
  check_bool "padded still fails" true
    (Result.is_error (Replay.check ~subject padded));
  let shrunk = Minimize.shrink_subject ~subject padded in
  check_bool "shrunk still fails" true
    (Result.is_error (Replay.check ~subject shrunk));
  check_bool "strictly shorter" true
    (Trace.length shrunk < Trace.length padded);
  check_bool "not shrunk to nothing" true (Trace.length shrunk > 0);
  check_bool "context switches not increased" true
    (Minimize.context_switches shrunk <= Minimize.context_switches padded)

let test_shrink_never_fakes_liveness () =
  (* Regression: a shrinking candidate that cuts a run short leaves
     processes running; such partial replays must evaluate liveness
     vacuously, or every safety counterexample would "shrink" to the
     empty trace via a fake eventually-decides violation. *)
  let subject () = Harness.wsmin_subject ~n:2 () () in
  let empty = Trace.make ~n:2 ~participants:(Pset.full 2) [] in
  check_bool "empty trace passes the full suite" true
    (Result.is_ok (Replay.check ~subject empty));
  let partial =
    Trace.make ~n:2 ~participants:(Pset.full 2) [ Trace.Step 0 ]
  in
  check_bool "partial trace passes the full suite" true
    (Result.is_ok (Replay.check ~subject partial))

(* ------------------------------------------------------------------ *)
(* Checkpoint resume under assertions: forced-frontier re-evaluation  *)
(* ------------------------------------------------------------------ *)

let test_resume_mid_violation () =
  let assertion = Assertion.Agreement 1 in
  let base = Harness.explore_snapmin ~n:3 ~assertion () in
  check_bool "baseline exhaustive" true base.Explore.exhausted;
  check_bool "baseline violations" true
    (List.length base.Explore.violations > 0);
  (* interrupt after the first violations are on record *)
  let last = ref None in
  let interrupted =
    Harness.explore_snapmin ~n:3 ~assertion ~max_runs:25 ~checkpoint_every:1
      ~on_checkpoint:(fun ck -> last := Some ck)
      ()
  in
  check_bool "interrupted" false interrupted.Explore.exhausted;
  check_bool "interrupted mid-violation" true
    (List.length interrupted.Explore.violations > 0);
  let ck = Option.get !last in
  (* the snapshot round-trips through the textual format, violations
     included *)
  let ck =
    match Checkpoint.of_string (Checkpoint.to_string ck) with
    | Ok ck' ->
      check_str "checkpoint round-trip" (Checkpoint.to_string ck)
        (Checkpoint.to_string ck');
      ck'
    | Error e -> Alcotest.failf "checkpoint parse: %s" e
  in
  (* resuming under the same assertion reaches the uninterrupted
     stats, with the same violating runs in the same order *)
  let resumed = Harness.explore_snapmin ~n:3 ~assertion ~resume:ck () in
  check "resumed runs" base.Explore.runs resumed.Explore.runs;
  check "resumed pruned" base.Explore.pruned resumed.Explore.pruned;
  check "resumed violations"
    (List.length base.Explore.violations)
    (List.length resumed.Explore.violations);
  check_bool "resumed exhausted" true resumed.Explore.exhausted;
  check_bool "same violating traces" true
    (List.for_all2
       (fun (a : _ Explore.outcome) (b : _ Explore.outcome) ->
         Trace.decisions a.Explore.trace = Trace.decisions b.Explore.trace)
       base.Explore.violations resumed.Explore.violations);
  (* resuming under the default (satisfiable) suite re-evaluates the
     recorded violations along the forced replay instead of trusting
     the snapshot verdicts: they are dropped, not inherited *)
  let relaxed = Harness.explore_snapmin ~n:3 ~resume:ck () in
  check "relaxed resume drops recorded violations" 0
    (List.length relaxed.Explore.violations);
  check "relaxed resume still covers the space" base.Explore.runs
    relaxed.Explore.runs

(* ------------------------------------------------------------------ *)
(* Algorithm 1 counts: the 1-OF oracle and the mutants' violations    *)
(* ------------------------------------------------------------------ *)

(* runs, truncated, pruned, crash patterns, violations, exhausted *)
let alg1_counts ?mutation ~alpha ~domains () =
  let stats =
    Harness.explore_algorithm1 ?mutation ~domains ~alpha
      ~participants:(Pset.full 2) ()
  in
  ( stats.Explore.runs,
    stats.Explore.truncated,
    stats.Explore.pruned,
    stats.Explore.crash_patterns,
    List.length stats.Explore.violations,
    stats.Explore.exhausted )

let counts = Alcotest.(check (list int))

let check_counts name (runs, truncated, pruned, patterns, viols, exhausted)
    expected =
  counts name expected [ runs; truncated; pruned; patterns; viols ];
  check_bool (name ^ " exhausted") true exhausted

let wf2 = Agreement.of_adversary (Adversary.wait_free 2)
let kof1 = Agreement.k_obstruction_free ~n:2 ~k:1

let test_fingerprint_alg1_kof1 () =
  List.iter
    (fun domains ->
      check_counts
        (Printf.sprintf "alg1 1-OF n=2 domains=%d" domains)
        (alg1_counts ~alpha:kof1 ~domains ())
        [ 3063; 3138; 5776; 1; 0 ])
    [ 1; 2; 4 ]

let test_mutant_counts () =
  List.iter
    (fun domains ->
      check_counts
        (Printf.sprintf "drop-second-snapshot domains=%d" domains)
        (alg1_counts ~mutation:Algorithm1.Drop_second_snapshot ~alpha:wf2
           ~domains ())
        [ 1829; 0; 4610; 3; 273 ];
      check_counts
        (Printf.sprintf "1-OF skip-wait domains=%d" domains)
        (alg1_counts ~mutation:Algorithm1.Skip_wait ~alpha:kof1 ~domains ())
        [ 175; 0; 328; 1; 66 ])
    [ 1; 2 ]

(* The biased view drops a process's own pair, so its outputs encode no
   chromatic simplex at all: [in-ra] must report that as a violation,
   not raise. *)
let test_biased_view_exhaustive () =
  List.iter
    (fun domains ->
      check_counts
        (Printf.sprintf "biased-view domains=%d" domains)
        (alg1_counts ~mutation:Algorithm1.Biased_view ~alpha:wf2 ~domains ())
        [ 4825; 0; 14762; 3; 1512 ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "IS fingerprint across domains" `Slow
      test_fingerprint_is;
    Alcotest.test_case "alg1 fingerprint across domains" `Slow
      test_fingerprint_alg1;
    Alcotest.test_case "all mutants caught" `Slow test_mutants_caught;
    Alcotest.test_case "intact protocols pass" `Quick
      test_intact_protocols_pass;
    qt prop_frame_rule_swaps;
    qt prop_commuting_swaps_wsmin;
    qt prop_sexp_roundtrip;
    Alcotest.test_case "shrinking violations" `Quick
      test_shrink_wsmin_violation;
    Alcotest.test_case "shrinking never fakes liveness" `Quick
      test_shrink_never_fakes_liveness;
    Alcotest.test_case "resume mid-violation" `Quick test_resume_mid_violation;
    Alcotest.test_case "alg1 1-OF fingerprint across domains" `Slow
      test_fingerprint_alg1_kof1;
    Alcotest.test_case "alg1 mutant counts across domains" `Slow
      test_mutant_counts;
    Alcotest.test_case "biased-view explored to exhaustion" `Slow
      test_biased_view_exhaustive;
  ]
