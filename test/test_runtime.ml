(* Tests for the executable systems layer: the step-value executor,
   atomic-snapshot memory, immediate snapshot, IIS, Algorithm 1
   (Theorem 7), the affine-model runner and α-adaptive set consensus
   (Section 6). *)

open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_runtime

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ps = Pset.of_list

(* API misuse must surface as the typed error taxonomy, not as an ad
   hoc message string. *)
let check_precondition name ~fn f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a Precondition Fact_error" name
  | exception
      Fact_resilience.Fact_error.Error
        (Fact_resilience.Fact_error.Precondition { fn = got; _ }) ->
    Alcotest.(check string) name fn got
  | exception e ->
    Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Exec + Memory                                                      *)
(* ------------------------------------------------------------------ *)

let test_exec_sequential () =
  (* Under a sequential schedule, p0 writes before p1 snapshots. *)
  let mem = Memory.create 2 in
  let proc pid =
    let open Proc in
    let* () = Memory.update mem ~pid (10 + pid) in
    let* snap = Memory.snapshot mem in
    return
      (Array.to_list snap |> List.filter_map Fun.id |> List.fold_left ( + ) 0)
  in
  let schedule = Schedule.sequential ~n:2 ~participants:(Pset.full 2) in
  let report = Exec.run ~schedule [| proc; proc |] in
  Alcotest.(check (list (pair int int)))
    "sums" [ (0, 10); (1, 21) ] (Exec.decided report);
  check_bool "no budget hit" false report.Exec.hit_step_budget

let test_exec_crash () =
  (* p0 crashes after one step; p1 still decides. *)
  let mem = Memory.create 2 in
  let proc pid =
    let open Proc in
    let* () = Memory.update mem ~pid pid in
    let* () = Memory.update mem ~pid (100 + pid) in
    return pid
  in
  let schedule =
    Schedule.random ~seed:1 ~n:2 ~participants:(Pset.full 2)
      ~crashes:[ (0, 1) ]
  in
  let report = Exec.run ~schedule [| proc; proc |] in
  (match report.Exec.outcomes.(0) with
  | Exec.Crashed k -> check "crashed after 1 step" 1 k
  | _ -> Alcotest.fail "p0 should have crashed");
  Alcotest.(check (list (pair int int))) "p1 decided" [ (1, 1) ]
    (Exec.decided report)

let test_exec_non_participant () =
  let schedule = Schedule.sequential ~n:3 ~participants:(ps [ 0; 2 ]) in
  let report = Exec.run ~schedule (Array.make 3 Proc.return) in
  Alcotest.(check (list (pair int int)))
    "only participants decide" [ (0, 0); (2, 2) ] (Exec.decided report);
  check_bool "p1 never ran" true (report.Exec.outcomes.(1) = Exec.Running)

let test_exec_abandoned_running () =
  (* The schedule stops after one step, leaving p0 suspended before its
     first write: it reports [Running], the write never happened, and
     the pending operation it was suspended before is the write. *)
  let mem = Memory.create 1 in
  let proc pid =
    let open Proc in
    let* () = Memory.update mem ~pid 1 in
    let* () = Memory.update mem ~pid 2 in
    return 0
  in
  let seen = ref [] in
  let steps = ref 0 in
  let schedule =
    Schedule.controlled ~n:1 ~participants:(Pset.full 1)
      ~next:(fun ~alive:_ ~pending ->
        incr steps;
        seen := pending 0 :: !seen;
        if !steps = 1 then Some 0 else None)
      ~crash_now:(fun ~pid:_ ~steps_taken:_ -> false)
  in
  let report = Exec.run ~schedule [| proc |] in
  check "one step" 1 report.Exec.steps;
  check_bool "abandoned process is Running" true
    (report.Exec.outcomes.(0) = Exec.Running);
  Alcotest.(check (option int)) "write not performed" None (Memory.peek mem 0);
  Alcotest.(check (list string)) "pending before each decision"
    [ "start"; Format.asprintf "%a" Op.pp_pending (Op.Op { Op.obj = Memory.id mem; kind = Op.Write 0 }) ]
    (List.rev_map (Format.asprintf "%a" Op.pp_pending) !seen)

let test_solo_outside_schedule () =
  (* [Exec.solo] runs a process by itself, so protocols are also plain
     sequential programs. *)
  let mem = Memory.create 1 in
  let proc =
    let open Proc in
    let* () = Memory.update mem ~pid:0 42 in
    let* v = Memory.get mem 0 in
    return (Option.map succ v)
  in
  Alcotest.(check (option int)) "result" (Some 43) (Exec.solo proc);
  Alcotest.(check (option int)) "memory" (Some 42) (Memory.peek mem 0)

let test_exec_save_restore () =
  (* A saved state can be restored any number of times: the step
     values, outcomes, step counts and memory all go back, so every
     continuation from it behaves as if run from scratch. *)
  let mem = Memory.create 2 in
  let proc pid =
    let open Proc in
    let* () = Memory.update mem ~pid (10 + pid) in
    let* snap = Memory.snapshot mem in
    let* () = Memory.update mem ~pid (20 + pid) in
    return (Array.to_list snap)
  in
  let m = Exec.start ~n:2 ~participants:(Pset.full 2) [| proc; proc |] in
  Exec.step m 0;
  Exec.step m 0;
  let saved = Exec.save m in
  let finish order =
    List.iter (Exec.step m) order;
    let r = Exec.report m in
    let cells = (Memory.peek mem 0, Memory.peek mem 1) in
    Exec.restore m saved;
    (Exec.decided r, r.Exec.steps, cells)
  in
  let a = finish [ 1; 1; 0; 0; 1; 1 ] in
  let b = finish [ 0; 0; 1; 1; 1; 1 ] in
  let a' = finish [ 1; 1; 0; 0; 1; 1 ] in
  check_bool "same continuation, same run" true (a = a');
  let decided, steps, _ = b in
  check "steps" 8 steps;
  Alcotest.(check (list (pair int (list (option int)))))
    "p0 alone, then p1"
    [ (0, [ Some 10; None ]); (1, [ Some 20; Some 11 ]) ]
    decided;
  let decided, _, _ = a in
  Alcotest.(check (list (pair int (list (option int)))))
    "p0 sees p1's first write"
    [ (0, [ Some 10; Some 11 ]); (1, [ Some 20; Some 11 ]) ]
    decided;
  Alcotest.(check (option int)) "memory restored" (Some 10) (Memory.peek mem 0);
  Alcotest.(check (option int)) "memory restored" None (Memory.peek mem 1);
  check_bool "pending restored" true
    (Exec.pending m 0 = Op.Op { Op.obj = Memory.id mem; kind = Op.Snapshot })

(* ------------------------------------------------------------------ *)
(* Schedules                                                          *)
(* ------------------------------------------------------------------ *)

let test_schedule_round_robin () =
  let s = Schedule.round_robin ~n:4 ~participants:(ps [ 0; 2; 3 ]) in
  let alive = ps [ 0; 2; 3 ] in
  let picks = List.init 6 (fun _ -> Option.get (Schedule.next s ~alive)) in
  Alcotest.(check (list int)) "cycles" [ 0; 2; 3; 0; 2; 3 ] picks;
  (* after picking 3, nothing larger is alive: wrap to the smallest *)
  Alcotest.(check (option int)) "wraps" (Some 0)
    (Schedule.next s ~alive:(ps [ 0; 3 ]));
  Alcotest.(check (option int)) "stop when empty" None
    (Schedule.next s ~alive:Pset.empty)

let test_schedule_sequential () =
  let s = Schedule.sequential ~n:3 ~participants:(Pset.full 3) in
  Alcotest.(check (option int)) "lowest first" (Some 0)
    (Schedule.next s ~alive:(Pset.full 3));
  Alcotest.(check (option int)) "then next" (Some 1)
    (Schedule.next s ~alive:(ps [ 1; 2 ]))

let test_schedule_crash_bookkeeping () =
  let s =
    Schedule.random ~seed:3 ~n:3 ~participants:(Pset.full 3)
      ~crashes:[ (1, 5) ]
  in
  Alcotest.(check (list int)) "faulty set" [ 1 ]
    (Pset.to_list (Schedule.faulty s));
  check_bool "not yet" false (Schedule.crash_now s ~pid:1 ~steps_taken:4);
  check_bool "now" true (Schedule.crash_now s ~pid:1 ~steps_taken:5);
  check_bool "correct never" false
    (Schedule.crash_now s ~pid:0 ~steps_taken:1_000_000)

let test_schedule_alpha_model_validation () =
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  check_precondition "alpha 0 rejected" ~fn:"Schedule.alpha_model" (fun () ->
      ignore (Schedule.alpha_model ~seed:1 alpha ~participation:(ps [ 0 ])));
  (* valid participations never crash more than alpha(P)-1 processes *)
  for seed = 1 to 50 do
    let s = Schedule.alpha_model ~seed alpha ~participation:(Pset.full 3) in
    check_bool "bounded faults" true (Pset.cardinal (Schedule.faulty s) <= 1)
  done

let test_schedule_adversarial_validation () =
  let adv = Adversary.t_resilient ~n:3 ~t:1 in
  check_precondition "non-live rejected" ~fn:"Schedule.adversarial"
    (fun () -> ignore (Schedule.adversarial ~seed:1 adv ~live:(ps [ 0 ])));
  let s = Schedule.adversarial ~seed:1 adv ~live:(ps [ 0; 1 ]) in
  Alcotest.(check (list int)) "complement crashes" [ 2 ]
    (Pset.to_list (Schedule.faulty s))

(* ------------------------------------------------------------------ *)
(* Immediate snapshot                                                 *)
(* ------------------------------------------------------------------ *)

let run_is ~n ~schedule =
  let obj = Immediate_snapshot.create n in
  let report =
    Exec.run ~schedule
      (Array.init n (fun _ pid ->
           Immediate_snapshot.write_snapshot obj ~pid pid))
  in
  Exec.decided report
  |> List.map (fun (pid, view) -> (pid, Immediate_snapshot.view_set view))

let test_is_sequential () =
  (* Sequential: process i sees exactly {0..i}. *)
  let views = run_is ~n:3 ~schedule:(Schedule.sequential ~n:3 ~participants:(Pset.full 3)) in
  List.iter
    (fun (pid, view) ->
      Alcotest.(check (list int))
        (Printf.sprintf "view p%d" pid)
        (List.init (pid + 1) Fun.id)
        (Pset.to_list view))
    views

let test_is_round_robin_synchronous () =
  (* Lock-step round robin: everybody descends together and sees
     everyone — the synchronous run. *)
  let views = run_is ~n:3 ~schedule:(Schedule.round_robin ~n:3 ~participants:(Pset.full 3)) in
  List.iter
    (fun (pid, view) ->
      check (Printf.sprintf "sync view size p%d" pid) 3 (Pset.cardinal view))
    views

let prop_is_random_schedules =
  QCheck.Test.make ~name:"IS properties under random schedules (n=4)"
    ~count:300 QCheck.(map abs int)
    (fun seed ->
      let schedule =
        Schedule.random ~seed ~n:4 ~participants:(Pset.full 4) ~crashes:[]
      in
      let views = run_is ~n:4 ~schedule in
      List.length views = 4 && Opart.is_valid_views views)

let prop_is_random_schedules_with_crashes =
  QCheck.Test.make ~name:"IS properties with crashes (n=4)" ~count:300
    QCheck.(pair (map abs int) (map abs int))
    (fun (seed, crashinfo) ->
      let pid = crashinfo mod 4 and steps = crashinfo / 4 mod 8 in
      let schedule =
        Schedule.random ~seed ~n:4 ~participants:(Pset.full 4)
          ~crashes:[ (pid, steps) ]
      in
      let views = run_is ~n:4 ~schedule in
      (* Decided views must satisfy the IS properties even though the
         crashed process's pending write may be visible. *)
      Opart.is_valid_views views)

(* ------------------------------------------------------------------ *)
(* IIS                                                                *)
(* ------------------------------------------------------------------ *)

let chr2_3 = Chr.iterate 2 (Chr.standard 3)

let run_iis ~n ~rounds ~schedule =
  let iis = Iis.create ~n ~rounds in
  let report =
    Exec.run ~schedule
      (Array.init n (fun _ pid -> Iis.process iis ~pid ~input:0))
  in
  List.map snd (Exec.decided report)

let test_iis_sequential_facet () =
  (* Sequential execution: both IS rounds are the fully ordered run. *)
  let views =
    run_iis ~n:3 ~rounds:2
      ~schedule:(Schedule.sequential ~n:3 ~participants:(Pset.full 3))
  in
  let sigma = Iis.simplex_of_views views in
  let ordered =
    Opart.make [ ps [ 0 ]; ps [ 1 ]; ps [ 2 ] ]
  in
  let expected =
    Chr.facet_of_runs
      (List.hd (Complex.facets (Chr.standard 3)))
      [ ordered; ordered ]
  in
  check_bool "expected facet" true (Simplex.equal sigma expected)

let prop_iis_lands_in_chr2 =
  QCheck.Test.make ~name:"IIS(2 rounds) views form a facet of Chr^2 s"
    ~count:200 QCheck.(map abs int)
    (fun seed ->
      let schedule =
        Schedule.random ~seed ~n:3 ~participants:(Pset.full 3) ~crashes:[]
      in
      let views = run_iis ~n:3 ~rounds:2 ~schedule in
      let sigma = Iis.simplex_of_views views in
      Simplex.dim sigma = 2 && Complex.mem sigma chr2_3)

let prop_iis_three_rounds_valid =
  QCheck.Test.make ~name:"IIS(3 rounds) views satisfy Chr conditions"
    ~count:100 QCheck.(map abs int)
    (fun seed ->
      let schedule =
        Schedule.random ~seed ~n:3 ~participants:(Pset.full 3) ~crashes:[]
      in
      let views = run_iis ~n:3 ~rounds:3 ~schedule in
      Chr.is_simplex_of_chr (Iis.simplex_of_views views))

(* ------------------------------------------------------------------ *)
(* Algorithm 1 (Theorem 7)                                            *)
(* ------------------------------------------------------------------ *)

let adversaries_n3 =
  [
    ("1-OF", Adversary.k_obstruction_free ~n:3 ~k:1);
    ("2-OF", Adversary.k_obstruction_free ~n:3 ~k:2);
    ("1-res", Adversary.t_resilient ~n:3 ~t:1);
    ("fig5b", Adversary.fig5b);
    ("wait-free", Adversary.wait_free 3);
  ]

let algorithm1_trial alpha ra ~seed ~participation =
  let schedule = Schedule.alpha_model ~seed alpha ~participation in
  let report = Algorithm1.run alpha ~schedule in
  let liveness =
    (not report.Exec.hit_step_budget)
    && Pset.for_all
         (fun i ->
           match report.Exec.outcomes.(i) with
           | Exec.Decided _ | Exec.Crashed _ -> true
           | Exec.Running -> false)
         participation
  in
  let safety =
    match List.map snd (Exec.decided report) with
    | [] -> true
    | outputs -> Complex.mem (Algorithm1.simplex_of_outputs outputs) ra
  in
  (liveness, safety)

let test_algorithm1_theorem7 () =
  List.iter
    (fun (name, adv) ->
      let alpha = Agreement.of_adversary adv in
      let ra = Ra.complex alpha ~n:3 in
      let participations =
        List.filter
          (fun p -> Agreement.eval alpha p >= 1)
          (Pset.nonempty_subsets (Pset.full 3))
      in
      List.iter
        (fun participation ->
          for seed = 1 to 15 do
            let liveness, safety =
              algorithm1_trial alpha ra ~seed ~participation
            in
            check_bool (name ^ " liveness") true liveness;
            check_bool (name ^ " safety") true safety
          done)
        participations)
    adversaries_n3

let test_algorithm1_theorem7_prop () =
  (* Theorem 7 through the lib/check property core: explicit seeds
     (each iteration replays standalone from (seed, i)), shrinking over
     the (schedule seed, participation) pair. The fixed-seed loop above
     stays as the fingerprint regression. *)
  let open Fact_check in
  List.iter
    (fun (name, adv) ->
      let alpha = Agreement.of_adversary adv in
      let ra = Ra.complex alpha ~n:3 in
      let parts =
        List.filter
          (fun p -> Agreement.eval alpha p >= 1)
          (Pset.nonempty_subsets (Pset.full 3))
      in
      Prop.run ~count:60 ~seed:0xFAC7 ~name:(name ^ ": theorem 7")
        ~shrink:(Shrink.pair Shrink.int Shrink.int)
        ~pp:(fun ppf (s, i) ->
          Format.fprintf ppf "(seed %d, participation %a)" s Pset.pp
            (List.nth parts i))
        (Gen.pair (Gen.int_range 100 10_000) (Gen.int (List.length parts)))
        (fun (seed, i) ->
          let participation = List.nth parts i in
          let liveness, safety =
            algorithm1_trial alpha ra ~seed ~participation
          in
          liveness && safety))
    adversaries_n3

let test_algorithm1_sequential () =
  (* Fully sequential run under wait-freedom: the ordered 2-round run;
     also deterministic, so assert the exact simplex. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 3) in
  let schedule = Schedule.sequential ~n:3 ~participants:(Pset.full 3) in
  let report = Algorithm1.run alpha ~schedule in
  let outputs = List.map snd (Exec.decided report) in
  check "all decided" 3 (List.length outputs);
  let ordered = Opart.make [ ps [ 0 ]; ps [ 1 ]; ps [ 2 ] ] in
  let expected =
    Chr.facet_of_runs
      (List.hd (Complex.facets (Chr.standard 3)))
      [ ordered; ordered ]
  in
  check_bool "ordered run" true
    (Simplex.equal (Algorithm1.simplex_of_outputs outputs) expected)

let test_algorithm1_adversarial_schedules () =
  (* Algorithm 1 solves R_A in the α-MODEL; an A-compliant run need not
     be an α-model run (e.g. 1-OF lets n−1 processes crash while the
     α-model allows none), so liveness is NOT guaranteed under general
     A-compliant schedules — only safety is: whatever decides, decides
     inside R_A. For t-resilient adversaries every A-compliant run IS
     an α-model run (faulty ≤ t = α(P)−1), so there we also assert
     liveness. Run with a small step budget since livelock is a legal
     outcome for the non-t-resilient entries. *)
  List.iter
    (fun (name, adv, liveness_expected) ->
      let alpha = Agreement.of_adversary adv in
      let ra = Ra.complex alpha ~n:3 in
      List.iter
        (fun live ->
          for seed = 1 to 10 do
            let schedule = Schedule.adversarial ~seed adv ~live in
            let report = Algorithm1.run ~max_steps:30_000 alpha ~schedule in
            if liveness_expected then begin
              check_bool (name ^ " budget") false report.Exec.hit_step_budget;
              Pset.iter
                (fun i ->
                  match report.Exec.outcomes.(i) with
                  | Exec.Decided _ -> ()
                  | Exec.Crashed _ | Exec.Running ->
                    Alcotest.failf "%s: correct p%d did not decide" name i)
                live
            end;
            match List.map snd (Exec.decided report) with
            | [] -> ()
            | outputs ->
              check_bool (name ^ " safety") true
                (Complex.mem (Algorithm1.simplex_of_outputs outputs) ra)
          done)
        (Adversary.live_sets adv))
    [ ("1-OF", Adversary.k_obstruction_free ~n:3 ~k:1, false);
      ("1-res", Adversary.t_resilient ~n:3 ~t:1, true);
      ("fig5b", Adversary.fig5b, false) ]

(* ------------------------------------------------------------------ *)
(* Affine runner                                                      *)
(* ------------------------------------------------------------------ *)

let r1of = Rkof.task ~n:3 ~k:1

let test_affine_runner_trace_composes () =
  (* The realized facets, composed, land in L^m. *)
  let rounds = 2 in
  let trace = Affine_runner.trace r1of ~rounds ~picker:(Affine_runner.random_picker ~seed:7) in
  check "trace length" rounds (List.length trace);
  let composed =
    match trace with
    | first :: rest ->
      List.fold_left
        (fun host inner -> Affine_task.compose_facets ~host inner)
        first rest
    | [] -> assert false
  in
  let lm = Affine_task.iterate r1of rounds in
  check_bool "composed run in L^m" true (Affine_task.mem_run lm composed)

let test_affine_runner_visibility () =
  (* Every process sees its own previous state, and visibility equals
     the base carrier of its vertex. *)
  let seen = ref [] in
  let _ =
    Affine_runner.run r1of ~rounds:1
      ~picker:(Affine_runner.random_picker ~seed:3)
      ~init:(fun pid -> pid)
      ~step:(fun pid v visible ->
        seen := (pid, v, visible) :: !seen;
        pid)
  in
  List.iter
    (fun (pid, v, visible) ->
      let procs = List.map fst visible in
      check_bool "self visible" true (List.mem pid procs);
      Alcotest.(check (list int))
        "visibility = carrier" (Pset.to_list (Vertex.base_carrier v)) procs;
      (* initial states are passed through *)
      List.iter (fun (j, st) -> check "state is id" j st) visible)
    !seen

(* ------------------------------------------------------------------ *)
(* α-adaptive set consensus in R_A* (Section 6)                        *)
(* ------------------------------------------------------------------ *)

let test_adaptive_consensus_bounds () =
  List.iter
    (fun (name, adv) ->
      let alpha = Agreement.of_adversary adv in
      let task = Ra.task alpha ~n:3 in
      let bound = Agreement.eval alpha (Pset.full 3) in
      List.iter
        (fun q ->
          for seed = 1 to 15 do
            let result =
              Adaptive_consensus.solve ~task ~alpha ~q
                ~proposals:(fun pid -> 100 + pid)
                ~picker:(Affine_runner.random_picker ~seed)
                ()
            in
            check_bool (name ^ " validity") true
              (Adaptive_consensus.validity_ok ~q
                 ~proposals:(fun pid -> 100 + pid)
                 result);
            check_bool
              (Format.asprintf "%s agreement Q=%a" name Pset.pp q)
              true
              (result.Adaptive_consensus.distinct
               <= min (Pset.cardinal q) bound);
            (* every proposer decides *)
            check (name ^ " all decide") (Pset.cardinal q)
              (List.length result.Adaptive_consensus.decisions)
          done)
        (Pset.nonempty_subsets (Pset.full 3)))
    adversaries_n3

let test_adaptive_consensus_1of_is_consensus () =
  (* 1-obstruction-freedom has agreement power 1: R_{1-OF}* solves
     consensus, whatever the schedule of facets. *)
  let alpha = Agreement.k_obstruction_free ~n:3 ~k:1 in
  let task = Rkof.task ~n:3 ~k:1 in
  List.iter
    (fun facet ->
      let result =
        Adaptive_consensus.solve ~task ~alpha ~q:(Pset.full 3)
          ~proposals:(fun pid -> pid)
          ~picker:(Affine_runner.fixed_picker [ facet ])
          ()
      in
      check "consensus" 1 result.Adaptive_consensus.distinct)
    (Complex.facets (Affine_task.complex task))

let test_adaptive_consensus_tightness_wait_free () =
  (* Wait-freedom can do no better than n-set consensus: the fully
     reversed-order facet of Chr² s yields n distinct leaders. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 3) in
  let task = Affine_task.full_chr ~n:3 ~ell:2 in
  let s3 = List.hd (Complex.facets (Chr.standard 3)) in
  (* Reversed round-1 order followed by id-order round 2: each process
     enters the second IS seeing only smaller View1s of its own chain,
     so the three elected leaders are pairwise distinct. *)
  let facet =
    Chr.facet_of_runs s3
      [ Opart.make [ ps [ 2 ]; ps [ 1 ]; ps [ 0 ] ];
        Opart.make [ ps [ 0 ]; ps [ 1 ]; ps [ 2 ] ] ]
  in
  let result =
    Adaptive_consensus.solve ~task ~alpha ~q:(Pset.full 3)
      ~proposals:(fun pid -> pid)
      ~picker:(Affine_runner.fixed_picker [ facet ])
      ()
  in
  check "n distinct decisions" 3 result.Adaptive_consensus.distinct

(* ------------------------------------------------------------------ *)
(* α-adaptive set consensus objects (Definition 4)                    *)
(* ------------------------------------------------------------------ *)

let test_alpha_sc_object () =
  (* 1-resilient, n=3, round-robin: the first proposer must wait until
     α(P) ≥ 1; the oracle then opens at most α(Π) = 2 values. *)
  let alpha = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let obj = Alpha_sc.create alpha in
  let schedule = Schedule.round_robin ~n:3 ~participants:(Pset.full 3) in
  let report =
    Exec.run ~schedule
      (Array.init 3 (fun _ pid -> Alpha_sc.propose obj ~pid ~value:(100 + pid)))
  in
  let decided = Exec.decided report in
  check "all return" 3 (List.length decided);
  let distinct =
    List.sort_uniq Stdlib.compare (List.map snd decided) |> List.length
  in
  check_bool "alpha-agreement" true (distinct <= 2);
  check_bool "oracle is tight" true (distinct = 2);
  List.iter
    (fun (_, v) -> check_bool "validity" true (v >= 100 && v <= 102))
    decided

let test_alpha_sc_consensus_power_one () =
  (* k-obstruction-freedom with k = 1: the object degenerates to
     consensus whatever the schedule. *)
  let alpha = Agreement.k_obstruction_free ~n:3 ~k:1 in
  for seed = 1 to 30 do
    let obj = Alpha_sc.create alpha in
    let schedule =
      Schedule.random ~seed ~n:3 ~participants:(Pset.full 3) ~crashes:[]
    in
    let report =
      Exec.run ~schedule
        (Array.init 3 (fun _ pid -> Alpha_sc.propose obj ~pid ~value:pid))
    in
    let distinct =
      List.sort_uniq Stdlib.compare (List.map snd (Exec.decided report))
      |> List.length
    in
    check "consensus" 1 distinct
  done

let prop_alpha_sc_adaptive =
  QCheck.Test.make ~name:"alpha-SC object: distinct <= alpha(participants)"
    ~count:100
    QCheck.(pair (map abs int) (map abs int))
    (fun (seed, mask) ->
      let participants = Pset.of_mask (1 + (mask land 6)) in
      let alpha = Agreement.of_adversary Adversary.fig5b in
      QCheck.assume (Agreement.eval alpha participants >= 1);
      let obj = Alpha_sc.create alpha in
      let schedule = Schedule.random ~seed ~n:3 ~participants ~crashes:[] in
      let report =
        Exec.run ~schedule
          (Array.init 3 (fun _ pid -> Alpha_sc.propose obj ~pid ~value:pid))
      in
      let distinct =
        List.sort_uniq Stdlib.compare (List.map snd (Exec.decided report))
        |> List.length
      in
      distinct <= Agreement.eval alpha participants)

let test_adaptive_consensus_committed () =
  (* The §6.1 estimate/commit discipline obeys the same α-agreement
     bound (Lemma 13) and always terminates within a couple of
     rounds. *)
  List.iter
    (fun (name, adv) ->
      let alpha = Agreement.of_adversary adv in
      let task = Ra.task alpha ~n:3 in
      let bound = Agreement.eval alpha (Pset.full 3) in
      List.iter
        (fun q ->
          for seed = 1 to 10 do
            let r =
              Adaptive_consensus.solve_committed ~task ~alpha ~q
                ~proposals:(fun pid -> 100 + pid)
                ~picker:(Affine_runner.random_picker ~seed)
                ~max_rounds:5
            in
            check (name ^ " all commit") (Pset.cardinal q)
              (List.length r.Adaptive_consensus.decisions);
            check_bool (name ^ " committed agreement") true
              (r.Adaptive_consensus.distinct <= min (Pset.cardinal q) bound);
            check_bool (name ^ " committed validity") true
              (Adaptive_consensus.validity_ok ~q
                 ~proposals:(fun pid -> 100 + pid)
                 r)
          done)
        (Pset.nonempty_subsets (Pset.full 3)))
    adversaries_n3

(* ------------------------------------------------------------------ *)
(* Shared-memory simulation in R_A* (Section 6.1)                     *)
(* ------------------------------------------------------------------ *)

let ra_1res_task = Ra.of_adversary (Adversary.t_resilient ~n:3 ~t:1)

let test_simulation_collect_inputs () =
  (* The input-collection task (threshold n − t = 2) in R_{1-res}*:
     everyone decides at least 2 genuine inputs, and the simulated
     memory behaves like atomic snapshots. *)
  for seed = 1 to 60 do
    let outcome =
      Simulation.run ~task:ra_1res_task
        ~picker:(Affine_runner.random_picker ~seed)
        ~max_rounds:60
        (Simulation.collect_inputs_protocol ~threshold:2
           ~inputs:(fun pid -> 100 + pid))
    in
    check "all decide" 3 (List.length outcome.Simulation.decisions);
    List.iter
      (fun (_, vals) ->
        check_bool "enough inputs" true (List.length vals >= 2);
        List.iter
          (fun v -> check_bool "genuine input" true (v >= 100 && v <= 102))
          vals)
      outcome.Simulation.decisions;
    check_bool "snapshots contained" true
      (Simulation.snapshots_contained outcome)
  done

let test_simulation_collect_inputs_prop () =
  (* The same simulation property through the lib/check core, on seeds
     disjoint from the fingerprint loop above. *)
  let open Fact_check in
  Prop.run ~count:40 ~seed:0x51D ~name:"collect-inputs in R_1-res*"
    ~shrink:Shrink.int ~pp:Format.pp_print_int (Gen.int_range 61 5000)
    (fun seed ->
      let outcome =
        Simulation.run ~task:ra_1res_task
          ~picker:(Affine_runner.random_picker ~seed)
          ~max_rounds:60
          (Simulation.collect_inputs_protocol ~threshold:2
             ~inputs:(fun pid -> 100 + pid))
      in
      List.length outcome.Simulation.decisions = 3
      && List.for_all
           (fun (_, vals) ->
             List.length vals >= 2
             && List.for_all (fun v -> v >= 100 && v <= 102) vals)
           outcome.Simulation.decisions
      && Simulation.snapshots_contained outcome)

let starving_facet =
  (* Both IS rounds are {p0,p1},{p2}: p0 and p1 never see p2. *)
  let s3 = List.hd (Complex.facets (Chr.standard 3)) in
  let run = Opart.make [ ps [ 0; 1 ]; ps [ 2 ] ] in
  Chr.facet_of_runs s3 [ run; run ]

let test_simulation_fast_slow () =
  (* The §6.1 fast/slow phenomenon on an adversarial facet schedule:
     with the ⊥ mechanism the slow process completes after the fast
     ones terminate; without it, it starves. *)
  check_bool "facet is in R_1-res" true
    (Affine_task.mem_run ra_1res_task starving_facet);
  let picker = Affine_runner.fixed_picker [ starving_facet ] in
  let protocol =
    Simulation.collect_inputs_protocol ~threshold:2 ~inputs:(fun pid -> pid)
  in
  let with_bot =
    Simulation.run ~task:ra_1res_task ~picker ~max_rounds:60 protocol
  in
  check "all decide with ⊥" 3 (List.length with_bot.Simulation.decisions);
  let without_bot =
    Simulation.run ~respect_termination:false ~task:ra_1res_task ~picker
      ~max_rounds:60 protocol
  in
  check "slow process starves without ⊥" 2
    (List.length without_bot.Simulation.decisions)

let test_algorithm1_wait_phase_ablation () =
  (* Without the wait phase (lines 6-9), Algorithm 1 degrades to plain
     2-round IS and its outputs escape R_A on contended schedules. *)
  let adv = Adversary.k_obstruction_free ~n:3 ~k:1 in
  let alpha = Agreement.of_adversary adv in
  let ra = Ra.complex alpha ~n:3 in
  let violations = ref 0 in
  for seed = 1 to 100 do
    let schedule =
      Schedule.alpha_model ~seed alpha ~participation:(Pset.full 3)
    in
    let report = Algorithm1.run ~skip_wait:true alpha ~schedule in
    match List.map snd (Exec.decided report) with
    | [] -> ()
    | outputs ->
      if not (Complex.mem (Algorithm1.simplex_of_outputs outputs) ra) then
        incr violations
  done;
  check_bool "wait phase is load-bearing" true (!violations > 0)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("exec sequential", `Quick, test_exec_sequential);
    ("exec crash", `Quick, test_exec_crash);
    ("exec non-participant", `Quick, test_exec_non_participant);
    ("solo run outside a schedule", `Quick, test_solo_outside_schedule);
    ("schedule: round robin", `Quick, test_schedule_round_robin);
    ("schedule: sequential", `Quick, test_schedule_sequential);
    ("schedule: crash bookkeeping", `Quick, test_schedule_crash_bookkeeping);
    ("schedule: alpha-model validation", `Quick, test_schedule_alpha_model_validation);
    ("schedule: adversarial validation", `Quick, test_schedule_adversarial_validation);
    ("IS sequential views", `Quick, test_is_sequential);
    ("IS round-robin synchronous", `Quick, test_is_round_robin_synchronous);
    ("IIS sequential facet", `Quick, test_iis_sequential_facet);
    ("Algorithm 1: Theorem 7 (randomized)", `Slow, test_algorithm1_theorem7);
    ("Algorithm 1: Theorem 7 (prop core)", `Slow, test_algorithm1_theorem7_prop);
    ("Algorithm 1: sequential run", `Quick, test_algorithm1_sequential);
    ("Algorithm 1: A-compliant schedules", `Slow, test_algorithm1_adversarial_schedules);
    ("affine runner: trace composes into L^m", `Quick, test_affine_runner_trace_composes);
    ("affine runner: visibility", `Quick, test_affine_runner_visibility);
    ("adaptive consensus bounds", `Slow, test_adaptive_consensus_bounds);
    ("R_1-OF* solves consensus (all facets)", `Quick, test_adaptive_consensus_1of_is_consensus);
    ("wait-free tightness", `Quick, test_adaptive_consensus_tightness_wait_free);
    ("alpha-SC object (Definition 4)", `Quick, test_alpha_sc_object);
    ("alpha-SC object is consensus at power 1", `Quick, test_alpha_sc_consensus_power_one);
    ("committed set consensus (§6.1)", `Slow, test_adaptive_consensus_committed);
    ("AS simulation in R_A* (§6.1)", `Slow, test_simulation_collect_inputs);
    ("AS simulation (prop core)", `Slow, test_simulation_collect_inputs_prop);
    ("fast/slow ⊥ mechanism (§6.1)", `Quick, test_simulation_fast_slow);
    ("ablation: wait phase of Algorithm 1", `Slow, test_algorithm1_wait_phase_ablation);
    qt prop_alpha_sc_adaptive;
    qt prop_is_random_schedules;
    qt prop_is_random_schedules_with_crashes;
    qt prop_iis_lands_in_chr2;
    qt prop_iis_three_rounds_valid;
    ("exec abandoned process stays Running", `Quick, test_exec_abandoned_running);
    ("exec save and restore", `Quick, test_exec_save_restore);
  ]
