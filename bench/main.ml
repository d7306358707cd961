(* Benchmark & figure-regeneration harness.

   One section per evaluation artifact of the paper (DESIGN.md §3):
   Figures 1a, 1b, 2, 3, 4, 5, 6, 7, Theorem 7 (Algorithm 1), the µ_Q
   properties (9/10/12), the FACT solvability equation (Theorems
   15/16) and the compactness observation (§1), plus the
   BENCH_topology.json baseline of the timed entries.

   Usage:
     dune exec bench/main.exe                # everything
     dune exec bench/main.exe -- fig4 mu     # selected sections
     dune exec bench/main.exe -- --json      # write BENCH_topology.json
     dune exec bench/main.exe -- --filter ra # timed entries matching "ra" only
     dune exec bench/main.exe -- --domains 4 # fan Chr/R_A out over 4 domains *)

open Fact_core.Fact

let pf = Format.printf
let section name = pf "@.=== %s ===@." name
let ps = Pset.of_list

let n = 3
let s3 () = List.hd (Complex.facets (Chr.standard n))
let chr1 = lazy (Chr.subdivide (Chr.standard n))
let chr2 = lazy (Chr.subdivide (Lazy.force chr1))

(* The two running examples of Figures 5-7. *)
let alpha_1of = lazy (Agreement.k_obstruction_free ~n ~k:1)
let alpha_5b = lazy (Agreement.of_adversary Adversary.fig5b)

(* ------------------------------------------------------------------ *)

let fig1a () =
  section "Figure 1a: Chr s, the standard chromatic subdivision (n=3)";
  let c = Lazy.force chr1 in
  pf "facets (ordered IS runs): %d  [paper: 13 triangles]@." (Complex.facet_count c);
  pf "vertices: %d  edges: %d@."
    (List.length (Complex.vertices c))
    (List.length
       (List.filter (fun s -> Simplex.dim s = 1) (Complex.all_simplices c)));
  pf "pure of dim 2: %b  chromatic: by construction@." (Complex.is_pure_of_dim 2 c);
  pf "Euler characteristic: %d  [disk: 1]@." (Complex.euler_characteristic c);
  pf "facets as ordered partitions:@.";
  List.iter
    (fun f -> pf "  %a@." Opart.pp (Chr.run_of_facet f))
    (Complex.facets c)

let fig1b () =
  section "Figure 1b: R_1-res, the affine task of 1-resilience (n=3)";
  let r = Rtres.complex ~n ~t:1 in
  pf "facets: %d / %d of Chr^2 s  [every process sees >= n-t = 2]@."
    (Complex.facet_count r)
    (Complex.facet_count (Lazy.force chr2));
  pf "pure of dim 2: %b@." (Complex.is_pure_of_dim 2 r);
  let ra = Ra.complex (Agreement.of_adversary (Adversary.t_resilient ~n ~t:1)) ~n in
  pf "equals R_A of the 1-resilient adversary (Def 9): %b@."
    (Complex.equal r ra)

let fig2 () =
  section "Figure 2: adversary classes";
  let zoo =
    [
      ("wait-free", Adversary.wait_free 3);
      ("2-resilient = WF (n=3)", Adversary.t_resilient ~n:3 ~t:2);
      ("1-resilient", Adversary.t_resilient ~n:3 ~t:1);
      ("0-resilient", Adversary.t_resilient ~n:3 ~t:0);
      ("1-obstruction-free", Adversary.k_obstruction_free ~n:3 ~k:1);
      ("2-obstruction-free", Adversary.k_obstruction_free ~n:3 ~k:2);
      ("sizes {1,3}", Adversary.of_sizes ~n:3 [ 1; 3 ]);
      ("fig5b (ssc, asymmetric)", Adversary.fig5b);
      ("unfair specimen (n=4)", Fairness.unfair_example);
    ]
  in
  pf "%-26s %5s %5s %5s %7s@." "adversary" "ssc" "sym" "fair" "setcon";
  List.iter
    (fun (name, a) ->
      let c = classify a in
      pf "%-26s %5b %5b %5b %7d@." name c.superset_closed c.symmetric c.fair
        c.agreement_power)
    zoo;
  pf "[paper: superset-closed + symmetric are both fair, neither exhausts fair;@.";
  pf " t-resilient is superset-closed AND symmetric; k-OF symmetric, not ssc]@."

let fig3 () =
  section "Figure 3: valid sets of IS outputs";
  let show name blocks =
    let run = Opart.make (List.map ps blocks) in
    pf "%s: %a@." name Opart.pp run;
    List.iter
      (fun (p, v) -> pf "  p%d sees %a@." p Pset.pp v)
      (Opart.views run);
    pf "  IS properties hold: %b@." (Opart.is_valid_views (Opart.views run))
  in
  show "ordered run (Fig 3a)" [ [ 1 ]; [ 0 ]; [ 2 ] ];
  show "synchronous run (Fig 3b)" [ [ 0; 1; 2 ] ];
  pf "all %d ordered partitions of 3 processes yield valid IS views: %b@."
    (Opart.fubini 3)
    (List.for_all
       (fun r -> Opart.is_valid_views (Opart.views r))
       (Opart.enumerate (Pset.full 3)))

let fig4 () =
  section "Figure 4: the 2-contention complex Cont2 (n=3)";
  let cont = Contention.complex (Lazy.force chr2) in
  let by_dim d =
    List.length
      (List.filter (fun s -> Simplex.dim s = d) (Complex.all_simplices cont))
  in
  pf "contention simplices: dim0=%d dim1=%d dim2=%d@." (by_dim 0) (by_dim 1)
    (by_dim 2);
  pf "[the 6 dim-2 simplices = the 6 pairs of strictly reversed orderings]@.";
  let f_rev =
    Chr.facet_of_runs (s3 ())
      [ Opart.make [ ps [ 1 ]; ps [ 0 ]; ps [ 2 ] ];
        Opart.make [ ps [ 2 ]; ps [ 0 ]; ps [ 1 ] ] ]
  in
  pf "reversed runs (Fig 4a) max contention dim: %d  [paper: 2]@."
    (Contention.max_contention_dim f_rev);
  let f_mix =
    Chr.facet_of_runs (s3 ())
      [ Opart.make [ ps [ 0 ]; ps [ 1 ]; ps [ 2 ] ];
        Opart.make [ ps [ 1 ]; ps [ 2; 0 ] ] ]
  in
  pf "mixed runs (Fig 4b) max contention dim: %d  [paper: 1, couple {p0,p1}]@."
    (Contention.max_contention_dim f_mix)

let fig5 () =
  section "Figure 5: critical simplices";
  let show name alpha =
    let crit = Critical.all_critical alpha (Lazy.force chr1) in
    pf "%s: %d critical simplices of Chr s@." name (List.length crit);
    List.iter
      (fun c ->
        pf "  chi=%a carrier=%a power=%d@." Pset.pp (Simplex.colors c) Pset.pp
          (Simplex.base_carrier c)
          (Agreement.eval alpha (Simplex.base_carrier c)))
      crit
  in
  show "Fig 5a, alpha(P)=min(|P|,1) (1-OF)" (Lazy.force alpha_1of);
  show "Fig 5b, {p1},{p0,p2}+supersets" (Lazy.force alpha_5b)

let fig6 () =
  section "Figure 6: concurrency levels over Chr s";
  let show name alpha =
    pf "%s: histogram %a  [49 simplices total]@." name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf (l, c) -> Format.fprintf ppf "level%d:%d" l c))
      (Concurrency.histogram alpha (Lazy.force chr1))
  in
  show "Fig 6a (1-OF)" (Lazy.force alpha_1of);
  show "Fig 6b (fig5b)" (Lazy.force alpha_5b)

let fig7 () =
  section "Figure 7: affine tasks R_A (n=3)";
  let r1 = Ra.complex (Lazy.force alpha_1of) ~n in
  let r5b = Ra.complex (Lazy.force alpha_5b) ~n in
  pf "Fig 7a R_A(1-OF): %d facets; equals Def 6 R_1-OF: %b@."
    (Complex.facet_count r1)
    (Complex.equal r1 (Rkof.complex ~n ~k:1));
  pf "Fig 7b R_A(fig5b): %d facets; pure: %b@." (Complex.facet_count r5b)
    (Complex.is_pure_of_dim 2 r5b);
  pf "@.Definition 9 variant disambiguation (vs Def 6 R_k-OF):@.";
  List.iter
    (fun k ->
      let alpha = Agreement.k_obstruction_free ~n ~k in
      let uni = Ra.complex ~variant:Ra.Lemma6_union alpha ~n in
      let int_ = Ra.complex ~variant:Ra.Def9_intersection alpha ~n in
      let kof = Rkof.complex ~n ~k in
      pf "  k=%d: |R_kOF|=%3d |RA_union|=%3d (eq %-5b) |RA_inter|=%3d (eq %b)@."
        k (Complex.facet_count kof) (Complex.facet_count uni)
        (Complex.equal uni kof) (Complex.facet_count int_)
        (Complex.equal int_ kof))
    [ 1; 2; 3 ];
  pf "[union variant matches Def 6 at k=1 and k=n; for 1<k<n Def 9 is a@.";
  pf " strict refinement — it excludes runs Algorithm 1 cannot produce]@."

let thm7 () =
  section "Theorem 7: Algorithm 1 solves R_A in the alpha-model";
  let trials = 300 in
  List.iter
    (fun (name, adv) ->
      let alpha = Agreement.of_adversary adv in
      let ra = Ra.complex alpha ~n in
      let live_ok = ref 0 and safe_ok = ref 0 and runs = ref 0 in
      for seed = 1 to trials do
        let parts =
          List.filter
            (fun p -> Agreement.eval alpha p >= 1)
            (Pset.nonempty_subsets (Pset.full n))
        in
        let participation =
          List.nth parts (seed * 7919 mod List.length parts)
        in
        let schedule = Schedule.alpha_model ~seed alpha ~participation in
        let report = Algorithm1.run alpha ~schedule in
        incr runs;
        let all_done =
          (not report.Exec.hit_step_budget)
          && Pset.for_all
               (fun i -> report.Exec.outcomes.(i) <> Exec.Running)
               participation
        in
        if all_done then incr live_ok;
        (match List.map snd (Exec.decided report) with
        | [] -> incr safe_ok
        | outputs ->
          if Complex.mem (Algorithm1.simplex_of_outputs outputs) ra then
            incr safe_ok)
      done;
      pf "%-12s liveness %d/%d  safety %d/%d@." name !live_ok !runs !safe_ok
        !runs)
    [
      ("1-OF", Adversary.k_obstruction_free ~n ~k:1);
      ("2-OF", Adversary.k_obstruction_free ~n ~k:2);
      ("1-res", Adversary.t_resilient ~n ~t:1);
      ("fig5b", Adversary.fig5b);
      ("wait-free", Adversary.wait_free n);
    ]

let mu () =
  section "Properties 9/10/12: the mu_Q leader map (exhaustive)";
  List.iter
    (fun (name, alpha) ->
      let ra = Ra.complex alpha ~n in
      let facets = Complex.facets ra in
      let qs = Pset.nonempty_subsets (Pset.full n) in
      let validity = ref true and agreement = ref true and robust = ref true in
      let checked = ref 0 in
      List.iter
        (fun f ->
          List.iter
            (fun q ->
              let theta = Simplex.restrict f q in
              if not (Simplex.is_empty theta) then begin
                incr checked;
                let leaders = Mu.leaders alpha ~q theta in
                if
                  Pset.cardinal leaders
                  > Agreement.eval alpha (Simplex.base_carrier theta)
                then agreement := false;
                List.iter
                  (fun v ->
                    let l = Mu.leader alpha ~q v in
                    if
                      (not (Pset.mem l q))
                      || not (Pset.mem l (Vertex.base_carrier v))
                    then validity := false;
                    let q' = Pset.inter q (Vertex.base_carrier v) in
                    if Mu.leader alpha ~q:q' v <> l then robust := false)
                  (Simplex.vertices theta)
              end)
            qs)
        facets;
      pf "%-10s %d (facet,Q) pairs: validity=%b agreement=%b robustness=%b@."
        name !checked !validity !agreement !robust)
    [ ("1-OF", Lazy.force alpha_1of); ("fig5b", Lazy.force alpha_5b) ]

let fact () =
  section "Theorems 15/16 (FACT): set-consensus solvability = setcon";
  let zoo =
    [
      ("1-OF", Adversary.k_obstruction_free ~n ~k:1);
      ("2-OF", Adversary.k_obstruction_free ~n ~k:2);
      ("1-res", Adversary.t_resilient ~n ~t:1);
      ("wait-free", Adversary.wait_free n);
      ("fig5b", Adversary.fig5b);
    ]
  in
  pf "%-10s %6s %28s %28s@." "adversary" "setcon" "k=setcon-1 (impossible?)"
    "k=setcon (mu-map certified?)";
  List.iter
    (fun (name, adv) ->
      let power = Setcon.setcon adv in
      let alpha = Agreement.of_adversary adv in
      let ra = affine_task_of_adversary adv in
      let impossible =
        if power <= 1 then "(trivial)"
        else if power >= n then
          (* wait-free: R_A = Chr² s is a Sperner UNSAT instance, out of
             reach for CSP search; the same claim is checked at one IS
             round instead. *)
          let t =
            Set_consensus.task_fixed ~n ~k:(power - 1) ~inputs:[ 0; 1; 2 ]
          in
          match
            Solver.solve
              ~protocol:
                (Affine_task.apply
                   (Affine_task.full_chr ~n ~ell:1)
                   t.Task.inputs)
              ~task:t
          with
          | Solver.Unsolvable -> "unsolvable at Chr^1 (OK)"
          | Solver.Solvable _ -> "SOLVED (!!)"
        else
          let t =
            Set_consensus.task_fixed ~n ~k:(power - 1) ~inputs:[ 0; 1; 2 ]
          in
          match
            Solver.solve
              ~protocol:(Affine_task.apply ra t.Task.inputs)
              ~task:t
          with
          | Solver.Unsolvable -> "unsolvable (OK)"
          | Solver.Solvable _ -> "SOLVED (!!)"
      in
      let possible =
        let t = Set_consensus.task_fixed ~n ~k:power ~inputs:[ 0; 1; 2 ] in
        let protocol = Affine_task.apply ra t.Task.inputs in
        let m = Mu_map.set_consensus_map ~alpha ~protocol in
        if Solver.check_map ~protocol ~task:t m then "certified (OK)"
        else "REJECTED (!!)"
      in
      pf "%-10s %6d %28s %28s@." name power impossible possible)
    zoo

let compact () =
  section "Compactness (Section 1): affine models vs adversarial models";
  let adv = Adversary.t_resilient ~n ~t:1 in
  pf "1-resilient n=3: the infinite solo run of p0 has correct set {p0},@.";
  pf "not a live set (%b) — yet every finite prefix extends to a compliant@."
    (Adversary.is_live (ps [ 0 ]) adv);
  pf "run (correct set %a is live: %b). The model is not compact.@." Pset.pp
    (Pset.full n)
    (Adversary.is_live (Pset.full n) adv);
  let ra = affine_task_of_adversary adv in
  let t = Set_consensus.task_fixed ~n ~k:2 ~inputs:[ 0; 1; 2 ] in
  (match
     Solver.solvable_by_iteration
       ~task_of_round:(fun r ->
         Affine_task.apply (Affine_task.iterate ra r) t.Task.inputs)
       ~task:t ~max_rounds:2
   with
  | Some ell ->
    pf "R_A* is compact: 2-set consensus solvable at finite ell = %d.@." ell
  | None -> pf "unexpected: no finite certificate found@.")

let fig7n4 () =
  section "Figure 7 cross-checks at n=4 (slow)";
  let n = 4 in
  List.iter
    (fun k ->
      let alpha = Agreement.k_obstruction_free ~n ~k in
      let ra = Ra.complex alpha ~n in
      let kof = Rkof.complex ~n ~k in
      pf "k=%d: |R_A|=%4d |R_kOF|=%4d equal=%-5b RA<=kof=%-5b kof<=RA=%b@." k
        (Complex.facet_count ra) (Complex.facet_count kof)
        (Complex.equal ra kof) (Complex.subcomplex ra kof)
        (Complex.subcomplex kof ra))
    [ 1; 2; 4 ];
  let a = Adversary.t_resilient ~n ~t:1 in
  let ra = Ra.complex (Agreement.of_adversary a) ~n in
  let rt = Rtres.complex ~n ~t:1 in
  pf "1-res: |R_A|=%d |R_tres|=%d equal=%b@." (Complex.facet_count ra)
    (Complex.facet_count rt) (Complex.equal ra rt);
  pf "[R_A = R_tres again at n=4; R_A vs R_kOF incomparable at k=2]@."

let scale () =
  section "Scaling: Algorithm 1 beyond enumerable complexes (n = 4..7)";
  (* R_A is too big to enumerate past n = 4, but Definition 9 is
     checkable per-simplex: the decided outputs form one facet and
     Ra.facet_ok evaluates the condition directly. *)
  List.iter
    (fun nn ->
      List.iter
        (fun (name, adv) ->
          let alpha = Agreement.of_adversary adv in
          let trials = 40 in
          let live_ok = ref 0 and safe_ok = ref 0 and full_runs = ref 0 in
          let steps = ref 0 in
          let t0 = Unix.gettimeofday () in
          for seed = 1 to trials do
            let schedule =
              Schedule.alpha_model ~seed alpha ~participation:(Pset.full nn)
            in
            let report = Algorithm1.run alpha ~schedule in
            steps := !steps + report.Exec.steps;
            if
              (not report.Exec.hit_step_budget)
              && Array.for_all (fun o -> o <> Exec.Running) report.Exec.outcomes
            then incr live_ok;
            let outputs = List.map snd (Exec.decided report) in
            if List.length outputs = nn then begin
              incr full_runs;
              if Ra.facet_ok alpha (Algorithm1.simplex_of_outputs outputs)
              then incr safe_ok
            end
          done;
          pf
            "n=%d %-10s liveness %d/%d  safety (full runs) %d/%d  avg steps %d  (%.2fs)@."
            nn name !live_ok trials !safe_ok !full_runs
            (!steps / trials)
            (Unix.gettimeofday () -. t0))
        [
          (Printf.sprintf "%d-res" (nn / 2), Adversary.t_resilient ~n:nn ~t:(nn / 2));
          (Printf.sprintf "%d-OF" (nn - 1), Adversary.k_obstruction_free ~n:nn ~k:(nn - 1));
        ])
    [ 4; 5; 6; 7 ];
  pf "[Def. 9 evaluated directly on the output simplex: no complex built]@."

let census () =
  section "Census: measuring the classes of Figure 2";
  List.iter
    (fun nn ->
      pf "n=%d (all %d adversaries): %a@." nn
        ((1 lsl ((1 lsl nn) - 1)) - 1)
        Census.pp (Census.exhaustive ~n:nn))
    [ 2; 3; 4 ];
  pf "[fair-only = fair but neither superset-closed nor symmetric: the@.";
  pf " region this paper's characterization covers and earlier ones missed]@.";
  pf "@.distinct agreement functions among fair adversaries (= distinct@.";
  pf "task-computability classes, by [24] Thm 1-2, = distinct R_A up to alpha):@.";
  List.iter
    (fun nn ->
      pf "  n=%d: %d classes@." nn (Census.fair_computability_classes ~n:nn))
    [ 2; 3; 4 ]

let approx () =
  section "Approximate agreement: minimal Chr-iteration depth (n=2)";
  pf "%8s %12s %22s@." "range" "minimal ell" "(3^ell >= range)";
  List.iter
    (fun range ->
      match Approximate_agreement.minimal_rounds ~n:2 ~range ~max_rounds:3 with
      | Some ell -> pf "%8d %12d %22b@." range ell ((3. ** float ell) >= float range)
      | None -> pf "%8d %12s@." range "> 3")
    [ 1; 2; 3; 4; 6; 9; 10 ];
  pf "[each Chr round trisects the reachable interval: depth = ceil(log3 range);@.";
  pf " unlike set consensus, solvability genuinely consumes iterations]@."

let ablation () =
  section "Ablations: the paper's mechanisms are load-bearing";
  (* 1. Algorithm 1 without the wait phase (lines 6-9). *)
  let adv = Adversary.k_obstruction_free ~n ~k:1 in
  let alpha = Agreement.of_adversary adv in
  let ra = Ra.complex alpha ~n in
  let count skip =
    let viol = ref 0 and runs = ref 0 in
    for seed = 1 to 200 do
      let schedule =
        Schedule.alpha_model ~seed alpha ~participation:(Pset.full n)
      in
      let report = Algorithm1.run ~skip_wait:skip alpha ~schedule in
      match List.map snd (Exec.decided report) with
      | [] -> ()
      | outputs ->
        incr runs;
        if not (Complex.mem (Algorithm1.simplex_of_outputs outputs) ra) then
          incr viol
    done;
    (!viol, !runs)
  in
  let v1, r1 = count false and v2, r2 = count true in
  pf "Algorithm 1 (1-OF): outputs escaping R_A — with wait phase %d/%d,@."
    v1 r1;
  pf "without wait phase %d/%d  [the wait discipline enforces Def. 9]@." v2 r2;
  (* 2. The §6.1 ⊥ mechanism in the R_A* memory simulation. *)
  let task = Ra.of_adversary (Adversary.t_resilient ~n ~t:1) in
  let s3f = s3 () in
  let run_ = Opart.make [ ps [ 0; 1 ]; ps [ 2 ] ] in
  let facet = Chr.facet_of_runs s3f [ run_; run_ ] in
  let picker = Affine_runner.fixed_picker [ facet ] in
  let protocol =
    Simulation.collect_inputs_protocol ~threshold:2 ~inputs:(fun pid -> pid)
  in
  let w = Simulation.run ~task ~picker ~max_rounds:60 protocol in
  let wo =
    Simulation.run ~respect_termination:false ~task ~picker ~max_rounds:60
      protocol
  in
  pf "@.R_A* memory simulation on the starving facet ({p0,p1},{p2} twice):@.";
  pf "with ⊥ termination: %d/3 decide in %d rounds; without: %d/3 in %d rounds@."
    (List.length w.Simulation.decisions)
    w.Simulation.rounds_used
    (List.length wo.Simulation.decisions)
    wo.Simulation.rounds_used;
  pf "[fast processes must advertise termination or slow writes never complete]@."

let link () =
  section "Section 8: link-connectivity of affine tasks";
  let entries =
    [
      ("Chr^2 s (wait-free)", Lazy.force chr2);
      ("R_1-res (Fig 1b)", Rtres.complex ~n ~t:1);
      ("R_A(0-res)", Ra.complex (Agreement.of_adversary (Adversary.t_resilient ~n ~t:0)) ~n);
      ("R_1-OF (Fig 7a)", Ra.complex (Lazy.force alpha_1of) ~n);
      ("R_2-OF", Ra.complex (Agreement.k_obstruction_free ~n ~k:2) ~n);
      ("R_A(fig5b) (Fig 7b)", Ra.complex (Lazy.force alpha_5b) ~n);
    ]
  in
  List.iter
    (fun (name, c) ->
      let bad = Link.disconnected_vertices c in
      pf "%-22s link-connected: %-5b (%d disconnected links)@." name
        (bad = []) (List.length bad))
    entries;
  pf "[paper §8: R_t-res is link-connected; R_1-OF (Fig 7a) is not —@.";
  pf " which is why the paper's proofs are algorithmic, not point-set]@."

let geom () =
  section "Geometric realization (Appendix A): volumes of affine tasks";
  pf "vol(Chr s) = %.6f  vol(Chr^2 s) = %.6f  [subdivisions tile |s|]@."
    (Geometry.total_volume (Lazy.force chr1))
    (Geometry.total_volume (Lazy.force chr2));
  pf "@.volume of |R_A| as fraction of |s| (vs facet fraction):@.";
  List.iter
    (fun (name, c) ->
      pf "  %-18s facets %3d/169 (%.3f)   volume %.4f@." name
        (Complex.facet_count c)
        (float_of_int (Complex.facet_count c) /. 169.0)
        (Geometry.total_volume c))
    [
      ("R_1-OF", Ra.complex (Lazy.force alpha_1of) ~n);
      ("R_2-OF", Ra.complex (Agreement.k_obstruction_free ~n ~k:2) ~n);
      ("R_1-res", Rtres.complex ~n ~t:1);
      ("R_A(0-res)", Ra.complex (Agreement.of_adversary (Adversary.t_resilient ~n ~t:0)) ~n);
      ("R_A(fig5b)", Ra.complex (Lazy.force alpha_5b) ~n);
      ("Chr^2 (wait-free)", Lazy.force chr2);
    ];
  pf "[volume weights runs by geometric measure; prohibited contention@.";
  pf " regions concentrate near the barycenter, so volume < facet share]@."

let explore_bench () =
  section "Model checking: systematic exploration throughput (lib/check)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let show name (stats : _ Explore.stats) dt =
    let total = stats.Explore.runs + stats.Explore.truncated + stats.Explore.pruned in
    pf "%-28s %a@." name Explore.pp_stats stats;
    pf "%-28s %.2fs, %.0f executions/s@." "" dt (float_of_int total /. dt)
  in
  let (st, parts), dt = time (fun () -> Harness.explore_immediate_snapshot ~n:2 ()) in
  show "IS n=2 (exhaustive)" st dt;
  pf "%-28s ordered partitions: %d/%d@." "" (List.length parts) (Opart.fubini 2);
  let (st, parts), dt = time (fun () -> Harness.explore_immediate_snapshot ~n:3 ()) in
  show "IS n=3 (exhaustive)" st dt;
  pf "%-28s ordered partitions: %d/%d@." "" (List.length parts) (Opart.fubini 3);
  let wf2 = Agreement.of_adversary (Adversary.wait_free 2) in
  let st, dt =
    time (fun () ->
        Harness.explore_algorithm1 ~alpha:wf2 ~participants:(Pset.full 2) ())
  in
  show "Alg1 n=2 wait-free" st dt;
  let oof2 = Agreement.k_obstruction_free ~n:2 ~k:1 in
  let st, dt =
    time (fun () ->
        Harness.explore_algorithm1 ~alpha:oof2 ~participants:(Pset.full 2)
          ~max_depth:48 ())
  in
  show "Alg1 n=2 1-OF (depth 48)" st dt;
  let wf3 = Agreement.of_adversary (Adversary.wait_free 3) in
  let st, dt =
    time (fun () ->
        Harness.explore_algorithm1 ~alpha:wf3 ~participants:(Pset.full 3)
          ~max_runs:30_000 ())
  in
  show "Alg1 n=3 wait-free (30k)" st dt;
  pf "[sleep sets prune commuting interleavings; truncation bounds wait loops]@."

(* ------------------------------------------------------------------ *)
(* JSON baseline: the wall-clock numbers tracked across PRs            *)
(* ------------------------------------------------------------------ *)

let bench_json_file = "BENCH_topology.json"

(* The timed entries live in lib/campaign/bench_entries.ml, shared
   with [fact bench --filter]; this path runs them all and owns the
   baseline file plus the cache/domain trailer. *)
let bench_json () =
  section (Printf.sprintf "JSON bench baseline -> %s" bench_json_file);
  let results = Bench_entries.run () in
  List.iter (fun r -> pf "%s@." (Bench_entries.line r)) results;
  let entries = List.map Bench_entries.json_line results in
  let cache_lines =
    List.map
      (fun (name, s) ->
        pf "cache %-24s hits=%d misses=%d evictions=%d size=%d cap=%d@." name
          s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.size
          s.Cache.cap;
        Printf.sprintf
          "  {\"name\": \"%s\", \"hits\": %d, \"misses\": %d, \"evictions\": \
           %d, \"size\": %d, \"cap\": %d}"
          name s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.size
          s.Cache.cap)
      (Cache.all_stats ())
  in
  let oc = open_out bench_json_file in
  output_string oc "{\"entries\": [\n";
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n], \"caches\": [\n";
  output_string oc (String.concat ",\n" cache_lines);
  output_string oc
    (Printf.sprintf "\n], \"domains\": %d, \"domain_spawns\": %d}\n"
       (Parallel.default_domains ()) (Parallel.domain_spawns ()));
  close_out oc;
  pf "wrote %s (domains=%d, domain spawns=%d)@." bench_json_file
    (Parallel.default_domains ())
    (Parallel.domain_spawns ())

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1a", fig1a);
    ("fig1b", fig1b);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("thm7", thm7);
    ("mu", mu);
    ("fact", fact);
    ("compact", compact);
    ("ablation", ablation);
    ("census", census);
    ("fig7n4", fig7n4);
    ("scale", scale);
    ("approx", approx);
    ("explore", explore_bench);
    ("link", link);
    ("geom", geom);
  ]

let () =
  (* Flags: [--domains N] sets the Parallel fan-out (like FACT_DOMAINS),
     [--json] writes the BENCH_topology.json baseline, [--filter NAME]
     (repeatable) runs only the timed entries whose name contains one
     of the NAMEs (no baseline file). The remaining arguments are
     section names. *)
  let rec parse args names json filters =
    match args with
    | [] -> (List.rev names, json, List.rev filters)
    | "--json" :: rest -> parse rest names true filters
    | "--filter" :: f :: rest -> parse rest names json (f :: filters)
    | [ "--filter" ] ->
      pf "--filter: missing value@.";
      exit 2
    | "--domains" :: d :: rest ->
      (match int_of_string_opt d with
      | Some d -> Parallel.set_default_domains d
      | None ->
        pf "--domains: not an integer: %s@." d;
        exit 2);
      parse rest names json filters
    | [ "--domains" ] ->
      pf "--domains: missing value@.";
      exit 2
    | name :: rest -> parse rest (name :: names) json filters
  in
  let names, json, filters =
    parse (List.tl (Array.to_list Sys.argv)) [] false []
  in
  match filters with
  | _ :: _ -> (
    (* an unknown --filter is a usage error, not a crash: name the
       valid entries and exit like the CLI does *)
    match Bench_entries.run ~filters () with
    | results -> List.iter (fun r -> pf "%s@." (Bench_entries.line r)) results
    | exception Fact_error.Error e ->
      Printf.eprintf "bench: %s\n%!" (Fact_error.to_string e);
      exit (Fact_error.exit_code e))
  | [] ->
  if json then bench_json ()
  else
    let requested = if names = [] then List.map fst sections else names in
    (* an unknown section is a usage error: name the valid ones and
       exit 2 before running anything *)
    (match List.find_opt (fun name -> not (List.mem_assoc name sections)) requested with
    | Some name ->
      Printf.eprintf "unknown section %s (available: %s)\n%!" name
        (String.concat " " (List.map fst sections));
      exit 2
    | None -> ());
    List.iter (fun name -> (List.assoc name sections) ()) requested
