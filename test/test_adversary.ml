(* Tests for adversaries, hitting sets, setcon, agreement functions and
   fairness (Section 3 of the paper). *)

open Fact_topology
open Fact_adversary

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ps = Pset.of_list

(* ------------------------------------------------------------------ *)
(* Adversary construction and classes                                 *)
(* ------------------------------------------------------------------ *)

let test_constructors () =
  check "wait-free n=3 live sets" 7 (Adversary.cardinal (Adversary.wait_free 3));
  (* 1-resilient, n=3: all subsets of size >= 2. *)
  let a1res = Adversary.t_resilient ~n:3 ~t:1 in
  check "1-res live sets" 4 (Adversary.cardinal a1res);
  check_bool "contains pairs" true (Adversary.is_live (ps [ 0; 1 ]) a1res);
  check_bool "no singleton" false (Adversary.is_live (ps [ 0 ]) a1res);
  let kof = Adversary.k_obstruction_free ~n:3 ~k:1 in
  check "1-OF live sets" 3 (Adversary.cardinal kof)

let test_make_errors () =
  Alcotest.check_raises "empty live set"
    (Invalid_argument "Adversary.make: empty live set") (fun () ->
      ignore (Adversary.make ~n:3 [ Pset.empty ]));
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Adversary.make: live set outside the universe")
    (fun () -> ignore (Adversary.make ~n:2 [ ps [ 0; 2 ] ]))

let test_classes () =
  let t_res = Adversary.t_resilient ~n:4 ~t:2 in
  check_bool "t-res superset-closed" true (Adversary.is_superset_closed t_res);
  check_bool "t-res symmetric" true (Adversary.is_symmetric t_res);
  let kof = Adversary.k_obstruction_free ~n:4 ~k:2 in
  check_bool "k-OF not superset-closed" false (Adversary.is_superset_closed kof);
  check_bool "k-OF symmetric" true (Adversary.is_symmetric kof);
  check_bool "fig5b superset-closed" true
    (Adversary.is_superset_closed Adversary.fig5b);
  check_bool "fig5b not symmetric" false (Adversary.is_symmetric Adversary.fig5b)

let test_superset_closure () =
  let a = Adversary.make ~n:3 [ ps [ 1 ]; ps [ 0; 2 ] ] in
  let c = Adversary.superset_closure a in
  (* supersets of {1}: {1},{0,1},{1,2},{0,1,2}; of {0,2}: {0,2},{0,1,2}
     — union has 5 distinct sets. *)
  check "closure size" 5 (Adversary.cardinal c);
  check_bool "closed" true (Adversary.is_superset_closed c);
  check_bool "equals fig5b" true (Adversary.equal c Adversary.fig5b)

let test_restrictions () =
  let a = Adversary.wait_free 3 in
  let r = Adversary.restrict a (ps [ 0; 1 ]) in
  check "restrict size" 3 (Adversary.cardinal r);
  let r2 = Adversary.restrict2 a ~p:(ps [ 0; 1 ]) ~q:(ps [ 1 ]) in
  check "restrict2 size" 2 (Adversary.cardinal r2);
  check_bool "restrict2 member" true (Adversary.is_live (ps [ 1 ]) r2);
  check_bool "restrict2 excludes" false (Adversary.is_live (ps [ 0 ]) r2)

(* ------------------------------------------------------------------ *)
(* Hitting sets                                                       *)
(* ------------------------------------------------------------------ *)

let test_hitting () =
  check "empty collection" 0 (Hitting.csize []);
  check "single" 1 (Hitting.csize [ ps [ 0; 1 ] ]);
  check "disjoint pair" 2 (Hitting.csize [ ps [ 0 ]; ps [ 1 ] ]);
  (* pairs of a triangle: one vertex hits two edges, need 2 *)
  check "triangle edges" 2
    (Hitting.csize [ ps [ 0; 1 ]; ps [ 0; 2 ]; ps [ 1; 2 ] ]);
  let h = Hitting.minimum_hitting_set [ ps [ 0; 1 ]; ps [ 1; 2 ] ] in
  check "hub hit" 1 (Pset.cardinal h);
  check_bool "valid" true
    (Hitting.is_hitting_set h [ ps [ 0; 1 ]; ps [ 1; 2 ] ])

let test_hitting_error () =
  match Hitting.csize [ Pset.empty ] with
  | _ -> Alcotest.fail "empty member: expected a Precondition Fact_error"
  | exception
      Fact_resilience.Fact_error.Error
        (Fact_resilience.Fact_error.Precondition { fn; _ }) ->
    Alcotest.(check string) "empty member" "Hitting.minimum_hitting_set" fn
  | exception e ->
    Alcotest.failf "empty member: unexpected exception %s"
      (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* setcon                                                             *)
(* ------------------------------------------------------------------ *)

let test_setcon_standard () =
  (* Wait-free n processes: setcon = n. *)
  check "wait-free n=3" 3 (Setcon.setcon (Adversary.wait_free 3));
  check "wait-free n=4" 4 (Setcon.setcon (Adversary.wait_free 4));
  (* t-resilient: setcon = t + 1. *)
  check "1-res n=3" 2 (Setcon.setcon (Adversary.t_resilient ~n:3 ~t:1));
  check "2-res n=4" 3 (Setcon.setcon (Adversary.t_resilient ~n:4 ~t:2));
  check "0-res n=4 (consensus)" 1 (Setcon.setcon (Adversary.t_resilient ~n:4 ~t:0));
  (* k-obstruction-free: setcon = k. *)
  check "1-OF n=3" 1 (Setcon.setcon (Adversary.k_obstruction_free ~n:3 ~k:1));
  check "2-OF n=4" 2 (Setcon.setcon (Adversary.k_obstruction_free ~n:4 ~k:2));
  check "empty adversary" 0 (Setcon.setcon (Adversary.make ~n:3 []))

let test_setcon_superset_closed_csize () =
  (* For superset-closed adversaries, setcon = csize (Gafni–Kuznetsov). *)
  List.iter
    (fun a ->
      check "setcon = csize" (Hitting.csize (Adversary.live_sets a))
        (Setcon.setcon a))
    [
      Adversary.t_resilient ~n:4 ~t:1;
      Adversary.t_resilient ~n:4 ~t:3;
      Adversary.fig5b;
      Adversary.superset_closure
        (Adversary.make ~n:4 [ ps [ 0 ]; ps [ 1; 2 ]; ps [ 2; 3 ] ]);
    ]

let test_setcon_symmetric_formula () =
  (* For symmetric adversaries, setcon = number of distinct live-set
     sizes. *)
  List.iter
    (fun a -> check "setcon = #sizes" (Setcon.symmetric_formula a) (Setcon.setcon a))
    [
      Adversary.wait_free 4;
      Adversary.t_resilient ~n:4 ~t:2;
      Adversary.k_obstruction_free ~n:4 ~k:3;
      Adversary.of_sizes ~n:4 [ 1; 3 ];
      Adversary.of_sizes ~n:5 [ 2; 4; 5 ];
    ]

let test_alpha_fig5b () =
  (* fig5b = {p1},{p0,p2} + supersets: hitting sets: {p1}∩{p0,p2}=∅ so
     csize = 2 → setcon = 2. Restricted: alpha({p1}) = 1,
     alpha({p0,p2}) = 1, alpha({p0}) = 0. *)
  let alpha = Setcon.alpha_fn Adversary.fig5b in
  check "alpha full" 2 (alpha (Pset.full 3));
  check "alpha {p1}" 1 (alpha (ps [ 1 ]));
  check "alpha {p0,p2}" 1 (alpha (ps [ 0; 2 ]));
  check "alpha {p0}" 0 (alpha (ps [ 0 ]));
  check "alpha {p0,p1}" 1 (alpha (ps [ 0; 1 ]));
  check "alpha empty" 0 (alpha Pset.empty)

(* ------------------------------------------------------------------ *)
(* Agreement functions                                                *)
(* ------------------------------------------------------------------ *)

let test_agreement_properties () =
  List.iter
    (fun a ->
      let f = Agreement.of_adversary a in
      check_bool "monotonic" true (Agreement.is_monotonic f);
      check_bool "bounded growth" true (Agreement.is_bounded_growth f);
      check_bool "regular" true (Agreement.is_regular f))
    [
      Adversary.wait_free 3;
      Adversary.t_resilient ~n:4 ~t:2;
      Adversary.k_obstruction_free ~n:4 ~k:2;
      Adversary.fig5b;
      Fairness.unfair_example;
    ]

let test_agreement_kof () =
  (* α of the k-OF adversary is min(|P|, k). *)
  List.iter
    (fun (nn, k) ->
      let from_adv =
        Agreement.of_adversary (Adversary.k_obstruction_free ~n:nn ~k)
      in
      let direct = Agreement.k_obstruction_free ~n:nn ~k in
      check_bool
        (Printf.sprintf "kOF alpha n=%d k=%d" nn k)
        true
        (Agreement.equal from_adv direct))
    [ (3, 1); (3, 2); (4, 2); (4, 3) ]

let test_max_faulty () =
  let f = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  Alcotest.(check (option int)) "full participation" (Some 1)
    (Agreement.max_faulty f (Pset.full 3));
  Alcotest.(check (option int)) "one participant" None
    (Agreement.max_faulty f (ps [ 0 ]))

(* ------------------------------------------------------------------ *)
(* Fairness                                                           *)
(* ------------------------------------------------------------------ *)

let test_fairness_classes () =
  (* Superset-closed and symmetric adversaries are fair (paper, §3). *)
  List.iter
    (fun (name, a) -> check_bool name true (Fairness.is_fair a))
    [
      ("wait-free", Adversary.wait_free 3);
      ("t-resilient", Adversary.t_resilient ~n:4 ~t:2);
      ("k-OF", Adversary.k_obstruction_free ~n:4 ~k:2);
      ("fig5b", Adversary.fig5b);
      ("sizes {1,3}", Adversary.of_sizes ~n:4 [ 1; 3 ]);
      ( "asymmetric superset-closed",
        Adversary.superset_closure
          (Adversary.make ~n:4 [ ps [ 0 ]; ps [ 1; 2; 3 ] ]) );
    ]

let test_unfair_example () =
  check_bool "unfair example is unfair" false
    (Fairness.is_fair Fairness.unfair_example);
  let vs = Fairness.violations Fairness.unfair_example in
  check_bool "violations nonempty" true (vs <> []);
  (* The documented violation: P = Π, Q = {p0,p1}. *)
  check_bool "documented violation present" true
    (List.exists
       (fun (p, q, got, expected) ->
         Pset.equal p (Pset.full 4) && Pset.equal q (ps [ 0; 1 ])
         && got = 1 && expected = 2)
       vs)

let test_dominance () =
  let alpha_of a = Agreement.of_adversary a in
  let wf = alpha_of (Adversary.wait_free 3) in
  let res1 = alpha_of (Adversary.t_resilient ~n:3 ~t:1) in
  let of1 = alpha_of (Adversary.k_obstruction_free ~n:3 ~k:1) in
  let of2 = alpha_of (Adversary.k_obstruction_free ~n:3 ~k:2) in
  (* wait-freedom dominates everything (largest alpha = weakest
     model: larger agreement power means worse agreement). *)
  List.iter
    (fun f -> check_bool "WF dominates" true (Agreement.dominates wf f))
    [ res1; of1; of2 ];
  (* 2-OF dominates 1-OF (pointwise min(|P|,k) grows with k)… *)
  check_bool "2-OF >= 1-OF" true (Agreement.dominates of2 of1);
  (* …but 1-OF and 1-resilience are incomparable: at a singleton
     α_{1-OF} = 1 > 0 = α_{1-res}, at full participation 1 < 2. *)
  check_bool "1-res !>= 1-OF" false (Agreement.dominates res1 of1);
  check_bool "1-OF !>= 1-res" false (Agreement.dominates of1 res1);
  (* 2-OF dominates 1-resilience pointwise but not conversely: at a
     singleton participation alpha is 1 vs 0. *)
  check_bool "2-OF >= 1-res" true (Agreement.dominates of2 res1);
  check_bool "1-res < 2-OF" false (Agreement.dominates res1 of2);
  check_bool "equivalent reflexive" true (Agreement.equivalent res1 res1);
  check_bool "not equivalent" false (Agreement.equivalent res1 of2)

let test_fair_computability_classes () =
  check "classes n=2" 5 (Census.fair_computability_classes ~n:2);
  check "classes n=3" 37 (Census.fair_computability_classes ~n:3)

(* ------------------------------------------------------------------ *)
(* Census (quantifying Figure 2)                                      *)
(* ------------------------------------------------------------------ *)

let test_census_n2 () =
  let c = Census.exhaustive ~n:2 in
  check "total" 7 c.Census.total;
  check "superset-closed" 4 c.Census.superset_closed;
  check "symmetric" 3 c.Census.symmetric;
  check "fair" 5 c.Census.fair;
  check "fair-only" 0 c.Census.fair_only;
  check "unfair" 2 c.Census.unfair;
  Alcotest.(check (list (pair int int))) "setcon histogram"
    [ (1, 6); (2, 1) ] c.Census.by_setcon

let test_census_n3 () =
  let c = Census.exhaustive ~n:3 in
  check "total" 127 c.Census.total;
  check "superset-closed" 18 c.Census.superset_closed;
  check "symmetric" 7 c.Census.symmetric;
  check "fair" 43 c.Census.fair;
  (* the region of Figure 2 beyond both earlier characterizations *)
  check "fair-only" 21 c.Census.fair_only;
  check "unfair" 84 c.Census.unfair;
  Alcotest.(check (list (pair int int))) "setcon histogram"
    [ (1, 63); (2, 63); (3, 1) ] c.Census.by_setcon

let test_census_invariants () =
  List.iter
    (fun c ->
      check_bool "fair >= fair_only" true (c.Census.fair >= c.Census.fair_only);
      check "fair + unfair = total" c.Census.total
        (c.Census.fair + c.Census.unfair);
      check "setcon histogram covers all" c.Census.total
        (List.fold_left (fun acc (_, n) -> acc + n) 0 c.Census.by_setcon))
    [ Census.exhaustive ~n:2; Census.exhaustive ~n:3;
      Census.sampled ~n:4 ~seed:7 ~samples:300 ]

(* A singleton-live-set adversary that is not superset-closed is
   unfair under the literal Definition 2: a disjoint coalition Q has
   setcon(A|P,Q) = 0 < min(|Q|, setcon(A|P)). *)
let test_singleton_adversary_unfair () =
  let a = Adversary.make ~n:2 [ ps [ 0 ] ] in
  check_bool "unfair" false (Fairness.is_fair a);
  check_bool "its closure is fair" true
    (Fairness.is_fair (Adversary.superset_closure a))

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let random_adversary n =
  (* Pick live sets from the nonempty subsets via a random mask over
     their indices. *)
  let all = Pset.nonempty_subsets (Pset.full n) in
  QCheck.map
    (fun bits ->
      let live =
        List.filteri (fun i _ -> (bits lsr i) land 1 = 1) all
      in
      Adversary.make ~n live)
    QCheck.(map abs int)

let prop_symmetric_fair =
  QCheck.Test.make ~name:"symmetric adversaries are fair" ~count:40
    (QCheck.map
       (fun bits ->
         let sizes = List.filter (fun k -> (bits lsr k) land 1 = 1) [ 1; 2; 3; 4 ] in
         Adversary.of_sizes ~n:4 sizes)
       QCheck.(map abs int))
    Fairness.is_fair

let prop_superset_closed_fair =
  QCheck.Test.make ~name:"superset-closed adversaries are fair" ~count:30
    (QCheck.map Adversary.superset_closure (random_adversary 4))
    Fairness.is_fair

let prop_superset_closed_setcon_csize =
  QCheck.Test.make ~name:"superset-closed: setcon = csize" ~count:30
    (QCheck.map Adversary.superset_closure (random_adversary 4))
    (fun a ->
      Adversary.is_empty a
      || Setcon.setcon a = Hitting.csize (Adversary.live_sets a))

let prop_alpha_regular =
  QCheck.Test.make ~name:"agreement functions are regular" ~count:40
    (random_adversary 4)
    (fun a -> Agreement.is_regular (Agreement.of_adversary a))

let prop_setcon_restrict_monotone =
  QCheck.Test.make ~name:"setcon monotone under restriction" ~count:40
    (QCheck.pair (random_adversary 4) QCheck.(map abs int))
    (fun (a, mask) ->
      let p = Pset.of_mask (mask land 15) in
      Setcon.alpha a p <= Setcon.setcon a)

(* ------------------------------------------------------------------ *)
(* Interned agreement stamps                                          *)
(* ------------------------------------------------------------------ *)

let test_agreement_stamp_interned () =
  let a = Agreement.of_adversary (Adversary.wait_free 3) in
  let b = Agreement.of_adversary (Adversary.wait_free 3) in
  let c = Agreement.of_fn ~n:3 (fun p -> Agreement.eval a p) in
  let kof = Agreement.k_obstruction_free ~n:3 ~k:1 in
  check "equal tables share a stamp" (Agreement.stamp a) (Agreement.stamp b);
  check "equal table via of_fn" (Agreement.stamp a) (Agreement.stamp c);
  check_bool "different tables, different stamps" true
    (Agreement.stamp a <> Agreement.stamp kof);
  (* enough distinct n = 10 tables to reset the bounded intern table
     more than once: no stamp is ever given to two different tables,
     and the first table, rebuilt after a reset, gets a fresh one *)
  let table k =
    Agreement.of_fn ~n:10 (fun p -> if Pset.to_mask p = k then 1 else 0)
  in
  let stamps = List.init 200 (fun k -> Agreement.stamp (table k)) in
  check "distinct tables, distinct stamps" 200
    (List.length (List.sort_uniq compare stamps));
  let again = Agreement.stamp (table 0) in
  check_bool "a table dropped by a reset gets a fresh stamp" false
    (List.mem again stamps)

(* [Fairness.violations] polls the ambient token: a wait-free n = 10
   check runs for seconds, a 0.2 s deadline stops it with a typed
   error. *)
let test_fairness_cancellable () =
  let open Fact_resilience in
  let tok = Cancel.create ~deadline_s:0.2 () in
  let t0 = Unix.gettimeofday () in
  match
    Cancel.with_token tok (fun () -> Fairness.violations (Adversary.wait_free 10))
  with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Fact_error.Error (Fact_error.Deadline_exceeded _) ->
    check_bool "stops promptly" true (Unix.gettimeofday () -. t0 < 5.)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("constructors", `Quick, test_constructors);
    ("make errors", `Quick, test_make_errors);
    ("structural classes (Fig 2)", `Quick, test_classes);
    ("superset closure", `Quick, test_superset_closure);
    ("restrictions", `Quick, test_restrictions);
    ("hitting sets", `Quick, test_hitting);
    ("hitting errors", `Quick, test_hitting_error);
    ("setcon of standard adversaries", `Quick, test_setcon_standard);
    ("setcon = csize (superset-closed)", `Quick, test_setcon_superset_closed_csize);
    ("setcon symmetric formula", `Quick, test_setcon_symmetric_formula);
    ("alpha of fig5b", `Quick, test_alpha_fig5b);
    ("agreement function properties", `Quick, test_agreement_properties);
    ("agreement of k-OF", `Quick, test_agreement_kof);
    ("alpha-model max faulty", `Quick, test_max_faulty);
    ("fair classes", `Quick, test_fairness_classes);
    ("unfair example", `Quick, test_unfair_example);
    ("agreement dominance", `Quick, test_dominance);
    ("fair computability classes", `Quick, test_fair_computability_classes);
    ("census n=2", `Quick, test_census_n2);
    ("census n=3", `Quick, test_census_n3);
    ("census invariants", `Quick, test_census_invariants);
    ("singleton adversary unfair", `Quick, test_singleton_adversary_unfair);
    ("agreement stamps interned", `Quick, test_agreement_stamp_interned);
    ("fairness violations cancellable", `Quick, test_fairness_cancellable);
    qt prop_symmetric_fair;
    qt prop_superset_closed_fair;
    qt prop_superset_closed_setcon_csize;
    qt prop_alpha_regular;
    qt prop_setcon_restrict_monotone;
  ]
