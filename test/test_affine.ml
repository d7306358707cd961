(* Tests for the affine-task machinery: views, contention, critical
   simplices, concurrency levels, R_{k-OF}, R_{t-res}, R_A and µ_Q
   (Sections 4 and 6.2, Figures 1b and 4-7). *)

open Fact_topology
open Fact_adversary
open Fact_affine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ps = Pset.of_list
let s3 = List.hd (Complex.facets (Chr.standard 3))
let chr1_3 = Chr.subdivide (Chr.standard 3)
let chr2_3 = Chr.subdivide chr1_3

let run blocks = Opart.make (List.map ps blocks)
let facet2 r1 r2 = Chr.facet_of_runs s3 [ run r1; run r2 ]

(* Agreement functions of the paper's two running examples. *)
let alpha_1of = Agreement.k_obstruction_free ~n:3 ~k:1
let alpha_5b = Agreement.of_adversary Adversary.fig5b

(* ------------------------------------------------------------------ *)
(* Views                                                              *)
(* ------------------------------------------------------------------ *)

let test_views () =
  (* Round 1 ordered {p0},{p1},{p2}; round 2 {p2},{p0,p1}. *)
  let f = facet2 [ [ 0 ]; [ 1 ]; [ 2 ] ] [ [ 2 ]; [ 0; 1 ] ] in
  let v p = Option.get (Simplex.find_color p f) in
  Alcotest.(check (list int)) "View1 p0" [ 0 ] (Pset.to_list (Views.view1 (v 0)));
  Alcotest.(check (list int)) "View1 p1" [ 0; 1 ] (Pset.to_list (Views.view1 (v 1)));
  Alcotest.(check (list int)) "View1 p2" [ 0; 1; 2 ] (Pset.to_list (Views.view1 (v 2)));
  Alcotest.(check (list int)) "View2 p2" [ 2 ] (Pset.to_list (Views.view2 (v 2)));
  Alcotest.(check (list int)) "View2 p0" [ 0; 1; 2 ] (Pset.to_list (Views.view2 (v 0)))

let test_views_level_check () =
  Alcotest.check_raises "level-1 vertex rejected"
    (Invalid_argument "Views.view1: vertex not at level 2") (fun () ->
      let f1 = List.hd (Complex.facets chr1_3) in
      ignore (Views.view1 (List.hd (Simplex.vertices f1))))

(* ------------------------------------------------------------------ *)
(* Contention (Figure 4)                                              *)
(* ------------------------------------------------------------------ *)

let test_contention_fig4a () =
  (* Reversed orders: {p1},{p0},{p2} then {p2},{p0},{p1} — every pair
     contends (Figure 4a, relabeled 0-based). *)
  let f = facet2 [ [ 1 ]; [ 0 ]; [ 2 ] ] [ [ 2 ]; [ 0 ]; [ 1 ] ] in
  check_bool "whole facet is a contention simplex" true
    (Contention.is_contention_simplex f);
  check "max contention dim" 2 (Contention.max_contention_dim f)

let test_contention_fig4b () =
  (* Ordered round 1, then {p1},{p2,p0}: the only contending couple is
     {p0,p1} (Figure 4b, relabeled 0-based). *)
  let f = facet2 [ [ 0 ]; [ 1 ]; [ 2 ] ] [ [ 1 ]; [ 2; 0 ] ] in
  let v p = Option.get (Simplex.find_color p f) in
  check_bool "p0-p1 contend" true (Contention.contending (v 0) (v 1));
  check_bool "p1-p2 do not" false (Contention.contending (v 1) (v 2));
  check_bool "p0-p2 do not" false (Contention.contending (v 0) (v 2));
  check "max contention dim" 1 (Contention.max_contention_dim f)

let test_contention_complex_counts () =
  (* Figure 4c: the 2-contention complex of Chr² s for n = 3. The six
     2-dimensional contention simplices are exactly the six pairs of
     strictly reversed 3-block orderings. *)
  let cont = Contention.complex chr2_3 in
  let by_dim d =
    List.length
      (List.filter (fun s -> Simplex.dim s = d) (Complex.all_simplices cont))
  in
  check "contention triangles" 6 (by_dim 2);
  check "contention edges" 78 (by_dim 1);
  check "all vertices trivially contention" 99 (by_dim 0);
  check "prohibited for k=1" 84
    (List.length (Contention.simplices_of_dim_ge 1 chr2_3))

let test_sync_runs_not_contending () =
  (* Two synchronous rounds: nobody contends. *)
  let f = facet2 [ [ 0; 1; 2 ] ] [ [ 0; 1; 2 ] ] in
  check "max contention dim" 0 (Contention.max_contention_dim f)

(* ------------------------------------------------------------------ *)
(* Critical simplices (Figure 5)                                      *)
(* ------------------------------------------------------------------ *)

let central_simplex colors =
  (* The simplex {(p, σ_colors) : p ∈ colors} of Chr s — all vertices
     sharing the face of s spanned by [colors] as carrier. *)
  let face = Simplex.restrict s3 colors in
  Simplex.make
    (List.map
       (fun p -> Vertex.deriv p (Simplex.vertices face))
       (Pset.to_list colors))

let test_critical_1of () =
  (* Figure 5a: for α(P) = min(|P|, 1) the critical simplices are the
     central simplices of the 7 faces of s. *)
  let crit = Critical.all_critical alpha_1of chr1_3 in
  check "count" 7 (List.length crit);
  List.iter
    (fun colors ->
      check_bool
        (Format.asprintf "central %a critical" Pset.pp colors)
        true
        (List.exists (Simplex.equal (central_simplex colors)) crit))
    (Pset.nonempty_subsets (Pset.full 3))

let test_critical_fig5b () =
  let crit = Critical.all_critical alpha_5b chr1_3 in
  check "count" 15 (List.length crit);
  (* p1 running solo is critical (α grows from 0 to 1 at {p1}); p0
     solo is not (α({p0}) = 0). *)
  let solo p = Simplex.make [ Vertex.deriv p [ Vertex.base p ] ] in
  check_bool "solo p1 critical" true
    (Critical.is_critical alpha_5b (solo 1));
  check_bool "solo p0 not critical" false
    (Critical.is_critical alpha_5b (solo 0));
  check_bool "solo p2 not critical" false
    (Critical.is_critical alpha_5b (solo 2));
  (* the central edge of the face {p0,p2} is critical: α goes 0 → 1 *)
  check_bool "central {p0,p2} critical" true
    (Critical.is_critical alpha_5b (central_simplex (ps [ 0; 2 ])))

let test_critical_not_inclusion_closed () =
  (* The set of critical simplices is not inclusion-closed (paper
     remark under Definition 7): under α(P) = min(|P|, 1) the central
     triangle is critical, but none of its proper faces is — removing
     only part of the triangle keeps the agreement power at 1. *)
  let triangle = central_simplex (Pset.full 3) in
  check_bool "central triangle critical" true
    (Critical.is_critical alpha_1of triangle);
  List.iter
    (fun face ->
      check_bool "proper face not critical" false
        (Critical.is_critical alpha_1of face))
    (Simplex.proper_faces triangle)

let test_csm_csv () =
  (* In the fully ordered run {p0},{p1},{p2} with α = min(|P|,1): only
     the solo simplex (p0,{p0}) is critical; CSM = {p0-vertex} and
     CSV = {p0}. *)
  let f1 = Chr.facet_of_run s3 (run [ [ 0 ]; [ 1 ]; [ 2 ] ]) in
  let csm = Critical.members alpha_1of f1 in
  Alcotest.(check (list int)) "CSM colors" [ 0 ]
    (Pset.to_list (Simplex.colors csm));
  Alcotest.(check (list int)) "CSV" [ 0 ]
    (Pset.to_list (Critical.view alpha_1of f1));
  (* Same run under fig5b's α: solo p0 is not critical; the first
     critical witness is (p1, {p0,p1}): α({p0}) = 0 < α({p0,p1}) = 1. *)
  let csm5b = Critical.members alpha_5b f1 in
  check_bool "p1 in CSM" true (Pset.mem 1 (Simplex.colors csm5b));
  check_bool "CSV includes p0,p1" true
    (Pset.subset (ps [ 0; 1 ]) (Critical.view alpha_5b f1))

(* ------------------------------------------------------------------ *)
(* Concurrency map (Figure 6)                                         *)
(* ------------------------------------------------------------------ *)

let test_concurrency_histograms () =
  (* Figure 6a: levels over the 49 simplices of Chr s (n=3). *)
  Alcotest.(check (list (pair int int)))
    "fig6a" [ (0, 18); (1, 31) ]
    (Concurrency.histogram alpha_1of chr1_3);
  Alcotest.(check (list (pair int int)))
    "fig6b" [ (0, 4); (1, 14); (2, 31) ]
    (Concurrency.histogram alpha_5b chr1_3)

let test_concurrency_star_structure () =
  (* A simplex has level ≥ k iff it contains a critical simplex of
     agreement power ≥ k — cross-check on all simplices for fig5b. *)
  List.iter
    (fun sigma ->
      let level = Concurrency.level alpha_5b sigma in
      let expected =
        List.fold_left
          (fun acc tau ->
            max acc (Agreement.eval alpha_5b (Simplex.base_carrier tau)))
          0
          (List.filter (Critical.is_critical alpha_5b) (Simplex.faces sigma))
      in
      check "level agrees" expected level)
    (Complex.all_simplices chr1_3)

(* ------------------------------------------------------------------ *)
(* Affine tasks: R_{k-OF}, R_{t-res}, R_A (Figures 1b and 7)          *)
(* ------------------------------------------------------------------ *)

let test_rkof_counts () =
  check "R_1-OF facets (Fig 7a)" 73 (Complex.facet_count (Rkof.complex ~n:3 ~k:1));
  check "R_2-OF facets" 163 (Complex.facet_count (Rkof.complex ~n:3 ~k:2));
  check "R_3-OF = Chr^2 s" 169 (Complex.facet_count (Rkof.complex ~n:3 ~k:3))

let test_rtres_counts () =
  (* Figure 1b: R_{1-res} for n = 3. *)
  let r = Rtres.complex ~n:3 ~t:1 in
  check "facets" 142 (Complex.facet_count r);
  check_bool "pure" true (Complex.is_pure_of_dim 2 r);
  (* Wait-free resilience (t = n-1) imposes nothing. *)
  check "R_(n-1)-res = Chr^2 s" 169
    (Complex.facet_count (Rtres.complex ~n:3 ~t:2))

let test_ra_matches_rkof_extremes () =
  (* Under the union variant, R_A of the k-OF adversary coincides with
     Definition 6 for k = 1 and k = n. *)
  List.iter
    (fun (nn, k) ->
      let alpha = Agreement.k_obstruction_free ~n:nn ~k in
      check_bool
        (Printf.sprintf "n=%d k=%d" nn k)
        true
        (Complex.equal
           (Ra.complex ~variant:Ra.Lemma6_union alpha ~n:nn)
           (Rkof.complex ~n:nn ~k)))
    [ (3, 1); (3, 3); (2, 1); (2, 2) ]

let test_ra_strict_refinement_k2 () =
  (* For 1 < k < n, R_A is a strict sub-complex of Definition 6's
     R_{k-OF}: Definition 9 additionally excludes runs in which a
     process with the largest View1 jumps first in round 2 without a
     critical witness — runs Algorithm 1 cannot produce. *)
  let alpha = Agreement.k_obstruction_free ~n:3 ~k:2 in
  let ra = Ra.complex ~variant:Ra.Lemma6_union alpha ~n:3 in
  let rkof = Rkof.complex ~n:3 ~k:2 in
  check_bool "RA ⊆ Rkof" true (Complex.subcomplex ra rkof);
  check "RA facets" 142 (Complex.facet_count ra);
  check "Rkof facets" 163 (Complex.facet_count rkof);
  (* The documented witness: rounds {p0},{p1},{p2} then {p2},{p0,p1}. *)
  let f = facet2 [ [ 0 ]; [ 1 ]; [ 2 ] ] [ [ 2 ]; [ 0; 1 ] ] in
  check_bool "witness in Rkof" true (Complex.mem f rkof);
  check_bool "witness not in RA" false (Complex.mem f ra)

let test_ra_variants_differ () =
  (* The literal Definition 9 (triple intersection) does not match
     R_{1-OF}; the Lemma 6 union reading does. *)
  let alpha = alpha_1of in
  let ra_int = Ra.complex ~variant:Ra.Def9_intersection alpha ~n:3 in
  let ra_uni = Ra.complex ~variant:Ra.Lemma6_union alpha ~n:3 in
  let rkof = Rkof.complex ~n:3 ~k:1 in
  check_bool "union = Def 6" true (Complex.equal ra_uni rkof);
  check_bool "intersection ≠ Def 6" false (Complex.equal ra_int rkof);
  check_bool "intersection ⊆ union" true (Complex.subcomplex ra_int ra_uni)

let test_ra_1res_equals_rtres () =
  (* For the (superset-closed, fair) 1-resilient adversary on 3
     processes, R_A coincides with Saraph et al.'s R_{t-res}. *)
  let a = Adversary.t_resilient ~n:3 ~t:1 in
  let ra = Ra.complex (Agreement.of_adversary a) ~n:3 in
  check_bool "equal" true (Complex.equal ra (Rtres.complex ~n:3 ~t:1))

let test_ra_fig7 () =
  check "R_A fig7a facets" 73
    (Complex.facet_count (Ra.complex alpha_1of ~n:3));
  check "R_A fig7b facets" 145
    (Complex.facet_count (Ra.complex alpha_5b ~n:3));
  check_bool "fig7b pure" true
    (Complex.is_pure_of_dim 2 (Ra.complex alpha_5b ~n:3))

let test_ra_wait_free_full () =
  (* The wait-free adversary has α(P) = |P|: nothing is prohibited. *)
  let alpha = Agreement.of_adversary (Adversary.wait_free 3) in
  check "R_A wait-free = Chr^2 s" 169
    (Complex.facet_count (Ra.complex alpha ~n:3))

let test_affine_task_api () =
  let t = Rkof.task ~n:3 ~k:1 in
  check "ell" 2 (Affine_task.ell t);
  check "n" 3 (Affine_task.n t);
  (* ∆ on a proper face: the sub-complex of runs among {p0,p1}. *)
  let d = Affine_task.delta t (ps [ 0; 1 ]) in
  check_bool "delta nonempty" true (not (Complex.is_empty d));
  List.iter
    (fun f ->
      check_bool "delta carrier inside face" true
        (Pset.subset (Simplex.base_carrier f) (ps [ 0; 1 ])))
    (Complex.facets d);
  (* ∆ must be monotone (carrier map). *)
  check_bool "monotone" true
    (Complex.subcomplex d (Affine_task.delta t (Pset.full 3)))

let check_precondition name ~fn f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a Precondition Fact_error" name
  | exception
      Fact_resilience.Fact_error.Error
        (Fact_resilience.Fact_error.Precondition { fn = got; _ }) ->
    Alcotest.(check string) name fn got
  | exception e ->
    Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

let test_affine_task_validation () =
  check_precondition "empty rejected" ~fn:"Affine_task.make" (fun () ->
      ignore (Affine_task.make ~ell:2 (Complex.of_facets ~n:3 [])));
  check_precondition "wrong level rejected" ~fn:"Affine_task.make"
    (fun () -> ignore (Affine_task.make ~ell:2 chr1_3))

let test_affine_compose () =
  (* Chr^1 ∘ Chr^1 = Chr^2 (as complexes). *)
  let one = Affine_task.full_chr ~n:3 ~ell:1 in
  let two = Affine_task.compose one one in
  check "ell adds" 2 (Affine_task.ell two);
  check_bool "= Chr^2 s" true (Complex.equal (Affine_task.complex two) chr2_3);
  (* Iterating R_{1-OF} twice gives a pure sub-complex of Chr^4 s with
     73² facets. *)
  let r = Rkof.task ~n:3 ~k:1 in
  let r2 = Affine_task.iterate r 2 in
  check "ell" 4 (Affine_task.ell r2);
  check "facets multiply" (73 * 73) (Complex.facet_count (Affine_task.complex r2));
  check_bool "pure" true (Complex.is_pure_of_dim 2 (Affine_task.complex r2));
  List.iter
    (fun f -> check_bool "valid Chr^4 simplex" true (Chr.is_simplex_of_chr f))
    (List.filteri (fun i _ -> i mod 500 = 0) (Complex.facets (Affine_task.complex r2)))

(* ------------------------------------------------------------------ *)
(* R_A regression against the pre-memoization implementation          *)
(* ------------------------------------------------------------------ *)

(* Facet/simplex/Euler fingerprints of [Ra.complex] recorded from the
   seed (structural, cache-free) implementation. The memoized
   mask-based pipeline must reproduce them exactly, for both Def 9
   variants. *)
let test_ra_seed_fingerprints () =
  let alpha_1res = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let cases =
    [
      ("1-res union", alpha_1res, Ra.Lemma6_union, 142, 475);
      ("1-res inter", alpha_1res, Ra.Def9_intersection, 142, 475);
      ("fig5b union", alpha_5b, Ra.Lemma6_union, 145, 483);
      ("fig5b inter", alpha_5b, Ra.Def9_intersection, 139, 467);
    ]
  in
  List.iter
    (fun (name, alpha, variant, facets, simplices) ->
      let r = Ra.complex ~variant alpha ~n:3 in
      check (name ^ " facets") facets (Complex.facet_count r);
      check (name ^ " simplices") simplices (Complex.simplex_count r);
      check (name ^ " euler") 1 (Complex.euler_characteristic r))
    cases

let test_ra_memo_stability () =
  (* A second call for the same α must hit the per-(stamp, variant)
     verdict cache and return an equal complex; the mask path must also
     agree facet-by-facet with the face-list path [offending_faces]. *)
  let r1 = Ra.complex alpha_5b ~n:3 in
  let r2 = Ra.complex alpha_5b ~n:3 in
  check_bool "repeat equal" true (Complex.equal r1 r2);
  check "repeat facet count" (Complex.facet_count r1) (Complex.facet_count r2);
  List.iter
    (fun f ->
      let fast = Complex.mem f r1 in
      let slow = Ra.offending_faces alpha_5b f = [] in
      check_bool "mask path = face-list path" true (fast = slow))
    (Complex.facets (Chr.standard_iterated ~m:2 ~n:3))

(* Stamps are interned by table, so an equal α built separately hits
   the verdicts the first one left: the second [Ra.complex] adds only
   hits to the per-facet cache. *)
let test_ra_memo_shared_by_equal_alpha () =
  let facet_ok () =
    List.assoc "ra.facet_ok" (Fact_resilience.Cache.all_stats ())
  in
  let first = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let r1 = Ra.complex first ~n:3 in
  let before = facet_ok () in
  let second = Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1) in
  let r2 = Ra.complex second ~n:3 in
  let after = facet_ok () in
  check_bool "same complex" true (Complex.equal r1 r2);
  let open Fact_resilience.Cache in
  check "no new misses" before.misses after.misses;
  check_bool "hits added" true (after.hits > before.hits)

(* ------------------------------------------------------------------ *)
(* µ_Q (Section 6.2)                                                  *)
(* ------------------------------------------------------------------ *)

let ra_1of = Ra.complex alpha_1of ~n:3
let ra_5b = Ra.complex alpha_5b ~n:3

let nonempty_qs = Pset.nonempty_subsets (Pset.full 3)

let test_mu_validity () =
  (* Property 9: µ_Q(v) ∈ Q ∩ χ(carrier(v, s)), exhaustively. *)
  List.iter
    (fun (alpha, ra) ->
      List.iter
        (fun f ->
          List.iter
            (fun v ->
              List.iter
                (fun q ->
                  if Pset.mem (Vertex.proc v) q then begin
                    let l = Mu.leader alpha ~q v in
                    check_bool "leader in Q" true (Pset.mem l q);
                    check_bool "leader seen" true
                      (Pset.mem l (Vertex.base_carrier v))
                  end)
                nonempty_qs)
            (Simplex.vertices f))
        (Complex.facets ra))
    [ (alpha_1of, ra_1of); (alpha_5b, ra_5b) ]

let test_mu_agreement () =
  (* Property 10: on any θ ⊆ σ ∈ facets(R_A) with χ(θ) ⊆ Q, the number
     of distinct leaders is at most α(χ(carrier(θ, s))). Exhaustive. *)
  List.iter
    (fun (alpha, ra) ->
      List.iter
        (fun f ->
          List.iter
            (fun q ->
              let theta = Simplex.restrict f q in
              if not (Simplex.is_empty theta) then begin
                let leaders = Mu.leaders alpha ~q theta in
                let bound =
                  Agreement.eval alpha (Simplex.base_carrier theta)
                in
                check_bool "≤ α(carrier θ)" true
                  (Pset.cardinal leaders <= bound)
              end)
            nonempty_qs)
        (Complex.facets ra))
    [ (alpha_1of, ra_1of); (alpha_5b, ra_5b) ]

let test_mu_robustness () =
  (* Property 12: µ_Q(v) = µ_{Q ∩ carrier(v,s)}(v). Exhaustive. *)
  List.iter
    (fun (alpha, ra) ->
      List.iter
        (fun f ->
          List.iter
            (fun v ->
              List.iter
                (fun q ->
                  if Pset.mem (Vertex.proc v) q then begin
                    let q' = Pset.inter q (Vertex.base_carrier v) in
                    check "robust" (Mu.leader alpha ~q v)
                      (Mu.leader alpha ~q:q' v)
                  end)
                nonempty_qs)
            (Simplex.vertices f))
        (Complex.facets ra))
    [ (alpha_1of, ra_1of); (alpha_5b, ra_5b) ]

let test_mu_errors () =
  let f = List.hd (Complex.facets ra_1of) in
  let v = List.hd (Simplex.vertices f) in
  let q = Pset.remove (Vertex.proc v) (Pset.full 3) in
  Alcotest.check_raises "color not in Q"
    (Invalid_argument "Mu.leader: vertex color not in Q") (fun () ->
      ignore (Mu.leader alpha_1of ~q v))

(* ------------------------------------------------------------------ *)
(* Link-connectivity (Section 8)                                      *)
(* ------------------------------------------------------------------ *)

let test_link_connectivity_of_affine_tasks () =
  (* Section 8: R_{t-res} is link-connected (which is what lets [30]
     use continuous maps), while "only very special adversaries" have
     link-connected affine tasks — in particular R_{1-OF} (Figure 7a)
     is NOT link-connected. *)
  check_bool "R_1-res link-connected" true
    (Link.is_link_connected (Rtres.complex ~n:3 ~t:1));
  check_bool "R_1-OF not link-connected" false
    (Link.is_link_connected ra_1of);
  check_bool "witnesses exist" true
    (Link.disconnected_vertices ra_1of <> []);
  (* Chr^2 s itself (wait-freedom) is a subdivision, hence
     link-connected. *)
  check_bool "Chr^2 link-connected" true (Link.is_link_connected chr2_3)

(* The definitions the report kernels replaced, kept as oracles: the
   link of every vertex built as a complex and checked by union-find
   over its closure, and the restriction filtering each facet's
   vertices by their recomputed base carrier, then re-interning. *)
let reference_disconnected k =
  List.filter
    (fun v -> not (Link.is_connected (Link.link (Simplex.of_vertex v) k)))
    (Complex.vertices k)

let reference_restrict_colors colors k =
  Complex.of_facets ~n:(Complex.n k)
    (List.filter_map
       (fun f ->
         match
           List.filter
             (fun v -> Pset.subset (Vertex.base_carrier v) colors)
             (Simplex.vertices f)
         with
         | [] -> None
         | vs -> Some (Simplex.make vs))
       (Complex.facets k))

(* Every fair adversary over [n] processes, live sets in bitmask
   order: 5 at n = 2, 43 at n = 3. *)
let fair_adversaries n =
  let subsets = List.init ((1 lsl n) - 1) (fun i -> Pset.of_mask (i + 1)) in
  List.init ((1 lsl List.length subsets) - 1) (fun c -> c + 1)
  |> List.map (fun c ->
         Adversary.make ~n
           (List.filteri (fun i _ -> c land (1 lsl i) <> 0) subsets))
  |> List.filter Fairness.is_fair

let fair_ra = List.concat_map fair_adversaries [ 2; 3 ]

(* Two discs pinched at [p0]: the link of the apex is two disjoint
   4-cycles, so counting components as vertices minus edges would
   call it connected. *)
let pinched_discs =
  let v = Vertex.input in
  let disc w =
    let r = [| v 1 w; v 2 w; v 1 (w + 1); v 2 (w + 1) |] in
    List.init 4 (fun i -> Simplex.make [ v 0 0; r.(i); r.((i + 1) mod 4) ])
  in
  Complex.of_facets ~n:3 (disc 0 @ disc 2)

let test_report_kernels_match_reference () =
  let chr1_4 = Chr.subdivide (Chr.standard 4) in
  let complexes =
    List.map
      (fun a ->
        ( Format.asprintf "R_A %a" Adversary.pp a,
          Affine_task.complex (Ra.of_adversary a) ))
      fair_ra
    @ [ ("R_1-res", Rtres.complex ~n:3 ~t:1); ("Chr s n=3", chr1_3);
        ("Chr^2 s n=3", chr2_3); ("Chr s n=4", chr1_4);
        ("pinched discs", pinched_discs) ]
  in
  check "fair adversaries at n = 2, 3" 48 (List.length fair_ra);
  let disconnected = ref 0 in
  List.iter
    (fun (name, c) ->
      let expected = reference_disconnected c in
      if expected <> [] then incr disconnected;
      check_bool (name ^ ": link verdict") (expected = [])
        (Link.is_link_connected c);
      check_bool (name ^ ": disconnected vertices, in order") true
        (List.equal Vertex.equal expected (Link.disconnected_vertices c));
      List.iter
        (fun p ->
          check_bool
            (Format.asprintf "%s: delta(%a)" name Pset.pp p)
            true
            (Complex.equal (reference_restrict_colors p c)
               (Complex.restrict_colors p c)))
        (Pset.nonempty_subsets (Pset.full (Complex.n c))))
    complexes;
  (* both verdicts occur, so neither kernel passes by being constant *)
  check_bool "some complex is not link-connected" true (!disconnected > 0)

(* The [ra] payloads of all 48 fair adversaries (n = 2 then 3), as
   rendered before the report kernels were rewritten. *)
let test_ra_payloads_pinned () =
  let payloads =
    List.map
      (fun a ->
        Fact_serve.Query.eval
          (Fact_serve.Query.Ra
             { n = Adversary.n a;
               adv = Live (List.map Pset.to_list (Adversary.live_sets a)) }))
      fair_ra
  in
  Alcotest.(check string) "md5 of the concatenated payloads"
    "015d384506dc25e5a6bd20e04950e2f4"
    (Digest.to_hex (Digest.string (String.concat "" payloads)))

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let facet_gen complex =
  let fs = Complex.facets complex in
  QCheck.map (fun i -> List.nth fs (abs i mod List.length fs)) QCheck.int

let prop_cont2_inclusion_closed =
  QCheck.Test.make ~name:"Cont2 is inclusion-closed" ~count:200
    (QCheck.pair (facet_gen chr2_3) QCheck.(map abs int))
    (fun (f, mask) ->
      let sub = Simplex.restrict f (Pset.of_mask (mask land 7)) in
      (not (Contention.is_contention_simplex f))
      || Simplex.is_empty sub
      || Contention.is_contention_simplex sub)

let prop_ra_facets_pass_their_own_check =
  QCheck.Test.make ~name:"R_A facets have no offending faces" ~count:100
    (facet_gen ra_5b)
    (fun f -> Ra.offending_faces alpha_5b f = [])

let prop_mu_agreement_random_adversary =
  QCheck.Test.make ~name:"µ_Q agreement on random fair adversaries" ~count:8
    (QCheck.map
       (fun bits ->
         let sizes = List.filter (fun k -> (bits lsr k) land 1 = 1) [ 1; 2; 3 ] in
         let sizes = if sizes = [] then [ 3 ] else sizes in
         Adversary.of_sizes ~n:3 sizes)
       QCheck.(map abs int))
    (fun a ->
      let alpha = Agreement.of_adversary a in
      let ra = Ra.complex alpha ~n:3 in
      List.for_all
        (fun f ->
          List.for_all
            (fun q ->
              let theta = Simplex.restrict f q in
              Simplex.is_empty theta
              || Pset.cardinal (Mu.leaders alpha ~q theta)
                 <= Agreement.eval alpha (Simplex.base_carrier theta))
            nonempty_qs)
        (Complex.facets ra))

let suite =
  [
    ("views of a 2-round run", `Quick, test_views);
    ("views level check", `Quick, test_views_level_check);
    ("contention: reversed runs (Fig 4a)", `Quick, test_contention_fig4a);
    ("contention: mixed runs (Fig 4b)", `Quick, test_contention_fig4b);
    ("contention complex counts (Fig 4c)", `Quick, test_contention_complex_counts);
    ("sync runs not contending", `Quick, test_sync_runs_not_contending);
    ("critical simplices 1-OF (Fig 5a)", `Quick, test_critical_1of);
    ("critical simplices fig5b (Fig 5b)", `Quick, test_critical_fig5b);
    ("critical not inclusion-closed", `Quick, test_critical_not_inclusion_closed);
    ("CSM and CSV", `Quick, test_csm_csv);
    ("concurrency histograms (Fig 6)", `Quick, test_concurrency_histograms);
    ("concurrency vs critical faces", `Quick, test_concurrency_star_structure);
    ("R_kOF facet counts", `Quick, test_rkof_counts);
    ("R_tres facet counts (Fig 1b)", `Quick, test_rtres_counts);
    ("R_A = R_kOF at extremes", `Quick, test_ra_matches_rkof_extremes);
      ("R_A strict refinement at k=2", `Quick, test_ra_strict_refinement_k2);
      ("Def 9 variants differ", `Quick, test_ra_variants_differ);
      ("R_A(1-res) = R_tres", `Quick, test_ra_1res_equals_rtres);
      ("R_A facet counts (Fig 7)", `Quick, test_ra_fig7);
      ("R_A of wait-free is Chr^2 s", `Quick, test_ra_wait_free_full);
      ("R_A seed fingerprints (both variants)", `Quick, test_ra_seed_fingerprints);
      ("R_A memo stability", `Quick, test_ra_memo_stability);
      ("R_A memo shared by equal alpha", `Quick, test_ra_memo_shared_by_equal_alpha);
      ("affine task API", `Quick, test_affine_task_api);
      ("affine task validation", `Quick, test_affine_task_validation);
      ("affine task composition", `Quick, test_affine_compose);
      ("µ_Q validity (Property 9)", `Quick, test_mu_validity);
      ("µ_Q agreement (Property 10)", `Quick, test_mu_agreement);
      ("µ_Q robustness (Property 12)", `Quick, test_mu_robustness);
      ("µ_Q errors", `Quick, test_mu_errors);
      ("link-connectivity of affine tasks (§8)", `Quick,
       test_link_connectivity_of_affine_tasks);
      ("report kernels = reference definitions", `Quick,
       test_report_kernels_match_reference);
      ("ra payloads pinned (48 fair adversaries)", `Quick, test_ra_payloads_pinned);
      QCheck_alcotest.to_alcotest prop_cont2_inclusion_closed;
      QCheck_alcotest.to_alcotest prop_ra_facets_pass_their_own_check;
      QCheck_alcotest.to_alcotest prop_mu_agreement_random_adversary;
    ]
