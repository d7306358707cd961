(* Tests for the combinatorial-topology substrate: process sets, ordered
   partitions (IS runs), simplices, complexes and the standard chromatic
   subdivision. *)

open Fact_topology

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pset                                                               *)
(* ------------------------------------------------------------------ *)

let test_pset_basics () =
  let s = Pset.of_list [ 0; 2; 5 ] in
  check "cardinal" 3 (Pset.cardinal s);
  check_bool "mem 2" true (Pset.mem 2 s);
  check_bool "mem 1" false (Pset.mem 1 s);
  check "min" 0 (Pset.min_elt s);
  check "max" 5 (Pset.max_elt s);
  Alcotest.(check (list int)) "to_list" [ 0; 2; 5 ] (Pset.to_list s);
  check_bool "subset" true (Pset.subset (Pset.of_list [ 0; 5 ]) s);
  check_bool "proper" true (Pset.proper_subset (Pset.of_list [ 0 ]) s);
  check_bool "not proper self" false (Pset.proper_subset s s)

let test_pset_algebra () =
  let a = Pset.of_list [ 0; 1 ] and b = Pset.of_list [ 1; 2 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ] (Pset.to_list (Pset.union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] (Pset.to_list (Pset.inter a b));
  Alcotest.(check (list int)) "diff" [ 0 ] (Pset.to_list (Pset.diff a b));
  check_bool "disjoint" true (Pset.disjoint (Pset.singleton 0) (Pset.singleton 1))

let test_pset_subsets () =
  let s = Pset.full 3 in
  check "subset count" 8 (List.length (Pset.subsets s));
  check "nonempty" 7 (List.length (Pset.nonempty_subsets s));
  check "card-2 subsets" 3 (List.length (Pset.subsets_of_card 2 s));
  (* the empty set comes first *)
  check_bool "first empty" true
    (Pset.is_empty (List.hd (Pset.subsets s)))

let test_pset_errors () =
  Alcotest.check_raises "full too big" (Invalid_argument "Pset.full: bad universe size 63")
    (fun () -> ignore (Pset.full 63));
  Alcotest.check_raises "min_elt empty" Not_found (fun () ->
      ignore (Pset.min_elt Pset.empty))

let pset_gen =
  QCheck.map
    (fun m -> Pset.of_mask (m land ((1 lsl 16) - 1)))
    QCheck.(map abs int)

let prop_pset_fold_cardinal =
  QCheck.Test.make ~name:"pset fold counts cardinal" ~count:200 pset_gen
    (fun s -> Pset.fold (fun _ acc -> acc + 1) s 0 = Pset.cardinal s)

let prop_pset_subsets_count =
  QCheck.Test.make ~name:"pset subsets number 2^k" ~count:50
    (QCheck.map (fun m -> Pset.of_mask (m land 0xff)) QCheck.(map abs int))
    (fun s -> List.length (Pset.subsets s) = 1 lsl Pset.cardinal s)

(* ------------------------------------------------------------------ *)
(* Opart                                                              *)
(* ------------------------------------------------------------------ *)

let test_fubini () =
  List.iteri
    (fun n expected -> check (Printf.sprintf "fubini %d" n) expected (Opart.fubini n))
    [ 1; 1; 3; 13; 75 ];
  check "fubini 18 exact" 3385534663256845323 (Opart.fubini 18);
  (match Opart.fubini 19 with
  | v -> Alcotest.failf "fubini 19 overflowed to %d" v
  | exception Fact_resilience.Fact_error.Error
      (Fact_resilience.Fact_error.Precondition _) -> ());
  for n = 0 to 6 do
    check
      (Printf.sprintf "fubini %d = |enumerate|" n)
      (List.length (Opart.enumerate (Pset.full n)))
      (Opart.fubini n)
  done

let test_opart_views () =
  (* Ordered run {p1},{p0},{p2} from Figure 3a (relabeled to 0-based). *)
  let run =
    Opart.make [ Pset.singleton 1; Pset.singleton 0; Pset.singleton 2 ]
  in
  Alcotest.(check (list int)) "view p1" [ 1 ] (Pset.to_list (Opart.view run 1));
  Alcotest.(check (list int)) "view p0" [ 0; 1 ] (Pset.to_list (Opart.view run 0));
  Alcotest.(check (list int)) "view p2" [ 0; 1; 2 ] (Pset.to_list (Opart.view run 2));
  check_bool "views valid" true (Opart.is_valid_views (Opart.views run))

let test_opart_sync () =
  (* Synchronous run {p0,p1,p2} from Figure 3b. *)
  let run = Opart.make [ Pset.full 3 ] in
  List.iter
    (fun p ->
      Alcotest.(check (list int))
        (Printf.sprintf "sync view p%d" p)
        [ 0; 1; 2 ]
        (Pset.to_list (Opart.view run p)))
    [ 0; 1; 2 ]

let test_opart_invalid_views () =
  (* Violates containment: views {0} and {1} are incomparable. *)
  check_bool "incomparable views invalid" false
    (Opart.is_valid_views [ (0, Pset.singleton 0); (1, Pset.singleton 1) ]);
  (* Violates immediacy: p0 sees p1 but p1's view is not included. *)
  check_bool "immediacy violation invalid" false
    (Opart.is_valid_views
       [ (0, Pset.of_list [ 0; 1 ]); (1, Pset.of_list [ 0; 1; 2 ]);
         (2, Pset.of_list [ 0; 1; 2 ]) ])

let test_opart_make_errors () =
  Alcotest.check_raises "empty block" (Invalid_argument "Opart.make: empty block")
    (fun () -> ignore (Opart.make [ Pset.empty ]));
  Alcotest.check_raises "overlap" (Invalid_argument "Opart.make: overlapping blocks")
    (fun () -> ignore (Opart.make [ Pset.singleton 0; Pset.of_list [ 0; 1 ] ]))

let opart_gen n =
  let all = Opart.enumerate (Pset.full n) in
  QCheck.map (fun i -> List.nth all (i mod List.length all)) QCheck.(map abs small_int)

let prop_opart_views_valid =
  QCheck.Test.make ~name:"every ordered partition yields valid IS views"
    ~count:200 (opart_gen 4)
    (fun run -> Opart.is_valid_views (Opart.views run))

let prop_opart_random_valid =
  QCheck.Test.make ~name:"random ordered partitions are valid (n=10)"
    ~count:200 QCheck.(map abs int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let run = Opart.random st (Pset.full 10) in
      Pset.equal (Opart.support run) (Pset.full 10)
      && Opart.is_valid_views (Opart.views run))

let prop_opart_roundtrip =
  QCheck.Test.make ~name:"of_views inverts views" ~count:200 (opart_gen 4)
    (fun run ->
      match Opart.of_views (Opart.views run) with
      | Some run' -> Opart.equal run run'
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Simplex                                                            *)
(* ------------------------------------------------------------------ *)

let s3 = Chr.standard 3

let test_simplex_basics () =
  let f = List.hd (Complex.facets s3) in
  check "dim" 2 (Simplex.dim f);
  Alcotest.(check (list int)) "colors" [ 0; 1; 2 ] (Pset.to_list (Simplex.colors f));
  check "faces" 7 (List.length (Simplex.faces f));
  check "proper faces" 6 (List.length (Simplex.proper_faces f));
  let r = Simplex.restrict f (Pset.of_list [ 0; 2 ]) in
  check "restrict dim" 1 (Simplex.dim r);
  check_bool "restrict subset" true (Simplex.subset r f)

let test_simplex_color_clash () =
  Alcotest.check_raises "color clash"
    (Invalid_argument "Simplex.make: two vertices share a color") (fun () ->
      ignore (Simplex.make [ Vertex.input 0 0; Vertex.input 0 1 ]))

let test_simplex_union_diff () =
  let f = List.hd (Complex.facets s3) in
  let a = Simplex.restrict f (Pset.of_list [ 0 ])
  and b = Simplex.restrict f (Pset.of_list [ 1; 2 ]) in
  check_bool "union = facet" true (Simplex.equal (Simplex.union a b) f);
  check_bool "diff" true
    (Simplex.equal (Simplex.diff f b) a);
  check "inter empty" 0 (Simplex.card (Simplex.inter a b))

(* ------------------------------------------------------------------ *)
(* Chr                                                                *)
(* ------------------------------------------------------------------ *)

let chr1 = Chr.subdivide s3
let chr2 = Chr.subdivide chr1

let test_chr_facets_n3 () =
  (* Figure 1a: Chr s for 3 processes has 13 facets (ordered
     partitions) and 12 vertices. *)
  check "Chr s facets" 13 (Complex.facet_count chr1);
  check "Chr s vertices" 12 (List.length (Complex.vertices chr1));
  check_bool "pure dim 2" true (Complex.is_pure_of_dim 2 chr1)

let test_chr2_facets_n3 () =
  check "Chr^2 s facets" 169 (Complex.facet_count chr2);
  check_bool "pure dim 2" true (Complex.is_pure_of_dim 2 chr2)

let test_chr_facets_n4 () =
  let c = Chr.subdivide (Chr.standard 4) in
  check "Chr s (n=4) facets" 75 (Complex.facet_count c);
  check_bool "pure dim 3" true (Complex.is_pure_of_dim 3 c)

let test_chr_euler () =
  (* |Chr^m s| is homeomorphic to a disk: Euler characteristic 1. *)
  check "euler s" 1 (Complex.euler_characteristic s3);
  check "euler Chr s" 1 (Complex.euler_characteristic chr1);
  check "euler Chr^2 s" 1 (Complex.euler_characteristic chr2);
  check "euler Chr s n=4" 1
    (Complex.euler_characteristic (Chr.subdivide (Chr.standard 4)))

let test_chr_all_simplices_valid () =
  List.iter
    (fun s -> check_bool "IS conditions" true (Chr.is_simplex_of_chr s))
    (Complex.all_simplices chr1)

let test_chr_run_roundtrip () =
  let tau = List.hd (Complex.facets s3) in
  List.iter
    (fun run ->
      let facet = Chr.facet_of_run tau run in
      check_bool "roundtrip" true (Opart.equal run (Chr.run_of_facet facet)))
    (Opart.enumerate (Pset.full 3))

let test_chr_carrier () =
  (* The carrier of a facet of Chr s is the whole simplex s; the
     carrier of the solo vertex (p, {p}) is the p-corner. *)
  let tau = List.hd (Complex.facets s3) in
  let run = Opart.make [ Pset.singleton 0; Pset.of_list [ 1; 2 ] ] in
  let facet = Chr.facet_of_run tau run in
  check_bool "facet carrier = s" true (Simplex.equal (Chr.carrier facet) tau);
  let v0 = Option.get (Simplex.find_color 0 facet) in
  Alcotest.(check (list int)) "solo base carrier" [ 0 ]
    (Pset.to_list (Vertex.base_carrier v0));
  let v2 = Option.get (Simplex.find_color 2 facet) in
  Alcotest.(check (list int)) "late base carrier" [ 0; 1; 2 ]
    (Pset.to_list (Vertex.base_carrier v2))

let test_chr_carrier_composition () =
  (* carrier(σ, s) = carrier(carrier(σ, Chr s), s) for σ ∈ Chr² s. *)
  List.iter
    (fun sigma ->
      let direct = Simplex.base_carrier sigma in
      let via = Simplex.base_carrier (Simplex.carrier sigma) in
      check_bool "carrier composes" true (Pset.equal direct via))
    (Complex.facets chr2)

let test_streaming_closure_kernel () =
  (* The streaming face kernel must agree with the materialized
     closure on cold complexes: same face set, count, Euler
     characteristic and skeletons, each face emitted exactly once. *)
  List.iter
    (fun n ->
      let cold () =
        Complex.of_facets ~n (Complex.facets (Chr.standard_iterated ~m:2 ~n))
      in
      let reference = Simplex.Set.of_list (Complex.all_simplices (cold ())) in
      let streamed, emissions =
        Complex.fold_faces (cold ()) ~init:(Simplex.Set.empty, 0)
          ~f:(fun (acc, k) ~card:_ ~face ->
            (Simplex.Set.add (face ()) acc, k + 1))
      in
      check_bool
        (Printf.sprintf "streamed faces = closure (n=%d)" n)
        true
        (Simplex.Set.equal streamed reference);
      check
        (Printf.sprintf "each face exactly once (n=%d)" n)
        (Simplex.Set.cardinal reference)
        emissions;
      check
        (Printf.sprintf "streaming count (n=%d)" n)
        (Simplex.Set.cardinal reference)
        (Complex.simplex_count (cold ()));
      let euler_ref =
        Simplex.Set.fold
          (fun s acc -> if Simplex.dim s mod 2 = 0 then acc + 1 else acc - 1)
          reference 0
      in
      check
        (Printf.sprintf "streaming euler (n=%d)" n)
        euler_ref
        (Complex.euler_characteristic (cold ()));
      (* card slice: dimension-1 faces only *)
      let edges_ref =
        Simplex.Set.cardinal (Simplex.Set.filter (fun s -> Simplex.dim s = 1) reference)
      in
      check
        (Printf.sprintf "card slice (n=%d)" n)
        edges_ref
        (Complex.fold_faces ~min_card:2 ~max_card:2 (cold ()) ~init:0
           ~f:(fun acc ~card:_ ~face:_ -> acc + 1));
      (* skeletons match the filtered-closure construction *)
      List.iter
        (fun k ->
          let skel_ref =
            Complex.of_facets ~n
              (List.filter
                 (fun s -> Simplex.dim s <= k)
                 (Complex.all_simplices (cold ())))
          in
          check_bool
            (Printf.sprintf "skeleton %d (n=%d)" k n)
            true
            (Complex.equal (Complex.skeleton k (cold ())) skel_ref))
        [ 0; 1; 2 ])
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Face_set (off-heap dedup table)                                    *)
(* ------------------------------------------------------------------ *)

let test_face_set_packed_boundaries () =
  (* each packed class's vid budget, straddled: the last packable vid
     on one side, the first spilling vid (general table) on the other *)
  List.iter
    (fun (card, vid) ->
      check_bool (Printf.sprintf "card %d vid %d packs" card vid) true
        (Face_set.packable ~card ~max_vid:vid);
      check_bool (Printf.sprintf "card %d vid %d spills" card (vid + 1)) false
        (Face_set.packable ~card ~max_vid:(vid + 1));
      let mk last =
        Array.init card (fun i -> if i = card - 1 then last else i)
      in
      check_bool
        (Printf.sprintf "pack nonzero (card %d)" card)
        true
        (Face_set.pack (mk vid) ~len:card > 0);
      check (Printf.sprintf "pack zero past limit (card %d)" card) 0
        (Face_set.pack (mk (vid + 1)) ~len:card))
    [ (1, 0x7ffe); (4, 0x7ffe); (5, 0xffe); (6, 0x3fe) ];
  check_bool "card 7 never packs" false (Face_set.packable ~card:7 ~max_vid:0);
  (* keys on both sides of the boundary coexist, dedup independently,
     and land in the right table *)
  let t = Face_set.create ~size:4 () in
  let k1 = Array.init 4 (fun i -> if i = 3 then 0x7ffe else i) in
  let k2 = Array.init 4 (fun i -> if i = 3 then 0x7fff else i) in
  check_bool "fresh packed" false (Face_set.mem_or_add t k1 ~len:4);
  check_bool "dup packed" true (Face_set.mem_or_add t k1 ~len:4);
  check_bool "fresh heap" false (Face_set.mem_or_add t k2 ~len:4);
  check_bool "dup heap" true (Face_set.mem_or_add t k2 ~len:4);
  check "packed count" 1 (Face_set.packed_count t);
  check "heap count" 1 (Face_set.heap_count t);
  check "count" 2 (Face_set.count t);
  Face_set.release t

let test_face_set_tiny_growth_fuzz () =
  (* force growth from the smallest capacity through many doublings
     (no tombstones: every verdict must survive rehashing); a
     reference Hashtbl adjudicates every fresh/dup answer. Vid ranges
     straddle all three packed classes and the general table. *)
  let t = Face_set.create ~size:1 () in
  let start_cap = Face_set.packed_capacity t in
  let seen = Hashtbl.create 64 in
  let state = ref 123456789 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod m
  in
  let scratch = Array.make 8 0 in
  let disagreements = ref 0 in
  for _ = 1 to 5000 do
    let card = 1 + rand 8 in
    let limit = [| 6; 0x7fff + 2; 0xfff + 2; 0x3ff + 2 |].(rand 4) in
    let v = ref (rand limit) in
    for i = 0 to card - 1 do
      scratch.(i) <- !v;
      v := !v + 1 + rand (max 1 (limit / 8))
    done;
    let key = Array.sub scratch 0 card in
    let dup_ref = Hashtbl.mem seen key in
    Hashtbl.replace seen key ();
    if Face_set.mem_or_add t scratch ~len:card <> dup_ref then
      incr disagreements
  done;
  check "verdicts agree with reference" 0 !disagreements;
  check "count = reference" (Hashtbl.length seen) (Face_set.count t);
  check "packed + heap = count" (Face_set.count t)
    (Face_set.packed_count t + Face_set.heap_count t);
  check_bool "packed table grew" true
    (Face_set.packed_capacity t > start_cap);
  Face_set.release t

let test_restrict_colors () =
  (* Chr(∂-face) appears as the restriction of Chr s to the face's
     colors: for a 1-face it is a path of 3 edges (3 facets). *)
  let edge = Complex.restrict_colors (Pset.of_list [ 0; 1 ]) chr1 in
  check "edge subdivision facets" 3 (Complex.facet_count edge);
  check_bool "pure dim 1" true (Complex.is_pure_of_dim 1 edge);
  check "euler" 1 (Complex.euler_characteristic edge)

let test_skeleton_star_pc () =
  let skel0 = Complex.skeleton 0 chr1 in
  check "0-skeleton facets" 12 (Complex.facet_count skel0);
  (* Star of the central vertex (p0, s): all simplices containing it. *)
  let tau = List.hd (Complex.facets s3) in
  let central = Simplex.make [ Vertex.deriv 0 (Simplex.vertices tau) ] in
  let st = Complex.star [ central ] chr1 in
  check_bool "star nonempty" true (List.length st > 0);
  List.iter
    (fun s -> check_bool "star member contains v" true
        (Simplex.subset central s))
    st;
  (* Pc of the corner vertices: facets not touching any corner. *)
  let corners =
    List.map
      (fun p -> Simplex.make [ Vertex.deriv p [ Vertex.base p ] ])
      [ 0; 1; 2 ]
  in
  let pc = Complex.pure_complement corners chr1 in
  check_bool "Pc pure" true (Complex.is_pure_of_dim 2 pc);
  (* Exactly the facets of runs whose first block is not a singleton
     seeing only itself: runs starting with a solo block touch a
     corner. 13 runs, 6 of them start with a singleton block
     ({pi} first: 3 choices × 3 orderings of the rest... enumerated:
     for each of 3 solo starters there are 3 completions, plus the
     3-way sync run and runs starting with a pair. Count those with
     solo first block: 3 × fubini(2) = 9? No: the corner vertex is
     (p,{p}), contained in facets whose run has first block {p}. Runs
     with first block a fixed singleton: fubini(2) = 3, so 9 runs
     touch a corner; 13 − 9 = 4 remain. *)
  check "Pc facet count" 4 (Complex.facet_count pc)

let test_complex_mem_union () =
  let f1 = List.nth (Complex.facets chr1) 0 in
  let c1 = Complex.of_facets ~n:3 [ f1 ] in
  check_bool "facet mem" true (Complex.mem f1 chr1);
  check_bool "face mem" true
    (Complex.mem (List.hd (Simplex.proper_faces f1)) chr1);
  check_bool "subcomplex" true (Complex.subcomplex c1 chr1);
  check_bool "union idempotent" true
    (Complex.equal (Complex.union chr1 chr1) chr1)

let prop_chr2_simplices_valid =
  QCheck.Test.make ~name:"random faces of Chr^2 s satisfy IS conditions"
    ~count:300
    (QCheck.map
       (fun (i, mask) ->
         let fs = Complex.facets chr2 in
         let f = List.nth fs (abs i mod List.length fs) in
         Simplex.restrict f (Pset.of_mask (abs mask land 7)))
       QCheck.(pair int int))
    (fun s -> Simplex.is_empty s || Chr.is_simplex_of_chr s)

let prop_carrier_monotonic =
  QCheck.Test.make ~name:"base carrier is monotonic on faces" ~count:300
    (QCheck.map
       (fun (i, mask) ->
         let fs = Complex.facets chr2 in
         (List.nth fs (abs i mod List.length fs), Pset.of_mask (abs mask land 7)))
       QCheck.(pair int int))
    (fun (f, colors) ->
      let sub = Simplex.restrict f colors in
      Pset.subset (Simplex.base_carrier sub) (Simplex.base_carrier f))

(* ------------------------------------------------------------------ *)
(* Interned representation vs structural reference                    *)
(* ------------------------------------------------------------------ *)

(* Reference implementations over the plain vertex lists, ignoring all
   cached metadata (intern ids, color masks, hashes). The interned
   fast paths must agree with these. *)
let ref_mem v s = List.exists (Vertex.equal v) (Simplex.vertices s)
let ref_subset a b = List.for_all (fun v -> ref_mem v b) (Simplex.vertices a)

let ref_colors s =
  List.fold_left
    (fun acc v -> Pset.add (Vertex.proc v) acc)
    Pset.empty (Simplex.vertices s)

let ref_equal a b =
  List.length (Simplex.vertices a) = List.length (Simplex.vertices b)
  && ref_subset a b

let face_gen complex =
  (* A random face of a random facet, paired with a second one. *)
  QCheck.map
    (fun (i, m1, j, m2) ->
      let fs = Complex.facets complex in
      let pick i m =
        Simplex.restrict
          (List.nth fs (abs i mod List.length fs))
          (Pset.of_mask (abs m land 7))
      in
      (pick i m1, pick j m2))
    QCheck.(quad int int int int)

let interned_props name complex =
  [
    QCheck.Test.make ~name:(name ^ ": subset agrees with structural") ~count:300
      (face_gen complex)
      (fun (a, b) ->
        Simplex.subset a b = ref_subset a b
        && Simplex.subset b a = ref_subset b a);
    QCheck.Test.make ~name:(name ^ ": colors agree with structural") ~count:300
      (face_gen complex)
      (fun (a, b) ->
        Pset.equal (Simplex.colors a) (ref_colors a)
        && Pset.equal (Simplex.colors b) (ref_colors b));
    QCheck.Test.make ~name:(name ^ ": mem agrees with structural") ~count:300
      (face_gen complex)
      (fun (a, b) ->
        List.for_all (fun v -> Simplex.mem v b = ref_mem v b)
          (Simplex.vertices a));
    QCheck.Test.make
      ~name:(name ^ ": compare = 0 iff structurally equal") ~count:300
      (face_gen complex)
      (fun (a, b) ->
        (Simplex.compare a b = 0) = ref_equal a b
        && Simplex.compare a a = 0
        (* antisymmetry of the hash-primary order *)
        && compare (Simplex.compare a b) 0 = compare 0 (Simplex.compare b a));
  ]

let test_simplex_duplicate_vertex () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Simplex.make: duplicate vertex") (fun () ->
      ignore (Simplex.make [ Vertex.base 0; Vertex.base 0 ]))

let test_of_chr_pairs_equals_make () =
  (* The fast constructor used by Chr agrees with the generic one on
     every run of the standard 3-simplex. *)
  let tau = List.hd (Complex.facets s3) in
  List.iter
    (fun run ->
      let pairs =
        List.map
          (fun (p, view) -> (p, Simplex.restrict tau view))
          (Opart.views run)
      in
      let fast = Simplex.of_chr_pairs pairs in
      let slow =
        Simplex.make
          (List.map
             (fun (p, car) -> Vertex.deriv p (Simplex.vertices car))
             pairs)
      in
      check_bool "of_chr_pairs = make" true (Simplex.equal fast slow);
      check "compare 0" 0 (Simplex.compare fast slow))
    (Opart.enumerate (Pset.full 3))

let test_chr2_facets_n4 () =
  (* 75 facets of Chr s (n=4), each subdividing into 75: 5625. *)
  let c = Chr.standard_iterated ~m:2 ~n:4 in
  check "Chr^2 s (n=4) facets" 5625 (Complex.facet_count c);
  check_bool "pure dim 3" true (Complex.is_pure_of_dim 3 c)

(* ------------------------------------------------------------------ *)
(* Parallel                                                           *)
(* ------------------------------------------------------------------ *)

let test_parallel_sequential_identity () =
  (* domains <= 1 must be literally List.map. *)
  let xs = List.init 100 Fun.id in
  let f x = (x * 7919) mod 101 in
  check_bool "map" true (Parallel.map ~domains:1 f xs = List.map f xs);
  check_bool "map domains=0" true (Parallel.map ~domains:0 f xs = List.map f xs);
  check_bool "concat_map" true
    (Parallel.concat_map ~domains:1 (fun x -> [ x; -x ]) xs
    = List.concat_map (fun x -> [ x; -x ]) xs);
  check_bool "empty" true (Parallel.map ~domains:4 f [] = [])

let test_parallel_domain_independence () =
  let xs = List.init 37 Fun.id in
  let f x = (x * 7919) mod 101 in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "map %d domains" d)
        true
        (Parallel.map ~domains:d f xs = List.map f xs);
      check_bool
        (Printf.sprintf "concat_map %d domains" d)
        true
        (Parallel.concat_map ~domains:d (fun x -> [ x; x + 1 ]) xs
        = List.concat_map (fun x -> [ x; x + 1 ]) xs))
    [ 2; 3; 4; 8; 64 ];
  (* map_init: the per-worker context is scratch space; for an [f]
     pure modulo the context the output matches List.map. *)
  check_bool "map_init" true
    (Parallel.map_init ~domains:3
       (fun () -> Buffer.create 16)
       (fun buf x ->
         Buffer.clear buf;
         Buffer.add_string buf (string_of_int (f x));
         int_of_string (Buffer.contents buf))
       xs
    = List.map f xs)

let test_parallel_subdivision_independent_of_domains () =
  (* The topological pipeline must produce identical complexes — and
     identical facet orders — whatever the domain count. *)
  let seq = Chr.iterate 2 (Chr.standard 3) in
  let saved = Parallel.default_domains () in
  Parallel.set_default_domains 4;
  let par = Chr.iterate 2 (Chr.standard 3) in
  Parallel.set_default_domains saved;
  check_bool "complex equal" true (Complex.equal seq par);
  check_bool "facet order equal" true
    (List.equal Simplex.equal (Complex.facets seq) (Complex.facets par))

(* ------------------------------------------------------------------ *)
(* Sperner labelings                                                  *)
(* ------------------------------------------------------------------ *)

let test_sperner_chromatic_labeling () =
  (* The coloring χ itself is a Sperner labeling, and every facet is
     rainbow: 13 (odd, as the lemma demands). *)
  check_bool "chi is sperner" true
    (Sperner.is_sperner_labeling chr1 Vertex.proc);
  check "all facets rainbow" 13 (Sperner.rainbow_facets chr1 Vertex.proc);
  check_bool "lemma" true (Sperner.lemma_holds chr1 Vertex.proc)

let test_sperner_constant_on_corner () =
  (* Labeling every vertex by the smallest process it saw is Sperner;
     the lemma still finds an odd number of rainbow facets. *)
  let labeling v = Pset.min_elt (Vertex.base_carrier v) in
  check_bool "sperner" true (Sperner.is_sperner_labeling chr2 labeling);
  check_bool "odd rainbow count" true (Sperner.lemma_holds chr2 labeling)

let prop_sperner_lemma =
  QCheck.Test.make ~name:"Sperner's lemma on Chr and Chr^2 (random labelings)"
    ~count:150
    QCheck.(pair (map abs int) bool)
    (fun (seed, deep) ->
      let k = if deep then chr2 else chr1 in
      let labeling = Sperner.random_labeling ~seed k in
      Sperner.is_sperner_labeling k labeling && Sperner.lemma_holds k labeling)

let prop_sperner_lemma_n4 =
  QCheck.Test.make ~name:"Sperner's lemma on Chr s (n=4)" ~count:30
    QCheck.(map abs int)
    (fun seed ->
      let k = Chr.subdivide (Chr.standard 4) in
      let labeling = Sperner.random_labeling ~seed k in
      Sperner.lemma_holds k labeling)

(* ------------------------------------------------------------------ *)
(* Links                                                              *)
(* ------------------------------------------------------------------ *)

let test_link_basics () =
  (* In Chr s, the link of the central vertex (p0, s) is the cycle of
     simplices around it — connected; the link of a corner vertex
     (p0, {p0}) is the opposite arc — also connected. *)
  let tau = List.hd (Complex.facets s3) in
  let central = Simplex.of_vertex (Vertex.deriv 0 (Simplex.vertices tau)) in
  let lk = Link.link central chr1 in
  check_bool "central link nonempty" true (not (Complex.is_empty lk));
  check_bool "central link connected" true (Link.is_connected lk);
  check_bool "Chr s link-connected" true (Link.is_link_connected chr1);
  check_bool "Chr^2 s link-connected" true (Link.is_link_connected chr2)

let test_link_of_missing_simplex () =
  let foreign = Simplex.of_vertex (Vertex.base 0) in
  check_bool "empty" true (Complex.is_empty (Link.link foreign chr1))

(* ------------------------------------------------------------------ *)
(* Geometric realization (Appendix A)                                 *)
(* ------------------------------------------------------------------ *)

let close a b = abs_float (a -. b) < 1e-9

let test_geometry_coords () =
  (* Corner vertex (0, {0}) realizes at the corner x_0; the central
     vertex (0, s) at (1/5, 2/5, 2/5) for n = 3 (k = 3 in the Appendix
     formula). *)
  let corner = Vertex.deriv 0 [ Vertex.base 0 ] in
  Alcotest.(check (array (float 1e-9))) "corner" [| 1.0; 0.0; 0.0 |]
    (Geometry.coords ~n:3 corner);
  let tau = List.hd (Complex.facets s3) in
  let central = Vertex.deriv 0 (Simplex.vertices tau) in
  Alcotest.(check (array (float 1e-9))) "central" [| 0.2; 0.4; 0.4 |]
    (Geometry.coords ~n:3 central);
  (* Edge midpoint-ish vertex (0, {0,1}): 1/3 x0 + 2/3 x1. *)
  let edge = Vertex.deriv 0 [ Vertex.base 0; Vertex.base 1 ] in
  Alcotest.(check (array (float 1e-9))) "edge" [| 1. /. 3.; 2. /. 3.; 0.0 |]
    (Geometry.coords ~n:3 edge)

let test_geometry_subdivision_volumes () =
  (* Chr is a subdivision: the geometric facets tile |s|. *)
  check_bool "vol Chr s = 1" true (close 1.0 (Geometry.total_volume chr1));
  check_bool "vol Chr^2 s = 1" true (close 1.0 (Geometry.total_volume chr2));
  check_bool "vol Chr s (n=4) = 1" true
    (close 1.0 (Geometry.total_volume (Chr.subdivide (Chr.standard 4))));
  (* The central triangle of Chr s occupies 1/25 of |s|. *)
  let tau = List.hd (Complex.facets s3) in
  let central =
    Simplex.make
      (List.map (fun p -> Vertex.deriv p (Simplex.vertices tau)) [ 0; 1; 2 ])
  in
  check_bool "central volume 1/25" true
    (close 0.04 (Geometry.volume_fraction ~n:3 central))

let test_geometry_positive_facets () =
  List.iter
    (fun f ->
      check_bool "positive volume" true
        (Geometry.volume_fraction ~n:3 f > 1e-9))
    (Complex.facets chr2)

let test_geometry_degenerate () =
  let tau = List.hd (Complex.facets s3) in
  check_bool "low-dim is 0" true
    (Geometry.volume_fraction ~n:3 (Simplex.restrict tau (Pset.of_list [ 0; 1 ]))
     = 0.0);
  let b = Geometry.barycenter [ [| 1.0; 0.0 |]; [| 0.0; 1.0 |] ] in
  Alcotest.(check (array (float 1e-9))) "barycenter" [| 0.5; 0.5 |] b

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("pset basics", `Quick, test_pset_basics);
    ("pset algebra", `Quick, test_pset_algebra);
    ("pset subsets", `Quick, test_pset_subsets);
    ("pset errors", `Quick, test_pset_errors);
    ("fubini numbers", `Quick, test_fubini);
    ("opart views (Fig 3a)", `Quick, test_opart_views);
    ("opart sync run (Fig 3b)", `Quick, test_opart_sync);
    ("opart invalid views", `Quick, test_opart_invalid_views);
    ("opart make errors", `Quick, test_opart_make_errors);
    ("simplex basics", `Quick, test_simplex_basics);
    ("simplex color clash", `Quick, test_simplex_color_clash);
    ("simplex union/diff/inter", `Quick, test_simplex_union_diff);
    ("Chr s n=3 counts (Fig 1a)", `Quick, test_chr_facets_n3);
    ("Chr^2 s n=3 counts", `Quick, test_chr2_facets_n3);
    ("Chr s n=4 counts", `Quick, test_chr_facets_n4);
    ("Euler characteristic of subdivisions", `Quick, test_chr_euler);
    ("Chr simplices satisfy IS conditions", `Quick, test_chr_all_simplices_valid);
    ("run/facet roundtrip", `Quick, test_chr_run_roundtrip);
    ("carriers", `Quick, test_chr_carrier);
    ("carrier composition", `Quick, test_chr_carrier_composition);
    ("restrict to face colors", `Quick, test_restrict_colors);
    ("streaming closure kernel = materialized closure", `Quick,
     test_streaming_closure_kernel);
    ("face set: packed class boundaries", `Quick,
     test_face_set_packed_boundaries);
    ("face set: tiny-capacity growth fuzz", `Quick,
     test_face_set_tiny_growth_fuzz);
    ("skeleton, star, pure complement", `Quick, test_skeleton_star_pc);
    ("complex mem/union/subcomplex", `Quick, test_complex_mem_union);
    ("simplex duplicate vertex rejected", `Quick, test_simplex_duplicate_vertex);
    ("of_chr_pairs = make on all runs", `Quick, test_of_chr_pairs_equals_make);
    ("Chr^2 s n=4 counts", `Quick, test_chr2_facets_n4);
    ("parallel: sequential identity", `Quick, test_parallel_sequential_identity);
    ("parallel: domain independence", `Quick, test_parallel_domain_independence);
    ("parallel: subdivision independent of domains", `Quick,
     test_parallel_subdivision_independent_of_domains);
    qt prop_pset_fold_cardinal;
    qt prop_pset_subsets_count;
    qt prop_opart_views_valid;
    qt prop_opart_roundtrip;
    qt prop_opart_random_valid;
    ("sperner: chromatic labeling", `Quick, test_sperner_chromatic_labeling);
    ("sperner: min-seen labeling", `Quick, test_sperner_constant_on_corner);
    ("link basics", `Quick, test_link_basics);
    ("link of foreign simplex", `Quick, test_link_of_missing_simplex);
    ("geometry: vertex coordinates", `Quick, test_geometry_coords);
    ("geometry: subdivision volumes", `Quick, test_geometry_subdivision_volumes);
    ("geometry: facets non-degenerate", `Quick, test_geometry_positive_facets);
    ("geometry: degenerate cases", `Quick, test_geometry_degenerate);
    qt prop_chr2_simplices_valid;
    qt prop_carrier_monotonic;
  ]
  @ List.map qt (interned_props "Chr s" chr1)
  @ List.map qt (interned_props "Chr^2 s" chr2)
  @ [
    qt prop_sperner_lemma;
    qt prop_sperner_lemma_n4;
  ]
