open Fact_sexp
open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_check
open Fact_resilience

type adversary_spec = Preset of string | Live of int list list

type t =
  | Ra of { n : int; adv : adversary_spec }
  | Chr of { n : int; m : int }
  | Critical of { n : int; adv : adversary_spec }
  | Setcon of { n : int; adv : adversary_spec }
  | Fairness of { n : int; adv : adversary_spec }
  | Explore of { protocol : string; n : int; max_runs : int }

let endpoint = function
  | Ra _ -> "ra"
  | Chr _ -> "chr"
  | Critical _ -> "critical"
  | Setcon _ -> "setcon"
  | Fairness _ -> "fairness"
  | Explore _ -> "explore"

(* ------------------------------- sexp ----------------------------- *)

let adv_to_sexp = function
  | Preset p -> Sexp.List [ Sexp.Atom "preset"; Sexp.Atom p ]
  | Live ls ->
    Sexp.List
      [
        Sexp.Atom "live";
        Sexp.List (List.map (fun l -> Sexp.List (List.map Sexp.int l)) ls);
      ]

let to_sexp q =
  let field k v = Sexp.List [ Sexp.Atom k; v ] in
  let fields =
    match q with
    | Ra { n; adv } ->
      [ field "endpoint" (Sexp.Atom "ra"); field "n" (Sexp.int n);
        field "adv" (adv_to_sexp adv) ]
    | Chr { n; m } ->
      [ field "endpoint" (Sexp.Atom "chr"); field "n" (Sexp.int n);
        field "m" (Sexp.int m) ]
    | Critical { n; adv } ->
      [ field "endpoint" (Sexp.Atom "critical"); field "n" (Sexp.int n);
        field "adv" (adv_to_sexp adv) ]
    | Setcon { n; adv } ->
      [ field "endpoint" (Sexp.Atom "setcon"); field "n" (Sexp.int n);
        field "adv" (adv_to_sexp adv) ]
    | Fairness { n; adv } ->
      [ field "endpoint" (Sexp.Atom "fairness"); field "n" (Sexp.int n);
        field "adv" (adv_to_sexp adv) ]
    | Explore { protocol; n; max_runs } ->
      [ field "endpoint" (Sexp.Atom "explore");
        field "protocol" (Sexp.Atom protocol); field "n" (Sexp.int n);
        field "max-runs" (Sexp.int max_runs) ]
  in
  Sexp.List fields

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let adv_of_sexp = function
  | Sexp.List [ Sexp.Atom "preset"; Sexp.Atom p ] -> Ok (Preset p)
  | Sexp.List [ Sexp.Atom "live"; Sexp.List ls ] ->
    let block = function
      | Sexp.List b -> Sexp.map_result Sexp.to_int b
      | Sexp.Atom _ -> Error "bad live set: expected a list of process ids"
    in
    let* ls = Sexp.map_result block ls in
    Ok (Live ls)
  | _ -> Error "bad adversary: expected (preset NAME) or (live ((..) ..))"

let of_sexp sx =
  let* ep = Sexp.assoc "endpoint" sx in
  let* ep = Sexp.to_atom ep in
  let int_field k =
    let* v = Sexp.assoc k sx in
    Sexp.to_int v
  in
  let adv_field () =
    let* v = Sexp.assoc "adv" sx in
    adv_of_sexp v
  in
  match ep with
  | "ra" ->
    let* n = int_field "n" in
    let* adv = adv_field () in
    Ok (Ra { n; adv })
  | "chr" ->
    let* n = int_field "n" in
    let* m = int_field "m" in
    Ok (Chr { n; m })
  | "critical" ->
    let* n = int_field "n" in
    let* adv = adv_field () in
    Ok (Critical { n; adv })
  | "setcon" ->
    let* n = int_field "n" in
    let* adv = adv_field () in
    Ok (Setcon { n; adv })
  | "fairness" ->
    let* n = int_field "n" in
    let* adv = adv_field () in
    Ok (Fairness { n; adv })
  | "explore" ->
    let* protocol = Sexp.assoc "protocol" sx in
    let* protocol = Sexp.to_atom protocol in
    let* n = int_field "n" in
    let* max_runs = int_field "max-runs" in
    Ok (Explore { protocol; n; max_runs })
  | ep -> Error (Printf.sprintf "unknown endpoint %S" ep)

(* --------------------------- evaluation --------------------------- *)

let fail fmt = Printf.ksprintf (Fact_error.precondition ~fn:"Query.eval") fmt

(* A preset's live sets are the subsets of [{0..n-1}] whose size lies
   in [lo..hi]: [Σ C(n, k)] of them, counted before any is built (over
   one Pascal row that saturates just above the bound, so no
   overflow). *)
let max_live_sets = 1 lsl 20

let bounded_preset ~n p ~lo ~hi build =
  if n < 0 || n > Pset.max_processes then
    fail "preset %s needs 0 <= n <= %d, got n = %d" p Pset.max_processes n;
  let cap = max_live_sets + 1 in
  let row = Array.make (n + 1) 0 in
  row.(0) <- 1;
  for i = 1 to n do
    for k = i downto 1 do
      row.(k) <- min cap (row.(k) + row.(k - 1))
    done
  done;
  let count = ref 0 in
  for k = lo to hi do
    count := min cap (!count + row.(k))
  done;
  if !count > max_live_sets then
    fail "preset %s at n = %d has more than %d live sets" p n max_live_sets;
  build ()

let adversary ~n = function
  | Preset p -> (
    match String.split_on_char ':' p with
    | [ "wait-free" ] ->
      bounded_preset ~n p ~lo:1 ~hi:n (fun () -> Adversary.wait_free n)
    | [ "fig5b" ] -> Adversary.fig5b
    | [ "t-res"; t ] -> (
      match int_of_string_opt t with
      | Some t when t >= 0 && t < n ->
        bounded_preset ~n p ~lo:(n - t) ~hi:n (fun () ->
            Adversary.t_resilient ~n ~t)
      | Some t -> fail "t-res:%d needs 0 <= t < n = %d" t n
      | None -> fail "bad t-res parameter %S" t)
    | [ "k-of"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 && k <= n ->
        bounded_preset ~n p ~lo:1 ~hi:k (fun () ->
            Adversary.k_obstruction_free ~n ~k)
      | Some k -> fail "k-of:%d needs 1 <= k <= n = %d" k n
      | None -> fail "bad k-of parameter %S" k)
    | _ -> fail "unknown preset %S" p)
  | Live [] -> fail "empty live-set list"
  | Live ls -> (
    match Adversary.make ~n (List.map Pset.of_list ls) with
    | a -> a
    | exception (Invalid_argument m | Failure m) -> fail "bad live sets: %s" m)

(* The complexes these endpoints build hold every face of [Chr^m s]:
   at most [fubini n ^ m] facets of [2^n] faces each. Beyond
   [max_faces] the build cannot finish in memory (on a 2 GB address
   space, [chr -n 5 -m 2] at 9.4M finishes and [chr -n 2 -m 14] at
   19.1M aborts), so it is refused before anything is allocated. *)
let max_faces = 1 lsl 24

let check_size ~n ~m =
  if n < 0 then fail "n must be >= 0";
  let too_big () =
    fail "n = %d, m = %d: Chr^%d s would exceed %d faces" n m m max_faces
  in
  (* [fubini] refuses n > 18 itself, so [2^n] cannot overflow below *)
  let f =
    match Opart.fubini n with
    | f -> f
    | exception Fact_error.Error _ -> too_big ()
  in
  let rec facets acc k =
    if k <= 0 then acc
    else if acc > max_faces / f then too_big ()
    else facets (acc * f) (k - 1)
  in
  if facets 1 m > max_faces lsr n then too_big ()

let render f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let eval_ra ~n ~adv ppf =
  let pf fmt = Format.fprintf ppf fmt in
  let a = adversary ~n adv in
  let task = Ra.of_adversary a in
  pf "adversary: %a@." Adversary.pp a;
  pf "R_A: %a@." Affine_task.pp_stats task;
  let c = Affine_task.complex task in
  pf "facets: %d  simplices: %d  euler characteristic: %d@."
    (Complex.facet_count c) (Complex.simplex_count c)
    (Complex.euler_characteristic c);
  pf "volume fraction of |Chr^2 s|: %.4f@." (Geometry.total_volume c);
  pf "link-connected: %b@." (Link.is_link_connected c);
  List.iter
    (fun p ->
      let d = Affine_task.delta task p in
      pf "delta(%a): %d facets@." Pset.pp p (Complex.facet_count d))
    (Pset.nonempty_subsets (Pset.full (Adversary.n a)))

let eval_chr ~n ~m ppf =
  let pf fmt = Format.fprintf ppf fmt in
  if m < 0 then fail "chr: m must be >= 0";
  let c = Chr.iterate m (Chr.standard n) in
  pf "Chr^%d s (n=%d): %a@." m n Complex.pp_stats c;
  pf "simplices: %d  euler characteristic: %d@." (Complex.simplex_count c)
    (Complex.euler_characteristic c)

let eval_critical ~n ~adv ppf =
  let pf fmt = Format.fprintf ppf fmt in
  let a = adversary ~n adv in
  let alpha = Agreement.of_adversary a in
  let chr1 = Chr.subdivide (Chr.standard n) in
  let crit = Critical.all_critical alpha chr1 in
  pf "adversary: %a@." Adversary.pp a;
  pf "critical simplices of Chr s: %d@." (List.length crit);
  List.iter
    (fun c ->
      pf "chi=%a carrier=%a power=%d@." Pset.pp (Simplex.colors c) Pset.pp
        (Simplex.base_carrier c)
        (Agreement.eval alpha (Simplex.base_carrier c)))
    crit

let eval_setcon ~n ~adv ppf =
  let pf fmt = Format.fprintf ppf fmt in
  let a = adversary ~n adv in
  pf "adversary: %a@." Adversary.pp a;
  pf "agreement power (setcon): %d@." (Setcon.setcon a);
  pf "minimal hitting set size (csize): %d@."
    (Hitting.csize (Adversary.live_sets a))

let eval_fairness ~n ~adv ppf =
  let pf fmt = Format.fprintf ppf fmt in
  let a = adversary ~n adv in
  pf "adversary: %a@." Adversary.pp a;
  pf "superset-closed: %b@.symmetric: %b@." (Adversary.is_superset_closed a)
    (Adversary.is_symmetric a);
  let fair = Fairness.is_fair a in
  pf "fair: %b@." fair;
  if not fair then
    List.iter
      (fun (p, q, got, expected) ->
        pf "violation: P=%a Q=%a setcon(A|P,Q)=%d expected %d@." Pset.pp p
          Pset.pp q got expected)
      (Fairness.violations a)

let eval_explore ~protocol ~n ~max_runs ppf =
  let pf fmt = Format.fprintf ppf fmt in
  if max_runs < 1 then fail "explore: max_runs must be >= 1";
  match protocol with
  | "is" ->
    (* before exploring: an [n] whose Fubini number overflows is refused *)
    let fubini = Opart.fubini n in
    let stats, parts = Harness.explore_immediate_snapshot ~max_runs ~n () in
    pf "one-shot IS, n=%d: %a@." n Explore.pp_stats stats;
    pf "distinct ordered partitions: %d (fubini %d = %d)@."
      (List.length parts) n fubini
  | "alg1" ->
    let alpha = Agreement.of_adversary (Adversary.wait_free n) in
    let stats =
      Harness.explore_algorithm1 ~max_runs ~alpha ~participants:(Pset.full n)
        ()
    in
    pf "Algorithm 1 (wait-free), n=%d: %a@." n Explore.pp_stats stats;
    pf "violations: %d@." (List.length stats.Explore.violations)
  | p -> fail "unknown protocol %S (alg1 | is)" p

let eval q =
  (match q with
  | Ra { n; _ } | Explore { protocol = "alg1"; n; _ } -> check_size ~n ~m:2
  | Chr { n; m } -> check_size ~n ~m
  | Critical { n; _ } -> check_size ~n ~m:1
  | Setcon _ | Fairness _ | Explore _ -> ());
  render
    (match q with
    | Ra { n; adv } -> eval_ra ~n ~adv
    | Chr { n; m } -> eval_chr ~n ~m
    | Critical { n; adv } -> eval_critical ~n ~adv
    | Setcon { n; adv } -> eval_setcon ~n ~adv
    | Fairness { n; adv } -> eval_fairness ~n ~adv
    | Explore { protocol; n; max_runs } -> eval_explore ~protocol ~n ~max_runs)
