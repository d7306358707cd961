(* Seeded inputs of every workload. The seed only chooses among inputs
   of equal cost (which adversaries, in which order), so two seeds
   stress the same layers with the same amount of work and differ only
   in the concrete inputs. *)

module F = Fact_core.Fact

let rng ~seed stream = Random.State.make [| seed; stream |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let key q = F.Sexp.to_string (F.Query.to_sexp q)

(* Every nonempty adversary over [n] processes (the census universe),
   as live-set lists, in bitmask order. *)
let census n =
  let subsets = List.init ((1 lsl n) - 1) (fun i -> i + 1) in
  let pids mask = List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id) in
  List.init ((1 lsl List.length subsets) - 1) (fun c -> c + 1)
  |> List.map (fun c ->
         List.filteri (fun i _ -> c land (1 lsl i) <> 0) subsets |> List.map pids)

let fair n =
  List.filter
    (fun ls -> F.Fairness.is_fair (F.Query.adversary ~n (F.Query.Live ls)))
    (census n)

let fair_ra () =
  List.concat_map
    (fun n -> List.map (fun ls -> F.Query.Ra { n; adv = F.Query.Live ls }) (fair n))
    [ 3; 2 ]

(* oneshot-cold: one deck holds R_A of every fair adversary at n = 3
   and n = 2, Chr² at n = 3 four times and Chr² at n = 4 once: 5 of 53
   ops (9%) are chr. The single n = 4 op costs five times the slowest
   other card, so the p95 of a run falls among the slowest R_A ops,
   whose costs lie within 10% of each other, rather than on the edge
   between two kinds of op. Op [i] is card
   [i mod |deck|] of the deck's [i / |deck|]-th seeded shuffle, so
   every stretch of [|deck|] ops has the same mix. *)
let cold_deck () =
  Array.of_list
    (fair_ra ()
    @ List.init 4 (fun _ -> F.Query.Chr { n = 3; m = 2 })
    @ [ F.Query.Chr { n = 4; m = 2 } ])

let cold_schedule ~seed =
  let deck = cold_deck () in
  let len = Array.length deck in
  let shuffled = Hashtbl.create 64 in
  fun i ->
    let k = i / len in
    let d =
      match Hashtbl.find_opt shuffled k with
      | Some d -> d
      | None ->
        let d = shuffle (rng ~seed (100 + k)) deck in
        Hashtbl.add shuffled k d;
        d
    in
    d.(i mod len)

(* serve-warm: 256 distinct keys — R_A of all 48 fair adversaries, and
   70/69/69 critical/setcon/fairness queries over seeded census
   adversaries at n = 2 and 3 — in a seeded fill order. *)
let warm_keys ~seed =
  let st = rng ~seed 2 in
  let universe =
    Array.of_list
      (List.concat_map (fun n -> List.map (fun ls -> (n, F.Query.Live ls)) (census n)) [ 2; 3 ])
  in
  let pick count mk =
    Array.to_list (Array.sub (shuffle st universe) 0 count) |> List.map mk
  in
  let keys =
    fair_ra ()
    @ pick 70 (fun (n, adv) -> F.Query.Critical { n; adv })
    @ pick 69 (fun (n, adv) -> F.Query.Setcon { n; adv })
    @ pick 69 (fun (n, adv) -> F.Query.Fairness { n; adv })
  in
  shuffle st (Array.of_list keys)

(* Which key each steady-phase request asks for: uniform over the keys. *)
let warm_picks ~seed ~stream ~keys count =
  let st = rng ~seed stream in
  Array.init count (fun _ -> Random.State.int st keys)

(* explore-exhaustive: the order of the fixed suite. *)
type subject = Is3 | Alg1_wf2 | Alg1_kof1

let subject_name = function
  | Is3 -> "is3"
  | Alg1_wf2 -> "alg1_wf2"
  | Alg1_kof1 -> "alg1_kof1"

let explore_order ~seed = Array.to_list (shuffle (rng ~seed 3) [| Is3; Alg1_wf2; Alg1_kof1 |])

(* campaign-sweep: the five presets that resolve at both n = 2 and
   n = 3 ([fig5b] is an n = 3 adversary whatever n says), in seeded
   order, under a seeded grid seed (which changes every cell digest).
   Choosing a subset instead would change the cost of a sweep by ±10%
   from seed to seed. *)
let sweep_presets = [| "wait-free"; "t-res:0"; "t-res:1"; "k-of:1"; "k-of:2" |]

let sweep_grid ~seed =
  let presets = shuffle (rng ~seed 4) sweep_presets in
  Printf.sprintf
    "((name bench-sweep)\n\
    \ (seed %d)\n\
    \ (deadline-s 120)\n\
    \ (axes\n\
    \  ((endpoint (ra critical setcon fairness chr explore))\n\
    \   (adversary (%s))\n\
    \   (n (2 3))\n\
    \   (m (1 2))\n\
    \   (protocol (is alg1))\n\
    \   (max-runs (2000))\n\
    \   (domains (1 2))\n\
    \   (cache-cap (default 64)))))\n"
    seed
    (String.concat " " (Array.to_list presets))
