open Fact_topology

let violations a =
  let n = Adversary.n a in
  let universe = Pset.full n in
  let alpha = Setcon.alpha_fn a in
  List.concat_map
    (fun p ->
      let ap = alpha p in
      List.filter_map
        (fun q ->
          Fact_resilience.Cancel.poll ~where:"Fairness.violations";
          let got =
            Setcon.setcon_collection ~n
              (Adversary.live_sets (Adversary.restrict2 a ~p ~q))
          in
          let expected = min (Pset.cardinal q) ap in
          if got = expected then None else Some (p, q, got, expected))
        (Pset.subsets p))
    (Pset.subsets universe)

let is_fair a = violations a = []

let unfair_example =
  Adversary.make ~n:4
    [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ]; Pset.of_list [ 0; 1; 2; 3 ] ]
