open Fact_topology

(* Definition 1, memoized on the restriction set P: the recursion only
   ever restricts the collection to live sets included in some P, so
   the state is fully described by P. The ambient cancellation token
   is polled once per memo miss. *)
let setcon_fn live =
  let memo = Hashtbl.create 64 in
  let rec go p =
    match Hashtbl.find_opt memo (Pset.to_mask p) with
    | Some v -> v
    | None ->
      Fact_resilience.Cancel.poll ~where:"Setcon.setcon_fn";
      let candidates = List.filter (fun s -> Pset.subset s p) live in
      let v =
        List.fold_left
          (fun acc s ->
            let m =
              Pset.fold (fun a m -> min m (go (Pset.remove a s))) s max_int
            in
            max acc (m + 1))
          0 candidates
      in
      Hashtbl.replace memo (Pset.to_mask p) v;
      v
  in
  go

let setcon_collection ~n live = setcon_fn live (Pset.full n)

let setcon a = setcon_collection ~n:(Adversary.n a) (Adversary.live_sets a)

let alpha_fn a = setcon_fn (Adversary.live_sets a)

let alpha a p = alpha_fn a p

let symmetric_formula a =
  if not (Adversary.is_symmetric a) then
    invalid_arg "Setcon.symmetric_formula: adversary is not symmetric";
  Adversary.live_sets a
  |> List.map Pset.cardinal
  |> List.sort_uniq Stdlib.compare
  |> List.length
