open Fact_topology

type t = { n : int; table : int array; stamp : int }

(* Stamps are interned by table, so the caches downstream (Critical,
   Concurrency, Ra) key their memos on an int and still hit across
   separately built equal functions. A stamp is an identity, not a
   recomputable value: the table is dropped whole once it holds more
   than [intern_cap] cells (an equal function built later then gets a
   fresh stamp, so caches are merely less shared), and no stamp is
   ever given to two different tables. The length of a table is [2^n],
   so equal tables have equal [n]. *)
module Tables = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash t = Array.fold_left (fun h x -> (h * 31) + x) (Array.length t) t
end)

let intern_cap = 1 lsl 16
let stamps : int Tables.t = Tables.create 64
let interned_cells = ref 0
let next_stamp = ref 0
let intern_lock = Mutex.create ()

let intern table =
  Mutex.protect intern_lock (fun () ->
      match Tables.find_opt stamps table with
      | Some s -> s
      | None ->
        if !interned_cells + Array.length table > intern_cap then begin
          Tables.reset stamps;
          interned_cells := 0
        end;
        let s = !next_stamp in
        incr next_stamp;
        Tables.replace stamps table s;
        interned_cells := !interned_cells + Array.length table;
        s)

let of_fn ~n f =
  let table = Array.init (1 lsl n) (fun m -> f (Pset.of_mask m)) in
  { n; table; stamp = intern table }

let of_adversary a =
  let alpha = Setcon.alpha_fn a in
  of_fn ~n:(Adversary.n a) alpha

let n t = t.n
let stamp t = t.stamp
let eval t p = t.table.(Pset.to_mask p)
let equal a b = a.n = b.n && a.table = b.table

let all_pairs n =
  (* (P, P') with P ⊆ P' over the universe *)
  let universe = Pset.full n in
  List.concat_map
    (fun p' -> List.map (fun p -> (p, p')) (Pset.subsets p'))
    (Pset.subsets universe)

let is_monotonic t =
  List.for_all (fun (p, p') -> eval t p <= eval t p') (all_pairs t.n)

let is_bounded_growth t =
  List.for_all
    (fun (p, p') -> eval t p' <= eval t p + Pset.cardinal (Pset.diff p' p))
    (all_pairs t.n)

let is_regular t = is_monotonic t && is_bounded_growth t

let k_obstruction_free ~n ~k =
  of_fn ~n (fun p -> min (Pset.cardinal p) k)

let dominates f g =
  f.n = g.n
  && Array.for_all2 ( <= ) g.table f.table

let equivalent f g = f.n = g.n && f.table = g.table

let max_faulty t p =
  let a = eval t p in
  if a >= 1 then Some (a - 1) else None

let pp ppf t =
  Pset.subsets (Pset.full t.n)
  |> List.iter (fun p ->
         Format.fprintf ppf "alpha(%a) = %d@ " Pset.pp p (eval t p))
