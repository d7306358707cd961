type t = Pset.t list

let make blocks =
  let rec check seen = function
    | [] -> ()
    | b :: rest ->
      if Pset.is_empty b then invalid_arg "Opart.make: empty block";
      if not (Pset.disjoint b seen) then
        invalid_arg "Opart.make: overlapping blocks";
      check (Pset.union seen b) rest
  in
  check Pset.empty blocks;
  blocks

let blocks t = t

let support t = List.fold_left Pset.union Pset.empty t

let view t p =
  let rec loop acc = function
    | [] -> raise Not_found
    | b :: rest ->
      let acc = Pset.union acc b in
      if Pset.mem p b then acc else loop acc rest
  in
  loop Pset.empty t

let views t =
  let rec loop acc prefix = function
    | [] -> acc
    | b :: rest ->
      let prefix = Pset.union prefix b in
      let acc = Pset.fold (fun p acc -> (p, prefix) :: acc) b acc in
      loop acc prefix rest
  in
  List.sort (fun (p, _) (q, _) -> Stdlib.compare p q) (loop [] Pset.empty t)

(* All ordered partitions of [s]: pick the first block as any nonempty
   subset, recurse on the rest. *)
let rec enumerate s =
  if Pset.is_empty s then [ [] ]
  else
    List.concat_map
      (fun b ->
        List.map (fun rest -> b :: rest) (enumerate (Pset.diff s b)))
      (Pset.nonempty_subsets s)

let random st s =
  let elements = Array.of_list (Pset.to_list s) in
  let len = Array.length elements in
  (* Fisher–Yates shuffle *)
  for i = len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = elements.(i) in
    elements.(i) <- elements.(j);
    elements.(j) <- tmp
  done;
  let blocks = ref [] and current = ref Pset.empty in
  Array.iter
    (fun p ->
      current := Pset.add p !current;
      if Random.State.bool st then begin
        blocks := !current :: !blocks;
        current := Pset.empty
      end)
    elements;
  if not (Pset.is_empty !current) then blocks := !current :: !blocks;
  List.rev !blocks

(* a(m) = Σ_{k=1..m} C(m,k)·a(m−k), a(0) = 1, with overflow-checked
   products and sums: a(18) is the last value that fits an [int]. *)
let fubini n =
  let fail what =
    Fact_resilience.Fact_error.precondition ~fn:"Opart.fubini"
      (Printf.sprintf "fubini %d: %s" n what)
  in
  if n < 0 then fail "n must be >= 0";
  let overflow () = fail "exceeds max_int (n <= 18)" in
  let mul x y = if y <> 0 && x > max_int / y then overflow () else x * y in
  let add x y = if x > max_int - y then overflow () else x + y in
  (* [prev] is a(m-1) ... a(0); [row] is C(m-1,0) ... C(m-1,m-1) *)
  let rec go m prev row =
    if m > n then List.hd prev
    else
      let row = List.map2 ( + ) (row @ [ 0 ]) (0 :: row) in
      let a =
        List.fold_left2 (fun acc c b -> add acc (mul c b)) 0 (List.tl row) prev
      in
      go (m + 1) (a :: prev) row
  in
  go 1 [ 1 ] [ 1 ]

let is_valid_views pairs =
  let self_inclusion = List.for_all (fun (p, v) -> Pset.mem p v) pairs in
  let containment =
    List.for_all
      (fun (_, v1) ->
        List.for_all
          (fun (_, v2) -> Pset.subset v1 v2 || Pset.subset v2 v1)
          pairs)
      pairs
  in
  let immediacy =
    List.for_all
      (fun (p1, v1) ->
        List.for_all
          (fun (_, v2) -> (not (Pset.mem p1 v2)) || Pset.subset v1 v2)
          pairs)
      pairs
  in
  self_inclusion && containment && immediacy

let of_views pairs =
  if not (is_valid_views pairs) then None
  else
    let procs = List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty pairs in
    let seen = List.fold_left (fun acc (_, v) -> Pset.union acc v) Pset.empty pairs in
    if not (Pset.equal procs seen) then None
    else
      (* Group processes by view, order groups by view inclusion
         (i.e. by cardinality, since views are totally ordered). *)
      let sorted =
        List.sort
          (fun (_, v1) (_, v2) ->
            Stdlib.compare (Pset.cardinal v1) (Pset.cardinal v2))
          pairs
      in
      let rec group = function
        | [] -> []
        | (p, v) :: rest ->
          (match group rest with
          | (b, v') :: tail when Pset.equal v v' -> (Pset.add p b, v) :: tail
          | groups -> (Pset.singleton p, v) :: groups)
      in
      (* [group] folds from the right, so re-sort groups by view size. *)
      let groups =
        List.sort
          (fun (_, v1) (_, v2) ->
            Stdlib.compare (Pset.cardinal v1) (Pset.cardinal v2))
          (group sorted)
      in
      (* Validate: each view must equal the union of blocks so far. *)
      let rec rebuild prefix = function
        | [] -> Some []
        | (b, v) :: rest ->
          let prefix = Pset.union prefix b in
          if not (Pset.equal prefix v) then None
          else
            Option.map (fun tail -> b :: tail) (rebuild prefix rest)
      in
      rebuild Pset.empty groups

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Pset.pp ppf t

let compare = List.compare Pset.compare
let equal a b = compare a b = 0
