(* A complex stores its facets as a strictly ascending [Simplex.t]
   array (ascending by [Simplex.compare] — exactly the order
   [Simplex.Set.elements] used to produce), so the canonical form is
   unique and [facets]/[equal]/iteration need no Set at all. The flat
   arena view, the closure and the Euler characteristic are all
   derived lazily and cached; the array is never mutated after
   construction. *)

type t = {
  n : int;
  arr : Simplex.t array; (* strictly ascending by Simplex.compare *)
  mutable arena_cache : Arena.t option;
  mutable closure_cache : Simplex.Set.t option;
  mutable euler_cache : int option;
}

let array_filter p arr =
  let kept = Array.fold_left (fun c s -> if p s then c + 1 else c) 0 arr in
  if kept = Array.length arr then arr
  else begin
    let out = Array.make kept Simplex.empty in
    let j = ref 0 in
    Array.iter
      (fun s ->
        if p s then begin
          out.(!j) <- s;
          incr j
        end)
      arr;
    out
  end

(* Keep only maximal simplices among the generators. A simplex can
   only be subsumed by one of strictly larger dimension, so when all
   generators share a dimension (the common case: facets of a pure
   complex) the dim scan is the whole cost; otherwise only larger
   buckets are probed, and within a bucket candidates whose color
   bitmask is not a superset are skipped before the id-array walk. *)
let maximalize arr =
  let len = Array.length arr in
  if len <= 1 then arr
  else begin
    let d0 = Simplex.dim arr.(0) in
    let mixed = ref false in
    for i = 1 to len - 1 do
      if Simplex.dim arr.(i) <> d0 then mixed := true
    done;
    if not !mixed then arr
    else begin
      let by_dim = Hashtbl.create 8 in
      Array.iter
        (fun s ->
          let d = Simplex.dim s in
          Hashtbl.replace by_dim d
            (s :: Option.value ~default:[] (Hashtbl.find_opt by_dim d)))
        arr;
      let dims = Hashtbl.fold (fun d _ acc -> d :: acc) by_dim [] in
      array_filter
        (fun s ->
          let d = Simplex.dim s in
          let cs = Simplex.colors s in
          not
            (List.exists
               (fun d' ->
                 d' > d
                 && List.exists
                      (fun f ->
                        Pset.subset cs (Simplex.colors f) && Simplex.subset s f)
                      (Hashtbl.find by_dim d'))
               dims))
        arr
    end
  end

(* Sort ascending and drop duplicates — but first check whether the
   input is already strictly ascending (facets round-tripped through
   [facets] always are), in which case both passes are skipped. *)
let canonicalize arr =
  let len = Array.length arr in
  let sorted = ref true in
  for i = 1 to len - 1 do
    if Simplex.compare arr.(i - 1) arr.(i) >= 0 then sorted := false
  done;
  if !sorted then arr
  else begin
    Array.sort Simplex.compare arr;
    let distinct = ref 1 in
    for i = 1 to len - 1 do
      if Simplex.compare arr.(i - 1) arr.(i) <> 0 then incr distinct
    done;
    if !distinct = len then arr
    else begin
      let out = Array.make !distinct arr.(0) in
      let j = ref 0 in
      for i = 1 to len - 1 do
        if Simplex.compare out.(!j) arr.(i) <> 0 then begin
          incr j;
          out.(!j) <- arr.(i)
        end
      done;
      out
    end
  end

let of_arr ~n arr =
  {
    n;
    arr;
    arena_cache = None;
    closure_cache = None;
    euler_cache = None;
  }

let of_facets ~n gens =
  let gens = List.filter (fun s -> not (Simplex.is_empty s)) gens in
  of_arr ~n (maximalize (canonicalize (Array.of_list gens)))

let n t = t.n
let facets t = Array.to_list t.arr

let arena t =
  match t.arena_cache with
  | Some a -> a
  | None ->
    let a = Arena.build t.arr in
    t.arena_cache <- Some a;
    a

let facet_count t = Array.length t.arr
let is_empty t = Array.length t.arr = 0

let mem s t =
  (Simplex.is_empty s && not (is_empty t))
  || Array.exists (fun f -> Simplex.subset s f) t.arr

(* Streaming closure kernel: every nonempty face of the complex,
   exactly once, without materializing per-facet face lists. When the
   closure cache is already populated we fold over it (cheaper and, for
   callers like [vertices], the Set order is already what they expect);
   otherwise the facet arena streams through {!Arena.fold_faces} with
   one shared off-heap dedup table, constructing a simplex only when
   [f] forces [face]. [face] must be forced synchronously inside [f]
   (see {!Arena.fold_faces}). Enumeration order is unspecified. *)
let fold_faces ?(min_card = 1) ?(max_card = max_int) t ~init ~f =
  match t.closure_cache with
  | Some c ->
    Simplex.Set.fold
      (fun s acc ->
        let card = Simplex.card s in
        if card >= min_card && card <= max_card then
          f acc ~card ~face:(fun () -> s)
        else acc)
      c init
  | None ->
    let seen = Face_set.create ~size:(max 1024 (4 * facet_count t)) () in
    let r = Arena.fold_faces ~seen ~min_card ~max_card (arena t) ~init ~f in
    Face_set.release seen;
    r

let closure_set t =
  match t.closure_cache with
  | Some c -> c
  | None ->
    let c =
      fold_faces t ~init:Simplex.Set.empty ~f:(fun acc ~card:_ ~face ->
          Simplex.Set.add (face ()) acc)
    in
    t.closure_cache <- Some c;
    c

let all_simplices t = Simplex.Set.elements (closure_set t)

(* Counting never forces [face]: with a cold cache this is pure
   submask/dedup arithmetic over flat interned-id runs, and
   deliberately does not populate the closure cache. *)
let simplex_count t =
  match t.closure_cache with
  | Some c -> Simplex.Set.cardinal c
  | None -> fold_faces t ~init:0 ~f:(fun acc ~card:_ ~face:_ -> acc + 1)

let vertices t =
  all_simplices t
  |> List.filter_map (fun s ->
         match Simplex.vertices s with [ v ] -> Some v | _ -> None)

let dimension t =
  Array.fold_left (fun acc f -> max acc (Simplex.dim f)) (-1) t.arr

let is_pure t =
  let d = dimension t in
  Array.for_all (fun f -> Simplex.dim f = d) t.arr

let is_pure_of_dim d t =
  (not (is_empty t))
  && dimension t = d
  && Array.for_all (fun f -> Simplex.dim f = d) t.arr

(* The k-skeleton's facets are the card-(k+1) faces of the too-big
   facets plus the already-small facets, so only that slice of the
   closure is enumerated — not the whole face lattice. *)
let skeleton k t =
  if k < 0 then of_facets ~n:t.n []
  else if k >= dimension t then t
  else begin
    let small = array_filter (fun f -> Simplex.dim f <= k) t.arr in
    let big = array_filter (fun f -> Simplex.dim f > k) t.arr in
    let seen = Face_set.create ~size:(max 256 (Array.length big)) () in
    let gens =
      Arena.fold_faces ~seen ~min_card:(k + 1) ~max_card:(k + 1)
        (Arena.build big)
        ~init:(Array.to_list small)
        ~f:(fun acc ~card:_ ~face -> face () :: acc)
    in
    Face_set.release seen;
    of_facets ~n:t.n gens
  end

let star gens t =
  let gen_set = Simplex.Set.of_list gens in
  all_simplices t
  |> List.filter (fun s ->
         List.exists (fun f -> Simplex.Set.mem f gen_set) (Simplex.faces s))

let pure_complement gens t =
  let gen_set = Simplex.Set.of_list gens in
  let keep f =
    not
      (List.exists (fun face -> Simplex.Set.mem face gen_set) (Simplex.faces f))
  in
  of_arr ~n:t.n (array_filter keep t.arr)

(* The maximal face of [f] all of whose vertices have base carrier
   inside [colors]; carriers are monotone, so this face generates the
   restriction of the complex to the geometric face spanned by
   [colors]. *)
let restrict_colors colors t =
  of_facets ~n:t.n
    (Array.to_list (Array.map (fun f -> Simplex.restrict_base f colors) t.arr))

(* dim even ⟺ card odd; streams when the closure cache is cold, so
   the alternating sum needs no simplex construction at all. *)
let euler_characteristic t =
  match t.euler_cache with
  | Some e -> e
  | None ->
    let e =
      fold_faces t ~init:0 ~f:(fun acc ~card ~face:_ ->
          if card land 1 = 1 then acc + 1 else acc - 1)
    in
    t.euler_cache <- Some e;
    e

let filter_facets p t = of_arr ~n:t.n (array_filter p t.arr)

(* Merge two strictly ascending facet arrays (dropping duplicates),
   then re-maximalize: the merge keeps the canonical order without a
   sort. *)
let union a b =
  if a.n <> b.n then invalid_arg "Complex.union: different universes";
  let la = Array.length a.arr and lb = Array.length b.arr in
  let out = Array.make (max (la + lb) 1) Simplex.empty in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la || !j < lb do
    let take_a =
      if !i >= la then false
      else if !j >= lb then true
      else Simplex.compare a.arr.(!i) b.arr.(!j) <= 0
    in
    let s = if take_a then a.arr.(!i) else b.arr.(!j) in
    if take_a then incr i else incr j;
    if !k = 0 || Simplex.compare out.(!k - 1) s <> 0 then begin
      out.(!k) <- s;
      incr k
    end
  done;
  of_arr ~n:a.n (maximalize (Array.sub out 0 !k))

let subcomplex a b = Array.for_all (fun f -> mem f b) a.arr

let equal a b =
  a.n = b.n
  && Array.length a.arr = Array.length b.arr
  && (let ok = ref true in
      Array.iteri (fun i f -> if not (Simplex.equal f b.arr.(i)) then ok := false) a.arr;
      !ok)

let pp_stats ppf t =
  Format.fprintf ppf "n=%d facets=%d dim=%d pure=%b" t.n (facet_count t)
    (dimension t) (is_pure t)
