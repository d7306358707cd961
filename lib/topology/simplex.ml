(* A simplex is stored with its vertices (sorted by Vertex.compare, as
   in the original list representation) plus interned metadata computed
   once at construction:

   - [info]: per-vertex intern id, structural hash and base carrier,
     aligned with [varr];
   - [key]: the vertex ids sorted ascending — the canonical set
     representation. Two simplices are equal iff their keys are equal,
     and subset/mem/inter/diff are merge-walks and binary searches over
     int arrays;
   - [perm]: the argsort realizing [key] from [info]
     ([key.(i) = info.(perm.(i)).vid]), computed once so mask-indexed
     face selection ({!select_sorted_mask}, the arena kernel) needs no
     per-call sort;
   - [colors]: the color bitmask, [base]: the base carrier, both O(1);
   - [shash]: a full-depth structural hash combining the vertex hashes
     in sorted order. It is deterministic (independent of intern
     order), so [compare] can use it as the primary sort key without
     making set iteration order depend on interning races.

   Every simplex is immutable after construction, so values can be
   freely shared across domains; the only synchronization is the
   intern lock taken once per construction from raw vertices. Derived
   simplices (faces, restrictions, unions, intersections) reuse the
   parent's interned metadata and take no lock at all. *)

type vinfo = { vid : int; vhash : int; vbc : Pset.t }

type t = {
  verts : Vertex.t list; (* sorted by Vertex.compare *)
  varr : Vertex.t array; (* same, for indexed access *)
  info : vinfo array; (* aligned with varr *)
  key : int array; (* vids sorted ascending *)
  perm : int array; (* key.(i) = info.(perm.(i)).vid *)
  colors : Pset.t;
  base : Pset.t;
  shash : int;
}

let mix h k =
  let k = k * 0x3f58476d1ce4e5b9 in
  let k = k lxor (k lsr 31) in
  let h = (h lxor k) * 0x14d049bb133111eb in
  h lxor (h lsr 29)

let hash_of_info info =
  Array.fold_left (fun h i -> mix h i.vhash) 0x5103 info

(* Build a simplex from already-interned, already-sorted vertices. *)
let key_perm info =
  let k = Array.length info in
  let perm = Array.init k (fun i -> i) in
  Array.sort (fun a b -> Stdlib.compare info.(a).vid info.(b).vid) perm;
  (Array.map (fun p -> info.(p).vid) perm, perm)

let of_sorted verts info =
  let varr = Array.of_list verts in
  let key, perm = key_perm info in
  let colors =
    Array.fold_left (fun c v -> Pset.add (Vertex.proc v) c) Pset.empty varr
  in
  let base = Array.fold_left (fun b i -> Pset.union b i.vbc) Pset.empty info in
  { verts; varr; info; key; perm; colors; base; shash = hash_of_info info }

let empty =
  {
    verts = [];
    varr = [||];
    info = [||];
    key = [||];
    perm = [||];
    colors = Pset.empty;
    base = Pset.empty;
    shash = 0x5103;
  }

let make vs =
  let sorted = List.sort Vertex.compare vs in
  (* Single pass: detect duplicate vertices and color clashes while
     accumulating the color mask. Adjacent sorted vertices with equal
     colors are either equal (duplicate) or distinct (clash). *)
  let rec check prev seen = function
    | [] -> ignore seen
    | v :: rest ->
      (match prev with
      | Some p when Vertex.compare p v = 0 ->
        invalid_arg "Simplex.make: duplicate vertex"
      | _ -> ());
      let c = Vertex.proc v in
      if Pset.mem c seen then
        invalid_arg "Simplex.make: two vertices share a color";
      check (Some v) (Pset.add c seen) rest
  in
  check None Pset.empty sorted;
  if sorted = [] then empty
  else
    let info =
      Vertex.intern_list sorted
      |> List.map (fun (vid, vhash, vbc) -> { vid; vhash; vbc })
      |> Array.of_list
    in
    of_sorted sorted info

let of_vertex v = make [ v ]

(* Fast construction for Chr's inner loop: the facet of vertices
   [(p, view_p)] where each view is an already-built sub-simplex of the
   subdivided simplex. The vertices are all [Deriv] with pairwise
   distinct colors, so sorting by color IS [Vertex.compare] order, and
   interning is shallow (the carriers' vertices are interned already).
   Raises the same errors as {!make}/{!Vertex.deriv} on duplicate
   colors or a carrier missing its own color. *)
let of_chr_pairs pairs =
  match pairs with
  | [] -> empty
  | _ ->
    let pairs =
      List.sort (fun (p, _) (q, _) -> Stdlib.compare p q) pairs
    in
    ignore
      (List.fold_left
         (fun seen (p, car) ->
           if Pset.mem p seen then
             invalid_arg "Simplex.make: two vertices share a color";
           if not (Pset.mem p car.colors) then
             invalid_arg
               "Vertex.deriv: carrier does not contain the vertex color";
           Pset.add p seen)
         Pset.empty pairs);
    let verts =
      List.map
        (fun (p, car) -> Vertex.Deriv { proc = p; carrier = car.verts })
        pairs
    in
    let info =
      Vertex.intern_deriv_list
        (List.map
           (fun (p, car) ->
             (p, Array.to_list (Array.map (fun i -> i.vid) car.info)))
           pairs)
      |> List.map (fun (vid, vhash, vbc) -> { vid; vhash; vbc })
      |> Array.of_list
    in
    of_sorted verts info
let vertices t = t.verts
let colors t = t.colors
let card t = Array.length t.varr
let dim t = card t - 1
let is_empty t = t.varr = [||]

let find_color c t =
  if not (Pset.mem c t.colors) then None
  else
    let rec loop i =
      if i >= Array.length t.varr then None
      else if Vertex.proc t.varr.(i) = c then Some t.varr.(i)
      else loop (i + 1)
    in
    loop 0

(* Colors are pairwise distinct inside a simplex, so membership is
   "the vertex of that color exists and is structurally equal". *)
let mem v t =
  match find_color (Vertex.proc v) t with
  | Some w -> Vertex.equal v w
  | None -> false

let key_mem id key =
  let rec bs lo hi =
    if lo >= hi then false
    else
      let m = (lo + hi) / 2 in
      if key.(m) = id then true else if key.(m) < id then bs (m + 1) hi
      else bs lo m
  in
  bs 0 (Array.length key)

(* Face relation as a merge-walk over the sorted id arrays, with the
   color bitmask as a prefilter. *)
let subset a b =
  Pset.subset a.colors b.colors
  &&
  let la = Array.length a.key and lb = Array.length b.key in
  let rec walk i j =
    if i >= la then true
    else if j >= lb then false
    else if a.key.(i) = b.key.(j) then walk (i + 1) (j + 1)
    else if a.key.(i) > b.key.(j) then walk i (j + 1)
    else false
  in
  walk 0 0

(* Derived sub-simplex: keep the vertices at the indices selected by
   [keep]; all metadata is reused from the parent, lock-free. *)
let select t keep =
  let nkeep = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 keep in
  if nkeep = 0 then empty
  else if nkeep = Array.length t.varr then t
  else begin
    let varr = Array.make nkeep t.varr.(0) in
    let info = Array.make nkeep t.info.(0) in
    let j = ref 0 in
    Array.iteri
      (fun i b ->
        if b then begin
          varr.(!j) <- t.varr.(i);
          info.(!j) <- t.info.(i);
          incr j
        end)
      keep;
    let key, perm = key_perm info in
    let colors =
      Array.fold_left (fun c v -> Pset.add (Vertex.proc v) c) Pset.empty varr
    in
    let base =
      Array.fold_left (fun b i -> Pset.union b i.vbc) Pset.empty info
    in
    {
      verts = Array.to_list varr;
      varr;
      info;
      key;
      perm;
      colors;
      base;
      shash = hash_of_info info;
    }
  end

let restrict t s =
  select t (Array.map (fun v -> Pset.mem (Vertex.proc v) s) t.varr)

let restrict_base t s =
  select t (Array.map (fun i -> Pset.subset i.vbc s) t.info)

let diff a b = select a (Array.map (fun i -> not (key_mem i.vid b.key)) a.info)
let inter a b = select a (Array.map (fun i -> key_mem i.vid b.key) a.info)

(* Union as vertex sets: merge the two sorted vertex arrays. Equal
   vertices collapse; distinct vertices sharing a color are an
   error. *)
let union a b =
  if is_empty a then b
  else if is_empty b then a
  else if subset b a then a
  else if subset a b then b
  else begin
    let la = Array.length a.varr and lb = Array.length b.varr in
    let rec fwd i j acc =
      if i >= la && j >= lb then List.rev acc
      else if i >= la then fwd i (j + 1) ((b.varr.(j), b.info.(j)) :: acc)
      else if j >= lb then fwd (i + 1) j ((a.varr.(i), a.info.(i)) :: acc)
      else
        let c = Vertex.compare a.varr.(i) b.varr.(j) in
        if c = 0 then fwd (i + 1) (j + 1) ((a.varr.(i), a.info.(i)) :: acc)
        else if c < 0 then fwd (i + 1) j ((a.varr.(i), a.info.(i)) :: acc)
        else fwd i (j + 1) ((b.varr.(j), b.info.(j)) :: acc)
    in
    let merged = fwd 0 0 [] in
    let seen = ref Pset.empty in
    List.iter
      (fun (v, _) ->
        let p = Vertex.proc v in
        if Pset.mem p !seen then
          invalid_arg "Simplex.union: color clash between distinct vertices";
        seen := Pset.add p !seen)
      merged;
    of_sorted (List.map fst merged) (Array.of_list (List.map snd merged))
  end

(* All sub-simplices, enumerated by bitmask over the vertex indices
   (the empty mask first, as before). *)
let subsimplices t =
  let k = card t in
  let out = ref [] in
  for m = (1 lsl k) - 1 downto 0 do
    out := select t (Array.init k (fun i -> m land (1 lsl i) <> 0)) :: !out
  done;
  !out

let faces_raw t = List.filter (fun f -> not (is_empty f)) (subsimplices t)

let interned_key t = t.key

(* The face selected by a bitmask over key positions: bit [b] keeps the
   vertex holding the b-th smallest vid. The stored [perm] maps key
   positions back to vertex-array indices, so no sort happens here —
   this is the materialization step of the arena kernel. *)
let select_sorted_mask t m =
  let k = Array.length t.varr in
  if m = (1 lsl k) - 1 then t
  else begin
    let keep = Array.make k false in
    for b = 0 to k - 1 do
      if m land (1 lsl b) <> 0 then keep.(t.perm.(b)) <- true
    done;
    select t keep
  end

(* Streaming enumeration of distinct nonempty faces across many
   simplices: walk every submask of [t]'s vertices, identify each
   candidate face by its sorted vid key, and hand the unseen ones to
   [f] — no intermediate simplex lists, and no simplex construction at
   all unless the caller forces [face]. The caller-supplied [seen] set
   is the off-heap dedup state ({!Face_set}); sharing it across the
   facets of a complex makes a face common to several facets come out
   exactly once. (Whole-complex streaming goes through [Arena], which
   runs this same walk over flat concatenated runs.)

   [t.key] is already the vids sorted ascending, so emitting a
   submask's vids in key order yields the face's canonical key with no
   per-face sort. *)
let fold_distinct_faces ~seen ?(min_card = 1) ?(max_card = max_int) t ~init ~f
    =
  let k = Array.length t.varr in
  let min_card = max 1 min_card in
  if k = 0 || min_card > k || max_card < min_card then init
  else begin
    let scratch = Array.make k 0 in
    let acc = ref init in
    for m = 1 to (1 lsl k) - 1 do
      let card =
        let c = ref 0 and w = ref m in
        while !w <> 0 do
          w := !w land (!w - 1);
          incr c
        done;
        !c
      in
      if card >= min_card && card <= max_card then begin
        let j = ref 0 in
        for b = 0 to k - 1 do
          if m land (1 lsl b) <> 0 then begin
            scratch.(!j) <- t.key.(b);
            incr j
          end
        done;
        if not (Face_set.mem_or_add seen scratch ~len:card) then begin
          let face () = select_sorted_mask t m in
          acc := f !acc ~card ~face
        end
      end
    done;
    !acc
  end

let proper_faces t =
  List.filter (fun f -> not (is_empty f) && card f <> card t) (subsimplices t)

(* ------------------------------------------------------------------ *)
(* Carriers                                                           *)
(* ------------------------------------------------------------------ *)

(* The carrier of a vertex, as a simplex of the complex one level
   down, memoized per vertex id: [Deriv (p, sigma)] carries exactly
   sigma, so the simplex is built once and shared. *)
let carrier_lock = Mutex.create ()
let carrier_tbl : (int, t) Hashtbl.t = Hashtbl.create 1024

let vertex_carrier v =
  let i = Vertex.id v in
  Mutex.lock carrier_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock carrier_lock) (fun () ->
      match Hashtbl.find_opt carrier_tbl i with
      | Some s -> s
      | None ->
        let s = make (Vertex.carrier v) in
        Hashtbl.add carrier_tbl i s;
        s)

let carrier_raw t =
  Array.fold_left (fun acc v -> union acc (vertex_carrier v)) empty t.varr

let base_carrier t = t.base

let rec base_vertex_list v =
  match v with
  | Vertex.Input _ -> [ v ]
  | Vertex.Deriv { carrier; _ } -> List.concat_map base_vertex_list carrier

let base_simplex t =
  List.concat_map base_vertex_list t.verts
  |> List.sort_uniq Vertex.compare |> make

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let equal a b =
  a == b || (a.shash = b.shash && a.key = b.key)

(* Total order: structural hash first (deterministic), then — only on
   the astronomically rare hash collision between distinct simplices —
   the original structural order. Equality is decided by the id keys,
   which is exact. *)
let compare a b =
  if a == b then 0
  else
    let c = Stdlib.compare a.shash b.shash in
    if c <> 0 then c
    else if a.key = b.key then 0
    else List.compare Vertex.compare a.verts b.verts

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Vertex.pp)
    t.verts

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)

let hash t = t.shash land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Per-simplex memos (must follow [Tbl])                               *)
(* ------------------------------------------------------------------ *)

(* Faces and carriers of the same facets are requested over and over by
   closure computations and the R_A pipeline; both are memoized per
   simplex. Computation happens outside the lock; a racing duplicate
   insert is dropped, so the caches are domain-safe. *)
let faces_lock = Mutex.create ()
let faces_tbl : t list Tbl.t = Tbl.create 4096

let faces t =
  if is_empty t then []
  else begin
    Mutex.lock faces_lock;
    let cached = Tbl.find_opt faces_tbl t in
    Mutex.unlock faces_lock;
    match cached with
    | Some fs -> fs
    | None ->
      let fs = faces_raw t in
      Mutex.lock faces_lock;
      if not (Tbl.mem faces_tbl t) then Tbl.add faces_tbl t fs;
      Mutex.unlock faces_lock;
      fs
  end

let carrier_memo : t Tbl.t = Tbl.create 1024

let carrier t =
  if is_empty t then empty
  else begin
    Mutex.lock carrier_lock;
    let cached = Tbl.find_opt carrier_memo t in
    Mutex.unlock carrier_lock;
    match cached with
    | Some c -> c
    | None ->
      let c = carrier_raw t in
      Mutex.lock carrier_lock;
      if not (Tbl.mem carrier_memo t) then Tbl.add carrier_memo t c;
      Mutex.unlock carrier_lock;
      c
  end
