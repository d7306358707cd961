let link sigma k =
  let gens =
    List.filter_map
      (fun f ->
        if Simplex.subset sigma f then
          let rest = Simplex.diff f sigma in
          if Simplex.is_empty rest then None else Some rest
        else None)
      (Complex.facets k)
  in
  Complex.of_facets ~n:(Complex.n k) gens

(* Union-find over the vertex list of the complex. *)
let is_connected k =
  match Complex.vertices k with
  | [] -> true
  | vertices ->
    let index = Hashtbl.create (List.length vertices) in
    List.iteri (fun i v -> Hashtbl.replace index v i) vertices;
    let parent = Array.init (List.length vertices) Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    List.iter
      (fun f ->
        match List.map (fun v -> Hashtbl.find index v) (Simplex.vertices f) with
        | [] -> ()
        | i :: rest -> List.iter (union i) rest)
      (Complex.facets k);
    let root = find 0 in
    List.for_all (fun i -> find i = root)
      (List.init (List.length vertices) Fun.id)

(* The star pass. One walk over the facets' interned keys numbers the
   vertices densely and lists, per vertex, the facets of its star. The
   link of [u] is generated by those facets minus [u], so it is
   connected iff a union-find over their other vertices ends with at
   most one component. No simplex or complex is built and no lock is
   taken; only the disconnected vertices are named, at the end. *)
let disconnected_vertices k =
  let facets = Array.of_list (Complex.facets k) in
  let index = Hashtbl.create (4 * Array.length facets) in
  let first = ref [] in
  let local =
    Array.mapi
      (fun fi f ->
        Array.mapi
          (fun pos vid ->
            match Hashtbl.find_opt index vid with
            | Some l -> l
            | None ->
              let l = Hashtbl.length index in
              Hashtbl.add index vid l;
              first := (fi, pos) :: !first;
              l)
          (Simplex.interned_key f))
      facets
  in
  let first = Array.of_list (List.rev !first) in
  let nv = Array.length first in
  let star = Array.make nv [] in
  Array.iteri
    (fun fi ls -> Array.iter (fun l -> star.(l) <- fi :: star.(l)) ls)
    local;
  (* [stamp.(w) = u]: [w] is a node of the union-find of [u]'s link *)
  let parent = Array.make nv 0 and stamp = Array.make nv (-1) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let components = ref 0 in
  let join u prev w =
    if w = u then prev
    else begin
      if stamp.(w) <> u then begin
        stamp.(w) <- u;
        parent.(w) <- w;
        incr components
      end;
      (if prev >= 0 then
         let a = find prev and b = find w in
         if a <> b then begin
           parent.(a) <- b;
           decr components
         end);
      w
    end
  in
  let link_connected u =
    components := 0;
    List.iter
      (fun fi -> ignore (Array.fold_left (join u) (-1) local.(fi)))
      star.(u);
    !components <= 1
  in
  (* [Complex.vertices] lists vertices in [Simplex.compare] order of
     their singletons *)
  List.init nv Fun.id
  |> List.filter (fun u -> not (link_connected u))
  |> List.map (fun u ->
         let fi, pos = first.(u) in
         Simplex.select_sorted_mask facets.(fi) (1 lsl pos))
  |> List.sort Simplex.compare
  |> List.concat_map Simplex.vertices

let is_link_connected k = disconnected_vertices k = []
