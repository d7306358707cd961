type t =
  | Input of { proc : int; value : int }
  | Deriv of { proc : int; carrier : t list }

let proc = function Input { proc; _ } | Deriv { proc; _ } -> proc

let input proc value = Input { proc; value }
let base proc = Input { proc; value = 0 }

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Input x, Input y ->
      let c = Stdlib.compare x.proc y.proc in
      if c <> 0 then c else Stdlib.compare x.value y.value
    | Input _, Deriv _ -> -1
    | Deriv _, Input _ -> 1
    | Deriv x, Deriv y ->
      let c = Stdlib.compare x.proc y.proc in
      if c <> 0 then c else List.compare compare x.carrier y.carrier

let equal a b = compare a b = 0

let deriv p carrier =
  if not (List.exists (fun v -> proc v = p) carrier) then
    invalid_arg "Vertex.deriv: carrier does not contain the vertex color";
  Deriv { proc = p; carrier }

let carrier = function
  | Input _ as v -> [ v ]
  | Deriv { carrier; _ } -> carrier

let rec base_carrier = function
  | Input { proc; _ } -> Pset.singleton proc
  | Deriv { carrier; _ } ->
    List.fold_left
      (fun acc v -> Pset.union acc (base_carrier v))
      Pset.empty carrier

let rec level = function
  | Input _ -> 0
  | Deriv { carrier = v :: _; _ } -> 1 + level v
  | Deriv { carrier = []; _ } -> 1

let rec value = function
  | Input { value; _ } -> value
  | Deriv { proc = p; carrier } ->
    (match List.find_opt (fun v -> proc v = p) carrier with
    | Some v -> value v
    | None -> invalid_arg "Vertex.value: self not in carrier")

let rec pp ppf = function
  | Input { proc; value } ->
    if value = 0 then Format.fprintf ppf "p%d" proc
    else Format.fprintf ppf "p%d=%d" proc value
  | Deriv { proc; carrier } ->
    Format.fprintf ppf "(p%d,[%a])" proc
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         pp)
      carrier

(* ------------------------------------------------------------------ *)
(* Interning                                                          *)
(* ------------------------------------------------------------------ *)

(* Every vertex is assigned a dense integer id the first time it is
   seen; structurally equal vertices (even separately allocated ones)
   get the same id. The intern table is keyed by a *shallow* key —
   (proc, value) for inputs, (proc, ids of the carrier) for derived
   vertices — so a lookup costs one pass over the tree with O(1) work
   per node instead of deep structural hashing.

   Alongside the id we store, computed once at intern time:
   - a full-depth structural hash (deterministic, independent of the
     id numbering — safe to use for ordering),
   - the base carrier (the memoized carrier map of the whole library).

   All table and store accesses are guarded by [lock], so interning is
   safe from multiple domains. Ids are then process-local names: the
   numbering depends on intern order (and is racy across domains), so
   ids must only be used for equality, hashing and memo keys — never
   for ordering observable results. The structural hash is what orders
   things deterministically. *)

type key = K_input of int * int | K_deriv of int * int list

let lock = Mutex.create ()
let table : (key, int) Hashtbl.t = Hashtbl.create 4096

(* growable per-id stores *)
let size = ref 0
let hash_store = ref (Array.make 4096 0)
let bc_store = ref (Array.make 4096 Pset.empty)

let mix h k =
  let k = k * 0x3f58476d1ce4e5b9 in
  let k = k lxor (k lsr 31) in
  let h = (h lxor k) * 0x14d049bb133111eb in
  h lxor (h lsr 29)

let fresh ~hash ~bc =
  let i = !size in
  if i >= Array.length !hash_store then begin
    let cap = 2 * Array.length !hash_store in
    let h' = Array.make cap 0 and b' = Array.make cap Pset.empty in
    Array.blit !hash_store 0 h' 0 i;
    Array.blit !bc_store 0 b' 0 i;
    hash_store := h';
    bc_store := b'
  end;
  !hash_store.(i) <- hash;
  !bc_store.(i) <- bc;
  size := i + 1;
  i

let rec intern_locked v =
  match v with
  | Input { proc; value } ->
    let key = K_input (proc, value) in
    (match Hashtbl.find_opt table key with
    | Some i -> i
    | None ->
      let hash = mix (mix 0x11 proc) value in
      let i = fresh ~hash ~bc:(Pset.singleton proc) in
      Hashtbl.add table key i;
      i)
  | Deriv { proc; carrier } ->
    let cids = List.map intern_locked carrier in
    let key = K_deriv (proc, cids) in
    (match Hashtbl.find_opt table key with
    | Some i -> i
    | None ->
      let hash =
        List.fold_left
          (fun h ci -> mix h !hash_store.(ci))
          (mix 0x22 proc) cids
      in
      let bc =
        List.fold_left
          (fun acc ci -> Pset.union acc !bc_store.(ci))
          Pset.empty cids
      in
      let i = fresh ~hash ~bc in
      Hashtbl.add table key i;
      i)

let id v =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () ->
      intern_locked v)

let intern_list vs =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () ->
      List.map
        (fun v ->
          let i = intern_locked v in
          (i, !hash_store.(i), !bc_store.(i)))
        vs)

(* Shallow interning for Chr's inner loop: the carrier's vertices are
   already interned, so a derived vertex is keyed (and its hash and
   base carrier computed) from the child ids alone — no recursion over
   the tree. Must mirror the [Deriv] case of [intern_locked] exactly,
   or the two paths would disagree on ids. *)
let intern_deriv_list entries =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () ->
      List.map
        (fun (proc, cids) ->
          let key = K_deriv (proc, cids) in
          match Hashtbl.find_opt table key with
          | Some i -> (i, !hash_store.(i), !bc_store.(i))
          | None ->
            let hash =
              List.fold_left
                (fun h ci -> mix h !hash_store.(ci))
                (mix 0x22 proc) cids
            in
            let bc =
              List.fold_left
                (fun acc ci -> Pset.union acc !bc_store.(ci))
                Pset.empty cids
            in
            let i = fresh ~hash ~bc in
            Hashtbl.add table key i;
            (i, hash, bc))
        entries)

let hash v = Hashtbl.hash v
