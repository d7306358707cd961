type kind =
  | Write of int
  | Read of int
  | Snapshot

type t = { obj : int; kind : kind }

type pending =
  | Start
  | Unlabeled
  | Op of t

type 'v store = {
  id : int;
  cells : 'v option array;
  writes : pending array;
  reads : pending array;
  snap : pending;
}

type _ req =
  | Write_cell : 'v store * int * 'v -> unit req
  | Read_cell : 'v store * int -> 'v option req
  | Snapshot_cells : 'v store -> 'v option array req
  | Update_cell : 'v store * int * ('v option -> 'v option * 'a) -> 'a req

let pending_of_req : type a. a req -> pending = function
  | Write_cell (s, i, _) -> s.writes.(i)
  | Read_cell (s, i) -> s.reads.(i)
  | Snapshot_cells s -> s.snap
  | Update_cell _ -> Unlabeled

let conflict a b =
  a.obj = b.obj
  &&
  match (a.kind, b.kind) with
  | Write i, Write j | Write i, Read j | Read i, Write j -> i = j
  | Write _, Snapshot | Snapshot, Write _ -> true
  | Read _, Read _ | Read _, Snapshot | Snapshot, Read _ -> false
  | Snapshot, Snapshot -> false

let commute a b =
  match (a, b) with
  | Start, _ | _, Start -> true
  | Unlabeled, _ | _, Unlabeled -> false
  | Op a, Op b -> not (conflict a b)

let pp ppf { obj; kind } =
  match kind with
  | Write i -> Format.fprintf ppf "w%d[%d]" obj i
  | Read i -> Format.fprintf ppf "r%d[%d]" obj i
  | Snapshot -> Format.fprintf ppf "s%d[*]" obj

let pp_pending ppf = function
  | Start -> Format.pp_print_string ppf "start"
  | Unlabeled -> Format.pp_print_string ppf "?"
  | Op op -> pp ppf op
