open Fact_topology

(* Each cell holds the writer's value and its current level. *)
type 'a cell = { value : 'a; level : int }
type 'a t = { mem : 'a cell Memory.t }

let create n = { mem = Memory.create n }
let id t = Memory.id t.mem

let write_snapshot t ~pid v =
  let open Proc in
  let n = Memory.n t.mem in
  let rec descend level =
    let level = level - 1 in
    let* () = Memory.update t.mem ~pid { value = v; level } in
    let* snap = Memory.snapshot t.mem in
    let seen =
      Array.to_list snap
      |> List.mapi (fun j c -> (j, c))
      |> List.filter_map (function
           | j, Some c when c.level <= level -> Some (j, c.value)
           | _ -> None)
    in
    if List.length seen >= level then return seen else descend level
  in
  descend (n + 1)

let view_set view =
  List.fold_left (fun acc (j, _) -> Pset.add j acc) Pset.empty view
