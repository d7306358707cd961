open Fact_topology

type view =
  | Base of { pid : int; input : int }
  | Snap of { pid : int; seen : view list }

type t = { n : int; memories : view Immediate_snapshot.t array }

let create ~n ~rounds =
  if rounds < 1 then invalid_arg "Iis.create: rounds must be >= 1";
  { n; memories = Array.init rounds (fun _ -> Immediate_snapshot.create n) }

let n t = t.n
let rounds t = Array.length t.memories

let process t ~pid ~input =
  let open Proc in
  let rec go r view =
    if r = Array.length t.memories then return view
    else
      let* pairs =
        Immediate_snapshot.write_snapshot t.memories.(r) ~pid view
      in
      go (r + 1) (Snap { pid; seen = List.map snd pairs })
  in
  go 0 (Base { pid; input })

let rec to_vertex = function
  | Base { pid; input } -> Vertex.input pid input
  | Snap { pid; seen } ->
    let carrier =
      List.sort Vertex.compare (List.map to_vertex seen)
    in
    Vertex.Deriv { proc = pid; carrier }

let simplex_of_views views = Simplex.make (List.map to_vertex views)
