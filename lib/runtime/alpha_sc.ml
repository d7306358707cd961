open Fact_topology
open Fact_adversary

(* The object's whole state sits in the one cell of a one-cell memory,
   so each operation is an atomic read-modify-write performed by the
   executor (and undone with the rest of memory when a search
   backtracks). The empty cell is the initial state. *)
type state = {
  participation : Pset.t;
  returned : int list; (* distinct returned values, reversed *)
}

type t = { alpha : Agreement.t; cell : state Memory.t }

let create alpha = { alpha; cell = Memory.create 1 }

let current = function
  | Some s -> s
  | None -> { participation = Pset.empty; returned = [] }

let participation t = (current (Memory.peek t.cell 0)).participation
let returned_values t = List.rev (current (Memory.peek t.cell 0)).returned

let propose t ~pid ~value =
  let open Proc in
  (* registering participation is one atomic step *)
  let* () =
    Memory.modify t.cell 0 (fun c ->
        let s = current c in
        (Some { s with participation = Pset.add pid s.participation }, ()))
  in
  let rec attempt () =
    let* answer =
      Memory.modify t.cell 0 (fun c ->
          let s = current c in
          let budget = Agreement.eval t.alpha s.participation in
          let distinct = List.length s.returned in
          if List.mem value s.returned then (c, Some value)
          else if distinct < budget then
            (* adversarial choice: open a new decision value when
               allowed *)
            (Some { s with returned = value :: s.returned }, Some value)
          else if distinct >= 1 && budget >= 1 then
            (* must adopt an already-returned value: the oldest one *)
            (c, Some (List.nth s.returned (distinct - 1)))
          else
            (* α(P) = 0: the α-model has no such run yet; wait for more
               participation *)
            (c, None))
    in
    match answer with Some v -> return v | None -> attempt ()
  in
  attempt ()
