type 'a t = 'a Op.store

(* Globally unique object ids, so schedules can tell operations on
   distinct memories apart (see {!Op}). Atomic for safety under
   multi-domain test runners; the executor itself is single-domain. *)
let next_id = Atomic.make 0

let create n =
  let id = Atomic.fetch_and_add next_id 1 in
  let op kind = Op.Op { Op.obj = id; kind } in
  {
    Op.id;
    cells = Array.make n None;
    writes = Array.init n (fun i -> op (Op.Write i));
    reads = Array.init n (fun i -> op (Op.Read i));
    snap = op Op.Snapshot;
  }

let n (t : _ t) = Array.length t.cells
let id (t : _ t) = t.id
let update t ~pid v = Proc.perform (Op.Write_cell (t, pid, v))
let snapshot t = Proc.perform (Op.Snapshot_cells t)
let get t i = Proc.perform (Op.Read_cell (t, i))
let modify t i f = Proc.perform (Op.Update_cell (t, i, f))
let peek (t : _ t) i = t.cells.(i)
