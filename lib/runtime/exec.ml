open Fact_topology

type 'r outcome = Decided of 'r | Crashed of int | Running

type 'r report = {
  outcomes : 'r outcome array;
  steps : int;
  hit_step_budget : bool;
}

(* The undo trail: one entry per memory write, the cell and the value
   it held before. Restoring a state pops entries down to the state's
   mark, so memory goes back without being copied. *)
type undo = Undo : 'v option array * int * 'v option -> undo

type trail = { mutable entries : undo array; mutable len : int }

let no_undo = Undo ([||], 0, None)

let log trail cells i =
  if trail.len = Array.length trail.entries then begin
    let bigger = Array.make (2 * trail.len + 16) no_undo in
    Array.blit trail.entries 0 bigger 0 trail.len;
    trail.entries <- bigger
  end;
  trail.entries.(trail.len) <- Undo (cells, i, cells.(i));
  trail.len <- trail.len + 1

let apply : type a. trail -> a Op.req -> a =
 fun trail req ->
  match req with
  | Op.Write_cell (s, i, v) ->
    log trail s.cells i;
    s.cells.(i) <- Some v
  | Op.Read_cell (s, i) -> s.cells.(i)
  | Op.Snapshot_cells s -> Array.copy s.cells
  | Op.Update_cell (s, i, f) ->
    let v, answer = f s.cells.(i) in
    log trail s.cells i;
    s.cells.(i) <- v;
    answer

(* A process is not started, suspended before a request, or stopped
   (decided, crashed or not a participant). Slots are immutable, so
   saving a machine copies one array of [n] pointers. *)
type 'r status = Fresh | Suspended of 'r Proc.t | Stopped

type 'r slot = {
  status : 'r status;
  outcome : 'r outcome;
  pend : Op.pending;
  taken : int; (* steps taken *)
}

type 'r machine = {
  procs : (int -> 'r Proc.t) array;
  slots : 'r slot array;
  mutable total : int;
  mutable alive : Pset.t;
  trail : trail;
}

type 'r state = {
  s_slots : 'r slot array;
  s_total : int;
  s_alive : Pset.t;
  s_mark : int;
}

let start ~n ~participants procs =
  if Array.length procs <> n then invalid_arg "Exec.start: arity mismatch";
  let idle = { status = Stopped; outcome = Running; pend = Op.Start; taken = 0 } in
  let fresh = { idle with status = Fresh } in
  {
    procs;
    slots = Array.init n (fun i -> if Pset.mem i participants then fresh else idle);
    total = 0;
    alive = participants;
    trail = { entries = [||]; len = 0 };
  }

let alive m = m.alive
let pending m pid = m.slots.(pid).pend

let step m pid =
  let s = m.slots.(pid) in
  let next =
    match s.status with
    | Fresh -> m.procs.(pid) pid
    | Suspended (Proc.Step (req, k)) -> k (apply m.trail req)
    | Suspended (Proc.Done _) | Stopped -> invalid_arg "Exec.step: not alive"
  in
  m.total <- m.total + 1;
  let taken = s.taken + 1 in
  m.slots.(pid) <-
    (match next with
    | Proc.Done r ->
      m.alive <- Pset.remove pid m.alive;
      { s with status = Stopped; outcome = Decided r; taken }
    | Proc.Step (req, _) ->
      { status = Suspended next; outcome = Running;
        pend = Op.pending_of_req req; taken })

let crash m pid =
  let s = m.slots.(pid) in
  (match s.status with
  | Stopped -> invalid_arg "Exec.crash: not alive"
  | Fresh | Suspended _ -> ());
  m.alive <- Pset.remove pid m.alive;
  m.slots.(pid) <- { s with status = Stopped; outcome = Crashed s.taken }

let report ?(hit_step_budget = false) m =
  { outcomes = Array.map (fun s -> s.outcome) m.slots; steps = m.total;
    hit_step_budget }

let save m =
  { s_slots = Array.copy m.slots; s_total = m.total; s_alive = m.alive;
    s_mark = m.trail.len }

let restore m st =
  let t = m.trail in
  if st.s_mark > t.len then invalid_arg "Exec.restore: state out of order";
  for j = t.len - 1 downto st.s_mark do
    let (Undo (cells, i, v)) = t.entries.(j) in
    cells.(i) <- v;
    t.entries.(j) <- no_undo
  done;
  t.len <- st.s_mark;
  Array.blit st.s_slots 0 m.slots 0 (Array.length m.slots);
  m.total <- st.s_total;
  m.alive <- st.s_alive

let state_pending st pid = st.s_slots.(pid).pend

let run ?(max_steps = 100_000) ?on_step ?on_crash ~schedule procs =
  let m =
    start ~n:(Schedule.n schedule) ~participants:(Schedule.participants schedule)
      procs
  in
  let pending_of i = pending m i in
  let rec loop () =
    if Pset.is_empty m.alive then false
    else if m.total >= max_steps then true
    else
      match Schedule.next ~pending:pending_of schedule ~alive:m.alive with
      | None -> false
      | Some pid ->
        if
          Schedule.crash_now schedule ~pid
            ~steps_taken:m.slots.(pid).taken
        then begin
          (match on_crash with Some f -> f ~pid | None -> ());
          crash m pid
        end
        else begin
          (match on_step with Some f -> f ~pid (pending m pid) | None -> ());
          step m pid
        end;
        loop ()
  in
  let hit_step_budget = loop () in
  report ~hit_step_budget m

let solo p =
  let trail = { entries = [||]; len = 0 } in
  let rec go = function
    | Proc.Done r -> r
    | Proc.Step (req, k) -> go (k (apply trail req))
  in
  go p

let decided r =
  Array.to_list r.outcomes
  |> List.mapi (fun i o -> (i, o))
  |> List.filter_map (function i, Decided v -> Some (i, v) | _ -> None)

let decided_set r =
  List.fold_left (fun acc (i, _) -> Pset.add i acc) Pset.empty (decided r)
