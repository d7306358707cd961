open Fact_topology
open Fact_adversary

type output = {
  pid : int;
  view1 : Pset.t;
  view2 : (int * Pset.t) list;
}

type instance = {
  first : int Immediate_snapshot.t;
  second : Pset.t Immediate_snapshot.t;
  reg_is1 : Pset.t Memory.t;
  reg_is2 : (int * Pset.t) list Memory.t;
  reg_conc : int Memory.t;
}

let create_instance ~n =
  {
    first = Immediate_snapshot.create n;
    second = Immediate_snapshot.create n;
    reg_is1 = Memory.create n;
    reg_is2 = Memory.create n;
    reg_conc = Memory.create n;
  }

let objects inst =
  [
    ("is1", Immediate_snapshot.id inst.first);
    ("is2", Immediate_snapshot.id inst.second);
    ("reg-is1", Memory.id inst.reg_is1);
    ("reg-is2", Memory.id inst.reg_is2);
    ("reg-conc", Memory.id inst.reg_conc);
  ]

type mutation = Skip_wait | Drop_second_snapshot | Biased_view

let process ?(skip_wait = false) ?mutation inst alpha ~pid =
  let open Proc in
  let skip_wait = skip_wait || mutation = Some Skip_wait in
  let a p = Agreement.eval alpha p in
  (* Line 5: first immediate snapshot, then publish IS1[i]. *)
  let* view1_pairs = Immediate_snapshot.write_snapshot inst.first ~pid pid in
  let is1 = Immediate_snapshot.view_set view1_pairs in
  let* () = Memory.update inst.reg_is1 ~pid is1 in
  (* Lines 6-9: wait until crit or rank < conc. Each probe reads the
     three register arrays (each read is an atomic step). *)
  let rec wait () =
    let* s1 = Memory.snapshot inst.reg_is1 in
    let* s2 = Memory.snapshot inst.reg_is2 in
    let* sc = Memory.snapshot inst.reg_conc in
    let same_view j = match s1.(j) with
      | Some v -> Pset.equal v is1
      | None -> false
    in
    let same = Pset.filter same_view (Pset.full (Memory.n inst.reg_is1)) in
    let crit = a is1 > a (Pset.diff is1 same) in
    let rank =
      Pset.cardinal
        (Pset.filter (fun j -> s2.(j) = None && not (same_view j)) is1)
    in
    let conc =
      Array.fold_left
        (fun acc c -> match c with Some c -> max acc c | None -> acc)
        (a is1) sc
    in
    if crit || rank < conc then return () else wait ()
  in
  let* () = if skip_wait then return () else wait () in
  (* Line 10: second immediate snapshot on the IS1 view, publish. *)
  let* view2_pairs =
    match mutation with
    | Some Drop_second_snapshot ->
      (* mutant: the second IS round is dropped entirely — the process
         reports only its own pair, as if it ran the round alone *)
      return [ (pid, is1) ]
    | _ -> Immediate_snapshot.write_snapshot inst.second ~pid is1
  in
  let view2_pairs =
    match mutation with
    | Some Biased_view -> (
      (* mutant: the lowest-id pair is silently lost from the second
         view — a biased snapshot that breaks Chr² containment *)
      match view2_pairs with _ :: (_ :: _ as rest) -> rest | v -> v)
    | _ -> view2_pairs
  in
  let* () = Memory.update inst.reg_is2 ~pid view2_pairs in
  (* Lines 11-12: publish the concurrency level witnessed by a
     terminated critical simplex. *)
  let* s1 = Memory.snapshot inst.reg_is1 in
  let* s2 = Memory.snapshot inst.reg_is2 in
  let same_done =
    Pset.filter
      (fun j ->
        (match s1.(j) with Some v -> Pset.equal v is1 | None -> false)
        && s2.(j) <> None)
      (Pset.full (Memory.n inst.reg_is1))
  in
  let* () =
    if a is1 > a (Pset.diff is1 same_done) then
      Memory.update inst.reg_conc ~pid (a is1)
    else return ()
  in
  return { pid; view1 = is1; view2 = view2_pairs }

let run ?max_steps ?skip_wait alpha ~schedule =
  let n = Schedule.n schedule in
  let inst = create_instance ~n in
  Exec.run ?max_steps ~schedule
    (Array.init n (fun _ pid -> process ?skip_wait inst alpha ~pid))

let chr1_vertex (j, is1j) =
  Vertex.deriv j
    (Simplex.vertices
       (Simplex.make (List.map Vertex.base (Pset.to_list is1j))))

let vertex_of_output o =
  Vertex.deriv o.pid
    (Simplex.vertices (Simplex.make (List.map chr1_vertex o.view2)))

let simplex_of_outputs outputs =
  Simplex.make (List.map vertex_of_output outputs)
