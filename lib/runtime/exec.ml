open Fact_topology

type _ Effect.t += Yield : Op.t option -> unit Effect.t

let yield () =
  try Effect.perform (Yield None) with
  | Effect.Unhandled (Yield _) -> ()

let yield_op op =
  try Effect.perform (Yield (Some op)) with
  | Effect.Unhandled (Yield _) -> ()

type 'r outcome = Decided of 'r | Crashed of int | Running

type 'r report = {
  outcomes : 'r outcome array;
  steps : int;
  hit_step_budget : bool;
}

(* A fiber is either not yet started, paused at a yield (remembering
   the operation it is about to perform, if announced), or done. *)
type 'r status =
  | Finished of 'r
  | Paused of Op.t option * (unit, 'r status) Effect.Deep.continuation

type 'r fiber =
  | Not_started of (unit -> 'r)
  | Suspended of (unit, 'r status) Effect.Deep.continuation
  | Terminated

exception Killed

let handler =
  {
    Effect.Deep.retc = (fun r -> Finished r);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield op ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) -> Paused (op, k))
        | _ -> None);
  }

let run ?(max_steps = 100_000) ?on_step ?on_crash ~schedule procs =
  let n = Schedule.n schedule in
  if Array.length procs <> n then invalid_arg "Exec.run: arity mismatch";
  let participants = Schedule.participants schedule in
  let fibers =
    Array.init n (fun i ->
        if Pset.mem i participants then Not_started (fun () -> procs.(i) i)
        else Terminated)
  in
  let outcomes = Array.make n Running in
  let pending = Array.make n Op.Start in
  let steps_of = Array.make n 0 in
  let total = ref 0 in
  let alive () =
    Pset.filter
      (fun i -> match fibers.(i) with Terminated -> false | _ -> true)
      participants
  in
  (* Unwind a suspended fiber so its finalizers (if any) run and its
     stack is freed: a continuation that is neither resumed nor
     discontinued keeps its stack alive forever. *)
  let unwind pid =
    (match fibers.(pid) with
    | Suspended k -> (
      try ignore (Effect.Deep.discontinue k Killed) with Killed -> ())
    | Not_started _ | Terminated -> ());
    fibers.(pid) <- Terminated
  in
  let kill pid =
    unwind pid;
    outcomes.(pid) <- Crashed steps_of.(pid)
  in
  let step pid =
    (match on_step with
    | Some f -> f ~pid (pending.(pid) : Op.pending)
    | None -> ());
    let status =
      match fibers.(pid) with
      | Not_started f -> Effect.Deep.match_with f () handler
      | Suspended k -> Effect.Deep.continue k ()
      | Terminated -> assert false
    in
    steps_of.(pid) <- steps_of.(pid) + 1;
    incr total;
    match status with
    | Finished r ->
      fibers.(pid) <- Terminated;
      outcomes.(pid) <- Decided r
    | Paused (op, k) ->
      fibers.(pid) <- Suspended k;
      pending.(pid) <-
        (match op with Some op -> Op.Op op | None -> Op.Unlabeled)
  in
  let pending_of i = pending.(i) in
  let hit_budget = ref false in
  let rec loop () =
    let a = alive () in
    if Pset.is_empty a then ()
    else if !total >= max_steps then hit_budget := true
    else
      match Schedule.next ~pending:pending_of schedule ~alive:a with
      | None -> ()
      | Some pid ->
        if Schedule.crash_now schedule ~pid ~steps_taken:steps_of.(pid) then begin
          (match on_crash with Some f -> f ~pid | None -> ());
          kill pid;
          loop ()
        end
        else begin
          step pid;
          loop ()
        end
  in
  loop ();
  (* processes the schedule abandoned (truncated, blocked or budget-cut
     runs) stay [Running] *)
  for pid = 0 to n - 1 do
    unwind pid
  done;
  { outcomes; steps = !total; hit_step_budget = !hit_budget }

let decided r =
  Array.to_list r.outcomes
  |> List.mapi (fun i o -> (i, o))
  |> List.filter_map (function i, Decided v -> Some (i, v) | _ -> None)

let decided_set r =
  List.fold_left (fun acc (i, _) -> Pset.add i acc) Pset.empty (decided r)
