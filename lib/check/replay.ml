open Fact_topology
open Fact_runtime

let schedule tr =
  let remaining = ref (Trace.decisions tr) in
  let crash_flag = ref (-1) in
  let rec next ~alive ~pending:_ =
    match !remaining with
    | [] -> None
    | d :: rest ->
      remaining := rest;
      let p = match d with Trace.Step p | Trace.Crash p -> p in
      if not (Pset.mem p alive) then next ~alive ~pending:(fun _ -> Op.Unlabeled)
      else begin
        (match d with
        | Trace.Crash _ -> crash_flag := p
        | Trace.Step _ -> ());
        Some p
      end
  in
  let crash_now ~pid ~steps_taken:_ =
    if !crash_flag = pid then begin
      crash_flag := -1;
      true
    end
    else false
  in
  Schedule.controlled ~n:(Trace.n tr)
    ~participants:(Trace.participants tr)
    ~next ~crash_now

let run ?max_steps ~procs tr =
  let max_steps =
    match max_steps with Some m -> m | None -> Trace.length tr + 1
  in
  Exec.run ~max_steps ~schedule:(schedule tr) procs

let run_subject ?max_steps ?(truncated = false) ~(subject : _ Subject.t) tr =
  let max_steps =
    match max_steps with Some m -> m | None -> Trace.length tr + 1
  in
  let events = ref [] in
  let note e = events := Subject.record subject e !events in
  let report =
    Exec.run ~max_steps
      ~on_step:(fun ~pid op -> note (Subject.Stepped { e_pid = pid; e_op = op }))
      ~on_crash:(fun ~pid -> note (Subject.Crashed { e_pid = pid }))
      ~schedule:(schedule tr) subject.Subject.procs
  in
  (* A trace that leaves participants running (e.g. a shrinking
     candidate that cut the tail of a run) is a partial execution
     whatever the caller believes: liveness assertions must hold
     vacuously on it, exactly as on a depth-budget cut, or shrinking
     could manufacture spurious "never decides" violations. *)
  let partial =
    Pset.exists
      (fun p -> report.Exec.outcomes.(p) = Exec.Running)
      (Trace.participants tr)
  in
  ( report,
    subject.Subject.check report ~events:!events
      ~truncated:(truncated || partial) )

let check ?truncated ~subject tr =
  snd (run_subject ?truncated ~subject:(subject ()) tr)
