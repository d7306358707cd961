open Fact_topology
open Fact_runtime

type config = {
  max_crashes : int;
  crashable : Pset.t;
  max_depth : int;
  max_runs : int;
}

let config ?(max_crashes = 0) ?(crashable = Pset.empty) ?(max_depth = 256)
    ?(max_runs = 100_000) () =
  if max_depth < 1 then invalid_arg "Explore.config: max_depth < 1";
  if max_runs < 1 then invalid_arg "Explore.config: max_runs < 1";
  { max_crashes; crashable; max_depth; max_runs }

type 'r outcome = {
  report : 'r Exec.report;
  trace : Trace.t;
  truncated : bool;
}

type 'r stats = {
  runs : int;
  truncated : int;
  pruned : int;
  crash_patterns : int;
  classes : int list list;
  violations : 'r outcome list;
  exhausted : bool;
}

(* Exploration splits the decision tree into subtree tasks (at one
   domain, the single root task with an empty prefix), each identified
   by a forced (chosen, done)-prefix. The prefix pins
   both the path into the tree and the sibling context (which branches
   of each prefix node the task owns are exactly [enabled \ (done ∪
   sleep)], all deterministic functions of the prefix), so a task is a
   self-contained unit of work and the partition refines the
   single-task DFS. *)
type frontier = (Trace.decision * Trace.decision list) list

(* The counters of one task. [t_viol] holds the violating runs so far
   as (decisions, truncated), oldest first. Only the traces are
   persisted — never the verdicts: a resume re-evaluates each one by
   observed replay against the current subject, so checkpoints survive
   assertion changes. [t_classes] is the task's distinct [classify]
   values; like [t_patterns] it is a set, so merging is a union. *)
type tally = {
  t_runs : int;
  t_truncated : int;
  t_pruned : int;
  t_patterns : int list; (* Pset masks of completed runs' faulty sets *)
  t_classes : int list list;
  t_viol : (Trace.decision list * bool) list;
  t_exhausted : bool;
}

(* [Active (t, frontier)]: for every depth of the task's current path,
   the chosen decision and the fully explored siblings. [enabled],
   [sleep0] and the saved states are deliberately absent — they are
   deterministic functions of the decision prefix and are rebuilt by
   re-executing one run along the frontier. *)
type progress = Todo | Done of tally | Active of tally * frontier

type subtree = {
  prefix : frontier;
  progress : progress;
}

type snapshot = subtree list

let zero_tally =
  {
    t_runs = 0;
    t_truncated = 0;
    t_pruned = 0;
    t_patterns = [];
    t_classes = [];
    t_viol = [];
    t_exhausted = false;
  }

(* Re-establish recorded violating runs against the *current* subject:
   each persisted trace is replayed (uncounted) and kept only if an
   assertion still fails. Trusting the snapshot verdict instead would
   let a checkpoint taken under one assertion set poison a resume under
   another. *)
let restore_viols ~n ~participants ~subject viols =
  List.filter_map
    (fun (ds, truncated) ->
      let tr = Trace.make ~n ~participants ds in
      let subj = subject () in
      let report, verdict = Replay.run_subject ~truncated ~subject:subj tr in
      match verdict with
      | Ok () -> None
      | Error _ -> Some { report; trace = tr; truncated })
    viols

(* A node of the decision tree, one per depth of the current DFS path.
   [enabled] is fixed at node creation; [chosen] is the decision of the
   current run; [done_] accumulates fully-explored siblings; [sleep0]
   is the node's inherited sleep set. [state] and [events] are the
   machine and the event log right before the node's decision: a run
   that branches here restores them and executes only its new suffix.
   The pending operations of [state] drive the independence checks. *)
type 'r node = {
  mutable chosen : Trace.decision;
  mutable done_ : Trace.decision list;
  sleep0 : Trace.decision list;
  enabled : Trace.decision list;
  crashes_before : int;
  state : 'r Exec.state;
  events : Subject.event list;
}

(* Independence of two decisions available at the same node: used both
   to filter sleep sets through a fired transition and to justify not
   exploring both orders. Crash(p) commutes with any decision of
   another process except another crash (two crashes compete for the
   same budget, so firing one can disable the other). Decisions of two
   distinct processes of [ordered] never commute: the subject's verdict
   reads their relative order ({!Assertion.ordered}). *)
let independent ~ordered node d1 d2 =
  match (d1, d2) with
  | Trace.Step p, Trace.Step q ->
    p <> q
    && not (Pset.mem p ordered && Pset.mem q ordered)
    && Op.commute (Exec.state_pending node.state p)
         (Exec.state_pending node.state q)
  | Trace.Crash p, Trace.Step q | Trace.Step q, Trace.Crash p ->
    p <> q && not (Pset.mem p ordered && Pset.mem q ordered)
  | Trace.Crash _, Trace.Crash _ -> false

(* Raised by a subtree task's per-execution hook when its results can
   no longer be committed (the run budget runs out before or inside it,
   or a lower-indexed task found a violation): the task's speculative
   results are discarded, never merged. *)
exception Task_abort

type 'r core_result = {
  r_tally : tally;                 (* final counters, incl. the base *)
  r_violations : 'r outcome list;  (* incl. restored ones, oldest first *)
  r_executions : int;              (* executions performed by this call *)
}

(* The DFS core of one task. [forced] replays a decision prefix (a
   resume frontier or a subtree prefix) on the first run; [floor] is
   the backtrack floor — nodes at depths < floor belong to the caller's
   partition and are never advanced, so the search covers exactly the
   subtree below the prefix. [budget] bounds executions performed by
   this invocation; [on_execution] runs before each one (the parallel
   driver's abort hook). [capture = Some (d, cell)] switches to probe
   mode: one execution, record into [cell] the branch decisions at
   depth [d] (enabled minus sleep set), count nothing. *)
let explore_core ~cfg ~stop_on_violation ~classify ~base ~forced ~floor
    ~budget ~on_execution ~checkpoint_every ~on_checkpoint ~capture ~n
    ~participants ~subject () =
  let path : _ node option array = Array.make cfg.max_depth None in
  let plen = ref 0 in
  let runs = ref base.t_runs in
  let truncated_runs = ref base.t_truncated in
  let pruned = ref base.t_pruned in
  (* newest first; restored base violations (uncounted re-evaluating
     replays) come first in trace order *)
  let violations =
    ref (List.rev (restore_viols ~n ~participants ~subject base.t_viol))
  in
  let patterns = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace patterns m ()) base.t_patterns;
  let classes = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace classes c ()) base.t_classes;
  let forced_d = Array.of_list (List.map fst forced) in
  let forced_done = Array.of_list (List.map snd forced) in
  let forcing = ref (Array.length forced_d > 0) in
  let node_at i = match path.(i) with Some nd -> nd | None -> assert false in
  let subj : _ Subject.t = subject () in
  let m = Exec.start ~n ~participants subj.Subject.procs in

  (* The decision at a fresh depth: build its node (saving the state
     the node's siblings will branch from) and pick the first enabled
     decision that is not asleep — or the forced one. [None] when
     every enabled decision is asleep. *)
  let new_node depth events =
    let alive = Exec.alive m in
    let parent = if depth = 0 then None else path.(depth - 1) in
    let crashes_before =
      match parent with
      | None -> 0
      | Some par ->
        par.crashes_before
        + (match par.chosen with Trace.Crash _ -> 1 | _ -> 0)
    in
    let steps = List.map (fun p -> Trace.Step p) (Pset.to_list alive) in
    let crashes =
      if crashes_before < cfg.max_crashes then
        List.map
          (fun p -> Trace.Crash p)
          (Pset.to_list (Pset.inter alive cfg.crashable))
      else []
    in
    let enabled = steps @ crashes in
    let sleep0 =
      match parent with
      | None -> []
      | Some par ->
        List.filter
          (fun z -> independent ~ordered:subj.Subject.ordered par z par.chosen)
          (par.sleep0 @ par.done_)
    in
    let choice =
      if !forcing && depth < Array.length forced_d then begin
        (* Resume or subtree prefix: rebuild the recorded node. The
           forced decision must still be enabled — anything else means
           the checkpoint was taken against a different protocol or
           configuration. *)
        let d = forced_d.(depth) in
        if not (List.mem d enabled) then
          Fact_resilience.Fact_error.precondition ~fn:"Explore.explore"
            "checkpoint does not match the protocol (forced decision not \
             enabled)";
        Some (d, forced_done.(depth))
      end
      else
        match List.find_opt (fun d -> not (List.mem d sleep0)) enabled with
        | None -> None
        | Some d -> Some (d, [])
    in
    match choice with
    | None -> None
    | Some (d, done0) ->
      path.(depth) <-
        Some
          { chosen = d; done_ = done0; sleep0; enabled; crashes_before;
            state = Exec.save m; events };
      plen := depth + 1;
      Some d
  in

  (* One execution following the current path as prefix, extending it
     with fresh nodes past the end. The first execution starts from the
     initial state; later ones restore the deepest node, the one
     [backtrack] just advanced. Returns the report and event log plus
     whether the run was truncated (depth budget) or sleep-blocked
     (pruned). *)
  let run_once ~first =
    let depth0, events0 =
      if first then (0, [])
      else begin
        let nd = node_at (!plen - 1) in
        Exec.restore m nd.state;
        (!plen - 1, nd.events)
      end
    in
    let rec go depth events =
      if Pset.is_empty (Exec.alive m) then (events, false, false)
      else if depth >= cfg.max_depth then (events, true, false)
      else
        let decision =
          if depth < !plen then Some (node_at depth).chosen
          else new_node depth events
        in
        match decision with
        | None ->
          (* Every enabled decision is asleep: all continuations are
             commutation-equivalent to already-explored runs. *)
          (events, false, true)
        | Some (Trace.Step p) ->
          let events =
            Subject.record subj
              (Subject.Stepped { e_pid = p; e_op = Exec.pending m p })
              events
          in
          Exec.step m p;
          go (depth + 1) events
        | Some (Trace.Crash p) ->
          let events =
            Subject.record subj (Subject.Crashed { e_pid = p }) events
          in
          Exec.crash m p;
          go (depth + 1) events
    in
    let events, truncated, blocked = go depth0 events0 in
    (Exec.report m, events, truncated, blocked)
  in

  (* Move to the next unexplored branch: mark the deepest node's chosen
     decision as done, pick a fresh sibling if any, else pop — but
     never past [floor]: prefix nodes belong to the caller's partition.
     Returns false when the subtree is exhausted. *)
  let rec backtrack () =
    if !plen <= floor then false
    else begin
      let nd = node_at (!plen - 1) in
      nd.done_ <- nd.chosen :: nd.done_;
      let available =
        List.filter
          (fun d -> not (List.mem d nd.done_ || List.mem d nd.sleep0))
          nd.enabled
      in
      match available with
      | d :: _ ->
        nd.chosen <- d;
        true
      | [] ->
        decr plen;
        path.(!plen) <- None;
        backtrack ()
    end
  in

  let current_trace () =
    Trace.make ~n ~participants
      (List.init !plen (fun i -> (node_at i).chosen))
  in

  (* The processes crashed along the current path. *)
  let current_crashes () =
    let crashed = ref Pset.empty in
    for i = 0 to !plen - 1 do
      match (node_at i).chosen with
      | Trace.Crash p -> crashed := Pset.add p !crashed
      | Trace.Step _ -> ()
    done;
    !crashed
  in

  let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  let tally ~exhausted =
    {
      t_runs = !runs;
      t_truncated = !truncated_runs;
      t_pruned = !pruned;
      t_patterns = keys patterns;
      t_classes = keys classes;
      t_viol =
        List.rev_map
          (fun o -> (Trace.decisions o.trace, o.truncated))
          !violations;
      t_exhausted = exhausted;
    }
  in

  (* Snapshot for resume. Taken at the top of the loop, so the frontier
     is exactly the prefix the next (not yet counted) run will follow:
     a resumed exploration replays that one run under forcing and then
     continues as if never interrupted. Before the first run the path
     is still empty, so fall back to the pending forced prefix — a
     flush must never lose the task's position. *)
  let current_checkpoint () =
    ( tally ~exhausted:false,
      if !forcing then forced
      else
        List.init !plen (fun i ->
            let nd = node_at i in
            (nd.chosen, nd.done_)) )
  in

  let executions = ref 0 in
  let exhausted = ref false in
  let stop = ref false in
  while (not !stop) && !executions < budget do
    (match on_execution with None -> () | Some hook -> hook ());
    (* Cancellation is polled once per run; a trip flushes a final
       checkpoint so the exploration can be resumed later. *)
    (try Fact_resilience.Cancel.poll ~where:"Explore.explore"
     with Fact_resilience.Fact_error.Error _ as e ->
       on_checkpoint (current_checkpoint ());
       raise e);
    if
      checkpoint_every > 0 && !executions > 0
      && !executions mod checkpoint_every = 0
    then on_checkpoint (current_checkpoint ());
    let report, events, truncated, blocked =
      run_once ~first:(!executions = 0)
    in
    forcing := false;
    incr executions;
    (match capture with
    | Some (d, cell) ->
      (* probe mode: record the branch decisions at depth [d] — the
         node's enabled minus its sleep set, in enabled order, which is
         exactly the branch set the DFS explores there *)
      if d < !plen then begin
        let nd = node_at d in
        cell :=
          Some
            (List.filter (fun x -> not (List.mem x nd.sleep0)) nd.enabled)
      end;
      stop := true
    | None ->
      if blocked then incr pruned
      else begin
        if truncated then incr truncated_runs else incr runs;
        (* the trace is built only for [classify] or a violation *)
        let outcome = lazy { report; trace = current_trace (); truncated } in
        if not truncated then
          Hashtbl.replace patterns (Pset.to_mask (current_crashes ())) ();
        (match classify with
        | Some f ->
          Option.iter
            (fun c -> Hashtbl.replace classes c ())
            (f (Lazy.force outcome))
        | None -> ());
        match subj.Subject.check report ~events ~truncated with
        | Ok () -> ()
        | Error _ ->
          violations := Lazy.force outcome :: !violations;
          if stop_on_violation then stop := true
      end;
      if not !stop then
        if not (backtrack ()) then begin
          exhausted := true;
          stop := true
        end)
  done;
  {
    r_tally = tally ~exhausted:!exhausted;
    r_violations = List.rev !violations;
    r_executions = !executions;
  }

(* ------------------------------------------------------------------ *)
(* Subtree splitting.                                                 *)
(* ------------------------------------------------------------------ *)

(* The branch set the DFS explores at a node is [enabled \
   sleep0] in enabled order; the [done] context each branch sees is the
   previously-explored siblings, newest first. *)
let expand_children explored =
  let rec go done_ acc = function
    | [] -> List.rev acc
    | d :: rest -> go (d :: done_) ((d, done_) :: acc) rest
  in
  go [] [] explored

(* Split the decision tree into subtree prefixes, in DFS order. Each
   level probes every expandable leaf with one uncounted forced
   execution to read the branch decisions at the leaf's depth; leaves
   whose run ends, blocks or truncates before that depth stay whole.
   Expansion stops once there are enough tasks to keep [domains]
   workers busy (or at a fixed depth cap — beyond it task granularity
   no longer matters, stealing balances the load). *)
let split_subtrees ~cfg ~domains ~n ~participants ~subject =
  let probe prefix =
    let depth = List.length prefix in
    if depth >= cfg.max_depth then None
    else begin
      let cell = ref None in
      ignore
        (explore_core ~cfg ~stop_on_violation:false ~classify:None
           ~base:zero_tally ~forced:prefix ~floor:depth ~budget:1
           ~on_execution:None ~checkpoint_every:0
           ~on_checkpoint:(fun _ -> ())
           ~capture:(Some (depth, cell)) ~n ~participants ~subject ());
      !cell
    end
  in
  let target = 2 * domains in
  let max_levels = 3 in
  let rec level leaves count remaining =
    if remaining = 0 || count >= target then leaves
    else
      let expanded =
        List.concat_map
          (fun (prefix, expandable) ->
            if not expandable then [ (prefix, false) ]
            else
              match probe prefix with
              | None | Some [] -> [ (prefix, false) ]
              | Some explored ->
                List.map
                  (fun (d, dn) -> (prefix @ [ (d, dn) ], true))
                  (expand_children explored))
          leaves
      in
      level expanded (List.length expanded) (remaining - 1)
  in
  level [ ([], true) ] 1 max_levels
  |> List.map (fun (prefix, _) -> { prefix; progress = Todo })

(* ------------------------------------------------------------------ *)
(* The task driver.                                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic merge of per-task (tally, violations), in task (= DFS)
   order. Counter sums, pattern- and class-set unions and in-order
   violation concatenation are all independent of how the tree was
   partitioned and of execution interleaving, which is what makes the
   counts bit-identical for any domain count. *)
let merge items ~cut =
  let patterns = Hashtbl.create 16 in
  let classes = Hashtbl.create 16 in
  let s =
    List.fold_left
      (fun s (t, viols) ->
        List.iter (fun m -> Hashtbl.replace patterns m ()) t.t_patterns;
        List.iter (fun c -> Hashtbl.replace classes c ()) t.t_classes;
        {
          s with
          runs = s.runs + t.t_runs;
          truncated = s.truncated + t.t_truncated;
          pruned = s.pruned + t.t_pruned;
          violations = s.violations @ viols;
          exhausted = s.exhausted && t.t_exhausted;
        })
      {
        runs = 0;
        truncated = 0;
        pruned = 0;
        crash_patterns = 0;
        classes = [];
        violations = [];
        exhausted = not cut;
      }
      items
  in
  {
    s with
    crash_patterns = Hashtbl.length patterns;
    classes = List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) classes []);
  }

let explore_tasks ~cfg ~stop_on_violation ~classify ~checkpoint_every
    ~on_checkpoint ~domains ~n ~participants ~subject subtrees =
  let restore = restore_viols ~n ~participants ~subject in
  let subs = Array.of_list subtrees in
  let ntasks = Array.length subs in
  let slots = Array.map (fun st -> st.progress) subs in
  let lock = Mutex.create () in
  let emit_lock = Mutex.create () in
  let snapshot_locked () =
    List.init ntasks (fun i -> { prefix = subs.(i).prefix; progress = slots.(i) })
  in
  let deliver snap =
    match on_checkpoint with
    | None -> ()
    | Some f ->
      Mutex.lock emit_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock emit_lock) (fun () -> f snap)
  in
  let set_slot i p ~emit =
    Mutex.lock lock;
    slots.(i) <- p;
    let snap =
      if emit && on_checkpoint <> None then Some (snapshot_locked ()) else None
    in
    Mutex.unlock lock;
    Option.iter deliver snap
  in
  let run_task i ~budget ~on_execution =
    let base, forced =
      match slots.(i) with
      | Todo -> (zero_tally, subs.(i).prefix)
      | Active (t, frontier) -> (t, frontier)
      | Done _ -> assert false
    in
    let r =
      explore_core ~cfg ~stop_on_violation ~classify ~base ~forced
        ~floor:(List.length subs.(i).prefix) ~budget ~on_execution
        ~checkpoint_every
        ~on_checkpoint:(fun (t, fr) -> set_slot i (Active (t, fr)) ~emit:true)
        ~capture:None ~n ~participants ~subject ()
    in
    set_slot i (Done r.r_tally) ~emit:false;
    r
  in

  (* Commit the tasks strictly in order with the exact remaining
     budget: the single-task DFS applied subtree by subtree. A task's
     speculative result from the parallel pass is taken as is when it
     ran to its end within the budget left for it — it is then exactly
     what running the task here would give. Otherwise (aborted, or more
     executions than the budget leaves) the task runs here with the
     exact budget; the tasks after it then have none left. *)
  let commit speculative =
    Array.iteri (fun i st -> slots.(i) <- st.progress) subs;
    let rec go i budget items =
      if i = ntasks then merge (List.rev items) ~cut:false
      else
        match subs.(i).progress with
        | Done t -> go (i + 1) budget ((t, restore t.t_viol) :: items)
        | Todo | Active _ when budget <= 0 -> merge (List.rev items) ~cut:true
        | Todo | Active _ ->
          let r =
            match speculative.(i) with
            | Some (Ok r) when r.r_executions <= budget ->
              slots.(i) <- Done r.r_tally;
              r
            | Some (Ok _) | Some (Error (Task_abort, _)) | None ->
              run_task i ~budget ~on_execution:None
            | Some (Error eb) -> Parallel.reraise eb
          in
          let items = (r.r_tally, r.r_violations) :: items in
          if stop_on_violation && r.r_violations <> [] then
            merge (List.rev items) ~cut:true
          else go (i + 1) (budget - r.r_executions) items
    in
    go 0 cfg.max_runs []
  in

  (* The parallel pass: every task runs its whole subtree on the domain
     pool. Task [i]'s budget is what the tasks before it leave, which is
     known only once they finish, so it runs speculatively and aborts as
     soon as its results cannot be committed: when the executions the
     earlier tasks have made so far plus its own exceed [max_runs], or
     when an earlier task aborted that way or found a violation under
     [stop_on_violation] (the in-order DFS would stop there). *)
  let parallel torun =
    let counts = Array.init ntasks (fun _ -> Atomic.make 0) in
    let floor = Atomic.make max_int in
    let rec lower i =
      let cur = Atomic.get floor in
      if i < cur && not (Atomic.compare_and_set floor cur i) then lower i
    in
    let task i () =
      let on_execution () =
        if Atomic.get floor < i then raise Task_abort;
        let own = Atomic.fetch_and_add counts.(i) 1 + 1 in
        let before = ref 0 in
        for j = 0 to i - 1 do
          before := !before + Atomic.get counts.(j)
        done;
        if !before + own > cfg.max_runs then begin
          lower i;
          raise Task_abort
        end
      in
      let r = run_task i ~budget:cfg.max_runs ~on_execution:(Some on_execution) in
      if stop_on_violation && r.r_violations <> [] then lower i;
      r
    in
    let outcomes =
      Parallel.run_all ~workers:domains (List.map (fun i -> task i) torun)
    in
    let cancellation =
      List.find_map
        (function
          | Error ((e, _) as eb)
            when Fact_resilience.Fact_error.is_cancellation e ->
            Some eb
          | _ -> None)
        outcomes
    in
    match cancellation with
    | Some eb ->
      (* every task settled (cancelled tasks flushed their frontier into
         the slots); surface one final resumable snapshot, then
         propagate the stop request *)
      Mutex.lock lock;
      let s = snapshot_locked () in
      Mutex.unlock lock;
      deliver s;
      Parallel.reraise eb
    | None ->
      let speculative = Array.make ntasks None in
      List.iter2 (fun i o -> speculative.(i) <- Some o) torun outcomes;
      commit speculative
  in
  let torun =
    List.filter
      (fun i -> match slots.(i) with Done _ -> false | _ -> true)
      (List.init ntasks Fun.id)
  in
  match torun with
  | _ :: _ :: _ when domains > 1 -> parallel torun
  | _ -> commit (Array.make ntasks None)

(* ------------------------------------------------------------------ *)
(* Public entry point.                                                *)
(* ------------------------------------------------------------------ *)

let explore ?(config = config ()) ?(stop_on_violation = false) ?classify
    ?resume ?(checkpoint_every = 0) ?on_checkpoint ?domains ~n ~participants
    ~subject () =
  let cfg = config in
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Parallel.default_domains ()
  in
  let subtrees =
    match resume with
    | Some subtrees -> subtrees
    | None when domains <= 1 -> [ { prefix = []; progress = Todo } ]
    | None -> split_subtrees ~cfg ~domains ~n ~participants ~subject
  in
  explore_tasks ~cfg ~stop_on_violation ~classify ~checkpoint_every
    ~on_checkpoint ~domains ~n ~participants ~subject subtrees

let pp_stats ppf s =
  Format.fprintf ppf
    "runs %d (truncated %d, pruned %d) crash patterns %d violations %d%s"
    s.runs s.truncated s.pruned s.crash_patterns
    (List.length s.violations)
    (if s.exhausted then " [exhaustive]" else " [budget hit]")
