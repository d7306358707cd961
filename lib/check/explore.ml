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

(* Decisions as int codes: [Step p] is [p] and [Crash p] is [n + p].
   Increasing code order is a node's enabled order (steps by pid, then
   crashes by pid), so a set of decisions is an int mask whose lowest
   bit is the DFS's next choice. [explore] keeps [2n] within a mask. *)
let code ~n = function Trace.Step p -> p | Trace.Crash p -> n + p

(* The index of the lowest set bit of [m <> 0]. *)
let lowest m =
  let rec go m i = if m land 1 <> 0 then i else go (m lsr 1) (i + 1) in
  go m 0

(* Independence of the decision [c] that fires at a node and a decision
   [z] available at the same node, both as codes: it decides whether
   [z] stays asleep below [c], and so justifies not exploring both
   orders. Crash(p) commutes with any decision of another process
   except another crash (two crashes compete for the same budget, so
   firing one can disable the other). Decisions of two distinct
   processes of [ordered] never commute: the subject's verdict reads
   their relative order ({!Assertion.ordered}). Two steps commute when
   their pending operations do: [pc] is [c]'s, and [z]'s is read from
   [m], in which only [c]'s process has moved since the node. *)
let independent ~n ~ordered m ~pc c z =
  let p = if c < n then c else c - n and q = if z < n then z else z - n in
  p <> q
  && (not (Pset.mem p ordered && Pset.mem q ordered))
  && if c < n then z >= n || Op.commute pc (Exec.pending m q) else z < n

(* Raised by a subtree task's per-execution hook when its results can
   no longer be committed (the run budget runs out before or inside it,
   or a lower-indexed task found a violation): the task's speculative
   results are discarded, never merged. *)
exception Task_abort

type 'r core_result = {
  r_tally : tally;                 (* final counters, incl. the base *)
  r_violations : 'r outcome list;  (* incl. restored ones, oldest first *)
  r_executions : int;              (* executions performed by this call *)
  r_cut : bool;                    (* stopped by [budget], subtree not covered *)
}

(* The DFS core of one task. [forced] replays a decision prefix (a
   resume frontier or a subtree prefix) on the first run; [floor] is
   the backtrack floor — nodes at depths < floor belong to the caller's
   partition and are never advanced, so the search covers exactly the
   subtree below the prefix. [budget] bounds executions performed by
   this invocation; [on_execution] runs before each one (the parallel
   driver's hook). [capture = Some (d, cell)] switches to probe
   mode: one execution, record into [cell] the branch decisions at
   depth [d] (enabled minus sleep set), count nothing. *)
let explore_core ~cfg ~stop_on_violation ~classify ~base ~forced ~floor
    ~budget ~on_execution ~checkpoint_every ~on_checkpoint ~capture ~n
    ~participants ~subject () =
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
  let subj : _ Subject.t = subject () in
  let ordered = subj.Subject.ordered and observed = subj.Subject.observed in
  let m = Exec.start ~n ~participants subj.Subject.procs in
  let decision =
    Array.init (2 * n) (fun c ->
        if c < n then Trace.Step c else Trace.Crash (c - n))
  in
  let mask_of ds =
    List.fold_left
      (fun acc d ->
        let c = code ~n d in
        if c >= 0 && c < 2 * n then acc lor (1 lsl c) else acc)
      0 ds
  in
  (* The decisions of [mask] in enabled (increasing code) order. The
     DFS adds decisions to a done set in that order, so a done list,
     newest first, is its reverse. *)
  let decisions_of mask =
    let l = ref [] in
    for c = (2 * n) - 1 downto 0 do
      if mask land (1 lsl c) <> 0 then l := decision.(c) :: !l
    done;
    !l
  in
  let forced_c = Array.of_list (List.map (fun (d, _) -> code ~n d) forced) in
  let forced_done = Array.of_list (List.map (fun (_, dn) -> mask_of dn) forced) in
  let forcing = ref (Array.length forced_c > 0) in

  (* The DFS path, one slot per depth, allocated once: the chosen
     decision, the enabled, done and inherited sleep masks, the crashes
     before the node and the pending operation of the chosen process.
     Only a node with a branch left to explore also keeps the machine
     state and the event log right before its decision: no other node
     is ever restored. Nodes [0 .. plen-1] make up the current path. *)
  let size = cfg.max_depth in
  let chosen = Array.make size 0 in
  let enabled = Array.make size 0 in
  let done_ = Array.make size 0 in
  let sleep = Array.make size 0 in
  let crashes_before = Array.make size 0 in
  let pend = Array.make size Op.Start in
  let logs = Array.make size [] in
  let states = Array.make size (Exec.save m) in
  let plen = ref 0 in

  (* The sleep set a child of node [d] inherits: the node's sleeping
     and done decisions that commute with its chosen one. *)
  let child_sleep d =
    let c = chosen.(d) and pc = pend.(d) in
    let cand = ref (sleep.(d) lor done_.(d)) and acc = ref 0 in
    while !cand <> 0 do
      let b = !cand land - !cand in
      cand := !cand lxor b;
      if independent ~n ~ordered m ~pc c (lowest b) then acc := !acc lor b
    done;
    !acc
  in

  (* Create the node at a fresh depth and pick its decision: the forced
     one, or the first enabled decision that is not asleep. False when
     every enabled decision is asleep. *)
  let new_node depth events =
    let cb =
      if depth = 0 then 0
      else crashes_before.(depth - 1) + if chosen.(depth - 1) >= n then 1 else 0
    in
    let alive = Pset.to_mask (Exec.alive m) in
    let en =
      if cb < cfg.max_crashes then
        alive lor ((alive land Pset.to_mask cfg.crashable) lsl n)
      else alive
    in
    let sl = if depth = 0 then 0 else child_sleep (depth - 1) in
    let forced_here = !forcing && depth < Array.length forced_c in
    let c =
      if forced_here then begin
        (* Resume or subtree prefix: rebuild the recorded node. The
           forced decision must still be enabled — anything else means
           the checkpoint was taken against a different protocol or
           configuration. *)
        let c = forced_c.(depth) in
        if c < 0 || c >= 2 * n || en land (1 lsl c) = 0 then
          Fact_resilience.Fact_error.precondition ~fn:"Explore.explore"
            "checkpoint does not match the protocol (forced decision not \
             enabled)";
        c
      end
      else
        let free = en land lnot sl in
        if free = 0 then -1 else lowest free
    in
    let dn = if forced_here then forced_done.(depth) else 0 in
    if c < 0 then false
    else begin
      chosen.(depth) <- c;
      enabled.(depth) <- en;
      done_.(depth) <- dn;
      sleep.(depth) <- sl;
      crashes_before.(depth) <- cb;
      if depth >= floor && en land lnot (dn lor sl lor (1 lsl c)) <> 0 then begin
        states.(depth) <- Exec.save m;
        logs.(depth) <- events
      end;
      plen := depth + 1;
      true
    end
  in

  (* One execution following the current path as prefix, extending it
     with fresh nodes past the end. The first execution starts from the
     initial state; later ones restore the deepest node, the one
     [backtrack] just advanced. Returns the report and event log plus
     whether the run was truncated (depth budget) or sleep-blocked
     (pruned). *)
  let run_once ~first =
    let depth = ref 0 and events = ref [] in
    if not first then begin
      depth := !plen - 1;
      Exec.restore m states.(!depth);
      events := logs.(!depth)
    end;
    let truncated = ref false and blocked = ref false and over = ref false in
    while not !over do
      if Pset.is_empty (Exec.alive m) then over := true
      else if !depth >= cfg.max_depth then begin
        truncated := true;
        over := true
      end
      else if !depth >= !plen && not (new_node !depth !events) then begin
        (* Every enabled decision is asleep: all continuations are
           commutation-equivalent to already-explored runs. *)
        blocked := true;
        over := true
      end
      else begin
        let c = chosen.(!depth) in
        if c < n then begin
          let op = Exec.pending m c in
          pend.(!depth) <- op;
          if Pset.mem c observed then
            events :=
              Subject.record subj
                (Subject.Stepped { e_pid = c; e_op = op })
                !events;
          Exec.step m c
        end
        else begin
          if Pset.mem (c - n) observed then
            events :=
              Subject.record subj (Subject.Crashed { e_pid = c - n }) !events;
          Exec.crash m (c - n)
        end;
        incr depth
      end
    done;
    (Exec.report m, !events, !truncated, !blocked)
  in

  (* Move to the next unexplored branch: mark the deepest node's chosen
     decision as done, pick a fresh sibling if any, else pop — but
     never past [floor]: prefix nodes belong to the caller's partition.
     Returns false when the subtree is exhausted. *)
  let rec backtrack () =
    if !plen <= floor then false
    else begin
      let d = !plen - 1 in
      done_.(d) <- done_.(d) lor (1 lsl chosen.(d));
      let available = enabled.(d) land lnot (done_.(d) lor sleep.(d)) in
      if available <> 0 then begin
        chosen.(d) <- lowest available;
        true
      end
      else begin
        decr plen;
        backtrack ()
      end
    end
  in

  let current_trace () =
    Trace.make ~n ~participants
      (List.init !plen (fun i -> decision.(chosen.(i))))
  in

  (* The processes crashed along the current path, as a mask. *)
  let current_crashes () =
    let crashed = ref 0 in
    for i = 0 to !plen - 1 do
      if chosen.(i) >= n then crashed := !crashed lor (1 lsl (chosen.(i) - n))
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
            (decision.(chosen.(i)), List.rev (decisions_of done_.(i)))) )
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
      if d < !plen then
        cell :=
          Some (decisions_of (enabled.(d) land lnot sleep.(d)));
      stop := true
    | None ->
      if blocked then incr pruned
      else begin
        if truncated then incr truncated_runs else incr runs;
        (* the trace is built only for [classify] or a violation *)
        let outcome = lazy { report; trace = current_trace (); truncated } in
        if not truncated then Hashtbl.replace patterns (current_crashes ()) ();
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
    r_cut = not !stop;
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
  (* Per task, the checkpoints it emitted (newest first) while it ran
     with an exact budget in the parallel pass; see [commit]. *)
  let emitted = Array.make ntasks [] in
  let run_task ?(record = false) i ~budget ~on_execution =
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
        ~on_checkpoint:(fun (t, fr) ->
          if record then emitted.(i) <- (t, fr) :: emitted.(i);
          set_slot i (Active (t, fr)) ~emit:true)
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
     exact budget; the tasks after it then have none left. A task that
     already ran with its exact budget and was cut by it, after earlier
     tasks made executions, is the one a speculative pass would have
     aborted and rerun here: its checkpoints are emitted again, as that
     rerun would emit them, so the last checkpoint written does not
     depend on which of the two ran. *)
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
              if r.r_cut && r.r_executions < cfg.max_runs then
                List.iter
                  (fun (t, fr) -> set_slot i (Active (t, fr)) ~emit:true)
                  (List.rev emitted.(i));
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
     pool. Task [i]'s budget is what the tasks before it leave. A task
     that starts when every earlier one has finished knows it exactly:
     it runs with that budget and nothing aborts it, so [commit] keeps
     its result. Any other task runs speculatively and aborts as soon as
     its results cannot be committed: when the executions the earlier
     tasks have made so far plus its own exceed [max_runs], or when an
     earlier task aborted that way or found a violation under
     [stop_on_violation] (the in-order DFS would stop there). *)
  let parallel torun =
    let counts = Array.init ntasks (fun _ -> Atomic.make 0) in
    let finished =
      Array.init ntasks (fun i ->
          Atomic.make (match slots.(i) with Done _ -> true | _ -> false))
    in
    let floor = Atomic.make max_int in
    let rec lower i =
      let cur = Atomic.get floor in
      if i < cur && not (Atomic.compare_and_set floor cur i) then lower i
    in
    (* What the tasks before [i] leave of [max_runs], once all of them
       have finished. *)
    let rec exact_budget i j left =
      if j = i then Some left
      else if Atomic.get finished.(j) then
        exact_budget i (j + 1) (left - Atomic.get counts.(j))
      else None
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
      let r =
        match exact_budget i 0 cfg.max_runs with
        | Some left ->
          if Atomic.get floor < i || left <= 0 then raise Task_abort;
          (* still counted, for the tasks after it *)
          let count () = Atomic.incr counts.(i) in
          run_task ~record:true i ~budget:left ~on_execution:(Some count)
        | None ->
          run_task i ~budget:cfg.max_runs ~on_execution:(Some on_execution)
      in
      if stop_on_violation && r.r_violations <> [] then lower i;
      Atomic.set finished.(i) true;
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
  if 2 * n > 62 then
    Fact_resilience.Fact_error.precondition ~fn:"Explore.explore"
      (Printf.sprintf
         "n = %d: the explorer encodes the 2n decisions of a node in a \
          62-bit mask, so n must be at most 31"
         n);
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
