(* fact — command-line interface to the FACT library.

   Subcommands:
     analyze   classify an adversary, print its agreement function
     affine    build the affine task R_A and print statistics
     run       execute Algorithm 1 under a random alpha-model schedule
     solve     decide k-set-consensus solvability from R_A iterations
     chr       print statistics of Chr^m s
     explore   model-check a protocol over all interleavings (lib/check)
     assert    list built-in trace assertions and seeded mutants
     chaos     inject faults into the resilience layer and audit it
     census    classify every adversary over n processes
     serve     long-lived query server (dedup, batching, warm store)
     client    query a running server (with optional retry/backoff)
     cluster   supervised sharded+replicated worker cluster front tier
     loadgen   concurrent query burst against a server or cluster
     ra        one-shot evaluation of the ra serve endpoint
     campaign  run a declarative grid sweep (content-addressed results)
     report    aggregate a results directory; CI regression gate
     bench     run single timed bench entries (--filter)

   Adversaries are given either by a preset name
   (wait-free | t-res:T | k-of:K | fig5b) or as explicit live sets,
   e.g. --live 0,1 --live 2.

   Exit codes (see DESIGN.md, "Failure model and resource bounds"):
     0  success
     1  property violation / counterexample found / chaos invariant broken
     2  precondition or usage error
     3  deadline exceeded (--timeout)
     4  cancelled
     5  worker failure (parallel fan-out)
     6  resource limit *)

open Cmdliner
open Fact_core.Fact

let pf = Format.printf

(* ------------------------- error rendering ------------------------ *)

(* Every subcommand body runs under this wrapper: typed [Fact_error]s
   map to their documented exit codes, stray [Failure]/
   [Invalid_argument] render as usage errors (exit 2). [--timeout]
   installs an ambient cooperative deadline for the whole body. *)
let guarded timeout f =
  let body () =
    match timeout with
    | None -> f ()
    | Some s -> Cancel.with_token (Cancel.create ~deadline_s:s ()) f
  in
  match body () with
  | () -> ()
  | exception Fact_error.Error err ->
    prerr_endline ("fact: " ^ Fact_error.to_string err);
    exit (Fact_error.exit_code err)
  | exception (Failure msg | Invalid_argument msg) ->
    prerr_endline ("fact: " ^ msg);
    exit 2

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Cooperative deadline for the whole command: long-running \
           pipelines poll an ambient token and abort with exit code 3 \
           once SECS seconds elapsed.")

(* ----------------------------- adversary argument ----------------- *)

let parse_live s =
  try
    Ok
      (Pset.of_list
         (List.map int_of_string
            (String.split_on_char ',' (String.trim s))))
  with Failure _ -> Error (`Msg (Printf.sprintf "bad live set %S" s))

let live_conv = Arg.conv (parse_live, fun ppf p -> Pset.pp ppf p)

(* The serve endpoints resolve their adversary from the same flags as
   the one-shot commands; with neither flag they default to wait-free,
   so [fact ra --n 3] and [fact client ra --n 3] name the same query. *)
let spec_of ~preset ~live_sets : Query.adversary_spec =
  match (preset, live_sets) with
  | Some p, [] -> Query.Preset p
  | None, [] -> Query.Preset "wait-free"
  | None, (_ :: _ as ls) -> Query.Live (List.map Pset.to_list ls)
  | Some _, _ :: _ -> failwith "give either --preset or --live, not both"

(* The one-shot commands resolve the flags exactly as a served query
   does, so a bad preset is the same typed [Precondition] everywhere;
   only the wait-free default is theirs to refuse. *)
let adversary_of ~n ~preset ~live_sets =
  match (preset, live_sets) with
  | None, [] -> failwith "give an adversary: --preset or --live"
  | _ -> Query.adversary ~n (spec_of ~preset ~live_sets)

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of processes.")

let preset_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "preset" ] ~docv:"NAME"
        ~doc:"Adversary preset: wait-free | t-res:T | k-of:K | fig5b.")

let live_arg =
  Arg.(
    value & opt_all live_conv []
    & info [ "live" ] ~docv:"P,Q,..."
        ~doc:"A live set, as comma-separated process ids (repeatable).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let with_adversary f n preset live_sets =
  f n (adversary_of ~n ~preset ~live_sets)

(* ----------------------------- analyze ---------------------------- *)

let analyze n adv =
  pf "adversary: %a@." Adversary.pp adv;
  let c = classify adv in
  pf "superset-closed: %b@.symmetric: %b@.fair: %b@." c.superset_closed
    c.symmetric c.fair;
  pf "agreement power (setcon): %d@." c.agreement_power;
  pf "minimal hitting set size (csize): %d@."
    (Hitting.csize (Adversary.live_sets adv));
  let alpha = Agreement.of_adversary adv in
  pf "agreement function:@.";
  List.iter
    (fun p -> pf "  alpha(%a) = %d@." Pset.pp p (Agreement.eval alpha p))
    (Pset.nonempty_subsets (Pset.full n));
  if not c.fair then begin
    pf "fairness violations:@.";
    List.iter
      (fun (p, q, got, expected) ->
        pf "  P=%a Q=%a setcon(A|P,Q)=%d expected %d@." Pset.pp p Pset.pp q
          got expected)
      (Fairness.violations adv)
  end

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Classify an adversary (Figure 2).")
    Term.(
      const (fun timeout n preset live ->
          guarded timeout (fun () -> with_adversary analyze n preset live))
      $ timeout_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------------- affine ----------------------------- *)

let affine n adv =
  ignore n;
  let task = affine_task_of_adversary adv in
  pf "R_A: %a@." Affine_task.pp_stats task;
  let c = Affine_task.complex task in
  pf "simplices: %d  euler characteristic: %d@." (Complex.simplex_count c)
    (Complex.euler_characteristic c);
  pf "volume fraction of |Chr^2 s|: %.4f@." (Geometry.total_volume c);
  pf "link-connected: %b@." (Link.is_link_connected c);
  List.iter
    (fun p ->
      let d = Affine_task.delta task p in
      pf "  delta(%a): %d facets@." Pset.pp p (Complex.facet_count d))
    (Pset.nonempty_subsets (Pset.full (Adversary.n adv)))

let affine_cmd =
  Cmd.v
    (Cmd.info "affine" ~doc:"Build the affine task R_A (Definition 9).")
    Term.(
      const (fun timeout n preset live ->
          guarded timeout (fun () -> with_adversary affine n preset live))
      $ timeout_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------------- run -------------------------------- *)

let run_alg1 seed n adv =
  let alpha = Agreement.of_adversary adv in
  let participation = Pset.full n in
  if Agreement.eval alpha participation < 1 then
    failwith "alpha(full participation) = 0, no alpha-model run";
  let schedule = Schedule.alpha_model ~seed alpha ~participation in
  pf "faulty processes: %a@." Pset.pp (Schedule.faulty schedule);
  let report = Algorithm1.run alpha ~schedule in
  Array.iteri
    (fun pid outcome ->
      match outcome with
      | Exec.Decided o ->
        pf "p%d: View1=%a View2={%a}@." pid Pset.pp o.Algorithm1.view1
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
             (fun ppf (j, v1) -> Format.fprintf ppf "p%d:%a" j Pset.pp v1))
          o.Algorithm1.view2
      | Exec.Crashed k -> pf "p%d: crashed after %d steps@." pid k
      | Exec.Running -> pf "p%d: still running@." pid)
    report.Exec.outcomes;
  match List.map snd (Exec.decided report) with
  | [] -> pf "nobody decided@."
  | outputs ->
    let sigma = Algorithm1.simplex_of_outputs outputs in
    let ra = affine_task_of_adversary adv in
    pf "output simplex lands in R_A: %b (total steps %d)@."
      (Complex.mem sigma (Affine_task.complex ra))
      report.Exec.steps

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute Algorithm 1 under a random alpha-model schedule.")
    Term.(
      const (fun timeout seed n preset live ->
          guarded timeout (fun () ->
              with_adversary (run_alg1 seed) n preset live))
      $ timeout_arg $ seed_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------------- solve ------------------------------ *)

let solve k n adv =
  let power = Setcon.setcon adv in
  pf "agreement power: %d; deciding %d-set consensus...@." power k;
  let t =
    Set_consensus.task_fixed ~n ~k ~inputs:(List.init n (fun i -> i))
  in
  let ra = affine_task_of_adversary adv in
  match
    Solver.solve ~protocol:(Affine_task.apply ra t.Task.inputs) ~task:t
  with
  | Solver.Solvable _ ->
    pf "solvable from one iteration of R_A (map found and certified)@."
  | Solver.Unsolvable ->
    pf "no simplicial map from R_A^1 (consistent with setcon = %d)@." power

let solve_cmd =
  let k_arg =
    Arg.(value & opt int 1 & info [ "k" ] ~doc:"Set-consensus parameter k.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Decide k-set-consensus solvability from R_A (Theorem 16).")
    Term.(
      const (fun timeout k n preset live ->
          guarded timeout (fun () -> with_adversary (solve k) n preset live))
      $ timeout_arg $ k_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------------- chr -------------------------------- *)

let chr n m =
  let c = Chr.iterate m (Chr.standard n) in
  pf "Chr^%d s (n=%d): %a@." m n Complex.pp_stats c;
  pf "simplices: %d  euler characteristic: %d@." (Complex.simplex_count c)
    (Complex.euler_characteristic c)

let chr_cmd =
  let m_arg =
    Arg.(value & opt int 1 & info [ "m" ] ~doc:"Subdivision iterations.")
  in
  Cmd.v
    (Cmd.info "chr" ~doc:"Statistics of the iterated chromatic subdivision.")
    Term.(
      const (fun timeout n m -> guarded timeout (fun () -> chr n m))
      $ timeout_arg $ n_arg $ m_arg)

(* ----------------------------- explore ---------------------------- *)

let load_checkpoint file =
  match Checkpoint.load file with
  | Ok ck -> ck
  | Error msg -> failwith msg (* already names the file *)

(* --assert SPEC resolves, in order: a built-in name for the protocol
   (see [fact assert list]), a file holding an assertion s-expression,
   or an inline s-expression. *)
let assertion_of ~protocol ~n spec =
  match Harness.builtin ~protocol spec with
  | Some b -> b.Harness.b_assertion ~n
  | None ->
    let text =
      if Sys.file_exists spec then (
        let ic = open_in spec in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
      else spec
    in
    (match Assertion.of_string (String.trim text) with
    | Ok a -> a
    | Error msg -> failwith (Printf.sprintf "--assert %s: %s" spec msg))

let explore protocol max_depth max_runs max_crashes skip_wait assert_spec
    mutate agreement_k stop_on_violation checkpoint_file checkpoint_every
    resume_file domains n preset live_sets =
  let participants = Pset.full n in
  let resume = Option.map load_checkpoint resume_file in
  let on_checkpoint =
    Option.map (fun file ck -> Checkpoint.save file ck) checkpoint_file
  in
  let checkpoint_every =
    if checkpoint_file = None then 0 else checkpoint_every
  in
  let assertion = Option.map (assertion_of ~protocol ~n) assert_spec in
  let bad_mutant m =
    failwith
      (Printf.sprintf "unknown %s mutant %S (see fact assert list)" protocol m)
  in
  (* Shared violation reporting: shrink assertion-aware, confirm the
     shrunk trace by a standalone replay, print it replayable. *)
  let report_violations :
      'r. subject:(unit -> 'r Subject.t) -> 'r Explore.outcome list ->
      ok:string -> unit =
   fun ~subject violations ~ok ->
    match violations with
    | [] -> pf "%s@." ok
    | v :: _ ->
      let truncated = v.Explore.truncated in
      let shrunk = Minimize.shrink_subject ~truncated ~subject v.Explore.trace in
      (match Replay.check ~truncated ~subject shrunk with
      | Error msg -> pf "violation! %s@." msg
      | Ok () -> pf "violation (does not replay standalone?)@.");
      pf "counterexample (%d decisions, shrunk to %d):@."
        (Trace.length v.Explore.trace)
        (Trace.length shrunk);
      pf "%a@." Trace.pp shrunk;
      exit 1
  in
  match protocol with
  | "is" ->
    let mutation =
      match mutate with
      | None -> None
      | Some "split-snapshot" -> Some Harness.Split_snapshot
      | Some m -> bad_mutant m
    in
    let stats, parts =
      Harness.explore_immediate_snapshot ~max_depth ~max_runs ?mutation
        ?assertion ~stop_on_violation ?resume ~checkpoint_every ?on_checkpoint
        ?domains ~n ()
    in
    pf "one-shot IS, n=%d: %a@." n Explore.pp_stats stats;
    pf "distinct ordered partitions: %d (fubini %d = %d)@."
      (List.length parts) n (Opart.fubini n);
    report_violations
      ~subject:(Harness.is_subject ?mutation ?assertion ~n ())
      stats.Explore.violations
      ~ok:"no violation: every run yields a valid ordered partition"
  | "alg1" ->
    let adv =
      match (preset, live_sets) with
      | None, [] -> Adversary.wait_free n
      | _ -> adversary_of ~n ~preset ~live_sets
    in
    let alpha = Agreement.of_adversary adv in
    pf "adversary: %a@." Adversary.pp adv;
    if skip_wait then pf "ablation: wait phase disabled@.";
    let mutation =
      match mutate with
      | None -> None
      | Some "skip-wait" -> Some Algorithm1.Skip_wait
      | Some "drop-second-snapshot" -> Some Algorithm1.Drop_second_snapshot
      | Some "biased-view" -> Some Algorithm1.Biased_view
      | Some m -> bad_mutant m
    in
    let stats =
      Harness.explore_algorithm1 ~skip_wait ?mutation ?assertion ?max_crashes
        ~max_depth ~max_runs ~stop_on_violation ?resume ~checkpoint_every
        ?on_checkpoint ?domains ~alpha ~participants ()
    in
    pf "Algorithm 1, n=%d: %a@." n Explore.pp_stats stats;
    report_violations
      ~subject:
        (Harness.alg1_subject ~skip_wait ?mutation ?assertion ~alpha
           ~participants ())
      stats.Explore.violations
      ~ok:"no violation: all explored runs land in R_A"
  | "wsmin" ->
    let mutation =
      match mutate with
      | None -> None
      | Some "biased-decision" -> Some Harness.Biased_decision
      | Some m -> bad_mutant m
    in
    let stats =
      Harness.explore_snapmin ?mutation ?k:agreement_k ?assertion ~max_depth
        ~max_runs ~stop_on_violation ?resume ~checkpoint_every ?on_checkpoint
        ?domains ~n ()
    in
    pf "write-snapshot-min, n=%d: %a@." n Explore.pp_stats stats;
    report_violations
      ~subject:(Harness.wsmin_subject ?mutation ?k:agreement_k ?assertion ~n ())
      stats.Explore.violations
      ~ok:"no violation: validity, agreement and termination hold"
  | p -> failwith ("unknown protocol " ^ p ^ " (alg1 | is | wsmin)")

let explore_cmd =
  let protocol_arg =
    Arg.(
      value & opt string "alg1"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"Protocol to model-check: alg1 (Algorithm 1) | is (one-shot \
                immediate snapshot) | wsmin (write, snapshot, decide min).")
  in
  let assert_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "assert" ] ~docv:"SPEC"
          ~doc:
            "Assertion to check on every explored run: a built-in name \
             (see $(b,fact assert list)), a file holding an assertion \
             s-expression, or an inline s-expression such as \
             '(and validity (agreement 1))'. Default: the protocol's \
             built-in oracle.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"NAME"
          ~doc:
            "Replace the protocol by a seeded broken variant (see \
             $(b,fact assert list)); the assertions are expected to find \
             a counterexample.")
  in
  let agreement_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "agreement" ] ~docv:"K"
          ~doc:
            "Agreement bound of the wsmin default assertion (default: n). \
             K = 1 asks for consensus and yields a counterexample.")
  in
  let max_depth_arg =
    Arg.(
      value & opt int 64
      & info [ "max-depth" ] ~doc:"Decisions per run before truncation.")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 100_000
      & info [ "max-runs" ] ~doc:"Total execution budget.")
  in
  let max_crashes_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-crashes" ]
          ~doc:"Crash budget per run. Default: the alpha-model bound \
                alpha(P) - 1.")
  in
  let skip_wait_arg =
    Arg.(
      value & flag
      & info [ "skip-wait" ]
          ~doc:"Ablation: drop Algorithm 1's wait phase (lines 6-9); the \
                explorer then finds runs escaping R_A.")
  in
  let stop_arg =
    Arg.(
      value & flag
      & info [ "stop-on-violation" ]
          ~doc:
            "Stop the search at the first violating run instead of \
             exploring the whole tree; with --domains the leftmost \
             violation is kept, so the reported counterexample matches \
             the sequential one.")
  in
  let checkpoint_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable checkpoint to FILE periodically (see \
             --checkpoint-every) and when a --timeout deadline trips \
             mid-search.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 1000
      & info [ "checkpoint-every" ] ~docv:"RUNS"
          ~doc:"Checkpoint every RUNS executions (with --checkpoint).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume an interrupted exploration from a checkpoint FILE; the \
             final counts equal an uninterrupted run's.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Fan the search out over N domains of the work-stealing pool \
             (default: FACT_DOMAINS or 1). The reported counts are \
             identical for any N.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore protocol interleavings (DFS with sleep-set \
          pruning and crash injection) and check outputs against R_A. The \
          adversary defaults to wait-free.")
    Term.(
      const (fun timeout protocol max_depth max_runs max_crashes skip_wait
                 assert_spec mutate agreement stop checkpoint_file
                 checkpoint_every resume_file domains n preset live ->
          guarded timeout (fun () ->
              explore protocol max_depth max_runs max_crashes skip_wait
                assert_spec mutate agreement stop checkpoint_file
                checkpoint_every resume_file domains n preset live))
      $ timeout_arg $ protocol_arg $ max_depth_arg $ max_runs_arg
      $ max_crashes_arg $ skip_wait_arg $ assert_arg $ mutate_arg
      $ agreement_arg $ stop_arg $ checkpoint_file_arg $ checkpoint_every_arg
      $ resume_arg $ domains_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------------- assert ----------------------------- *)

let assert_list () =
  pf "built-in assertions (fact explore --assert NAME):@.";
  List.iter
    (fun (b : Harness.builtin) ->
      pf "  %-6s %-14s %s@." b.Harness.b_protocol b.b_name b.b_doc)
    Harness.builtins;
  pf "@.seeded mutants (fact explore --mutate NAME):@.";
  List.iter
    (fun (s : Mutant.spec) ->
      pf "  %-6s %-22s n=%d  caught by %s: %s@." s.Mutant.m_protocol s.m_name
        s.m_n s.m_caught_by s.m_doc)
    Mutant.all

let assert_cmd =
  let list_cmd =
    Cmd.v
      (Cmd.info "list"
         ~doc:"List the built-in assertions and the seeded mutants.")
      Term.(const (fun () -> assert_list ()) $ const ())
  in
  Cmd.group
    (Cmd.info "assert"
       ~doc:
         "Inspect the declarative assertion registry: built-in trace \
          assertions per protocol and the seeded mutants they are \
          mutation-tested against.")
    [ list_cmd ]

(* ----------------------------- chaos ------------------------------ *)

let chaos_run seed max_faults serve_faults cluster_faults =
  let report stats =
    pf "%a@." Chaos.pp_stats stats;
    stats.Chaos.violations
  in
  let optional faults run = if faults < 1 then [] else report (run faults) in
  let pipeline = report (Chaos.run ~seed ~max_faults ()) in
  let serve =
    optional serve_faults (fun max_faults ->
        Serve_chaos.run ~seed ~max_faults ())
  in
  let cluster =
    optional cluster_faults (fun max_faults ->
        Serve_chaos.run_cluster ~seed ~max_faults ())
  in
  match pipeline @ serve @ cluster with
  | [] -> pf "all invariants held@."
  | vs ->
    List.iter (fun m -> pf "violation: %s@." m) vs;
    exit 1

let chaos_cmd =
  let max_faults_arg =
    Arg.(
      value & opt int 100
      & info [ "max-faults" ] ~doc:"Number of faults to inject.")
  in
  let serve_faults_arg =
    Arg.(
      value & opt int 0
      & info [ "serve-faults" ] ~docv:"N"
          ~doc:
            "Also boot a throwaway query server and inject N listener-side \
             faults (client disconnects, corrupted store entries, forced \
             evictions mid-batch, protocol garbage).")
  in
  let cluster_faults_arg =
    Arg.(
      value & opt int 0
      & info [ "cluster-faults" ] ~docv:"N"
          ~doc:
            "Also boot a throwaway sharded cluster (real worker \
             processes) and inject N faults: kill -9 mid-request, \
             corrupted replica stores, SIGSTOP heartbeat stalls, \
             whole-shard blackouts. Every query must still answer with \
             one-shot-identical bytes.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject worker crashes, cancellations and cache evictions into \
          the R_A pipeline and audit the resilience invariants.")
    Term.(
      const (fun timeout seed max_faults serve_faults cluster_faults ->
          guarded timeout (fun () ->
              chaos_run seed max_faults serve_faults cluster_faults))
      $ timeout_arg $ seed_arg $ max_faults_arg $ serve_faults_arg
      $ cluster_faults_arg)

(* ------------------------- serve / client ------------------------- *)

let query_of ~endpoint ~n ~m ~preset ~live_sets ~protocol ~max_runs =
  let adv () = spec_of ~preset ~live_sets in
  match endpoint with
  | "ra" -> Query.Ra { n; adv = adv () }
  | "chr" -> Query.Chr { n; m }
  | "critical" -> Query.Critical { n; adv = adv () }
  | "setcon" -> Query.Setcon { n; adv = adv () }
  | "fairness" -> Query.Fairness { n; adv = adv () }
  | "explore" -> Query.Explore { protocol; n; max_runs }
  | e ->
    failwith
      (Printf.sprintf
         "unknown endpoint %S (ra | chr | critical | setcon | fairness | \
          explore | stats | ping | shutdown)"
         e)

let addr_of s =
  match Listener.addr_of_string s with
  | Ok a -> a
  | Error msg -> failwith msg

let addr_arg =
  Arg.(
    value
    & opt string "fact.sock"
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:
          "Server address: unix:PATH, tcp:HOST:PORT, or a bare PATH (a \
           Unix-domain socket).")

let m_serve_arg =
  Arg.(
    value & opt int 1
    & info [ "m" ] ~doc:"Subdivision iterations (chr endpoint).")

let protocol_serve_arg =
  Arg.(
    value & opt string "is"
    & info [ "protocol" ] ~docv:"NAME"
        ~doc:"Protocol for the explore endpoint: is | alg1.")

let max_runs_serve_arg =
  Arg.(
    value & opt int 10_000
    & info [ "max-runs" ] ~doc:"Execution budget (explore endpoint).")

let serve addr_s store_dir cache_cap max_frame =
  let addr = addr_of addr_s in
  let store = Option.map Store.open_dir store_dir in
  let scheduler = Scheduler.create ?store ?cache_cap () in
  let listener = Listener.start_scheduler ~max_frame ~scheduler addr in
  (match store with
  | Some s ->
    pf "fact: serving on %s (store %s, %d entries warm)@."
      (Listener.addr_to_string addr) (Store.dir s) (Store.entries s)
  | None ->
    pf "fact: serving on %s (no store: results die with the process)@."
      (Listener.addr_to_string addr));
  let stop_in_background _ =
    ignore (Thread.create (fun () -> Listener.stop listener) ())
  in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle stop_in_background);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_in_background)
   with Invalid_argument _ | Sys_error _ -> ());
  Listener.wait listener;
  Listener.stop listener;
  pf "fact: server stopped@."

let serve_cmd =
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result store: warm-starts the result cache \
             on boot, persists every computed result, and survives \
             restarts.")
  in
  let cache_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-cap" ]
          ~doc:"Bound on resident results (evictions are persisted).")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Wire.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve ra/chr/critical/setcon/fairness/explore queries over a \
          Unix-domain or TCP socket, with request deduplication, \
          batching, per-request deadlines and a warm on-disk result \
          store.")
    Term.(
      const (fun addr store cap max_frame ->
          guarded None (fun () -> serve addr store cap max_frame))
      $ addr_arg $ store_arg $ cache_cap_arg $ max_frame_arg)

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts (fresh connection each) after a retryable \
           transport failure — server unreachable, connection dropped, \
           receive timed out. Server-side refusals are never retried. \
           With the budget exhausted the command exits 7 (unavailable).")

let backoff_ms_arg =
  Arg.(
    value & opt float 50.
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Base delay between retries; doubles per attempt, capped at \
           2000ms.")

let client timeout addr_s retries backoff_ms endpoint n m preset live_sets
    protocol max_runs =
  let addr = addr_of addr_s in
  let backoff = Backoff.make ~base_ms:backoff_ms () in
  Client.with_retries ~retries ~backoff addr (fun c ->
      match endpoint with
      | "stats" -> print_string (Client.stats c)
      | "ping" ->
        Client.ping c;
        pf "pong@."
      | "shutdown" ->
        Client.shutdown c;
        pf "server shutting down@."
      | _ ->
        let q =
          query_of ~endpoint ~n ~m ~preset ~live_sets ~protocol ~max_runs
        in
        (* --timeout travels with the request; the server maps what is
           left of it onto a Cancel token around the pipeline *)
        let payload, source = Client.query c ?deadline_s:timeout q in
        Printf.eprintf "fact: source=%s\n%!" (Wire.source_to_string source);
        print_string payload)

let client_cmd =
  let endpoint_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ENDPOINT"
          ~doc:
            "ra | chr | critical | setcon | fairness | explore | stats | \
             ping | shutdown")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Query a running fact server. The payload (on stdout) is \
          bit-identical to the matching one-shot command; the answer's \
          source (computed | memory | disk) goes to stderr. A --timeout \
          is enforced server-side as a per-request deadline.")
    Term.(
      const (fun timeout addr retries backoff_ms endpoint n m preset live
                 protocol max_runs ->
          guarded None (fun () ->
              client timeout addr retries backoff_ms endpoint n m preset live
                protocol max_runs))
      $ timeout_arg $ addr_arg $ retries_arg $ backoff_ms_arg $ endpoint_arg
      $ n_arg $ m_serve_arg $ preset_arg $ live_arg $ protocol_serve_arg
      $ max_runs_serve_arg)

(* ------------------------- cluster / loadgen ---------------------- *)

let cluster_run addr_s shards replicas dir max_frame restart_budget
    attempt_timeout =
  let addr = addr_of addr_s in
  let dir =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fact-cluster-%d" (Unix.getpid ()))
  in
  let cfg =
    Cluster.config ~dir ~shards ~replicas ~restart_budget
      ~attempt_timeout_s:attempt_timeout ()
  in
  let cluster = Cluster.start cfg in
  let listener =
    Listener.start ~max_frame ~handler:(Cluster.handler cluster) addr
  in
  for shard = 0 to shards - 1 do
    for replica = 0 to replicas - 1 do
      pf "fact: worker shard=%d replica=%d pid=%d sock=%s@." shard replica
        (Option.value (Cluster.worker_pid cluster ~shard ~replica) ~default:0)
        (Cluster.worker_sock cluster ~shard ~replica)
    done
  done;
  pf "fact: cluster serving on %s (%d shards x %d replicas, store root %s)@."
    (Listener.addr_to_string addr) shards replicas dir;
  let stop_in_background _ =
    ignore (Thread.create (fun () -> Listener.stop listener) ())
  in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle stop_in_background);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_in_background)
   with Invalid_argument _ | Sys_error _ -> ());
  Listener.wait listener;
  Listener.stop listener;
  Cluster.stop cluster;
  pf "fact: cluster stopped@."

let cluster_cmd =
  let shards_arg =
    Arg.(value & opt int 3 & info [ "shards" ] ~doc:"Number of shards.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~doc:"Worker processes per shard.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Root directory for worker stores and sockets (default: a \
             pid-stamped directory under the system temp dir).")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Wire.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame.")
  in
  let restart_budget_arg =
    Arg.(
      value & opt int 8
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Consecutive crash-loop restarts before a worker is fused \
             (left down and routed around).")
  in
  let attempt_timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "attempt-timeout" ] ~docv:"SECS"
          ~doc:
            "Socket send/receive bound per replica attempt; a wedged \
             worker costs at most this before failover.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Serve queries from a supervised, sharded, replicated worker \
          cluster: content digests are consistent-hashed across shards, \
          each shard runs R replicated fact-serve processes, crashed \
          workers are restarted with backoff, replicas are kept \
          converged by write-through and read-repair, and with a whole \
          shard down the front tier degrades to local evaluation \
          instead of failing.")
    Term.(
      const (fun addr shards replicas dir max_frame budget attempt ->
          guarded None (fun () ->
              cluster_run addr shards replicas dir max_frame budget attempt))
      $ addr_arg $ shards_arg $ replicas_arg $ dir_arg $ max_frame_arg
      $ restart_budget_arg $ attempt_timeout_arg)

(* a fixed mix of cheap queries with distinct digests, so a burst
   spreads over every shard of a cluster *)
let loadgen_mix =
  [
    Query.Ra { n = 2; adv = Query.Preset "wait-free" };
    Query.Chr { n = 2; m = 1 };
    Query.Chr { n = 3; m = 1 };
    Query.Setcon { n = 3; adv = Query.Preset "wait-free" };
    Query.Setcon { n = 3; adv = Query.Preset "t-res:1" };
    Query.Fairness { n = 2; adv = Query.Preset "wait-free" };
    Query.Fairness { n = 3; adv = Query.Preset "t-res:1" };
    Query.Critical { n = 2; adv = Query.Preset "wait-free" };
  ]

let loadgen_run addr_s requests threads retries backoff_ms deadline =
  let addr = addr_of addr_s in
  let backoff = Backoff.make ~base_ms:backoff_ms () in
  let report =
    Loadgen.run ~threads ~requests ~retries ~backoff ?deadline_s:deadline
      ~queries:loadgen_mix addr
  in
  print_endline (Loadgen.report_to_string report);
  if report.Loadgen.failed > 0 then
    Fact_error.raise_error
      (Fact_error.Unavailable
         {
           what =
             Printf.sprintf "loadgen: %d of %d requests failed"
               report.Loadgen.failed report.Loadgen.sent;
         })

let loadgen_cmd =
  let requests_arg =
    Arg.(
      value & opt int 64
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let threads_arg =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let loadgen_retries_arg =
    Arg.(
      value & opt int 4
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget per request (see fact client --retries).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-request server-side deadline.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Fire a concurrent burst of queries (a fixed mix of cheap \
          endpoints with distinct digests) at a running fact server or \
          cluster and report per-source counts and a latency histogram. \
          Exits 0 only if every request succeeded; a request whose \
          retry budget is exhausted makes the exit code 7.")
    Term.(
      const (fun addr requests threads retries backoff_ms deadline ->
          guarded None (fun () ->
              loadgen_run addr requests threads retries backoff_ms deadline))
      $ addr_arg $ requests_arg $ threads_arg $ loadgen_retries_arg
      $ backoff_ms_arg $ deadline_arg)

let ra_cmd =
  Cmd.v
    (Cmd.info "ra"
       ~doc:
         "One-shot evaluation of the ra serve endpoint: R_A statistics \
          for an adversary (defaults to wait-free), bit-identical to the \
          payload a fact server returns for the same query.")
    Term.(
      const (fun timeout n preset live ->
          guarded timeout (fun () ->
              print_string
                (Query.eval
                   (Query.Ra { n; adv = spec_of ~preset ~live_sets:live }))))
      $ timeout_arg $ n_arg $ preset_arg $ live_arg)

(* ----------------------- campaign / report ------------------------ *)

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Campaign results directory.")

let campaign_run grid_file dir backend addr_s retries backoff_ms timeout_s =
  let spec = Grid.load grid_file in
  let backend =
    match backend with
    | "local" -> Campaign_runner.Local
    | "cluster" ->
      Campaign_runner.Cluster
        {
          addr = addr_of addr_s;
          retries;
          backoff = Some (Backoff.make ~base_ms:backoff_ms ());
          timeout_s;
        }
    | b -> failwith (Printf.sprintf "unknown backend %S (local | cluster)" b)
  in
  let p =
    Campaign_runner.run ~log:print_endline ~backend ~dir spec
  in
  if p.Campaign_runner.failed > 0 then
    Fact_error.raise_error
      (Fact_error.Worker_failure
         {
           fn = "fact campaign";
           failed = p.Campaign_runner.failed;
           chunks = p.Campaign_runner.total;
           first = "see the cell FAILED lines above";
         })

let campaign_cmd =
  let grid_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "grid" ] ~docv:"FILE" ~doc:"Grid spec (sexp; see lib/campaign).")
  in
  let backend_arg =
    Arg.(
      value & opt string "local"
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "Where cells execute: local (the in-process work-stealing \
             pool) or cluster (a running fact serve / fact cluster at \
             --addr). Both produce byte-identical cells/ directories.")
  in
  let cell_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "attempt-timeout" ] ~docv:"SECS"
          ~doc:"Socket send/receive bound per cluster request.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a declarative grid sweep: expand the spec's axis \
          cross-product into cells, execute every cell not already \
          answered in --dir (resume = skip), and write one \
          content-addressed result per cell plus a timing sidecar. \
          Exits 5 if any cell failed.")
    Term.(
      const (fun grid dir backend addr retries backoff_ms timeout ->
          guarded None (fun () ->
              campaign_run grid dir backend addr retries backoff_ms timeout))
      $ grid_arg $ dir_arg $ backend_arg $ addr_arg $ retries_arg
      $ backoff_ms_arg $ cell_timeout_arg)

let write_or_print path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    pf "fact: wrote %s@." path
  end

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error m -> failwith m

(* --trend bypasses the results directory entirely: it compares
   committed baseline files (campaign --json outputs or
   BENCH_topology.json snapshots), oldest first on the command line. *)
let trend_run trends csv =
  let inputs = List.map (fun p -> (Filename.basename p, read_file p)) trends in
  match csv with
  | Some p -> write_or_print p (Report.trend ~format:`Csv inputs)
  | None -> print_string (Report.trend ~format:`Md inputs)

let report_run dir json csv fingerprints experiments gate baseline tolerance
    slack_ms =
  let dir =
    match dir with
    | Some d -> d
    | None -> failwith "report: --dir is required (unless using --trend)"
  in
  let t = Report.load ~dir in
  if t.Report.rows = [] then failwith (Printf.sprintf "no results in %s" dir);
  Option.iter (fun p -> write_or_print p (Report.to_json t)) json;
  Option.iter (fun p -> write_or_print p (Report.to_csv t)) csv;
  Option.iter (fun p -> write_or_print p (Report.fingerprints t)) fingerprints;
  Option.iter
    (fun p ->
      Report.splice ~file:p t;
      pf "fact: spliced report into %s@." p)
    experiments;
  let default_output =
    json = None && csv = None && fingerprints = None && experiments = None
    && not gate
  in
  if default_output then print_string (Report.markdown t);
  if gate then begin
    let contents = read_file baseline in
    match Report.gate ~tolerance ~slack_ms ~baseline:contents t with
    | Ok n -> pf "gate: %d cells within tolerance of %s@." n baseline
    | Error violations ->
      List.iter (fun v -> Printf.eprintf "gate: %s\n" v) violations;
      Printf.eprintf "gate: %d regression(s) against %s\n%!"
        (List.length violations) baseline;
      exit 1
  end

let report_cmd =
  (* --dir is only meaningful (and then mandatory) outside --trend
     mode, so it is optional at the cmdliner layer *)
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Campaign results directory.")
  in
  let out k doc =
    Arg.(
      value
      & opt (some string) None
      & info [ k ] ~docv:"FILE" ~doc:(doc ^ " (- for stdout)."))
  in
  let experiments_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "experiments" ] ~docv:"FILE"
          ~doc:
            "Splice the markdown table into FILE between the \
             fact-report marker comments (appending the block if the \
             markers are absent).")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Compare against --baseline and exit 1 on any fingerprint \
             change, missing cell, or wall-time above tolerance x \
             baseline + slack.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt string "BENCH_campaign.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed baseline: a prior --json output.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 4.0
      & info [ "tolerance" ] ~docv:"X"
          ~doc:"Multiplicative wall-time band for --gate.")
  in
  let slack_arg =
    Arg.(
      value & opt float 50.
      & info [ "slack-ms" ] ~docv:"MS"
          ~doc:"Absolute wall-time slack for --gate, absorbing timer \
                noise on cells that take microseconds.")
  in
  let trend_arg =
    Arg.(
      value & opt_all string []
      & info [ "trend" ] ~docv:"FILE"
          ~doc:
            "Line up the wall-time columns of several committed baseline \
             JSONs (campaign --json outputs or BENCH_topology.json \
             snapshots), oldest first; repeatable. Prints a markdown \
             trajectory table, or CSV with --csv; ignores --dir.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a campaign results directory: JSON/CSV tables, the \
          deterministic fingerprint column, the EXPERIMENTS.md block, \
          and the CI regression gate. With no output flag, prints the \
          markdown table. With --trend, compare baseline files across \
          time instead of reading a results directory.")
    Term.(
      const
        (fun dir json csv fps experiments gate baseline tolerance slack trends ->
          guarded None (fun () ->
              if trends <> [] then trend_run trends csv
              else
                report_run dir json csv fps experiments gate baseline tolerance
                  slack))
      $ dir_arg $ out "json" "Write the JSON table"
      $ out "csv" "Write the CSV table"
      $ out "fingerprints" "Write the fingerprint listing"
      $ experiments_arg $ gate_arg $ baseline_arg $ tolerance_arg $ slack_arg
      $ trend_arg)

let bench_cmd =
  let filter_arg =
    Arg.(
      value & opt_all string []
      & info [ "filter" ] ~docv:"NAME"
          ~doc:
            "Run only the timed entries whose name contains NAME \
             (case-insensitive substring; repeatable, matching any).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Fan Chr/R_A construction out over N domains.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Compare the entries run against --baseline and exit 1 when \
             any is slower than tolerance x baseline + slack or \
             allocates past its minor-word budget.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt string "BENCH_topology.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed baseline: a prior bench --json output.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 4.0
      & info [ "tolerance" ] ~docv:"X"
          ~doc:"Multiplicative wall-time band for --gate.")
  in
  let slack_arg =
    Arg.(
      value & opt float 50.
      & info [ "slack-ms" ] ~docv:"MS"
          ~doc:"Absolute wall-time slack for --gate.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the timed wall-clock entries behind BENCH_topology.json \
          (never writing the baseline file — that stays with bench/main \
          --json, which runs them all). With --gate, compare the entries \
          run against the committed baseline's wall-time and GC columns.")
    Term.(
      const (fun timeout filters domains gate baseline tolerance slack ->
          guarded timeout (fun () ->
              Option.iter Parallel.set_default_domains domains;
              let results = Bench_entries.run ~filters () in
              List.iter
                (fun r -> print_endline (Bench_entries.line r))
                results;
              if gate then begin
                let contents = read_file baseline in
                match
                  Bench_entries.gate ~tolerance ~slack_ms:slack
                    ~baseline:contents results
                with
                | Ok n ->
                  pf "gate: %d entr%s within tolerance of %s@." n
                    (if n = 1 then "y" else "ies")
                    baseline
                | Error violations ->
                  List.iter (fun v -> Printf.eprintf "gate: %s\n" v) violations;
                  Printf.eprintf "gate: %d regression(s) against %s\n%!"
                    (List.length violations) baseline;
                  Stdlib.exit 1
              end))
      $ timeout_arg $ filter_arg $ domains_arg $ gate_arg $ baseline_arg
      $ tolerance_arg $ slack_arg)

(* ----------------------------- census ----------------------------- *)

let census_run n =
  if n > 4 then failwith "census is exhaustive; n <= 4 only";
  pf "census over all adversaries, n=%d:@." n;
  pf "%a@." Census.pp (Census.exhaustive ~n);
  pf "fair task-computability classes: %d@."
    (Census.fair_computability_classes ~n)

let census_cmd =
  Cmd.v
    (Cmd.info "census"
       ~doc:"Classify every adversary over n processes (quantified Figure 2).")
    Term.(
      const (fun timeout n -> guarded timeout (fun () -> census_run n))
      $ timeout_arg $ n_arg)

(* ------------------------------------------------------------------ *)

let () =
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "0 on success; 1 when a property violation, counterexample or \
         chaos-invariant failure was found; 2 on a precondition or usage \
         error; 3 when a --timeout deadline was exceeded; 4 when \
         cancelled; 5 on a parallel worker failure; 6 on a resource \
         limit; 7 when a server or shard stayed unavailable (bind \
         failure, unreachable server, retry budget exhausted) — the \
         retryable class: back off and try again.";
    ]
  in
  let info =
    Cmd.info "fact" ~version:"1.0.0" ~man
      ~doc:
        "Affine tasks for fair adversaries (Kuznetsov, Rieutord, He, PODC \
         2018) — executable."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; affine_cmd; run_cmd; solve_cmd; chr_cmd;
            explore_cmd; assert_cmd; chaos_cmd; census_cmd; serve_cmd;
            client_cmd; cluster_cmd; loadgen_cmd; ra_cmd; campaign_cmd;
            report_cmd; bench_cmd ]))
