(* explore-exhaustive: exhaustive exploration of a fixed suite, as
   [fact explore] runs it. Only the explorer, the runtime executor and
   the domain pool do work here.

   An op is one pass over the suite at ~domains:1 and again at
   ~domains:2 (which comes first alternates), so every sample holds the
   same work and the latency distribution stays unimodal even when the
   two domain counts run at different speeds. *)

module F = Fact_core.Fact
open Common
open Inputs

type counts = { runs : int; truncated : int; pruned : int; patterns : int; extra : int }

(* Committed fingerprints (ROADMAP, EXPERIMENTS.md): [extra] is the
   number of distinct ordered partitions for IS, unused otherwise. *)
let fingerprint = function
  | Is3 -> { runs = 1522; truncated = 0; pruned = 1338; patterns = 1; extra = 13 }
  | Alg1_wf2 -> { runs = 4825; truncated = 0; pruned = 14762; patterns = 3; extra = 0 }
  | Alg1_kof1 -> { runs = 3063; truncated = 3138; pruned = 5776; patterns = 1; extra = 0 }

let alpha = function
  | Is3 -> None
  | Alg1_wf2 -> Some (F.Agreement.of_adversary (F.Adversary.wait_free 2))
  | Alg1_kof1 -> Some (F.Agreement.of_adversary (F.Adversary.k_obstruction_free ~n:2 ~k:1))

let of_stats (s : _ F.Explore.stats) extra =
  { runs = s.runs; truncated = s.truncated; pruned = s.pruned; patterns = s.crash_patterns; extra }

(* Explore one subject: its counts, and whether the search was
   exhausted without a violation. *)
let explore ~domains subject =
  match alpha subject with
  | None ->
    let s, parts = F.Harness.explore_immediate_snapshot ~domains ~n:3 () in
    (of_stats s (List.length parts), s.exhausted && s.violations = [])
  | Some alpha ->
    let s = F.Harness.explore_algorithm1 ~domains ~alpha ~participants:(F.Pset.full 2) () in
    (of_stats s 0, s.exhausted && s.violations = [])

type pass = {
  start : float;
  wall : float;  (** the explorations' time, without [before] *)
  by_domains : (int * float) list;  (** suite time per domain count *)
  measured : (subject * counts) list;  (** at ~domains:1 *)
  checked : int;
  wrong : int;
}

(* [reference] gives the expected counts (corrupted on request);
   [before] runs ahead of each exploration, outside the timed part. *)
let pass ?(around = fun ~domains:_ _ f -> f ()) ?(before = ignore) ~reference ~order ~index () =
  let domains = if index mod 2 = 0 then [ 1; 2 ] else [ 2; 1 ] in
  let wrong = ref 0 and checked = ref 0 and measured = ref [] in
  let start = now () in
  let by_domains =
    List.map
      (fun d ->
        let t = ref 0. in
        List.iter
          (fun s ->
            before ();
            let t0 = now () in
            let c, ok = around ~domains:d s (fun () -> explore ~domains:d s) in
            t := !t +. (now () -. t0);
            if d = 1 then measured := (s, c) :: !measured;
            incr checked;
            if not (ok && c = reference s) then incr wrong)
          order;
        (d, !t))
      domains
  in
  let wall = List.fold_left (fun a (_, t) -> a +. t) 0. by_domains in
  { start; wall; by_domains; measured = !measured; checked = !checked; wrong = !wrong }

let reference ctx s =
  let c = fingerprint s in
  if ctx.corrupt then { c with runs = c.runs + 1 } else c

(* Set-up is one unmeasured pass: it spawns the domain pool and checks
   the fingerprints before anything is timed. *)
let setup ctx () =
  let order = explore_order ~seed:ctx.seed in
  ignore (pass ~reference:(reference ctx) ~order ~index:0 ());
  order

(* The explorer leaks memory outside the OCaml heap, about 28 MB per
   suite at either domain count, so one process running passes for a
   whole run would peak above 2 GB. A run is split into chunks of about
   [chunk_s] seconds instead, each in a fresh process (as every [fact
   explore] is): its own set-up, then its passes. *)
let chunk_s = 6.

(* Peak RSS is read after this many passes of a chunk. *)
let rss_after = 4

(* One chunk, in this process, as JSON for the parent run. Set-up and
   pass times are rescaled by the gauge, probed at most every
   [Gauge.interval] between explorations. *)
let chunk ctx =
  F.Parallel.set_default_domains 1;
  let gauge = Gauge.create () in
  Gauge.measure gauge;
  let t0 = now () in
  let order = setup ctx () in
  let setup = (t0, now () -. t0) in
  Gauge.measure gauge;
  let passes = ref [] and checked = ref 0 and wrong = ref 0 in
  let rss = rss_probe rss_after in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    let p =
      pass ~before:(fun () -> Gauge.tick gauge) ~reference:(reference ctx) ~order
        ~index:(List.length !passes) ()
    in
    passes := (p.start, p.wall) :: !passes;
    rss_tick rss (List.length !passes);
    checked := !checked + p.checked;
    wrong := !wrong + p.wrong
  done;
  Gauge.measure gauge;
  let num x = Json.Num x and int x = Json.Num (float_of_int x) in
  Json.Obj
    [ ("setup_s", num (Gauge.rescale gauge [| setup |]).(0));
      ("walls", Json.Arr (Array.to_list (Array.map num (Gauge.rescale gauge (Array.of_list (List.rev !passes))))));
      ("checked", int !checked);
      ("wrong", int !wrong);
      ("rss_mb", num (rss_metric rss).value);
      ("probe_s", num (Gauge.median_s gauge));
      ("probes", int (Gauge.count gauge)) ]

let run ctx =
  let chunks = max 1 (int_of_float (Float.round (ctx.seconds /. chunk_s))) in
  let results =
    List.init chunks (fun _ ->
        rerun
          ([ "--workload"; "explore-exhaustive"; "--chunk"; "--seed"; string_of_int ctx.seed;
             "--seconds"; Json.number (ctx.seconds /. float_of_int chunks) ]
          @ if ctx.corrupt then [ "--corrupt-reference" ] else []))
  in
  let field k j = Option.get (Option.bind (Json.member k j) Json.to_num) in
  let each k = Array.of_list (List.map (field k) results) in
  let walls =
    Array.of_list
      (List.concat_map
         (fun j -> match Json.member "walls" j with Some (Json.Arr l) -> List.filter_map Json.to_num l | _ -> [])
         results)
  in
  let n = Array.length walls in
  let sum a = int_of_float (Array.fold_left ( +. ) 0. a) in
  print_endline (Gauge.describe ~median_s:(Stats.median (each "probe_s")) ~count:(sum (each "probes")));
  {
    attempted = sum (each "checked");
    failed = sum (each "wrong");
    metrics =
      [ metric ~samples:chunks "setup_s" "s" (Stats.median (each "setup_s"));
        metric ~samples:n "ops_per_s" "1/s" (float_of_int n /. Array.fold_left ( +. ) 0. walls) ]
      @ latency_metrics walls
      @ [ metric ~samples:chunks "peak_rss_mb" "MB" (Stats.median (each "rss_mb")) ];
  }

(* ------------------------------ trace ------------------------------ *)

(* Mean wall time of one Algorithm 1 execution (wait-free, n = 2) under
   random α-model schedules: the unit of work the explorer repeats. *)
let exec_s ~runs =
  let alpha = Option.get (alpha Alg1_wf2) in
  let participation = F.Pset.full 2 in
  let t0 = now () in
  for seed = 1 to runs do
    ignore (F.Algorithm1.run alpha ~schedule:(F.Schedule.alpha_model ~seed alpha ~participation))
  done;
  (now () -. t0) /. float_of_int runs

(* Untraced and traced passes alternate, so both see the same machine. *)
let trace ctx r =
  F.Parallel.set_default_domains 1;
  let order = setup ctx () in
  let reference = reference ctx in
  let checked = ref 0 and wrong = ref 0 in
  let tally p =
    checked := !checked + p.checked;
    wrong := !wrong + p.wrong
  in
  (* untraced: suite wall time per domain count, and allocation at
     ~domains:1 only — Gc counters miss worker domains (OCaml 5.1), so a
     2-domain figure would be an undercount *)
  let d1 = Stats.create () and d2 = Stats.create () in
  let minor = ref 0. and major = ref 0. in
  let counted ~domains _ f =
    if domains <> 1 then f ()
    else begin
      let mi0 = Gc.minor_words () and ma0 = (Gc.quick_stat ()).Gc.major_words in
      let v = f () in
      minor := !minor +. (Gc.minor_words () -. mi0);
      major := !major +. ((Gc.quick_stat ()).Gc.major_words -. ma0);
      v
    end
  in
  (* traced: R_A of an Algorithm 1 subject is built in its own span, so
     the exploration span that follows finds it cached *)
  let traced_pass op =
    Span.nest r ~op "pass" (fun pass_id ->
        let around ~domains s f =
          let name = Printf.sprintf "check.%s_d%d" (subject_name s) domains in
          Span.nest r ~parent:pass_id ~op name (fun parent ->
              Option.iter
                (fun a -> Span.record r ~parent ~op "affine.ra" (fun () -> ignore (F.Ra.complex a ~n:2)))
                (alpha s);
              Span.record r ~parent ~op "check.explore" f)
        in
        pass ~around ~reference ~order ~index:op ())
  in
  let n = ref 0 and untraced_s = ref 0. and traced_s = ref 0. and measured = ref [] in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    let u = pass ~around:counted ~reference ~order ~index:!n () in
    let t = traced_pass !n in
    tally u;
    tally t;
    measured := u.measured;
    Stats.add d1 (List.assoc 1 u.by_domains);
    Stats.add d2 (List.assoc 2 u.by_domains);
    untraced_s := !untraced_s +. u.wall;
    traced_s := !traced_s +. t.wall;
    incr n
  done;
  let exec = Span.record r ~op:0 "runtime.exec" (fun () -> exec_s ~runs:2000) in
  let p name = "explore-exhaustive." ^ name in
  let per_subject s =
    let c = List.assoc s !measured and k = "check." ^ subject_name s in
    let f x = float_of_int x in
    [ metric (p (k ^ ".runs")) "count" (f c.runs);
      metric (p (k ^ ".pruned")) "count" (f c.pruned);
      metric (p (k ^ ".truncated")) "count" (f c.truncated);
      metric (p (k ^ ".useful_ratio")) "ratio" (f c.runs /. f (c.runs + c.pruned + c.truncated)) ]
  in
  let n = !n in
  let med s = Stats.median (Stats.to_array s) in
  {
    attempted = !checked;
    failed = !wrong;
    metrics =
      List.concat_map per_subject [ Is3; Alg1_wf2; Alg1_kof1 ]
      @ [
          metric ~samples:2000 (p "runtime.exec_us") "us" (exec *. 1e6);
          metric ~samples:n (p "check.suite_d1_ms") "ms" (med d1 *. 1000.);
          metric ~samples:n (p "check.suite_d2_ms") "ms" (med d2 *. 1000.);
          metric ~samples:n (p "topology.parallel_speedup") "ratio" (med d1 /. med d2);
          metric (p "topology.domain_spawns") "count" (float_of_int (F.Parallel.domain_spawns ()));
          metric ~samples:n (p "gc.minor_words_d1") "words" (!minor /. float_of_int n);
          metric ~samples:n (p "gc.major_words_d1") "words" (!major /. float_of_int n);
          metric ~samples:n (p "trace.overhead") "ratio" (!traced_s /. !untraced_s);
        ];
  }
