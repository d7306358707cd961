(* oneshot-cold: what a fresh [fact ra] / [fact chr] process pays.

   Closed loop, one caller. Every op empties the memo caches and runs
   [Query.eval], so topology and the affine pipeline do all the work
   from scratch, as they do in a new process. *)

module F = Fact_core.Fact
open Common

type state = { ops : int -> F.Query.t; refs : (F.Query.t, string) Hashtbl.t }

let setup ctx () =
  let refs = Hashtbl.create 64 in
  Array.iter
    (fun q ->
      if not (Hashtbl.mem refs q) then begin
        F.Cache.clear_all ();
        Hashtbl.add refs q (corrupt_payload ctx (F.Query.eval q))
      end)
    (Inputs.cold_deck ());
  { ops = Inputs.cold_schedule ~seed:ctx.seed; refs }

(* One cold op: its wall time in seconds (infinite when it raised) and
   whether the payload matched the reference. *)
let eval_cold st q =
  F.Cache.clear_all ();
  let t0 = now () in
  match F.Query.eval q with
  | p ->
    let dt = now () -. t0 in
    (dt, String.equal p (Hashtbl.find st.refs q))
  | exception F.Fact_error.Error _ -> (infinity, false)

(* Op times are rescaled by the gauge, probed at most every
   [Gauge.interval] between ops. *)
let run ctx =
  F.Parallel.set_default_domains 1;
  let gauge = Gauge.create () in
  let st, setup_s = repeated_setup ~gauge (setup ctx) in
  let ops = ref [] and n = ref 0 in
  let failed = ref 0 in
  let rss = rss_probe 1000 in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    Gauge.tick gauge;
    let t0 = now () in
    let dt, ok = eval_cold st (st.ops !n) in
    ops := (t0, dt) :: !ops;
    incr n;
    rss_tick rss !n;
    if not ok then incr failed
  done;
  Gauge.measure gauge;
  print_gauge gauge;
  let lat = Gauge.rescale gauge (Array.of_list (List.rev !ops)) in
  let n = !n in
  {
    attempted = n;
    failed = !failed;
    metrics =
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:n "ops_per_s" "1/s" (float_of_int n /. Array.fold_left ( +. ) 0. lat) ]
      @ latency_metrics lat
      @ [ rss_metric rss ];
  }

(* ------------------------------ trace ------------------------------ *)

(* The calls [Query.eval] makes for one op, in the same order, each in
   a span named after the library it enters. [Chr.standard_iterated] is
   called first so the subdivision R_A filters is timed apart from the
   filter itself (which then finds it in the cache). Rendering the
   payload is not re-done here: it is the residual [serve.render]. *)
let decomposed r ~parent ~op q =
  let span name f = Span.record r ~parent ~op name f in
  let stats c = ignore (F.Complex.simplex_count c + F.Complex.euler_characteristic c) in
  match q with
  | F.Query.Ra { n; adv } ->
    let a = span "adversary.resolve" (fun () -> F.Query.adversary ~n adv) in
    span "topology.chr" (fun () -> ignore (F.Chr.standard_iterated ~m:2 ~n));
    let task = span "affine.ra" (fun () -> F.Ra.of_adversary a) in
    let c = F.Affine_task.complex task in
    span "topology.closure" (fun () -> stats c);
    span "topology.geometry" (fun () -> ignore (F.Geometry.total_volume c));
    span "topology.link" (fun () -> ignore (F.Link.is_link_connected c));
    span "affine.delta" (fun () ->
        List.iter
          (fun p -> ignore (F.Complex.facet_count (F.Affine_task.delta task p)))
          (F.Pset.nonempty_subsets (F.Pset.full (F.Adversary.n a))))
  | F.Query.Chr { n; m } ->
    let c = span "topology.chr" (fun () -> F.Chr.iterate m (F.Chr.standard n)) in
    span "topology.closure" (fun () -> stats c)
  | q -> invalid_arg ("oneshot-cold: no decomposition for " ^ F.Query.endpoint q)

let layers =
  [ "adversary.resolve"; "topology.chr"; "affine.ra"; "topology.closure";
    "topology.geometry"; "topology.link"; "affine.delta" ]

(* Each op runs twice, back to back so that both see the same machine:
   untraced (its time, cache counters and allocation, all on one
   domain), then decomposed into spans. Per-layer figures are per op. *)
let trace ctx r =
  F.Parallel.set_default_domains 1;
  let st = setup ctx () in
  let untraced = Stats.create () and traced_s = ref 0. in
  let failed = ref 0 in
  let minor = ref 0. and major = ref 0. and hits = ref 0 and misses = ref 0 in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    let op = Stats.count untraced in
    let q = st.ops op in
    let h0, m0, _ = cache_totals () in
    let mi0 = Gc.minor_words () and ma0 = (Gc.quick_stat ()).Gc.major_words in
    let dt, ok = eval_cold st q in
    minor := !minor +. (Gc.minor_words () -. mi0);
    major := !major +. ((Gc.quick_stat ()).Gc.major_words -. ma0);
    let h1, m1, _ = cache_totals () in
    hits := !hits + (h1 - h0);
    misses := !misses + (m1 - m0);
    Stats.add untraced dt;
    if not ok then incr failed;
    F.Cache.clear_all ();
    let t0 = now () in
    Span.nest r ~op "op" (fun parent -> decomposed r ~parent ~op q);
    traced_s := !traced_s +. (now () -. t0)
  done;
  let n = Stats.count untraced in
  let nf = float_of_int n in
  let self = Span.self_by_name (Span.spans r) in
  let self_of l = Option.value (List.assoc_opt l self) ~default:0. in
  let per_op s = s /. nf *. 1000. in
  let named = List.fold_left (fun acc l -> acc +. self_of l) 0. layers in
  let eval_s = Stats.sum untraced in
  let coverage = named /. eval_s in
  if coverage < 0.9 || coverage > 1.1 then
    Printf.eprintf "oneshot-cold: spans cover %.0f%% of Query.eval (expected 90-110%%)\n%!"
      (coverage *. 100.);
  let p name = "oneshot-cold." ^ name in
  {
    attempted = n;
    failed = !failed;
    metrics =
      List.map (fun l -> metric ~samples:n (p (l ^ "_ms")) "ms" (per_op (self_of l))) layers
      @ [
        metric ~samples:n (p "serve.render_ms") "ms" (per_op (eval_s -. named));
        metric ~samples:n (p "trace.span_coverage") "ratio" coverage;
        metric ~samples:n (p "resilience.hit_ratio") "ratio"
          (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
        metric ~samples:n (p "resilience.misses_per_op") "count" (float_of_int !misses /. nf);
        metric ~samples:n (p "gc.minor_words_per_op") "words" (!minor /. nf);
        metric ~samples:n (p "gc.major_words_per_op") "words" (!major /. nf);
        metric ~samples:n (p "trace.overhead") "ratio" (!traced_s /. eval_s);
      ];
  }
