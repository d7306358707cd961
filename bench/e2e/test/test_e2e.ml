(* Tests of the benchmark's own measuring code. *)

open Fact_bench_e2e

let feq = Alcotest.float 1e-9

(* --------------------------- seeded inputs -------------------------- *)

let inputs_of seed =
  let cold = Inputs.cold_schedule ~seed in
  ( List.init 200 (fun i -> Inputs.key (cold i)),
    Array.to_list (Array.map Inputs.key (Inputs.warm_keys ~seed)),
    List.map Inputs.subject_name (Inputs.explore_order ~seed),
    Inputs.sweep_grid ~seed )

let test_seeds () =
  let a = inputs_of 1 and a' = inputs_of 1 and b = inputs_of 2 in
  Alcotest.(check bool) "same seed, same inputs" true (a = a');
  let c1, w1, _, g1 = a and c2, w2, _, g2 = b in
  Alcotest.(check bool) "cold ops differ" true (c1 <> c2);
  Alcotest.(check bool) "warm keys differ" true (w1 <> w2);
  Alcotest.(check bool) "sweep grids differ" true (g1 <> g2);
  Alcotest.(check int) "256 distinct warm keys" 256 (List.length (List.sort_uniq compare w1));
  (* the seed only reorders the cold deck: every deck has the same mix *)
  let deck = Array.length (Inputs.cold_deck ()) in
  let sorted l = List.sort compare l in
  Alcotest.(check (list string)) "same mix per deck"
    (sorted (List.filteri (fun i _ -> i < deck) c1))
    (sorted (List.filteri (fun i _ -> i < deck) c2));
  Alcotest.(check int) "48 fair R_A adversaries" 48 (List.length (Inputs.fair_ra ()))

(* ---------------------------- percentiles --------------------------- *)

let test_percentiles () =
  let p a q = Stats.percentile a q in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (p [||] 50.));
  Alcotest.check feq "single sample" 7. (p [| 7. |] 99.);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p0 is the minimum" 1. (p hundred 0.);
  Alcotest.check feq "p100 is the maximum" 100. (p hundred 100.);
  Alcotest.check feq "p99 of 1..100" 99. (p hundred 99.);
  Alcotest.check feq "p50 of 1..100" 50. (p hundred 50.);
  (* 14% of 50 is exactly rank 7: no float round-up to 8 *)
  Alcotest.check feq "exact rank" 7. (p (Array.init 50 (fun i -> float_of_int (i + 1))) 14.);
  Alcotest.check feq "p99 of 10 samples is the max" 10. (p (Array.init 10 (fun i -> float_of_int (i + 1))) 99.);
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "median" 5.5 m;
  Alcotest.check feq "q3" 8.25 q3;
  (* Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles [| 2.; 1. |] in
  Alcotest.check feq "two-sample q1" 0.75 q1;
  Alcotest.check feq "two-sample q3" 2.25 q3;
  let s = Stats.create () in
  for i = 1 to 3000 do Stats.add s (float_of_int i) done;
  Alcotest.(check int) "grows past its first block" 3000 (Stats.count s)

(* --------------------------- open-loop load -------------------------- *)

let test_lateness () =
  let due = Array.init 100 (fun i -> float_of_int i *. 0.001) in
  let max_late out = Array.fold_left (fun a o -> Float.max a (Openloop.lateness o)) 0. out in
  let p99s ~windows out = Openloop.window_percentiles ~windows ~p:99. (Array.map Openloop.latency out) in
  let median_p99 ~windows out = Stats.median (p99s ~windows out) in
  (* one connection, 2 ms per request, one due every 1 ms: the backlog
     grows by 1 ms per request and every latency counts the wait *)
  let over = Openloop.simulate ~conns:1 ~service:(fun _ -> 0.002) due in
  Alcotest.check feq "request 10 sent 10 ms late" 0.010 (Openloop.lateness over.(10));
  Alcotest.check feq "its latency counts the wait" 0.012 (Openloop.latency over.(10));
  Alcotest.check feq "the backlog keeps growing" 0.099 (Openloop.lateness over.(99));
  (* two connections keep up: nobody waits *)
  let ok = Openloop.simulate ~conns:2 ~service:(fun _ -> 0.0015) due in
  Alcotest.check feq "no lateness" 0. (max_late ok);
  Alcotest.check feq "latency is the service time" 0.0015 (median_p99 ~windows:4 ok);
  (* one 20 ms stall delays the requests due behind it *)
  let stall = Openloop.simulate ~conns:1 ~service:(fun i -> if i = 0 then 0.020 else 0.0001) due in
  (* request 5 (due at 5 ms) starts after the stall and four 0.1 ms requests *)
  Alcotest.check feq "request 5 waits for the stall" 0.0154 (Openloop.lateness stall.(5));
  Alcotest.(check bool) "the p99 of the run sees it" true (median_p99 ~windows:1 stall >= 0.015);
  Alcotest.(check bool) "so does its first window" true ((p99s ~windows:10 stall).(0) >= 0.015);
  Alcotest.check feq "the median window p99 does not" 0.0001 (median_p99 ~windows:10 stall);
  let failed = Array.map (fun o -> { o with Openloop.ok = false }) ok in
  Alcotest.(check bool) "a failure misses every limit" true (median_p99 ~windows:4 failed = infinity)

(* ------------------------------- gauge ------------------------------ *)

let test_gauge () =
  (* readings at 0, 0.25, ... 2.0 s; the machine is twice as slow from 1 s on *)
  let at = Array.init 9 (fun i -> float_of_int i *. 0.25) in
  let took = Array.map (fun t -> if t < 1. then 0.001 else 0.002) at in
  let around t0 t1 = Gauge.probe_around ~at ~took ~t0 ~t1 in
  Alcotest.check feq "the margin the cases below assume" 1. Gauge.margin;
  (* readings 0-1 s: four quiet, one slow *)
  Alcotest.check feq "quiet" 0.001 (around 0.1 0.2);
  (* readings 1-2 s, all slow *)
  Alcotest.check feq "slow" 0.002 (around 1.9 1.95);
  (* readings 0-1.5 s: four quiet, three slow; 0-2 s: four quiet, five slow *)
  Alcotest.check feq "median of the readings within the margin" 0.001 (around 0.5 0.6);
  Alcotest.check feq "the majority moves it" 0.002 (around 0.95 1.0);
  Alcotest.check feq "none within the margin: the nearest" 0.002 (around 5. 6.);
  Alcotest.check feq "before the first: the first" 0.001 (around (-3.) (-2.9));
  (* rescaling divides by the probe time and multiplies by the reference *)
  let g = Gauge.create () in
  Gauge.measure g;
  let p = Gauge.median_s g in
  let t = Unix.gettimeofday () in
  Alcotest.check (Alcotest.float 1e-12) "one probe, one op" (0.004 *. Gauge.reference_s /. p)
    (Gauge.rescale g [| (t, 0.004) |]).(0);
  Alcotest.(check int) "every reading counted" Gauge.readings (Gauge.count g)

(* ------------------------------- spans ------------------------------ *)

let test_self_time () =
  let span id parent name t0 t1 = { Span.id; parent; op = 0; name; t0; t1 } in
  let spans =
    [ span 1 0 "root" 0. 10.;
      span 2 1 "a" 1. 3.;
      span 3 1 "b" 2. 5.;
      (* sticks out of its parent: only [8, 10] counts against it *)
      span 4 1 "a" 8. 12.;
      span 5 3 "c" 2.5 3. ]
  in
  let self = Span.self_by_name spans in
  Alcotest.check feq "root: 10 - |[1,5] u [8,10]|" 4. (List.assoc "root" self);
  Alcotest.check feq "a: two leaves" 6. (List.assoc "a" self);
  Alcotest.check feq "b: minus its child" 2.5 (List.assoc "b" self);
  Alcotest.check feq "c: a leaf" 0.5 (List.assoc "c" self);
  Alcotest.(check (list string)) "first-seen order" [ "root"; "a"; "b"; "c" ] (List.map fst self);
  let r = Span.recorder () in
  let v = Span.nest r ~op:3 "outer" (fun parent -> Span.record r ~parent ~op:3 "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  match Span.spans r with
  | [ inner; outer ] ->
    Alcotest.(check int) "child points at its parent" outer.id inner.parent;
    Alcotest.(check bool) "nested in time" true (outer.t0 <= inner.t0 && inner.t1 <= outer.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ------------------------------ compare ----------------------------- *)

let test_verdicts () =
  let v =
    Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_to_string v)) ( = )
  in
  let around m = [| m *. 0.99; m; m *. 1.01; m *. 1.005; m *. 0.995 |] in
  let base = around 100. in
  Alcotest.check v "within the bound" Compare.Same (Compare.verdict ~higher:false ~bound:0.1 base (around 105.));
  Alcotest.check v "slower" Compare.Worse (Compare.verdict ~higher:false ~bound:0.1 base (around 120.));
  Alcotest.check v "faster" Compare.Better (Compare.verdict ~higher:false ~bound:0.1 base (around 80.));
  Alcotest.check v "more throughput" Compare.Better (Compare.verdict ~higher:true ~bound:0.1 base (around 120.));
  let noisy = [| 50.; 80.; 100.; 120.; 150. |] in
  Alcotest.check v "spread over the bound" Compare.Unresolved (Compare.verdict ~higher:false ~bound:0.1 base noisy);
  Alcotest.check v "noisy but every run worse" Compare.Worse
    (Compare.verdict ~higher:false ~bound:0.1 base [| 150.; 200.; 250.; 300.; 350. |]);
  Alcotest.check v "absolute floor" Compare.Same
    (Compare.verdict ~higher:false ~bound:0.1 ~floor:0.005 (around 0.01) (around 0.013));
  Alcotest.check v "no bound, quartiles overlap" Compare.Same (Compare.verdict ~higher:false base (around 100.5));
  Alcotest.check v "no bound, quartiles apart" Compare.Worse (Compare.verdict ~higher:false base (around 110.))

(* --------------------------- result lines --------------------------- *)

let test_result_line () =
  let r =
    { Common.attempted = 10; failed = 0;
      metrics = [ Common.metric ~samples:10 "p50_ms" "ms" 1.2034567890123 ] }
  in
  (match Json.of_string (Output.line r) with
  | Ok j ->
    Alcotest.(check (list string)) "exact keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (match j with Json.Obj l -> List.map fst l | _ -> []);
    let back = Output.of_record j in
    Alcotest.check feq "all digits kept" 1.2034567890123 (List.hd back.metrics).value
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "a wrong answer is not correct" false (Output.correct { r with failed = 1 })

(* A corrupted reference must fail the run: exit code 1 and
   "correct": false on the last line. *)
let test_corrupt_reference () =
  let exe = "../fact_bench.exe" in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; "oneshot-cold"; "--seed"; "3"; "--seconds"; "0.2"; "--corrupt-reference" |]
  in
  let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
  let line = last "" in
  Alcotest.(check bool) "exits 1" true (Unix.close_process_in ic = Unix.WEXITED 1);
  Alcotest.(check bool) "reports it" true
    (match Json.of_string line with Ok j -> Json.member "correct" j = Some (Json.Bool false) | _ -> false)

let () =
  Alcotest.run "fact_bench"
    [ ("inputs", [ Alcotest.test_case "seeded inputs" `Quick test_seeds ]);
      ("stats", [ Alcotest.test_case "percentile edge cases" `Quick test_percentiles ]);
      ("openloop", [ Alcotest.test_case "lateness accounting" `Quick test_lateness ]);
      ("gauge", [ Alcotest.test_case "probe lookup and rescaling" `Quick test_gauge ]);
      ("span", [ Alcotest.test_case "self-time arithmetic" `Quick test_self_time ]);
      ( "compare",
        [ Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "result line" `Quick test_result_line ] );
      ("checks", [ Alcotest.test_case "corrupted reference fails the run" `Quick test_corrupt_reference ]) ]
