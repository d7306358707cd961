(* Tests for the grid-sweep campaign subsystem: spec parsing and
   canonicalization, content-addressed cell digests, the resumable
   runner over both backends, corrupt-result quarantine, the report's
   regression gate, and the shared latency histogram. *)

open Fact_campaign
open Fact_serve

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fact-test-campaign-%d-%d" (Unix.getpid ()) !counter)
    in
    (match Unix.mkdir d 0o700 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf dir =
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p
        else try Sys.remove p with Sys_error _ -> ())
      files);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spec_of_string s =
  match Grid.of_string s with
  | Ok spec -> spec
  | Error m -> Alcotest.failf "spec rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Grid                                                               *)
(* ------------------------------------------------------------------ *)

let grid3_text =
  "((name grid3) (seed 42) (deadline-s 120) (axes ((endpoint (ra)) \
   (adversary (wait-free t-res:1 k-of:1)) (n (2 3)) (domains (1 2)))))"

let test_spec_roundtrip () =
  let spec = spec_of_string grid3_text in
  check "cells" 12 (List.length (Grid.cells spec));
  check_string "name" "grid3" (Grid.name spec);
  check "seed" 42 (Grid.seed spec);
  (* to_sexp materializes defaults; reparsing yields the same grid *)
  let again =
    match Grid.of_sexp (Grid.to_sexp spec) with
    | Ok s -> s
    | Error m -> Alcotest.failf "to_sexp not reparseable: %s" m
  in
  check_bool "cells stable under round-trip" true
    (Grid.cells spec = Grid.cells again);
  check_string "rendering stable"
    (Fact_sexp.Sexp.to_string (Grid.to_sexp spec))
    (Fact_sexp.Sexp.to_string (Grid.to_sexp again))

let test_cell_roundtrip_and_digest_pinned () =
  let spec = spec_of_string grid3_text in
  List.iter
    (fun c ->
      match Grid.cell_of_sexp (Grid.cell_to_sexp c) with
      | Ok c' -> check_bool "cell round-trip" true (c = c')
      | Error m -> Alcotest.failf "cell reparse failed: %s" m)
    (Grid.cells spec);
  (* Pinned: a digest is a stable on-disk address, so an accidental
     change to the cell rendering or the salt must fail loudly here. *)
  let c =
    {
      Grid.endpoint = "ra"; adversary = "k-of:1"; n = 2; m = 0;
      protocol = "-"; max_runs = 0; domains = 1; cache_cap = None;
      seed = 42; deadline_s = Some 120.;
    }
  in
  check_string "pinned digest" "e336f924aa01e67e88c68f8efa7543c9"
    (Grid.digest c);
  (* environment axes address distinct cells; payload identity across
     them is the runner's concern, not the digest's *)
  check_bool "domains axis changes the digest" true
    (Grid.digest c <> Grid.digest { c with Grid.domains = 2 })

let test_canonicalization_dedups () =
  (* chr ignores the adversary axis: two declared presets collapse to
     one canonical cell *)
  let spec =
    spec_of_string
      "((name dedup) (axes ((endpoint (chr)) (adversary (wait-free fig5b)) \
       (n (2)))))"
  in
  (match Grid.cells spec with
  | [ c ] ->
    check_string "adversary canonicalized" "-" c.Grid.adversary;
    check "m defaulted" 1 c.Grid.m
  | cells -> Alcotest.failf "expected 1 cell, got %d" (List.length cells));
  (* prune drops the matching grid points before canonicalization *)
  let pruned =
    spec_of_string
      "((name pruned) (axes ((endpoint (ra)) (n (2 3)) (domains (1 2)))) \
       (prune (((n 3) (domains 2)))))"
  in
  check "pruned cells" 3 (List.length (Grid.cells pruned))

(* ------------------------------------------------------------------ *)
(* Runner: resume, quarantine, backends                               *)
(* ------------------------------------------------------------------ *)

let small_grid =
  "((name small) (seed 7) (axes ((endpoint (ra)) (adversary (wait-free \
   t-res:1)) (n (2)))))"

let test_resume_skips_completed () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec = spec_of_string small_grid in
      let p1 = Runner.run ~backend:Runner.Local ~dir spec in
      check "first run ran all" 2 p1.Runner.ran;
      check "first run ok" 2 p1.Runner.ok;
      let p2 = Runner.run ~backend:Runner.Local ~dir spec in
      check "second run ran none" 0 p2.Runner.ran;
      check "second run skipped all" 2 p2.Runner.skipped)

(* A run that dies at the second group's start keeps the first
   group's results on disk, and the rerun resumes from them. *)
let test_groups_persist_as_they_finish () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec =
        spec_of_string
          "((name groups) (seed 7) (axes ((endpoint (ra)) (adversary \
           (wait-free t-res:1)) (n (2)) (domains (1 2)))))"
      in
      let groups = ref 0 in
      let log line =
        if String.starts_with ~prefix:"group " line then begin
          incr groups;
          if !groups = 2 then raise Exit
        end
      in
      (match Runner.run ~log ~backend:Runner.Local ~dir spec with
      | _ -> Alcotest.fail "the log was expected to raise"
      | exception Exit -> ());
      let done_ =
        List.filter
          (fun c -> Results.completed ~dir ~digest:(Grid.digest c))
          (Grid.cells spec)
      in
      check "first group persisted" 2 (List.length done_);
      check_bool "all from the first group" true
        (List.for_all (fun c -> c.Grid.domains = 1) done_);
      let lines = ref [] in
      let p =
        Runner.run ~log:(fun l -> lines := l :: !lines) ~backend:Runner.Local
          ~dir spec
      in
      check "rerun runs the rest" 2 p.Runner.ran;
      check "rerun skips the first group" 2 p.Runner.skipped;
      check_bool "rerun logs the resume" true
        (List.mem "resume: 2 of 4 cells already done" !lines))

let test_corrupt_result_quarantined () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec = spec_of_string small_grid in
      ignore (Runner.run ~backend:Runner.Local ~dir spec);
      let digest = Grid.digest (List.hd (Grid.cells spec)) in
      let path = Results.record_path ~dir ~digest in
      let oc = open_out_bin path in
      output_string oc "(not a result";
      close_out oc;
      check_bool "corrupt result reads as pending" false
        (Results.completed ~dir ~digest);
      check_bool "original file moved away" false (Sys.file_exists path);
      check "quarantine holds the evidence" 1
        (Array.length (Sys.readdir (Results.quarantine_dir dir)));
      (* a rerun recomputes exactly the quarantined cell *)
      let p = Runner.run ~backend:Runner.Local ~dir spec in
      check "rerun recomputes one" 1 p.Runner.ran;
      check "rerun skips the other" 1 p.Runner.skipped;
      check_bool "cell completed again" true (Results.completed ~dir ~digest))

let test_local_serve_identical () =
  let base = fresh_dir () in
  let sock = Filename.concat base "camp.sock" in
  let scheduler = Scheduler.create () in
  let listener =
    Listener.start_scheduler ~scheduler (Listener.Unix_sock sock)
  in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop listener;
      rm_rf base)
    (fun () ->
      (* t-res:2 is out of range at n = 2: both backends must store the
         same typed failure next to the valid cells *)
      let spec =
        spec_of_string
          "((name small) (seed 7) (axes ((endpoint (ra)) (adversary \
           (wait-free t-res:1 t-res:2)) (n (2)))))"
      in
      let local = Filename.concat base "local"
      and served = Filename.concat base "serve" in
      let p1 = Runner.run ~backend:Runner.Local ~dir:local spec in
      let p2 =
        Runner.run
          ~backend:
            (Runner.Serve
               {
                 addr = Listener.Unix_sock sock; retries = 2;
                 backoff = None; timeout_s = 30.;
               })
          ~dir:served spec
      in
      check "local valid ok" 2 p1.Runner.ok;
      check "serve valid ok" 2 p2.Runner.ok;
      check "local bad preset failed" 1 p1.Runner.failed;
      check "serve bad preset failed" 1 p2.Runner.failed;
      let files dir = Sys.readdir (Results.cells_dir dir) in
      let lf = files local and cf = files served in
      Array.sort compare lf;
      Array.sort compare cf;
      check_bool "same cell filenames" true (lf = cf);
      Array.iter
        (fun f ->
          check_string
            (Printf.sprintf "cell %s byte-identical" f)
            (read_file (Filename.concat (Results.cells_dir local) f))
            (read_file (Filename.concat (Results.cells_dir served) f)))
        lf)

(* ------------------------------------------------------------------ *)
(* Report: gate, splice                                               *)
(* ------------------------------------------------------------------ *)

let test_gate_pass_and_fail () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec = spec_of_string small_grid in
      ignore (Runner.run ~backend:Runner.Local ~dir spec);
      let report = Report.load ~dir in
      let baseline = Report.to_json report in
      (match Report.gate ~baseline report with
      | Ok n -> check "gate passes fresh baseline" 2 n
      | Error vs -> Alcotest.failf "unexpected gate failure: %s" (List.hd vs));
      (* shrink every baseline wall time to force the slow check, with
         no slack to hide behind *)
      (match Report.gate ~tolerance:0.0 ~slack_ms:(-1.0) ~baseline report with
      | Ok _ -> Alcotest.fail "zero-tolerance gate should fail"
      | Error vs ->
        check_bool "slow violation reported" true
          (List.exists
             (fun v -> String.length v >= 4 && String.sub v 0 4 = "slow")
             vs));
      (* a baseline cell with no current result is a hard violation *)
      let missing =
        baseline
        ^ "{\"digest\": \"0000deadbeef0000deadbeef0000dead\", \
           \"result_md5\": \"x\", \"outcome\": \"ok\", \"wall_ms\": 1.0}\n"
      in
      (match Report.gate ~baseline:missing report with
      | Ok _ -> Alcotest.fail "missing-cell gate should fail"
      | Error vs ->
        check_bool "missing violation reported" true
          (List.exists
             (fun v ->
               String.length v >= 7 && String.sub v 0 7 = "missing")
             vs));
      match Report.gate ~baseline:"" report with
      | Ok _ -> Alcotest.fail "empty baseline should fail"
      | Error _ -> ())

let test_splice_idempotent () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec = spec_of_string small_grid in
      ignore (Runner.run ~backend:Runner.Local ~dir spec);
      let report = Report.load ~dir in
      let file = Filename.concat dir "EXPERIMENTS.md" in
      let oc = open_out_bin file in
      output_string oc "# Experiments\n\nprose before the block\n";
      close_out oc;
      Report.splice ~file report;
      let first = read_file file in
      check_bool "block appended" true
        (String.length first > String.length "# Experiments\n");
      Report.splice ~file report;
      check_string "second splice is a fixpoint" first (read_file file);
      check_bool "prose preserved" true
        (String.length first >= 5 && String.sub first 0 5 = "# Exp"))

(* ------------------------------------------------------------------ *)
(* Bench gate + trend                                                 *)
(* ------------------------------------------------------------------ *)

(* Synthetic bench results: gating never runs the real entries. *)
let bench_result ?p99_ms ~name ~n ~wall_ms ~minor_words () =
  {
    Bench_entries.name; n; wall_ms; p99_ms; facets = 1;
    minor_words; major_words = 0.; minor_collections = 0.;
    major_collections = 0.; hits = 0; misses = 0; evictions = 0;
  }

let test_bench_gate () =
  let r = bench_result ~name:"e1" ~n:3 ~wall_ms:1.0 ~minor_words:1000. () in
  let baseline =
    "{\"entries\": [\n"
    ^ Bench_entries.json_line r
    ^ "\n], \"caches\": [\n"
    ^ "  {\"name\": \"some.cache\", \"hits\": 1, \"misses\": 2, \
       \"evictions\": 0, \"size\": 1, \"cap\": 4}\n" ^ "]}\n"
  in
  (match Bench_entries.gate ~baseline [ r ] with
  | Ok n -> check "gate passes own baseline" 1 n
  | Error vs -> Alcotest.failf "unexpected gate failure: %s" (List.hd vs));
  (* wall-time regression *)
  let slow = { r with Bench_entries.wall_ms = 500. } in
  (match Bench_entries.gate ~tolerance:2.0 ~slack_ms:5. ~baseline [ slow ] with
  | Ok _ -> Alcotest.fail "slow gate should fail"
  | Error vs ->
    check_bool "slow violation" true
      (List.exists (fun v -> String.sub v 0 4 = "slow") vs));
  (* allocation regression, wall time unchanged *)
  let churny = { r with Bench_entries.minor_words = 1_000_000. } in
  (match
     Bench_entries.gate ~alloc_tolerance:2.0 ~slack_words:100. ~baseline
       [ churny ]
   with
  | Ok _ -> Alcotest.fail "alloc gate should fail"
  | Error vs ->
    check_bool "alloc violation" true
      (List.exists (fun v -> String.sub v 0 5 = "alloc") vs));
  (* an entry the baseline does not know is a violation, not a pass *)
  let unknown = bench_result ~name:"new" ~n:1 ~wall_ms:1. ~minor_words:1. () in
  (match Bench_entries.gate ~baseline [ r; unknown ] with
  | Ok _ -> Alcotest.fail "unknown-entry gate should fail"
  | Error vs ->
    check_bool "missing violation" true
      (List.exists (fun v -> String.sub v 0 7 = "missing") vs));
  (* cache-trailer lines (name without wall_ms) are not entries *)
  match Bench_entries.gate ~baseline:"{\"entries\": []}" [ r ] with
  | Ok _ -> Alcotest.fail "empty baseline should fail"
  | Error _ -> ()

let test_trend_table () =
  let snap label w1 w2 =
    ( label,
      "{\"entries\": [\n"
      ^ Bench_entries.json_line
          (bench_result ~name:"e1" ~n:3 ~wall_ms:w1 ~minor_words:0. ())
      ^ ",\n"
      ^ Bench_entries.json_line
          (bench_result ~name:"e2" ~n:4 ~wall_ms:w2 ~minor_words:0. ())
      ^ "\n]}\n" )
  in
  let md = Report.trend [ snap "old.json" 10.0 4.0; snap "new.json" 2.5 4.0 ] in
  let has sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "md has both columns" true
    (has "old.json" md && has "new.json" md);
  check_bool "md rows keyed by name+n" true (has "e1 n=3" md && has "e2 n=4" md);
  check_bool "md trend ratio" true (has "x0.25" md);
  let csv =
    Report.trend ~format:`Csv [ snap "a.json" 1.0 2.0; snap "b.json" 3.0 4.0 ]
  in
  check_bool "csv header" true (has "entry,a.json,b.json" csv);
  check_bool "csv row" true (has "e1 n=3,1.000,3.000" csv);
  (* campaign cells trend too, keyed by digest *)
  let cell =
    "{\"digest\": \"abcdef0123456789\", \"endpoint\": \"ra\", \"adversary\": \
     \"wait-free\", \"n\": 3, \"wall_ms\": 7.5}"
  in
  let md2 = Report.trend [ ("c1.json", cell); ("c2.json", cell) ] in
  check_bool "campaign key" true (has "ra wait-free n=3 abcdef012345" md2);
  (* a file with no entries is a typed error *)
  match Report.trend [ ("empty.json", "{}") ] with
  | exception Fact_resilience.Fact_error.Error _ -> ()
  | _ -> Alcotest.fail "empty trend input should raise"

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  check_string "empty percentile" "0." (string_of_float (Histogram.percentile h 50.));
  (* 90 fast, 9 medium, 1 slow: p50 in the fast bucket, p95 medium,
     p99 medium, p100 slow *)
  for _ = 1 to 90 do Histogram.add h 0.5 done;
  for _ = 1 to 9 do Histogram.add h 3.0 done;
  Histogram.add h 100.0;
  check "count" 100 (Histogram.count h);
  check_bool "p50 <= 1ms" true (Histogram.percentile h 50. = 1.0);
  check_bool "p95 <= 4ms" true (Histogram.percentile h 95. = 4.0);
  check_bool "p99 <= 4ms" true (Histogram.percentile h 99. = 4.0);
  check_bool "p100 <= 128ms" true (Histogram.percentile h 100. = 128.0);
  check_string "line format" "p50<=1ms p95<=4ms p99<=4ms"
    (Histogram.percentiles_line h);
  (* of_counts adopts raw buckets — the scheduler's snapshot path *)
  let h2 = Histogram.of_counts (Histogram.counts h) in
  check "of_counts count" 100 (Histogram.count h2);
  check_bool "of_counts p95" true (Histogram.percentile h2 95. = 4.0)

let suite =
  [
    Alcotest.test_case "grid spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "cell round-trip + pinned digest" `Quick
      test_cell_roundtrip_and_digest_pinned;
    Alcotest.test_case "canonicalization dedups, prune prunes" `Quick
      test_canonicalization_dedups;
    Alcotest.test_case "resume skips completed" `Quick
      test_resume_skips_completed;
    Alcotest.test_case "groups persist as they finish" `Quick
      test_groups_persist_as_they_finish;
    Alcotest.test_case "corrupt result quarantined" `Quick
      test_corrupt_result_quarantined;
    Alcotest.test_case "local vs serve byte-identical" `Quick
      test_local_serve_identical;
    Alcotest.test_case "gate pass/fail" `Quick test_gate_pass_and_fail;
    Alcotest.test_case "bench gate wall + alloc" `Quick test_bench_gate;
    Alcotest.test_case "trend table md/csv" `Quick test_trend_table;
    Alcotest.test_case "report splice idempotent" `Quick
      test_splice_idempotent;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
  ]
