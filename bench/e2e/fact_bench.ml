(* The end-to-end benchmark. See README.md next to this file.

     fact_bench --workload W --seed N [--seconds S] [--trace 0|1] [--out F.json]
     fact_bench --seed N [--trace 0|1] [--out F.json]   # every workload
     fact_bench compare [--benchmark BENCHMARK.json] A/*.json B/*.json

   Run from the repository root after [dune build]. Each workload runs
   in a fresh process; the last line of standard output is the result
   as one JSON object; the exit code is 1 when an output was wrong. *)

open Fact_bench_e2e

let workloads =
  [ ("oneshot-cold", W_cold.run, W_cold.trace);
    ("serve-warm", W_warm.run, W_warm.trace);
    ("explore-exhaustive", W_explore.run, W_explore.trace);
    ("campaign-sweep", W_sweep.run, W_sweep.trace) ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  fact : string;
  spans : string;
  corrupt : bool;
  child : bool;  (** run one workload's traced pass for a parent run *)
  chunk : bool;  (** run one chunk of explore-exhaustive for a parent run *)
}

let usage () =
  prerr_string
    "usage: fact_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out F.json]\n\
    \                  [--fact PATH] [--spans DIR]\n\
    \       fact_bench compare [--benchmark BENCHMARK.json] A/*.json B/*.json\n\
     workloads: oneshot-cold serve-warm explore-exhaustive campaign-sweep\n";
  exit 2

let parse args =
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.exists (fun (n, _, _) -> n = w) workloads ->
      go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = num int_of_string_opt n } rest
    | "--seconds" :: s :: rest ->
      let s = num float_of_string_opt s in
      if s <= 0. then usage ();
      go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--fact" :: f :: rest -> go { o with fact = f } rest
    | "--spans" :: d :: rest -> go { o with spans = d } rest
    | "--corrupt-reference" :: rest -> go { o with corrupt = true } rest
    | "--child" :: rest -> go { o with child = true } rest
    | "--chunk" :: rest -> go { o with chunk = true } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = 1; seconds = 25.; trace = false; out = None;
      fact = "_build/default/bin/fact_cli.exe"; spans = ".fact_bench/spans";
      corrupt = false; child = false; chunk = false }
    args

let write_file path s =
  Common.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s; output_char oc '\n')

let flags o =
  [ "--seed"; string_of_int o.seed; "--fact"; o.fact; "--spans"; o.spans ]
  @ if o.corrupt then [ "--corrupt-reference" ] else []

let finish o ~workload r =
  Output.print_human ~workload r;
  Option.iter
    (fun f ->
      write_file f
        (Json.to_string (Output.record ~workload ~seed:o.seed ~seconds:o.seconds ~trace:o.trace r)))
    o.out;
  print_endline (Output.line r);
  exit (if Output.correct r then 0 else 1)

(* A traced run measures the layers of all four workloads, each in its
   own process for a quarter of the time, so that every per-layer
   metric is present whichever workload was named. *)
let traced_run o ~workload =
  let results =
    List.map
      (fun (w, _, _) ->
        Output.of_record
          (Common.rerun
             ([ "--workload"; w; "--trace"; "1"; "--child"; "--seconds"; Json.number (o.seconds /. 4.) ]
             @ flags o)))
      workloads
  in
  finish o ~workload
    {
      Common.attempted = List.fold_left (fun a r -> a + r.Common.attempted) 0 results;
      failed = List.fold_left (fun a r -> a + r.Common.failed) 0 results;
      metrics = List.concat_map (fun r -> r.Common.metrics) results;
    }

let run o =
  let tmp = Printf.sprintf ".fact_bench/tmp-%d" (Unix.getpid ()) in
  Common.mkdir_p tmp;
  at_exit (fun () -> Common.rm_rf tmp);
  let ctx = { Common.seed = o.seed; seconds = o.seconds; corrupt = o.corrupt; tmp; fact_exe = o.fact } in
  match o.workload with
  | None ->
    (* every workload, each in a fresh process with its own result line *)
    let failed =
      List.filter
        (fun (w, _, _) ->
          let out = Option.map (fun f -> Filename.remove_extension f ^ "-" ^ w ^ ".json") o.out in
          let args =
            [ "--workload"; w; "--seconds"; Json.number o.seconds; "--trace"; (if o.trace then "1" else "0") ]
            @ flags o
            @ Option.fold ~none:[] ~some:(fun f -> [ "--out"; f ]) out
          in
          let exe = Sys.executable_name in
          let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout Unix.stderr in
          snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
        workloads
    in
    exit (if failed = [] then 0 else 1)
  | Some workload ->
    let _, run, trace = List.find (fun (n, _, _) -> n = workload) workloads in
    if workload = "serve-warm" || (o.trace && not o.child) then
      if not (Sys.file_exists o.fact) then
        failwith (o.fact ^ " not found: run `dune build` at the repository root first");
    if o.chunk && workload = "explore-exhaustive" then
      print_endline (Json.to_string (W_explore.chunk ctx))
    else if o.trace && o.child then begin
      let r = Span.recorder () in
      let res = trace ctx r in
      Common.mkdir_p o.spans;
      Span.write_jsonl ~workload
        (Filename.concat o.spans (Printf.sprintf "%s-seed%d.jsonl" workload o.seed))
        (Span.spans r);
      print_endline
        (Json.to_string (Output.record ~workload ~seed:o.seed ~seconds:o.seconds ~trace:true res));
      exit (if Output.correct res then 0 else 1)
    end
    else if o.trace then traced_run o ~workload
    else finish o ~workload (run ctx)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
    let benchmark, files =
      match rest with "--benchmark" :: b :: files -> (b, files) | files -> ("BENCHMARK.json", files)
    in
    if files = [] then usage ();
    exit (Compare.main ~benchmark files)
  | args -> (
    let o = parse args in
    try run o with
    | Failure msg | Sys_error msg ->
      prerr_endline ("fact_bench: " ^ msg);
      exit 2
    | Fact_core.Fact.Fact_error.Error e ->
      prerr_endline ("fact_bench: " ^ Fact_core.Fact.Fact_error.to_string e);
      exit 2
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "fact_bench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2)
