(* What every workload shares: its run context, its result, and the
   process-level measurements (set-up time, peak RSS). *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time budget of the run *)
  corrupt : bool;  (** corrupt the reference answers (tests the checks) *)
  tmp : string;  (** scratch directory, removed when the run ends *)
  fact_exe : string;  (** the [fact] CLI, spawned by serve-warm *)
}

type metric = { name : string; value : float; unit_ : string; samples : int }

type result = { attempted : int; failed : int; metrics : metric list }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }
let now = Unix.gettimeofday

(* Processes started and not yet reaped: killed and waited for at exit,
   so an interrupted run leaves none behind. *)
let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

(* Run this executable again on [args] and read the JSON object its
   last line of output holds (exit code 1, a wrong answer, included). *)
let rerun args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  match (Unix.close_process_in ic, Option.map Json.of_string line) with
  | Unix.WEXITED (0 | 1), Some (Ok j) -> j
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

(* A reference answer that no correct run can reproduce. *)
let corrupt_payload ctx s = if ctx.corrupt then s ^ "\n(corrupted reference)" else s

let setup_reps = 5

(* Set-up runs [setup_reps] times, with a probe of [gauge] before and
   after each; the run keeps the last state and reports the median
   duration, rescaled by the gauge. [discard] releases an earlier state
   (e.g. stops its server). *)
let repeated_setup ?(discard = ignore) ~gauge f =
  let reps = setup_reps in
  let times = ref [] in
  let rec go i =
    Gauge.measure gauge;
    let t0 = now () in
    let st = f () in
    times := (t0, now () -. t0) :: !times;
    if i + 1 < reps then (discard st; go (i + 1)) else st
  in
  let st = go 0 in
  Gauge.measure gauge;
  (st, Stats.median (Gauge.rescale gauge (Array.of_list !times)))

let print_gauge g = print_endline (Gauge.describe ~median_s:(Gauge.median_s g) ~count:(Gauge.count g))

let vm_hwm_kb status_file =
  let ic = open_in status_file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ status_file)
      in
      find ())

(* Peak resident set of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  float_of_int (vm_hwm_kb (Printf.sprintf "/proc/%s/status" pid)) /. 1024.

(* Peak RSS of this process once the run has done [after] ops (or at
   the end, if it does fewer): a workload whose memory grows with the
   work done then reports the same amount of work on every run. *)
type rss_probe = { after : int; mutable mb : float option }

let rss_probe after = { after; mb = None }
let rss_tick p ops = if ops = p.after then p.mb <- Some (peak_rss_mb ())

let rss_metric p =
  metric "peak_rss_mb" "MB" (match p.mb with Some mb -> mb | None -> peak_rss_mb ())

(* Hits, misses and evictions summed over every memo cache. *)
let cache_totals () =
  List.fold_left
    (fun (h, m, e) (_, s) ->
      let open Fact_core.Fact.Cache in
      (h + s.hits, m + s.misses, e + s.evictions))
    (0, 0, 0)
    (Fact_core.Fact.Cache.all_stats ())

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size

(* Latency summary of one op kind: median and p95 in ms, with the
   sample count, from seconds. *)
let latency_metrics samples =
  let a = Stats.sorted samples in
  let n = Array.length a in
  [
    metric ~samples:n "p50_ms" "ms" (Stats.percentile_sorted a 50. *. 1000.);
    metric ~samples:n "p95_ms" "ms" (Stats.percentile_sorted a 95. *. 1000.);
  ]
