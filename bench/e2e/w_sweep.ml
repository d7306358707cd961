(* campaign-sweep: a generated grid run on the local backend, as
   [fact campaign run] does it. Cells share the memo caches, the
   cache-cap 64 group exercises eviction, and cells fan out over the
   domain pool in groups. An op is one whole sweep into a fresh results
   directory, after emptying the caches. *)

module F = Fact_core.Fact
open Common

type state = { text : string; md5 : (string, string) Hashtbl.t  (** query key -> payload MD5 *) }

type sweep = {
  wall : float;
  cells : int;
  wrong : int;
  timings : F.Campaign_results.timing list;
  hits : int;
  misses : int;
  evictions : int;
  bytes : int;
}

let spec text =
  match F.Grid.of_string text with Ok s -> s | Error e -> failwith ("sweep grid: " ^ e)

let sweeps = ref 0

(* Wraps a step of the sweep; the traced run puts a span there. *)
type around = { around : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { around = (fun _ f -> f ()) }

(* One sweep. Every cell must be [ok] with the MD5 of
   the one-shot payload of its query, which also makes the payloads
   equal across the domains and cache-cap axes. *)
let sweep ?(around = untraced) ctx st =
  incr sweeps;
  let dir = Filename.concat ctx.tmp (Printf.sprintf "sweep-%d" !sweeps) in
  F.Cache.clear_all ();
  let h0, m0, e0 = cache_totals () in
  let t0 = now () in
  let s, cells =
    around.around "campaign.grid" (fun () ->
        let s = spec st.text in
        (s, List.length (F.Grid.cells s)))
  in
  ignore
    (around.around "campaign.run" (fun () ->
         F.Campaign_runner.run ~backend:F.Campaign_runner.Local ~dir s));
  let wall = now () -. t0 in
  let h1, m1, e1 = cache_totals () in
  let records, _ = F.Campaign_results.load ~dir in
  let wrong =
    List.fold_left
      (fun k ((r : F.Campaign_results.record), _) ->
        let expected = Hashtbl.find_opt st.md5 (Inputs.key (F.Grid.query r.cell)) in
        if r.outcome = "ok" && expected = Some r.payload_md5 then k else k + 1)
      (cells - List.length records) records
  in
  let bytes = du dir in
  rm_rf dir;
  {
    wall;
    cells;
    wrong;
    timings = List.filter_map snd records;
    hits = h1 - h0;
    misses = m1 - m0;
    evictions = e1 - e0;
    bytes;
  }

(* Set-up compiles the grid, computes the one-shot reference of every
   distinct query, and runs one unmeasured sweep (which also spawns the
   domain pool). *)
let setup ctx () =
  let text = Inputs.sweep_grid ~seed:ctx.seed in
  let md5 = Hashtbl.create 64 in
  List.iter
    (fun cell ->
      let q = F.Grid.query cell in
      let k = Inputs.key q in
      if not (Hashtbl.mem md5 k) then
        Hashtbl.add md5 k (Digest.to_hex (Digest.string (corrupt_payload ctx (F.Query.eval q)))))
    (F.Grid.cells (spec text));
  let st = { text; md5 } in
  ignore (sweep ctx st);
  st

(* Sweep times are rescaled by the gauge, probed between sweeps. *)
let run ctx =
  let gauge = Gauge.create () in
  let st, setup_s = repeated_setup ~gauge (setup ctx) in
  let walls = ref [] and n = ref 0 in
  let cells = ref 0 and wrong = ref 0 in
  let rss = rss_probe 10 in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    Gauge.tick gauge;
    let t0 = now () in
    let s = sweep ctx st in
    walls := (t0, s.wall) :: !walls;
    incr n;
    rss_tick rss !n;
    cells := !cells + s.cells;
    wrong := !wrong + s.wrong
  done;
  Gauge.measure gauge;
  print_gauge gauge;
  let walls = Gauge.rescale gauge (Array.of_list (List.rev !walls)) in
  let n = !n in
  {
    attempted = !cells;
    failed = !wrong;
    metrics =
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:n "ops_per_s" "1/s" (float_of_int n /. Array.fold_left ( +. ) 0. walls) ]
      @ latency_metrics walls
      @ [ rss_metric rss ];
  }

(* ------------------------------ trace ------------------------------ *)

(* Untraced and traced sweeps alternate, so both see the same machine. *)
let trace ctx r =
  let st = setup ctx () in
  let cells = ref 0 and wrong = ref 0 in
  let untraced = ref [] and traced = ref [] in
  let stop = now () +. ctx.seconds in
  while now () < stop do
    let op = List.length !untraced in
    let u = sweep ctx st in
    let t =
      Span.nest r ~op "sweep" (fun parent ->
          sweep ~around:{ around = (fun name f -> Span.record r ~parent ~op name f) } ctx st)
    in
    List.iter (fun s -> cells := !cells + s.cells; wrong := !wrong + s.wrong) [ u; t ];
    untraced := u :: !untraced;
    traced := t :: !traced
  done;
  let untraced = !untraced and traced = !traced in
  let total l = List.fold_left (fun a s -> a +. s.wall) 0. l in
  let n = List.length untraced in
  let sum f = List.fold_left (fun a s -> a + f s) 0 untraced in
  let cell_walls d =
    List.concat_map (fun s -> s.timings) untraced
    |> List.filter (fun (t : F.Campaign_results.timing) -> t.domains = d)
    |> List.map (fun (t : F.Campaign_results.timing) -> t.wall_ms)
    |> Array.of_list
  in
  let d1 = cell_walls 1 and d2 = cell_walls 2 in
  let grid =
    List.filter (fun s -> s.Span.name = "campaign.grid") (Span.spans r)
    |> List.map Span.duration |> Array.of_list
  in
  let hits = sum (fun s -> s.hits) and misses = sum (fun s -> s.misses) in
  let p name = "campaign-sweep." ^ name in
  let per_sweep x = float_of_int x /. float_of_int n in
  {
    attempted = !cells;
    failed = !wrong;
    metrics =
      [ metric ~samples:(Array.length grid) (p "campaign.grid_ms") "ms" (Stats.median grid *. 1000.);
        metric ~samples:(Array.length d1) (p "campaign.cell_ms_d1") "ms" (Stats.percentile d1 50.);
        metric ~samples:(Array.length d2) (p "campaign.cell_ms_d2") "ms" (Stats.percentile d2 50.);
        (* cells of a group run concurrently, so their walls overlap: the
           mean shows the cost of a cell, not its share of the sweep *)
        metric ~samples:(Array.length d1) (p "campaign.cell_mean_ms_d1") "ms" (Stats.mean d1);
        metric ~samples:(Array.length d2) (p "campaign.cell_mean_ms_d2") "ms" (Stats.mean d2);
        metric ~samples:n (p "resilience.hit_ratio") "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        metric ~samples:n (p "resilience.evictions") "count" (per_sweep (sum (fun s -> s.evictions)));
        metric ~samples:n (p "campaign.bytes_written") "bytes" (per_sweep (sum (fun s -> s.bytes)));
        metric ~samples:(List.length traced) (p "trace.overhead") "ratio" (total traced /. total untraced) ];
  }
