module Fact_error = Fact_resilience.Fact_error
module Cancel = Fact_resilience.Cancel
module Cache = Fact_resilience.Cache
module Backoff = Fact_resilience.Backoff
module Parallel = Fact_topology.Parallel
module Query = Fact_serve.Query
module Client = Fact_serve.Client
module Listener = Fact_serve.Listener
module Wire = Fact_serve.Wire

type backend =
  | Local
  | Serve of {
      addr : Listener.addr;
      retries : int;
      backoff : Backoff.policy option;
      timeout_s : float;
    }

type progress = {
  total : int;
  ran : int;
  skipped : int;
  ok : int;
  failed : int;
}

let backend_name = function Local -> "local" | Serve _ -> "serve"

let cache_totals () =
  List.fold_left
    (fun (h, m, e) (_, s) ->
      (h + s.Cache.hits, m + s.Cache.misses, e + s.Cache.evictions))
    (0, 0, 0) (Cache.all_stats ())

(* one executed cell, before persistence *)
type executed = {
  cell : Grid.cell;
  result : (string * string, Fact_error.t) result;
      (* payload, source — or the typed failure *)
  wall_ms : float;
  delta : int * int * int;
  exec_domains : int;
}

let eval_local cell =
  let q = Grid.query cell in
  let compute () = Query.eval q in
  match cell.Grid.deadline_s with
  | None -> compute ()
  | Some d -> Cancel.with_token (Cancel.create ~deadline_s:d ()) compute

let run_cell_local cell =
  let h0, m0, e0 = cache_totals () in
  let t0 = Unix.gettimeofday () in
  let result =
    match eval_local cell with
    | payload -> Ok (payload, "computed")
    | exception Fact_error.Error e -> Error e
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let h1, m1, e1 = cache_totals () in
  {
    cell;
    result;
    wall_ms;
    delta = (h1 - h0, m1 - m0, e1 - e0);
    exec_domains = cell.Grid.domains;
  }

let run_cell_serve ~addr ~retries ~backoff ~timeout_s cell =
  let q = Grid.query cell in
  let t0 = Unix.gettimeofday () in
  let result =
    match
      Client.query_with_retry ~retries ?backoff ~timeout_s
        ?deadline_s:cell.Grid.deadline_s addr q
    with
    | payload, source -> Ok (payload, Wire.source_to_string source)
    | exception Fact_error.Error e -> Error e
  in
  {
    cell;
    result;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
    delta = (0, 0, 0);
    exec_domains = 0;
  }

let persist ~log ~backend ~dir ex =
  let digest = Grid.digest ex.cell in
  let dh, dm, de = ex.delta in
  let timing ~source ~error =
    {
      Results.backend = backend_name backend;
      source;
      wall_ms = ex.wall_ms;
      cache_hits = dh;
      cache_misses = dm;
      cache_evictions = de;
      domains = ex.exec_domains;
      error;
    }
  in
  match ex.result with
  | Ok (payload, source) ->
    Results.write ~dir
      (Results.make_record ~cell:ex.cell ~outcome:"ok" ~payload)
      (timing ~source ~error:None);
    log (Printf.sprintf "cell %s ok %s (%.1f ms)" digest
           (Query.endpoint (Grid.query ex.cell)) ex.wall_ms);
    `Ok
  | Error e ->
    let cls = Results.class_of_error e in
    let msg = Fact_error.to_string e in
    (* [unavailable] is the retryable class: leave no result, so the
       next run retries instead of pinning a transport hiccup *)
    if cls <> "unavailable" then
      Results.write ~dir
        (Results.make_record ~cell:ex.cell ~outcome:cls ~payload:"")
        (timing ~source:"-" ~error:(Some msg));
    log (Printf.sprintf "cell %s FAILED %s: %s" digest cls msg);
    `Failed

(* ------------------------------ local ------------------------------ *)

(* cells grouped by their environment axes, declaration order kept:
   [set_default_domains]/[set_default_cap] are process-wide, so a
   group's settings must be installed before its cells run and groups
   must not interleave *)
let group_by_env cells =
  let keys = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let key = (c.Grid.domains, c.Grid.cache_cap) in
      if not (Hashtbl.mem tbl key) then begin
        keys := key :: !keys;
        Hashtbl.add tbl key []
      end;
      Hashtbl.replace tbl key (c :: Hashtbl.find tbl key))
    cells;
  List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !keys

(* Each group persists through [finished] as soon as its fan-out
   returns, so a run killed in a later group keeps the earlier ones. *)
let run_local ~log ~finished pending =
  let saved_domains = Parallel.default_domains () in
  let saved_cap = Cache.default_cap () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_default_domains saved_domains;
      Cache.set_default_cap saved_cap)
    (fun () ->
      List.iter
        (fun ((domains, cache_cap), cells) ->
          Parallel.set_default_domains domains;
          Cache.set_default_cap (Option.value cache_cap ~default:saved_cap);
          log
            (Printf.sprintf "group domains=%d cache-cap=%s: %d cells" domains
               (match cache_cap with
               | None -> "default"
               | Some c -> string_of_int c)
               (List.length cells));
          (* the fan-out: each thunk is one cell; a thunk's own
             Query.eval fans out further over the same pool *)
          Parallel.run_all (List.map (fun c () -> run_cell_local c) cells)
          |> List.map (function
               | Ok ex -> ex
               | Error captured ->
                 (* run_cell_local catches every typed error, so a
                    captured exception here is a genuine bug *)
                 Parallel.reraise captured)
          |> List.iter finished)
        (group_by_env pending))

(* ------------------------------- run ------------------------------- *)

let run ?(log = fun _ -> ()) ~backend ~dir spec =
  Results.init dir;
  let cells = Grid.cells spec in
  let total = List.length cells in
  let pending, skipped =
    List.partition
      (fun c -> not (Results.completed ~dir ~digest:(Grid.digest c)))
      cells
  in
  let skipped = List.length skipped in
  if skipped > 0 then
    log (Printf.sprintf "resume: %d of %d cells already done" skipped total);
  let ran = ref 0 and ok = ref 0 and failed = ref 0 in
  let finished ex =
    incr ran;
    match persist ~log ~backend ~dir ex with
    | `Ok -> incr ok
    | `Failed -> incr failed
  in
  (match backend with
  | Local -> run_local ~log ~finished pending
  | Serve { addr; retries; backoff; timeout_s } ->
    List.iter
      (fun c -> finished (run_cell_serve ~addr ~retries ~backoff ~timeout_s c))
      pending);
  let p = { total; ran = !ran; skipped; ok = !ok; failed = !failed } in
  log
    (Printf.sprintf "campaign %s: total=%d ran=%d skipped=%d ok=%d failed=%d"
       (Grid.name spec) p.total p.ran p.skipped p.ok p.failed);
  p
