(* [fact_bench compare A/*.json B/*.json]: two sets of [--out] records
   side by side, one row per (workload, metric), with each set's median
   and quartiles and a verdict under the BENCHMARK.json bounds. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Absolute floors under the relative bounds, for values so small that
   a relative change is below what the clock resolves. *)
let floor_of_unit = function "ms" -> 0.005 | "s" -> 0.005 | "us" -> 1. | "MB" -> 0.5 | _ -> 0.

(* [a] is the baseline set, [b] the candidate. With a bound: the
   medians must differ by more than [max (bound·|median a|) floor] to
   count as better or worse, and a set whose spread (inter-quartile
   distance over median) exceeds the bound leaves the metric
   unresolved — unless every value of one set beats every value of the
   other by more than that margin. Without a bound (per-layer
   metrics): better or worse only when the inter-quartile ranges do
   not overlap. *)
let verdict ~higher ?bound ?(floor = 0.) a b =
  let qa1, ma, qa3 = Stats.quartiles a and qb1, mb, qb3 = Stats.quartiles b in
  let gain x y = if higher then y -. x else x -. y in
  match bound with
  | None ->
    if qb1 > qa3 || qb3 < qa1 then if gain ma mb > 0. then Better else Worse else Same
  | Some bound ->
    let tol = Float.max (bound *. Float.abs ma) floor in
    let beyond cmp = Array.for_all (fun y -> Array.for_all (fun x -> cmp (gain x y)) a) b in
    if Stats.spread a > bound || Stats.spread b > bound then
      if beyond (fun g -> g > tol) then Better
      else if beyond (fun g -> g < -.tol) then Worse
      else Unresolved
    else
      let g = gain ma mb in
      if g > tol then Better else if g < -.tol then Worse else Same

type bound = { higher : bool; bound : float option }

(* name -> direction and bound, from BENCHMARK.json *)
let bounds_of_benchmark json =
  let entries key =
    match Json.member key json with
    | Some (Json.Arr l) ->
      List.filter_map
        (fun e ->
          match (Option.bind (Json.member "name" e) Json.to_str, Option.bind (Json.member "better" e) Json.to_str) with
          | Some name, Some better ->
            Some (name, { higher = better = "higher"; bound = Option.bind (Json.member "bound" e) Json.to_num })
          | _ -> None)
        l
    | _ -> []
  in
  entries "end_to_end" @ entries "per_layer"

type record = {
  set : string;
  workload : string;
  correct : bool;
  values : (string * (float * string)) list;  (** metric -> value, unit *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Json.of_string (read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
    {
      set = Filename.dirname path;
      workload = Option.value (Option.bind (Json.member "workload" j) Json.to_str) ~default:"?";
      correct = Json.member "correct" j = Some (Json.Bool true);
      values =
        List.map
          (fun (m : Common.metric) -> (m.name, (m.value, m.unit_)))
          (Output.of_record j).metrics;
    }

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  a : float array;
  b : float array;
  verdict : verdict;
}

let dedup l = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

(* Rows in BENCHMARK.json order, then any other metric the files hold. *)
let rows ~bounds ~set_a records =
  let workloads = dedup (List.map (fun (r : record) -> r.workload) records) in
  List.concat_map
    (fun w ->
      let mine = List.filter (fun (r : record) -> r.workload = w) records in
      let names =
        dedup (List.map fst bounds @ List.concat_map (fun r -> List.map fst r.values) mine)
      in
      List.filter_map
        (fun name ->
          let values set =
            List.filter_map
              (fun r -> if (r.set = set_a) = set then List.assoc_opt name r.values else None)
              mine
          in
          let a = values true and b = values false in
          match (a, b) with
          | [], _ | _, [] -> None
          | (_, unit_) :: _, _ ->
            let a = Array.of_list (List.map fst a) and b = Array.of_list (List.map fst b) in
            let higher, bound =
              match List.assoc_opt name bounds with
              | Some { higher; bound } -> (higher, bound)
              | None -> (false, None)
            in
            Some
              { workload = w; metric = name; unit_; a; b;
                verdict = verdict ~higher ?bound ~floor:(floor_of_unit unit_) a b })
        names)
    workloads

let summary a =
  let q1, m, q3 = Stats.quartiles a in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" m q1 q3 (Array.length a)

let print_rows ~set_a ~set_b rows =
  Printf.printf "A = %s, B = %s (median [q1, q3] n=runs)\n" set_a set_b;
  Printf.printf "%-20s %-46s %-6s %-34s %-34s %8s  %s\n" "workload" "metric" "unit" "A" "B" "delta" "verdict";
  List.iter
    (fun r ->
      let ma = Stats.median r.a and mb = Stats.median r.b in
      Printf.printf "%-20s %-46s %-6s %-34s %-34s %+7.1f%%  %s\n" r.workload r.metric r.unit_
        (summary r.a) (summary r.b)
        (if ma = 0. then 0. else (mb -. ma) /. Float.abs ma *. 100.)
        (verdict_to_string r.verdict))
    rows

let main ~benchmark files =
  let records = List.map load files in
  let bounds =
    match Json.of_string (read_file benchmark) with
    | Ok j -> bounds_of_benchmark j
    | Error e -> failwith (Printf.sprintf "%s: %s" benchmark e)
  in
  match dedup (List.map (fun (r : record) -> r.set) records) with
  | [ set_a; set_b ] ->
    List.iter
      (fun (r : record) -> if not r.correct then Printf.printf "warning: a run in %s (%s) was not correct\n" r.set r.workload)
      records;
    print_rows ~set_a ~set_b (rows ~bounds ~set_a records);
    0
  | sets ->
    Printf.eprintf "fact_bench compare: the files must come from exactly two directories (got %d)\n"
      (List.length sets);
    2
