(* The three renderings of a run's result: the one-line JSON the
   benchmark ends with, the record [--out] writes (and [compare] and a
   traced run's parent read back), and the human-readable lines. *)

open Common

let correct (r : result) = r.failed = 0 && r.attempted > 0

let metrics_json ~samples (r : result) =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
             @ if samples then [ ("samples", Json.Num (float_of_int m.samples)) ] else []) ))
       r.metrics)

let counts_json (r : result) =
  [ ("correct", Json.Bool (correct r));
    ("attempted", Json.Num (float_of_int r.attempted));
    ("failed", Json.Num (float_of_int r.failed)) ]

(* The last line of standard output. *)
let line r = Json.to_string (Json.Obj (counts_json r @ [ ("metrics", metrics_json ~samples:false r) ]))

let record ~workload ~seed ~seconds ~trace r =
  Json.Obj
    ([ ("workload", Json.Str workload);
       ("seed", Json.Num (float_of_int seed));
       ("seconds", Json.Num seconds);
       ("trace", Json.Num (if trace then 1. else 0.)) ]
    @ counts_json r
    @ [ ("metrics", metrics_json ~samples:true r) ])

let of_record j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  let int k = Option.fold ~none:0 ~some:int_of_float (num k) in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj l) ->
      List.filter_map
        (fun (name, m) ->
          let field k = Json.member k m in
          match (Option.bind (field "value") Json.to_num, Option.bind (field "unit") Json.to_str) with
          | Some value, Some unit_ ->
            let samples = Option.fold ~none:1 ~some:int_of_float (Option.bind (field "samples") Json.to_num) in
            Some { name; value; unit_; samples }
          | _ -> None)
        l
    | _ -> []
  in
  { attempted = int "attempted"; failed = int "failed"; metrics }

let print_human ~workload (r : result) =
  List.iter
    (fun m ->
      Printf.printf "%-20s %-50s %14s %-6s n=%d\n" workload m.name (Json.number m.value) m.unit_ m.samples)
    r.metrics;
  Printf.printf "%-20s attempted=%d failed=%d fail_ratio=%s\n" workload r.attempted r.failed
    (Json.number (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
