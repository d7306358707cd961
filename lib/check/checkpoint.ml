open Fact_topology
open Fact_sexp

type t = {
  protocol : string;
  n : int;
  participants : Pset.t;
  state : Explore.snapshot;
  parts : Opart.t list;
}

let ints_sx is = Sexp.List (List.map Sexp.int is)

let frontier_entry_sx (d, done_) =
  Sexp.List
    [ Trace.sexp_of_decision d; Sexp.List (List.map Trace.sexp_of_decision done_) ]

let frontier_sx fr = Sexp.List (List.map frontier_entry_sx fr)

let part_sx part =
  Sexp.List (List.map (fun b -> ints_sx (Pset.to_list b)) (Opart.blocks part))

(* A recorded violating run: its decisions, flagged [cut] when the run
   hit the depth budget (liveness assertions hold vacuously on replay)
   and [full] otherwise. The field is omitted when there are no
   violations, so checkpoints written before assertions existed
   round-trip byte-identically. *)
let viol_sx (ds, truncated) =
  Sexp.List
    (Sexp.Atom (if truncated then "cut" else "full")
    :: List.map Trace.sexp_of_decision ds)

let viols_field viols =
  if viols = [] then []
  else
    [ Sexp.List [ Sexp.Atom "violations"; Sexp.List (List.map viol_sx viols) ] ]

(* A task's counters, in the order both [done] and [active] write them
   (and the inline layout of older single-DFS files stored them). *)
let counters_sx t =
  [
    Sexp.List [ Sexp.Atom "runs"; Sexp.int t.Explore.t_runs ];
    Sexp.List [ Sexp.Atom "truncated"; Sexp.int t.Explore.t_truncated ];
    Sexp.List [ Sexp.Atom "pruned"; Sexp.int t.Explore.t_pruned ];
    Sexp.List [ Sexp.Atom "patterns"; ints_sx t.Explore.t_patterns ];
  ]

(* Per subtree task: the identifying prefix and its progress — todo, a
   final tally, or an interrupted frontier. *)
let progress_sx = function
  | Explore.Todo -> Sexp.Atom "todo"
  | Explore.Done t ->
    let exhausted = if t.Explore.t_exhausted then "true" else "false" in
    Sexp.List
      ((Sexp.Atom "done" :: counters_sx t)
      @ [ Sexp.List [ Sexp.Atom "exhausted"; Sexp.Atom exhausted ] ]
      @ viols_field t.t_viol)
  | Explore.Active (t, frontier) ->
    Sexp.List
      ((Sexp.Atom "active" :: counters_sx t)
      @ [ Sexp.List [ Sexp.Atom "frontier"; frontier_sx frontier ] ]
      @ viols_field t.t_viol)

let subtree_sx st =
  Sexp.List
    [
      Sexp.List [ Sexp.Atom "prefix"; frontier_sx st.Explore.prefix ];
      Sexp.List [ Sexp.Atom "status"; progress_sx st.Explore.progress ];
    ]

let to_sexp t =
  Sexp.List
    [
      Sexp.List [ Sexp.Atom "protocol"; Sexp.Atom t.protocol ];
      Sexp.List [ Sexp.Atom "n"; Sexp.int t.n ];
      Sexp.List [ Sexp.Atom "participants"; ints_sx (Pset.to_list t.participants) ];
      Sexp.List [ Sexp.Atom "subtrees"; Sexp.List (List.map subtree_sx t.state) ];
      Sexp.List [ Sexp.Atom "parts"; Sexp.List (List.map part_sx t.parts) ];
    ]

let to_string t = Sexp.to_string (to_sexp t)

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

(* Tolerant field access over a list of (key value) pairs: fields may
   gain optional members (like [violations]) without breaking old
   readers, and old files without them still parse. *)
let field name fields =
  List.find_map
    (function
      | Sexp.List [ Sexp.Atom k; v ] when k = name -> Some v
      | _ -> None)
    fields

let req name fields =
  match field name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field (%s ...)" name)

let req_int name fields =
  let* v = req name fields in
  Sexp.to_int v

let req_ints name fields =
  let* v = req name fields in
  match v with
  | Sexp.List is -> Sexp.map_result Sexp.to_int is
  | Sexp.Atom _ -> Error (Printf.sprintf "field %s: expected a list" name)

let entry_of_sexp = function
  | Sexp.List [ d_sx; Sexp.List done_sx ] ->
    let* d = Trace.decision_of_sexp d_sx in
    let* dn = Sexp.map_result Trace.decision_of_sexp done_sx in
    Ok (d, dn)
  | _ -> Error "bad frontier entry: expected (decision (decisions))"

let req_frontier name fields =
  let* v = req name fields in
  match v with
  | Sexp.List fr -> Sexp.map_result entry_of_sexp fr
  | Sexp.Atom _ -> Error (Printf.sprintf "field %s: expected a list" name)

let bool_of_sexp = function
  | Sexp.Atom "true" -> Ok true
  | Sexp.Atom "false" -> Ok false
  | _ -> Error "bad boolean: expected true or false"

let viol_of_sexp = function
  | Sexp.List (Sexp.Atom (("full" | "cut") as flag) :: ds) ->
    let* ds = Sexp.map_result Trace.decision_of_sexp ds in
    Ok (ds, flag = "cut")
  | _ -> Error "bad violation: expected (full|cut decisions...)"

let opt_viols fields =
  match field "violations" fields with
  | None -> Ok []
  | Some (Sexp.List vs) -> Sexp.map_result viol_of_sexp vs
  | Some (Sexp.Atom _) -> Error "field violations: expected a list"

let tally_of_fields ~exhausted fields =
  let* t_runs = req_int "runs" fields in
  let* t_truncated = req_int "truncated" fields in
  let* t_pruned = req_int "pruned" fields in
  let* t_patterns = req_ints "patterns" fields in
  let* t_viol = opt_viols fields in
  Ok
    { Explore.t_runs; t_truncated; t_pruned; t_patterns; t_classes = []; t_viol;
      t_exhausted = exhausted }

let active_of_fields fields =
  let* t = tally_of_fields ~exhausted:false fields in
  let* frontier = req_frontier "frontier" fields in
  Ok (Explore.Active (t, frontier))

let progress_of_sexp = function
  | Sexp.Atom "todo" -> Ok Explore.Todo
  | Sexp.List (Sexp.Atom "done" :: fields) ->
    let* ex_sx = req "exhausted" fields in
    let* exhausted = bool_of_sexp ex_sx in
    let* t = tally_of_fields ~exhausted fields in
    Ok (Explore.Done t)
  | Sexp.List (Sexp.Atom "active" :: fields) -> active_of_fields fields
  | _ -> Error "bad subtree status: expected todo, (done ...) or (active ...)"

let subtree_of_sexp = function
  | Sexp.List fields ->
    let* pre_sx = req_frontier "prefix" fields in
    let* st_sx = req "status" fields in
    let* progress = progress_of_sexp st_sx in
    Ok { Explore.prefix = pre_sx; progress }
  | _ -> Error "bad subtree: expected ((prefix ...) (status ...))"

let parts_of_sexp opart_sx =
  let block = function
    | Sexp.List b ->
      let* is = Sexp.map_result Sexp.to_int b in
      Ok (Pset.of_list is)
    | Sexp.Atom _ -> Error "bad block: expected a list of process ids"
  in
  let opart = function
    | Sexp.List bs -> (
      let* blocks = Sexp.map_result block bs in
      match Opart.make blocks with
      | p -> Ok p
      | exception Invalid_argument m -> Error m)
    | Sexp.Atom _ -> Error "bad partition: expected a list of blocks"
  in
  Sexp.map_result opart opart_sx

let of_sexp = function
  | Sexp.List fields ->
    let* proto_sx = req "protocol" fields in
    let* protocol = Sexp.to_atom proto_sx in
    let* n = req_int "n" fields in
    let* participants = req_ints "participants" fields in
    let* parts =
      let* v = req "parts" fields in
      match v with
      | Sexp.List opart_sx -> parts_of_sexp opart_sx
      | Sexp.Atom _ -> Error "field parts: expected a list"
    in
    let* state =
      match field "subtrees" fields with
      | Some (Sexp.List subs_sx) -> Sexp.map_result subtree_of_sexp subs_sx
      | Some (Sexp.Atom _) -> Error "field subtrees: expected a list"
      | None ->
        (* the inline layout of older single-DFS files: one root task *)
        let* progress = active_of_fields fields in
        Ok [ { Explore.prefix = []; progress } ]
    in
    Ok { protocol; n; participants = Pset.of_list participants; state; parts }
  | Sexp.Atom _ -> Error "malformed checkpoint file"

let of_string s =
  let* sx = Sexp.of_string s in
  of_sexp sx

(* tmp+rename in the target's directory: a process killed mid-write
   leaves the previous checkpoint intact, never a truncated one *)
let save file t =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (to_string t);
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file

let load file =
  let tagged = function
    | Ok _ as ok -> ok
    | Error msg -> Error (file ^ ": " ^ msg)
  in
  match
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> tagged (of_string (String.trim s))
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (file ^ ": truncated read")
