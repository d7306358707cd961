open Fact_topology
open Fact_runtime
open Fact_sexp

(* ------------------------------------------------------------------ *)
(* Syntax.                                                            *)
(* ------------------------------------------------------------------ *)

type atom =
  | Steps of Pset.t
  | Crashes of Pset.t
  | Decides of Pset.t
  | Touches of Pset.t * string list

type t =
  | Const of bool
  | Not of t
  | All of t list
  | Any of t list
  | Implies of t * t
  | Always of atom
  | Eventually of atom
  | Before of atom * atom
  | Eventually_decides of Pset.t option
  | Frame of Pset.t * string list
  | Agreement of int
  | Validity
  | Named of string

(* ------------------------------------------------------------------ *)
(* Observations.                                                      *)
(* ------------------------------------------------------------------ *)

type event = Subject.event =
  | Stepped of { e_pid : int; e_op : Op.pending }
  | Crashed of { e_pid : int }

type 'r view = {
  v_report : 'r Exec.report;
  v_truncated : bool;
  v_participants : Pset.t;
  v_events : event array;
}

type 'r env = {
  objects : (string * int) list;
  named : (string * ('r view -> (unit, string) result)) list;
  decisions_of : ('r Exec.report -> (int * int) list) option;
  proposals : (int * int) list;
}

let env ?(objects = []) ?(named = []) ?decisions_of ?(proposals = []) () =
  { objects; named; decisions_of; proposals }

(* ------------------------------------------------------------------ *)
(* Footprint: the frame rule.                                         *)
(*                                                                    *)
(* The footprint of an assertion is the set of processes whose events *)
(* its event-level operators inspect ([None] = the assertion may      *)
(* inspect everything, because it embeds an opaque named predicate).  *)
(* Report-level operators (agreement, validity, eventually-decides)   *)
(* read no events at all, so they contribute nothing.                 *)
(*                                                                    *)
(* This is what discharges frame obligations from Op commutativity    *)
(* without re-exploring: an event of a process outside the footprint  *)
(* is never inspected, so swapping it with an adjacent independent    *)
(* event (in the {!Explore.independent} sense, i.e. the two pending   *)
(* operations commute) changes neither the final report nor the       *)
(* footprint-restricted event subsequence — the verdict is invariant. *)
(* The property-based tests check exactly this statement.             *)
(* ------------------------------------------------------------------ *)

let atom_procs = function
  | Steps ps | Crashes ps | Decides ps | Touches (ps, _) -> ps

let footprint t =
  let union a b =
    match (a, b) with
    | Some x, Some y -> Some (Pset.union x y)
    | _ -> None
  in
  let rec go = function
    | Const _ | Eventually_decides _ | Agreement _ | Validity ->
      Some Pset.empty
    | Named _ -> None
    | Not a -> go a
    | All l | Any l ->
      List.fold_left (fun acc a -> union acc (go a)) (Some Pset.empty) l
    | Implies (a, b) -> union (go a) (go b)
    | Always a | Eventually a -> Some (atom_procs a)
    | Before (a, b) -> Some (Pset.union (atom_procs a) (atom_procs b))
    | Frame (ps, _) -> Some ps
  in
  go t

(* ------------------------------------------------------------------ *)
(* Printing (canonical s-expressions).                                *)
(* ------------------------------------------------------------------ *)

let pset_atoms ps = List.map Sexp.int (Pset.to_list ps)
let obj_atoms objs = Sexp.List (List.map Sexp.atom objs)

let sexp_of_atom = function
  | Steps ps -> Sexp.List (Sexp.Atom "steps" :: pset_atoms ps)
  | Crashes ps -> Sexp.List (Sexp.Atom "crashes" :: pset_atoms ps)
  | Decides ps -> Sexp.List (Sexp.Atom "decides" :: pset_atoms ps)
  | Touches (ps, objs) ->
    Sexp.List [ Sexp.Atom "touches"; Sexp.List (pset_atoms ps); obj_atoms objs ]

let rec to_sexp = function
  | Const true -> Sexp.Atom "true"
  | Const false -> Sexp.Atom "false"
  | Not a -> Sexp.List [ Sexp.Atom "not"; to_sexp a ]
  | All l -> Sexp.List (Sexp.Atom "and" :: List.map to_sexp l)
  | Any l -> Sexp.List (Sexp.Atom "or" :: List.map to_sexp l)
  | Implies (a, b) -> Sexp.List [ Sexp.Atom "implies"; to_sexp a; to_sexp b ]
  | Always a -> Sexp.List [ Sexp.Atom "always"; sexp_of_atom a ]
  | Eventually a -> Sexp.List [ Sexp.Atom "eventually"; sexp_of_atom a ]
  | Before (a, b) ->
    Sexp.List [ Sexp.Atom "before"; sexp_of_atom a; sexp_of_atom b ]
  | Eventually_decides None -> Sexp.List [ Sexp.Atom "eventually-decides" ]
  | Eventually_decides (Some ps) ->
    Sexp.List (Sexp.Atom "eventually-decides" :: pset_atoms ps)
  | Frame (ps, objs) ->
    Sexp.List [ Sexp.Atom "frame"; Sexp.List (pset_atoms ps); obj_atoms objs ]
  | Agreement k -> Sexp.List [ Sexp.Atom "agreement"; Sexp.int k ]
  | Validity -> Sexp.Atom "validity"
  | Named nm -> Sexp.List [ Sexp.Atom "named"; Sexp.atom nm ]

let to_string t = Sexp.to_string (to_sexp t)
let pp ppf t = Format.pp_print_string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Parsing.                                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let pset_of_sexps sxs =
  let* is = Sexp.map_result Sexp.to_int sxs in
  match Pset.of_list is with
  | ps -> Ok ps
  | exception Invalid_argument m -> Error m

let objs_of_sexp = function
  | Sexp.List sxs -> Sexp.map_result Sexp.to_atom sxs
  | Sexp.Atom _ -> Error "expected a list of object names"

let atom_of_sexp = function
  | Sexp.List (Sexp.Atom "steps" :: ps) ->
    let* ps = pset_of_sexps ps in
    Ok (Steps ps)
  | Sexp.List (Sexp.Atom "crashes" :: ps) ->
    let* ps = pset_of_sexps ps in
    Ok (Crashes ps)
  | Sexp.List (Sexp.Atom "decides" :: ps) ->
    let* ps = pset_of_sexps ps in
    Ok (Decides ps)
  | Sexp.List [ Sexp.Atom "touches"; Sexp.List ps; objs ] ->
    let* ps = pset_of_sexps ps in
    let* objs = objs_of_sexp objs in
    Ok (Touches (ps, objs))
  | sx ->
    Error
      (Printf.sprintf "bad event atom %s: expected (steps ...), \
                       (crashes ...), (decides ...) or (touches (..) (..))"
         (Sexp.to_string sx))

let rec of_sexp = function
  | Sexp.Atom "true" -> Ok (Const true)
  | Sexp.Atom "false" -> Ok (Const false)
  | Sexp.Atom "validity" -> Ok Validity
  | Sexp.List [ Sexp.Atom "not"; a ] ->
    let* a = of_sexp a in
    Ok (Not a)
  | Sexp.List (Sexp.Atom "and" :: l) ->
    let* l = Sexp.map_result of_sexp l in
    Ok (All l)
  | Sexp.List (Sexp.Atom "or" :: l) ->
    let* l = Sexp.map_result of_sexp l in
    Ok (Any l)
  | Sexp.List [ Sexp.Atom "implies"; a; b ] ->
    let* a = of_sexp a in
    let* b = of_sexp b in
    Ok (Implies (a, b))
  | Sexp.List [ Sexp.Atom "always"; a ] ->
    let* a = atom_of_sexp a in
    Ok (Always a)
  | Sexp.List [ Sexp.Atom "eventually"; a ] ->
    let* a = atom_of_sexp a in
    Ok (Eventually a)
  | Sexp.List [ Sexp.Atom "before"; a; b ] ->
    let* a = atom_of_sexp a in
    let* b = atom_of_sexp b in
    Ok (Before (a, b))
  | Sexp.List [ Sexp.Atom "eventually-decides" ] -> Ok (Eventually_decides None)
  | Sexp.List (Sexp.Atom "eventually-decides" :: ps) ->
    let* ps = pset_of_sexps ps in
    Ok (Eventually_decides (Some ps))
  | Sexp.List [ Sexp.Atom "frame"; Sexp.List ps; objs ] ->
    let* ps = pset_of_sexps ps in
    let* objs = objs_of_sexp objs in
    Ok (Frame (ps, objs))
  | Sexp.List [ Sexp.Atom "agreement"; k ] ->
    let* k = Sexp.to_int k in
    if k < 1 then Error "agreement: k must be >= 1" else Ok (Agreement k)
  | Sexp.List [ Sexp.Atom "named"; nm ] ->
    let* nm = Sexp.to_atom nm in
    Ok (Named nm)
  | sx -> Error (Printf.sprintf "bad assertion %s" (Sexp.to_string sx))

let of_string s =
  let* sx = Sexp.of_string s in
  of_sexp sx

(* ------------------------------------------------------------------ *)
(* Semantics.                                                         *)
(* ------------------------------------------------------------------ *)

let atom_to_string a = Sexp.to_string (sexp_of_atom a)

let resolve env objs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | nm :: rest -> (
      match List.assoc_opt nm env.objects with
      | Some id -> go (id :: acc) rest
      | None -> Error (Printf.sprintf "unknown object %S" nm))
  in
  go [] objs

let eval ~env t view =
  let events = view.v_events in
  let nevents = Array.length events in
  (* A step event is a process's deciding step iff it is its last
     recorded step and the process finished with a decision. The
     executor records every event of every footprint process, so the
     last recorded step of such a process is its true last step. *)
  let last_step = Hashtbl.create 8 in
  Array.iteri
    (fun i e ->
      match e with
      | Stepped { e_pid; _ } -> Hashtbl.replace last_step e_pid i
      | Crashed _ -> ())
    events;
  let deciding i pid =
    (match Hashtbl.find_opt last_step pid with
    | Some j -> j = i
    | None -> false)
    &&
    match view.v_report.Exec.outcomes.(pid) with
    | Exec.Decided _ -> true
    | _ -> false
  in
  let sat a i =
    match (a, events.(i)) with
    | Steps ps, Stepped { e_pid; _ } -> Ok (Pset.mem e_pid ps)
    | Crashes ps, Crashed { e_pid } -> Ok (Pset.mem e_pid ps)
    | Decides ps, Stepped { e_pid; _ } ->
      Ok (Pset.mem e_pid ps && deciding i e_pid)
    | Touches (ps, objs), Stepped { e_pid; e_op = Op.Op op } ->
      if not (Pset.mem e_pid ps) then Ok false
      else
        let* ids = resolve env objs in
        Ok (List.mem op.Op.obj ids)
    | (Steps _ | Decides _ | Touches _), (Stepped _ | Crashed _)
    | Crashes _, Stepped _ ->
      Ok false
  in
  let decisions what =
    match env.decisions_of with
    | Some f -> Ok (f view.v_report)
    | None ->
      Error
        (Printf.sprintf "%s: this protocol has no decision projection" what)
  in
  let rec verdict = function
    | Const true -> Ok ()
    | Const false -> Error "constant false"
    | Not a -> (
      match verdict a with
      | Ok () -> Error (Printf.sprintf "not: %s holds" (to_string a))
      | Error _ -> Ok ())
    | All l ->
      let rec go = function
        | [] -> Ok ()
        | a :: rest -> (
          match verdict a with Ok () -> go rest | Error _ as e -> e)
      in
      go l
    | Any l ->
      let rec go = function
        | [] ->
          Error
            (Printf.sprintf "or: no disjunct holds in %s"
               (to_string (Any l)))
        | a :: rest -> (
          match verdict a with Ok () -> Ok () | Error _ -> go rest)
      in
      go l
    | Implies (a, b) -> (
      match verdict a with Error _ -> Ok () | Ok () -> verdict b)
    | Always a ->
      let rec go i =
        if i >= nevents then Ok ()
        else
          let* b = sat a i in
          if b then go (i + 1)
          else
            Error
              (Printf.sprintf "always: event %d violates %s" i
                 (atom_to_string a))
      in
      go 0
    | Eventually a ->
      if view.v_truncated then Ok ()
      else
        let rec go i =
          if i >= nevents then
            Error
              (Printf.sprintf "eventually: no event satisfies %s"
                 (atom_to_string a))
          else
            let* b = sat a i in
            if b then Ok () else go (i + 1)
        in
        go 0
    | Before (a, b) ->
      let rec go i seen_a =
        if i >= nevents then Ok ()
        else
          let* sb = sat b i in
          if sb && not seen_a then
            Error
              (Printf.sprintf
                 "before: %s at event %d is not preceded by %s"
                 (atom_to_string b) i (atom_to_string a))
          else
            let* sa = sat a i in
            go (i + 1) (seen_a || sa)
      in
      go 0 false
    | Eventually_decides who ->
      if view.v_truncated then Ok ()
      else begin
        let must =
          match who with
          | None -> view.v_participants
          | Some ps -> Pset.inter ps view.v_participants
        in
        let undecided =
          Pset.filter
            (fun p ->
              match view.v_report.Exec.outcomes.(p) with
              | Exec.Running -> true
              | Exec.Decided _ | Exec.Crashed _ -> false)
            must
        in
        if Pset.is_empty undecided then Ok ()
        else
          Error
            (Printf.sprintf
               "eventually-decides: processes [%s] neither decided nor \
                crashed"
               (String.concat " "
                  (List.map string_of_int (Pset.to_list undecided))))
      end
    | Frame (ps, objs) ->
      let* allowed = resolve env objs in
      let name_of id =
        match List.find_opt (fun (_, i) -> i = id) env.objects with
        | Some (nm, _) -> nm
        | None -> Printf.sprintf "#%d" id
      in
      let rec go i =
        if i >= nevents then Ok ()
        else
          match events.(i) with
          | Stepped { e_pid; e_op } when Pset.mem e_pid ps -> (
            match e_op with
            | Op.Start -> go (i + 1)
            | Op.Op op ->
              if List.mem op.Op.obj allowed then go (i + 1)
              else
                Error
                  (Printf.sprintf
                     "frame: process %d touches %s outside its frame at \
                      event %d"
                     e_pid (name_of op.Op.obj) i)
            | Op.Unlabeled ->
              Error
                (Printf.sprintf
                   "frame: process %d performs an unlabeled operation at \
                    event %d"
                   e_pid i))
          | Stepped _ | Crashed _ -> go (i + 1)
      in
      go 0
    | Agreement k ->
      let* ds = decisions "agreement" in
      if Fact_tasks.Set_consensus.agreement_ok ~k ~decisions:ds then Ok ()
      else
        Error
          (Printf.sprintf "agreement: more than %d distinct values decided \
                           ([%s])"
             k
             (String.concat " "
                (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) ds)))
    | Validity ->
      let* ds = decisions "validity" in
      if
        Fact_tasks.Set_consensus.validity_ok ~proposals:env.proposals
          ~decisions:ds
      then Ok ()
      else
        Error
          (Printf.sprintf "validity: a non-proposed value was decided \
                           ([%s])"
             (String.concat " "
                (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) ds)))
    | Named nm -> (
      match List.assoc_opt nm env.named with
      | Some f -> f view
      | None -> Error (Printf.sprintf "unknown named assertion %S" nm))
  in
  verdict t

(* ------------------------------------------------------------------ *)
(* Subjects.                                                          *)
(* ------------------------------------------------------------------ *)

let subject ~participants ~make t () =
  let procs, env = make () in
  let observed =
    match footprint t with Some ps -> ps | None -> participants
  in
  let check report ~events ~truncated =
    eval ~env t
      {
        v_report = report;
        v_truncated = truncated;
        v_participants = participants;
        v_events = Array.of_list (List.rev events);
      }
  in
  { Subject.procs; observed; check }
