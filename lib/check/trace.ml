open Fact_topology

type decision = Step of int | Crash of int

type t = {
  n : int;
  participants : Pset.t;
  decisions : decision list;
}

let pid_of = function Step p | Crash p -> p

let make ~n ~participants decisions =
  if n < 1 || n > Pset.max_processes then invalid_arg "Trace.make: bad n";
  if not (Pset.subset participants (Pset.full n)) then
    invalid_arg "Trace.make: participants outside universe";
  let crashed = ref Pset.empty in
  List.iter
    (fun d ->
      let p = pid_of d in
      if not (Pset.mem p participants) then
        invalid_arg "Trace.make: decision on a non-participant";
      if Pset.mem p !crashed then
        invalid_arg "Trace.make: decision on a crashed process";
      match d with
      | Crash p -> crashed := Pset.add p !crashed
      | Step _ -> ())
    decisions;
  { n; participants; decisions }

let n t = t.n
let participants t = t.participants
let decisions t = t.decisions
let length t = List.length t.decisions

let pp_decision ppf = function
  | Step p -> Format.fprintf ppf "s%d" p
  | Crash p -> Format.fprintf ppf "c%d" p

let pp ppf t =
  let pp_sep ppf () = Format.pp_print_string ppf " " in
  Format.fprintf ppf "((n %d) (participants (%a)) (decisions (%a)))" t.n
    (Format.pp_print_list ~pp_sep Format.pp_print_int)
    (Pset.to_list t.participants)
    (Format.pp_print_list ~pp_sep pp_decision)
    t.decisions

let to_string t = Format.asprintf "%a" pp t

let equal a b =
  a.n = b.n && Pset.equal a.participants b.participants
  && a.decisions = b.decisions

(* ------------------------------------------------------------------ *)
(* Parsing: the shared s-expression reader (Fact_sexp.Sexp) applied   *)
(* to the fixed shape above.                                          *)

open Fact_sexp

let decision_of_sexp = function
  | Sexp.Atom a when String.length a >= 2 -> (
    let p = int_of_string_opt (String.sub a 1 (String.length a - 1)) in
    match (a.[0], p) with
    | 's', Some p -> Ok (Step p)
    | 'c', Some p -> Ok (Crash p)
    | _ -> Error (Printf.sprintf "bad decision %S" a))
  | Sexp.Atom a -> Error (Printf.sprintf "bad decision %S" a)
  | Sexp.List _ -> Error "expected a decision atom"

let sexp_of_decision d = Sexp.Atom (Format.asprintf "%a" pp_decision d)

let of_string s =
  match Sexp.of_string s with
  | Error _ as e -> e
  | Ok
      (Sexp.List
        [
          Sexp.List [ Sexp.Atom "n"; n_sexp ];
          Sexp.List [ Sexp.Atom "participants"; Sexp.List parts ];
          Sexp.List [ Sexp.Atom "decisions"; Sexp.List decs ];
        ]) -> (
    match
      ( Sexp.to_int n_sexp,
        Sexp.map_result Sexp.to_int parts,
        Sexp.map_result decision_of_sexp decs )
    with
    | Ok n, Ok parts, Ok decs -> (
      match make ~n ~participants:(Pset.of_list parts) decs with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  | Ok _ -> Error "expected ((n _) (participants (_)) (decisions (_)))"
