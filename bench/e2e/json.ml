(* Just enough JSON for the benchmark's own files: the result line, the
   [--out] records that [compare] reads back, span JSONL and
   BENCHMARK.json. Numbers are floats; objects keep their key order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back to the same float, so a value is
   printed "with all its digits" but without noise digits. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Num x -> Buffer.add_string b (number x)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write b (Str k);
        Buffer.add_string b ": ";
        write b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then (incr pos; skip ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match value () with
  | v ->
    skip ();
    if !pos <> n then Error (Printf.sprintf "trailing data at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let to_num = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
