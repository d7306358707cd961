open Fact_sexp
module Fact_error = Fact_resilience.Fact_error

let version = 2
let default_max_frame = 1 lsl 20

type request =
  | Query of { query : Query.t; deadline_s : float option }
  | Stats
  | Ping
  | Shutdown

type source = Computed | Memory | Disk

type response =
  | Payload of { payload : string; source : source }
  | Stats_payload of string
  | Pong
  | Shutting_down
  | Refused of Fact_error.t

let source_to_string = function
  | Computed -> "computed"
  | Memory -> "memory"
  | Disk -> "disk"

let source_of_string = function
  | "computed" -> Ok Computed
  | "memory" -> Ok Memory
  | "disk" -> Ok Disk
  | s -> Error (Printf.sprintf "unknown source %S" s)

(* ----------------------------- errors ----------------------------- *)

let error_to_sexp (e : Fact_error.t) =
  let f k v = Sexp.List [ Sexp.Atom k; v ] in
  match e with
  | Fact_error.Precondition { fn; what } ->
    Sexp.List
      [ Sexp.Atom "precondition"; f "fn" (Sexp.Atom fn);
        f "what" (Sexp.Atom what) ]
  | Fact_error.Deadline_exceeded { where; budget_s } ->
    Sexp.List
      [ Sexp.Atom "deadline-exceeded"; f "where" (Sexp.Atom where);
        f "budget-s" (Sexp.Atom (Printf.sprintf "%.6f" budget_s)) ]
  | Fact_error.Cancelled { where } ->
    Sexp.List [ Sexp.Atom "cancelled"; f "where" (Sexp.Atom where) ]
  | Fact_error.Worker_failure { fn; failed; chunks; first } ->
    Sexp.List
      [ Sexp.Atom "worker-failure"; f "fn" (Sexp.Atom fn);
        f "failed" (Sexp.int failed); f "chunks" (Sexp.int chunks);
        f "first" (Sexp.Atom first) ]
  | Fact_error.Resource_limit { what; limit; got } ->
    Sexp.List
      [ Sexp.Atom "resource-limit"; f "what" (Sexp.Atom what);
        f "limit" (Sexp.int limit); f "got" (Sexp.int got) ]
  | Fact_error.Unavailable { what } ->
    Sexp.List [ Sexp.Atom "unavailable"; f "what" (Sexp.Atom what) ]

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let atom_field sx k =
  let* v = Sexp.assoc k sx in
  Sexp.to_atom v

let int_field sx k =
  let* v = Sexp.assoc k sx in
  Sexp.to_int v

let error_of_sexp sx =
  match sx with
  | Sexp.List (Sexp.Atom tag :: fields) -> (
    let sx = Sexp.List fields in
    match tag with
    | "precondition" ->
      let* fn = atom_field sx "fn" in
      let* what = atom_field sx "what" in
      Ok (Fact_error.Precondition { fn; what })
    | "deadline-exceeded" ->
      let* where = atom_field sx "where" in
      let* b = atom_field sx "budget-s" in
      let* budget_s =
        match float_of_string_opt b with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad budget %S" b)
      in
      Ok (Fact_error.Deadline_exceeded { where; budget_s })
    | "cancelled" ->
      let* where = atom_field sx "where" in
      Ok (Fact_error.Cancelled { where })
    | "worker-failure" ->
      let* fn = atom_field sx "fn" in
      let* failed = int_field sx "failed" in
      let* chunks = int_field sx "chunks" in
      let* first = atom_field sx "first" in
      Ok (Fact_error.Worker_failure { fn; failed; chunks; first })
    | "resource-limit" ->
      let* what = atom_field sx "what" in
      let* limit = int_field sx "limit" in
      let* got = int_field sx "got" in
      Ok (Fact_error.Resource_limit { what; limit; got })
    | "unavailable" ->
      let* what = atom_field sx "what" in
      Ok (Fact_error.Unavailable { what })
    | tag -> Error (Printf.sprintf "unknown error class %S" tag))
  | _ -> Error "malformed error payload"

(* ---------------------------- requests ---------------------------- *)

let versioned tag fields =
  Sexp.List
    (Sexp.List [ Sexp.Atom "version"; Sexp.int version ]
    :: Sexp.List [ Sexp.Atom "request"; Sexp.Atom tag ]
    :: fields)

let request_to_sexp = function
  | Query { query; deadline_s } ->
    let deadline =
      match deadline_s with
      | None -> []
      | Some d ->
        [ Sexp.List
            [ Sexp.Atom "deadline-s"; Sexp.Atom (Printf.sprintf "%.6f" d) ] ]
    in
    versioned "query"
      (Sexp.List [ Sexp.Atom "query"; Query.to_sexp query ] :: deadline)
  | Stats -> versioned "stats" []
  | Ping -> versioned "ping" []
  | Shutdown -> versioned "shutdown" []

let request_of_sexp sx =
  let* v = int_field sx "version" in
  if v <> version then
    Error (Printf.sprintf "protocol version %d, this server speaks %d" v version)
  else
    let* tag = atom_field sx "request" in
    match tag with
    | "query" ->
      let* qsx = Sexp.assoc "query" sx in
      let* query = Query.of_sexp qsx in
      let* deadline_s =
        match Sexp.assoc "deadline-s" sx with
        | Error _ -> Ok None
        | Ok v -> (
          let* a = Sexp.to_atom v in
          match float_of_string_opt a with
          | Some f -> Ok (Some f)
          | None -> Error (Printf.sprintf "bad deadline %S" a))
      in
      Ok (Query { query; deadline_s })
    | "stats" -> Ok Stats
    | "ping" -> Ok Ping
    | "shutdown" -> Ok Shutdown
    | tag -> Error (Printf.sprintf "unknown request %S" tag)

(* ---------------------------- responses --------------------------- *)

let response_to_sexp = function
  | Payload { payload; source } ->
    Sexp.List
      [
        Sexp.Atom "payload";
        Sexp.List [ Sexp.Atom "source"; Sexp.Atom (source_to_string source) ];
        Sexp.List [ Sexp.Atom "body"; Sexp.Atom payload ];
      ]
  | Stats_payload s ->
    Sexp.List
      [ Sexp.Atom "stats"; Sexp.List [ Sexp.Atom "body"; Sexp.Atom s ] ]
  | Pong -> Sexp.List [ Sexp.Atom "pong" ]
  | Shutting_down -> Sexp.List [ Sexp.Atom "shutting-down" ]
  | Refused e ->
    Sexp.List
      [ Sexp.Atom "refused"; Sexp.List [ Sexp.Atom "error"; error_to_sexp e ] ]

let response_of_sexp sx =
  match sx with
  | Sexp.List (Sexp.Atom "payload" :: fields) ->
    let sx = Sexp.List fields in
    let* s = atom_field sx "source" in
    let* source = source_of_string s in
    let* payload = atom_field sx "body" in
    Ok (Payload { payload; source })
  | Sexp.List (Sexp.Atom "stats" :: fields) ->
    let* body = atom_field (Sexp.List fields) "body" in
    Ok (Stats_payload body)
  | Sexp.List [ Sexp.Atom "pong" ] -> Ok Pong
  | Sexp.List [ Sexp.Atom "shutting-down" ] -> Ok Shutting_down
  | Sexp.List (Sexp.Atom "refused" :: fields) ->
    let* esx = Sexp.assoc "error" (Sexp.List fields) in
    let* e = error_of_sexp esx in
    Ok (Refused e)
  | _ -> Error "malformed response"

(* ----------------------------- framing ---------------------------- *)

type read_error = Eof | Oversized of int | Truncated

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

(* Returns [`Short] if the stream ends before [len] bytes. *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then `Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else `Short
      | n -> go (off + n)
  in
  go 0

let read_frame ~max_frame fd =
  match read_exactly fd 4 with
  | `Eof -> Error Eof
  | `Short -> Error Truncated
  | `Ok hdr -> (
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then Error (Oversized len)
    else
      match read_exactly fd len with
      | `Ok buf -> Ok (Bytes.to_string buf)
      | `Eof | `Short -> Error Truncated)

(* --------------------- zero-copy framed I/O ----------------------- *)

(* Per-connection writer: messages render directly into a reused
   growable buffer starting at offset 4, the length prefix is patched
   in afterwards, and the frame leaves in one [write]. No [Bytes] is
   allocated per frame (refusals included), no intermediate sexp
   string is built, and cached payload bytes are blitted through
   unescaped when they contain nothing to escape — the emitters below
   replicate {!Sexp.to_string}'s rendering byte for byte, so the wire
   format (and [version]) is unchanged. *)

type writer = {
  wfd : Unix.file_descr;
  mutable wbuf : Bytes.t;
  mutable wlen : int;
}

let writer ?(buf_size = 4096) fd =
  { wfd = fd; wbuf = Bytes.create (max 64 buf_size); wlen = 0 }

let ensure w extra =
  let need = w.wlen + extra in
  let cap = Bytes.length w.wbuf in
  if need > cap then begin
    let cap' = ref (cap * 2) in
    while !cap' < need do
      cap' := !cap' * 2
    done;
    let b = Bytes.create !cap' in
    Bytes.blit w.wbuf 0 b 0 w.wlen;
    w.wbuf <- b
  end

let put_char w c =
  ensure w 1;
  Bytes.unsafe_set w.wbuf w.wlen c;
  w.wlen <- w.wlen + 1

let put_string w s =
  let l = String.length s in
  ensure w l;
  Bytes.blit_string s 0 w.wbuf w.wlen l;
  w.wlen <- w.wlen + l

(* 0: bare; 1: must be quoted, no escapes needed (single blit between
   the quotes); 2: quoted with per-char escaping. Mirrors
   [Sexp.must_quote] and the escape set exactly. *)
let atom_class s =
  let n = String.length s in
  if n = 0 then 1
  else begin
    let cls = ref 0 in
    let i = ref 0 in
    while !i < n && !cls < 2 do
      (match String.unsafe_get s !i with
      | '"' | '\\' | '\n' | '\t' | '\r' -> cls := 2
      | '(' | ')' | ' ' -> if !cls < 1 then cls := 1
      | _ -> ());
      incr i
    done;
    !cls
  end

let put_atom w s =
  match atom_class s with
  | 0 -> put_string w s
  | 1 ->
    put_char w '"';
    put_string w s;
    put_char w '"'
  | _ ->
    put_char w '"';
    String.iter
      (function
        | '"' -> put_string w "\\\""
        | '\\' -> put_string w "\\\\"
        | '\n' -> put_string w "\\n"
        | '\t' -> put_string w "\\t"
        | '\r' -> put_string w "\\r"
        | c -> put_char w c)
      s;
    put_char w '"'

let rec put_sexp w = function
  | Sexp.Atom s -> put_atom w s
  | Sexp.List xs ->
    put_char w '(';
    List.iteri
      (fun i x ->
        if i > 0 then put_char w ' ';
        put_sexp w x)
      xs;
    put_char w ')'

let begin_frame w = w.wlen <- 4

let finish_frame w =
  Bytes.set_int32_be w.wbuf 0 (Int32.of_int (w.wlen - 4));
  write_all w.wfd w.wbuf 0 w.wlen

let put_versioned w tag =
  put_string w "((version ";
  put_string w (string_of_int version);
  put_string w ") (request ";
  put_string w tag

let write_request w req =
  begin_frame w;
  (match req with
  | Query { query; deadline_s } ->
    put_versioned w "query";
    put_string w ") (query ";
    put_sexp w (Query.to_sexp query);
    (match deadline_s with
    | None -> ()
    | Some d ->
      put_string w ") (deadline-s ";
      put_string w (Printf.sprintf "%.6f" d));
    put_string w "))"
  | Stats ->
    put_versioned w "stats";
    put_string w "))"
  | Ping ->
    put_versioned w "ping";
    put_string w "))"
  | Shutdown ->
    put_versioned w "shutdown";
    put_string w "))");
  finish_frame w

let write_response w resp =
  begin_frame w;
  (match resp with
  | Payload { payload; source } ->
    put_string w "(payload (source ";
    put_string w (source_to_string source);
    put_string w ") (body ";
    put_atom w payload;
    put_string w "))"
  | Stats_payload s ->
    put_string w "(stats (body ";
    put_atom w s;
    put_string w "))"
  | Pong -> put_string w "(pong)"
  | Shutting_down -> put_string w "(shutting-down)"
  | Refused e ->
    put_string w "(refused (error ";
    put_sexp w (error_to_sexp e);
    put_string w "))");
  finish_frame w

(* Per-connection reader: frames land in a reused buffer; the payload
   is handed out as an unsafe string view of that buffer, valid only
   until the next read on the same reader. {!Sexp.of_substring} copies
   atoms out, so parsing the view and dropping it is safe. *)

type reader = { rfd : Unix.file_descr; mutable rbuf : Bytes.t }

let reader ?(buf_size = 4096) fd =
  { rfd = fd; rbuf = Bytes.create (max 16 buf_size) }

let read_exactly_into fd buf ~len =
  let rec go got =
    if got >= len then `Ok
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> if got = 0 then `Eof else `Short
      | n -> go (got + n)
  in
  go 0

let read_frame_view r ~max_frame =
  match read_exactly_into r.rfd r.rbuf ~len:4 with
  | `Eof -> Error Eof
  | `Short -> Error Truncated
  | `Ok -> (
    let len = Int32.to_int (Bytes.get_int32_be r.rbuf 0) in
    if len < 0 || len > max_frame then Error (Oversized len)
    else begin
      if Bytes.length r.rbuf < len then begin
        let cap = ref (Bytes.length r.rbuf * 2) in
        while !cap < len do
          cap := !cap * 2
        done;
        r.rbuf <- Bytes.create !cap
      end;
      match read_exactly_into r.rfd r.rbuf ~len with
      | `Ok -> Ok (Bytes.unsafe_to_string r.rbuf, len)
      | `Eof | `Short -> Error Truncated
    end)
