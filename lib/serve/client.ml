open Fact_sexp
module Fact_error = Fact_resilience.Fact_error
module Backoff = Fact_resilience.Backoff

type t = {
  fd : Unix.file_descr;
  w : Wire.writer;
  r : Wire.reader;
  mutable closed : bool;
}

let fail what = Fact_error.precondition ~fn:"Client" what

(* Transport-level failures — unreachable server, connection died
   mid-exchange, a receive timeout — are [Unavailable]: the server may
   be restarting, so a retry/backoff layer is entitled to absorb them.
   Protocol-level failures (unparseable reply) stay [Precondition]. *)
let gone what = Fact_error.unavailable ("Client: " ^ what)

let connect ?timeout_s addr =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let domain, sockaddr =
    match addr with
    | Listener.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Listener.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> fail ("unknown host " ^ host)
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (* a bounded socket: a peer that accepted the connection but stopped
     responding (SIGSTOP, wedged) trips EAGAIN instead of hanging the
     caller forever; the error is typed Unavailable, so a retry dials
     afresh *)
  (match timeout_s with
  | None -> ()
  | Some s when s > 0. -> (
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | Some _ -> ());
  (try Unix.connect fd sockaddr
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     gone
       (Printf.sprintf "cannot reach %s: %s"
          (Listener.addr_to_string addr)
          (Unix.error_message err)));
  { fd; w = Wire.writer fd; r = Wire.reader fd; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let roundtrip t req =
  if t.closed then fail "connection already closed";
  (try Wire.write_request t.w req
   with Unix.Unix_error (err, _, _) ->
     gone ("send failed: " ^ Unix.error_message err));
  match Wire.read_frame_view t.r ~max_frame:Wire.default_max_frame with
  | Error Wire.Eof -> gone "server closed the connection"
  | Error Wire.Truncated -> gone "truncated reply"
  | Error (Wire.Oversized n) -> fail (Printf.sprintf "oversized reply (%d bytes)" n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    -> gone "receive timed out"
  | exception Unix.Unix_error (err, _, _) ->
    gone ("receive failed: " ^ Unix.error_message err)
  | Ok (raw, len) -> (
    match
      let ( let* ) r f = Result.bind r f in
      let* sx = Sexp.of_substring raw ~pos:0 ~len in
      Wire.response_of_sexp sx
    with
    | Ok resp -> resp
    | Error msg -> fail ("bad reply: " ^ msg))

let query t ?deadline_s q =
  match roundtrip t (Wire.Query { query = q; deadline_s }) with
  | Wire.Payload { payload; source } -> (payload, source)
  | Wire.Refused e -> Fact_error.raise_error e
  | _ -> fail "unexpected reply to query"

let stats t =
  match roundtrip t Wire.Stats with
  | Wire.Stats_payload s -> s
  | Wire.Refused e -> Fact_error.raise_error e
  | _ -> fail "unexpected reply to stats"

let ping t =
  match roundtrip t Wire.Ping with
  | Wire.Pong -> ()
  | Wire.Refused e -> Fact_error.raise_error e
  | _ -> fail "unexpected reply to ping"

let shutdown t =
  match roundtrip t Wire.Shutdown with
  | Wire.Shutting_down -> ()
  | Wire.Refused e -> Fact_error.raise_error e
  | _ -> fail "unexpected reply to shutdown"

let with_connection ?timeout_s addr f =
  let t = connect ?timeout_s addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --------------------------- retry layer --------------------------- *)

let with_retries ?(retries = 2) ?(backoff = Backoff.default) ?timeout_s addr f =
  let rec go attempt =
    match with_connection ?timeout_s addr f with
    | v -> v
    | exception Fact_error.Error (Fact_error.Unavailable _ as e) ->
      if attempt >= retries then Fact_error.raise_error e
      else begin
        Backoff.sleep backoff ~attempt;
        go (attempt + 1)
      end
  in
  go 0

let query_with_retry ?retries ?backoff ?timeout_s ?deadline_s addr q =
  with_retries ?retries ?backoff ?timeout_s addr (fun t ->
      query t ?deadline_s q)
