open Fact_sexp
module Fact_error = Fact_resilience.Fact_error

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (Unix_sock (after "unix:"))
  else if prefixed "tcp:" then
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs host:port" s)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port %S" port))
  else if s = "" then Error "empty address"
  else Ok (Unix_sock s)

type t = {
  addr_ : addr;
  sock : Unix.file_descr;
  handler : Wire.request -> Wire.response;
  on_stop : unit -> unit;
  max_frame : int;
  lock : Mutex.t;
  stopped_cond : Condition.t;
  mutable stopping : bool;
  mutable accept_done : bool;
  mutable stopped_hook_run : bool;
  mutable accept_thread : Thread.t option;
}

let addr t = t.addr_

let bound_addr t =
  match t.addr_ with
  | Unix_sock _ -> t.addr_
  | Tcp (host, _) -> (
    match Unix.getsockname t.sock with
    | Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> t.addr_)

let is_stopping t =
  Mutex.lock t.lock;
  let s = t.stopping in
  Mutex.unlock t.lock;
  s

(* Wake the accept loop so it can exit. [shutdown] (not [close]) on
   the listening socket: a blocked [accept] does not notice a plain
   close, but shutdown makes it return EINVAL immediately. The fd is
   closed in {!stop}, after the accept thread is joined. Safe from any
   thread, once. *)
let initiate_stop t =
  Mutex.lock t.lock;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.lock;
  if first then begin
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    match t.addr_ with
    | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end

(* --------------------------- connections --------------------------- *)

let send w resp = Wire.write_response w resp

let refuse_parse msg =
  Wire.Refused (Fact_error.Precondition { fn = "Wire.request_of_sexp"; what = msg })

(* [Shutdown] is a lifecycle request, owned by the listener itself;
   every other request goes to the pluggable handler (the scheduler in
   [fact serve], a fake in tests). *)
let handle_request t = function
  | Wire.Shutdown -> Wire.Shutting_down
  | req -> (
    match t.handler req with
    | resp -> resp
    | exception Fact_error.Error e -> Wire.Refused e
    | exception (Failure m | Invalid_argument m) ->
      Wire.Refused (Fact_error.Precondition { fn = "Listener.handler"; what = m }))

(* One reused writer and reader per connection: frames render into and
   land in per-connection buffers, so concurrent connections never
   share framing state (and cannot interleave partial frames). *)
let rec serve_conn t w r =
  match Wire.read_frame_view r ~max_frame:t.max_frame with
  | Error (Wire.Eof | Wire.Truncated) -> ()
  | Error (Wire.Oversized len) ->
    (* past a bad length prefix the stream is garbage: answer, close *)
    send w
      (Wire.Refused
         (Fact_error.Resource_limit
            { what = "wire frame bytes"; limit = t.max_frame; got = len }))
  | Ok (raw, len) -> (
    let reply, shutdown_after =
      match Sexp.of_substring raw ~pos:0 ~len with
      | Error msg -> (refuse_parse msg, false)
      | Ok sx -> (
        match Wire.request_of_sexp sx with
        | Error msg -> (refuse_parse msg, false)
        | Ok req -> (handle_request t req, req = Wire.Shutdown))
    in
    send w reply;
    if shutdown_after then initiate_stop t else serve_conn t w r)

let connection t fd =
  (* a dead client only takes its own thread down: SIGPIPE is ignored,
     so a write to a closed peer raises EPIPE and lands here *)
  (try serve_conn t (Wire.writer fd) (Wire.reader fd)
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.sock with
    | fd, _ ->
      ignore (Thread.create (connection t) fd);
      loop ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if is_stopping t then () else loop ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  loop ();
  Mutex.lock t.lock;
  t.accept_done <- true;
  Condition.broadcast t.stopped_cond;
  Mutex.unlock t.lock

(* ----------------------------- lifecycle --------------------------- *)

let bind_listen addr =
  let domain, sockaddr =
    match addr with
    | Unix_sock path ->
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          Fact_error.precondition ~fn:"Listener.start" ("unknown host " ^ host)
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock sockaddr;
     Unix.listen sock 64
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (* typed and retryable: a server restarted right after a crash
        must see exit code 7 and back off, not die on a usage error,
        when the old owner's address lingers (EADDRINUSE) *)
     Fact_error.unavailable
       (Printf.sprintf "Listener.start: cannot bind %s: %s"
          (addr_to_string addr) (Unix.error_message err)));
  sock

let start ?(max_frame = Wire.default_max_frame) ?(on_stop = fun () -> ())
    ~handler addr_ =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let sock = bind_listen addr_ in
  let t =
    {
      addr_;
      sock;
      handler;
      on_stop;
      max_frame;
      lock = Mutex.create ();
      stopped_cond = Condition.create ();
      stopping = false;
      accept_done = false;
      stopped_hook_run = false;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let scheduler_handler scheduler = function
  | Wire.Query { query; deadline_s } -> (
    match Scheduler.submit scheduler ?deadline_s query with
    | Ok { Scheduler.payload; source } -> Wire.Payload { payload; source }
    | Error e -> Wire.Refused e)
  | Wire.Stats -> Wire.Stats_payload (Scheduler.stats_text scheduler)
  | Wire.Ping -> Wire.Pong
  | Wire.Shutdown -> Wire.Shutting_down (* unreachable: listener-owned *)

let start_scheduler ?max_frame ~scheduler addr_ =
  start ?max_frame
    ~on_stop:(fun () -> Scheduler.shutdown scheduler)
    ~handler:(scheduler_handler scheduler) addr_

let wait t =
  Mutex.lock t.lock;
  while not t.accept_done do
    Condition.wait t.stopped_cond t.lock
  done;
  Mutex.unlock t.lock

let stop t =
  initiate_stop t;
  wait t;
  Mutex.lock t.lock;
  let th = t.accept_thread in
  t.accept_thread <- None;
  Mutex.unlock t.lock;
  (match th with
  | Some th ->
    Thread.join th;
    (* only the joiner closes, so a concurrent second [stop] cannot
       close a recycled descriptor *)
    (try Unix.close t.sock with Unix.Unix_error _ -> ())
  | None -> ());
  Mutex.lock t.lock;
  let first = not t.stopped_hook_run in
  t.stopped_hook_run <- true;
  Mutex.unlock t.lock;
  if first then t.on_stop ()
