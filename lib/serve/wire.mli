(** The [fact serve] wire protocol.

    {b Framing.} Each message is one length-prefixed s-expression:
    a 4-byte big-endian payload length followed by that many bytes of
    {!Fact_sexp.Sexp} text. Frames larger than the receiver's
    [max_frame] are refused with a typed [Resource_limit] error (and
    the connection closed, since the stream can no longer be trusted);
    a frame whose payload is not a well-formed s-expression gets a
    typed [Precondition] response and the connection stays usable.

    {b Versioning.} Every request carries [(version N)]; a server
    refuses versions it does not speak with a [Precondition] response,
    so old clients fail fast instead of misparsing.

    {b Errors.} Failures travel as the typed
    {!Fact_resilience.Fact_error} taxonomy, serialized structurally —
    a client can map a [Deadline_exceeded] response to the same exit
    code 3 the one-shot CLI uses. *)

open Fact_sexp

val version : int
val default_max_frame : int  (** 1 MiB *)

type request =
  | Query of { query : Query.t; deadline_s : float option }
      (** [deadline_s] bounds the whole request, queueing included. *)
  | Stats
  | Ping
  | Shutdown

type source =
  | Computed  (** the pipeline ran for this request *)
  | Memory  (** in-memory result-cache hit *)
  | Disk  (** warm-started from the on-disk store *)

type response =
  | Payload of { payload : string; source : source }
  | Stats_payload of string
  | Pong
  | Shutting_down
  | Refused of Fact_resilience.Fact_error.t

val source_to_string : source -> string

val request_to_sexp : request -> Sexp.t
val request_of_sexp : Sexp.t -> (request, string) result
val response_to_sexp : response -> Sexp.t
val response_of_sexp : Sexp.t -> (response, string) result

(** {2 Framed I/O over file descriptors} *)

type read_error =
  | Eof  (** clean end of stream between frames *)
  | Oversized of int  (** announced length exceeded [max_frame] *)
  | Truncated  (** stream ended mid-frame *)

val write_frame : Unix.file_descr -> string -> unit
(** One frame from an already-rendered payload string (allocates a
    fresh buffer per call — kept for raw-frame injection in the chaos
    suite and tests; the serve path uses {!writer}). Raises
    [Unix.Unix_error] on a broken pipe — callers treat that as a
    client disconnect, never as a server failure. *)

val read_frame :
  max_frame:int -> Unix.file_descr -> (string, read_error) result

(** {2 Zero-copy framed I/O}

    Per-connection buffered endpoints: messages render directly into a
    reused growable buffer (length prefix patched in afterwards, one
    [write] per frame, no per-frame allocation — refusals included),
    and inbound frames land in a reused receive buffer parsed in
    place. The rendering is byte-identical to
    [Sexp.to_string (request_to_sexp _)] /
    [Sexp.to_string (response_to_sexp _)], so the wire format and
    {!version} are unchanged. Writers and readers are single-owner:
    one connection thread each, never shared. *)

type writer

val writer : ?buf_size:int -> Unix.file_descr -> writer
val write_request : writer -> request -> unit
val write_response : writer -> response -> unit
(** Cached payload bytes ([Payload]/[Stats_payload]) are blitted into
    the frame without re-rendering; escaping is applied only when the
    payload actually contains a character that needs it. Raise
    [Unix.Unix_error] like {!write_frame}. *)

type reader

val reader : ?buf_size:int -> Unix.file_descr -> reader

val read_frame_view : reader -> max_frame:int -> (string * int, read_error) result
(** [Ok (view, len)]: the frame payload occupies [view.[0 .. len-1]].
    [view] is an {e unsafe view of the reader's reused buffer}, valid
    only until the next read on the same reader — parse it (e.g. with
    {!Fact_sexp.Sexp.of_substring}, which copies atoms out) before
    reading again, and never retain it. *)
