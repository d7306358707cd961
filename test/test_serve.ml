(* Tests for the query service: the shared s-expression dialect, the
   wire protocol, the content-addressed store, the deduplicating
   scheduler with per-request deadlines, and the listener's fault
   policy. *)

open Fact_sexp
open Fact_resilience
open Fact_serve
module Chaos = Fact_check.Chaos

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fact-test-serve-%d-%d" (Unix.getpid ()) !counter)
    in
    (match Unix.mkdir d 0o700 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rm_rf dir =
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let ra2 = Query.Ra { n = 2; adv = Query.Preset "wait-free" }

(* ------------------------------------------------------------------ *)
(* Sexp                                                               *)
(* ------------------------------------------------------------------ *)

let test_sexp_roundtrip () =
  let roundtrip sx =
    match Sexp.of_string (Sexp.to_string sx) with
    | Ok got -> Alcotest.(check bool) "roundtrip" true (got = sx)
    | Error m -> Alcotest.failf "reparse failed: %s" m
  in
  roundtrip (Sexp.Atom "plain");
  roundtrip (Sexp.Atom "");
  roundtrip (Sexp.Atom "with space");
  roundtrip (Sexp.Atom "quo\"te and back\\slash");
  roundtrip (Sexp.Atom "line1\nline2\ttabbed\rcr");
  roundtrip (Sexp.Atom "(parens)");
  roundtrip (Sexp.List []);
  roundtrip
    (Sexp.List
       [ Sexp.Atom "k"; Sexp.List [ Sexp.int 42; Sexp.Atom "v v" ];
         Sexp.Atom "\"" ]);
  (* plain atoms stay unquoted: the historical trace format is stable *)
  check_string "unquoted" "(run 3 (s0 c1))"
    (Sexp.to_string
       (Sexp.List
          [ Sexp.Atom "run"; Sexp.int 3;
            Sexp.List [ Sexp.Atom "s0"; Sexp.Atom "c1" ] ]));
  (* parse errors carry an offset and never raise *)
  (match Sexp.of_string "(unclosed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unclosed list parsed");
  (match Sexp.of_string "a b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage parsed");
  match Sexp.of_string "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string parsed"

let test_checkpoint_error_names_file () =
  let file =
    Filename.concat (fresh_dir ()) "broken.ck"
  in
  let oc = open_out file in
  output_string oc "(this is (not a checkpoint))";
  close_out oc;
  (match Fact_check.Checkpoint.load file with
  | Ok _ -> Alcotest.fail "garbage checkpoint loaded"
  | Error msg ->
    check_bool "message names the file" true
      (String.length msg >= String.length file
      && String.sub msg 0 (String.length file) = file));
  Sys.remove file;
  match Fact_check.Checkpoint.load file with
  | Ok _ -> Alcotest.fail "missing checkpoint loaded"
  | Error msg ->
    (* Sys_error from open_in already names the path *)
    check_bool "missing file named" true
      (let rec contains i =
         i + String.length file <= String.length msg
         && (String.sub msg i (String.length file) = file
            || contains (i + 1))
       in
       contains 0)

(* ------------------------------------------------------------------ *)
(* Query / Digest / Wire                                              *)
(* ------------------------------------------------------------------ *)

let test_query_roundtrip () =
  let queries =
    [
      ra2;
      Query.Ra { n = 3; adv = Query.Live [ [ 0; 1 ]; [ 2 ] ] };
      Query.Chr { n = 3; m = 2 };
      Query.Critical { n = 3; adv = Query.Preset "fig5b" };
      Query.Setcon { n = 4; adv = Query.Preset "t-res:1" };
      Query.Fairness { n = 3; adv = Query.Preset "k-of:2" };
      Query.Explore { protocol = "is"; n = 2; max_runs = 100 };
    ]
  in
  List.iter
    (fun q ->
      match Query.of_sexp (Query.to_sexp q) with
      | Ok got -> check_bool (Query.endpoint q) true (got = q)
      | Error m -> Alcotest.failf "%s: %s" (Query.endpoint q) m)
    queries;
  (* digests are stable, distinct per query, and hex *)
  let d1 = Digest.of_query ra2 and d2 = Digest.of_query ra2 in
  check_string "digest deterministic" d1 d2;
  check "digest hex length" 32 (String.length d1);
  check_bool "digests distinguish queries" true
    (d1 <> Digest.of_query (Query.Chr { n = 3; m = 2 }))

let test_wire_roundtrip () =
  let reqs =
    [
      Wire.Query { query = ra2; deadline_s = Some 1.5 };
      Wire.Query { query = ra2; deadline_s = None };
      Wire.Put { query = ra2; payload = "multi\nline \"payload\"" };
      Wire.Stats; Wire.Ping; Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Wire.request_of_sexp (Wire.request_to_sexp r) with
      | Ok got -> check_bool "request roundtrip" true (got = r)
      | Error m -> Alcotest.fail m)
    reqs;
  let resps =
    [
      Wire.Payload { payload = "multi\nline \"payload\""; source = Wire.Disk };
      Wire.Stats_payload "stats text";
      Wire.Pong; Wire.Shutting_down;
      Wire.Refused (Fact_error.Precondition { fn = "f"; what = "w" });
      Wire.Refused (Fact_error.Deadline_exceeded { where = "x"; budget_s = 0.5 });
      Wire.Refused (Fact_error.Cancelled { where = "x" });
      Wire.Refused
        (Fact_error.Worker_failure { fn = "f"; failed = 1; chunks = 2; first = "e" });
      Wire.Refused (Fact_error.Resource_limit { what = "w"; limit = 1; got = 2 });
      Wire.Refused (Fact_error.Unavailable { what = "shard 2 unreachable" });
      Wire.Stored { already = true };
      Wire.Stored { already = false };
    ]
  in
  List.iter
    (fun r ->
      match Wire.response_of_sexp (Wire.response_to_sexp r) with
      | Ok got -> check_bool "response roundtrip" true (got = r)
      | Error m -> Alcotest.fail m)
    resps;
  (* a request from a future protocol version is refused up front *)
  let bumped =
    match Wire.request_to_sexp Wire.Ping with
    | Sexp.List (Sexp.List [ Sexp.Atom "version"; _ ] :: rest) ->
      Sexp.List (Sexp.List [ Sexp.Atom "version"; Sexp.int 99 ] :: rest)
    | sx -> sx
  in
  match Wire.request_of_sexp bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version 99 request accepted"

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

let test_store_restart_roundtrip () =
  let dir = fresh_dir () in
  let payload = "line one\nline \"two\" (with parens)\n" in
  let digest = Digest.of_query ra2 in
  let s1 = Store.open_dir dir in
  Store.put s1 ~digest ~query:(Query.to_sexp ra2) ~payload;
  check "one entry" 1 (Store.entries s1);
  (* a fresh handle — a restarted process — reads the same bytes *)
  let s2 = Store.open_dir dir in
  (match Store.get s2 ~digest with
  | Some got -> check_string "payload survives restart" payload got
  | None -> Alcotest.fail "entry lost across restart");
  (* corrupt the file: the read drops it and degrades to a miss *)
  let file = Filename.concat dir (digest ^ ".fact") in
  let oc = open_out file in
  output_string oc "((store-version 1) garbage";
  close_out oc;
  (match Store.get s2 ~digest with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt entry served");
  check "corrupt counted" 1 (Store.stats s2).Store.corrupt;
  check_bool "corrupt file removed" false (Sys.file_exists file);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Cache import/export hooks                                          *)
(* ------------------------------------------------------------------ *)

module String_cache = Cache.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let test_cache_add_find_evict () =
  let evicted = ref [] in
  let c =
    String_cache.create ~name:"test.serve.import" ~cap:2
      ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
      ~equal:Int.equal ()
  in
  (* imports count neither hits nor misses *)
  String_cache.add c "a" 1;
  String_cache.add c "b" 2;
  let s = String_cache.stats c in
  check "no hits after import" 0 s.Cache.hits;
  check "no misses after import" 0 s.Cache.misses;
  (* probes count; the import is resident *)
  (match String_cache.find_opt c "a" with
  | Some v -> check "imported value" 1 v
  | None -> Alcotest.fail "import not resident");
  check "probe hit counted" 1 (String_cache.stats c).Cache.hits;
  check_bool "probe miss" true (String_cache.find_opt c "zz" = None);
  check "probe miss counted" 1 (String_cache.stats c).Cache.misses;
  (* growing past cap evicts (with hysteresis, down to 3/4 cap)
     through the hook *)
  String_cache.add c "c" 3;
  check_bool "bounded" true ((String_cache.stats c).Cache.size <= 2);
  check_bool "eviction hook fired" true (!evicted <> []);
  (* re-importing a resident key keeps the resident value *)
  String_cache.add c "c" 99;
  match String_cache.find_opt c "c" with
  | Some v -> check "resident entry wins" 3 v
  | None -> Alcotest.fail "resident entry evicted by re-import"

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let payload_of = function
  | Ok (o : Scheduler.outcome) -> o.Scheduler.payload
  | Error e -> Alcotest.failf "unexpected refusal: %s" (Fact_error.to_string e)

let test_scheduler_dedup () =
  let sched = Scheduler.create () in
  (* occupy the executor with a slow job, then race two identical
     queries: the second must join the first's in-flight job *)
  let slow = Query.Explore { protocol = "alg1"; n = 2; max_runs = 20_000 } in
  let slow_t =
    Thread.create (fun () -> ignore (Scheduler.submit sched slow)) ()
  in
  Thread.delay 0.05;
  let results = Array.make 2 None in
  let racers =
    Array.init 2 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Some (Scheduler.submit sched ra2))
          ())
  in
  Array.iter Thread.join racers;
  Thread.join slow_t;
  let p0 = payload_of (Option.get results.(0)) in
  let p1 = payload_of (Option.get results.(1)) in
  check_string "deduplicated answers identical" p0 p1;
  check_string "answers match a direct eval" (Query.eval ra2) p0;
  check_bool "a join was recorded" true (Scheduler.dedup sched >= 1);
  (* a repeat is now a cache hit *)
  (match Scheduler.submit sched ra2 with
  | Ok { Scheduler.source = Wire.Memory; payload } ->
    check_string "memory hit identical" p0 payload
  | Ok { Scheduler.source = s; _ } ->
    Alcotest.failf "expected memory hit, got %s" (Wire.source_to_string s)
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  Scheduler.shutdown sched;
  (* after shutdown, submissions fail with a typed Cancelled *)
  match Scheduler.submit sched ra2 with
  | Error (Fact_error.Cancelled _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fact_error.to_string e)
  | Ok _ -> Alcotest.fail "submit succeeded after shutdown"

let test_scheduler_deadline () =
  let sched = Scheduler.create () in
  (* an impossible budget: either the queue check or the Cancel token
     trips, both must surface as a typed Deadline_exceeded *)
  let expensive = Query.Ra { n = 4; adv = Query.Preset "wait-free" } in
  (match Scheduler.submit sched ~deadline_s:0.0005 expensive with
  | Error (Fact_error.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fact_error.to_string e)
  | Ok _ -> Alcotest.fail "expensive query beat a 0.5ms deadline");
  (* the executor survives and serves the next request *)
  (match Scheduler.submit sched ra2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  Scheduler.shutdown sched

let test_scheduler_store_warm () =
  let dir = fresh_dir () in
  let store = Store.open_dir dir in
  let sched = Scheduler.create ~store () in
  let first = payload_of (Scheduler.submit sched ra2) in
  check "computed result persisted" 1 (Store.entries store);
  Scheduler.shutdown sched;
  (* restart: the same store warm-starts the cache; the answer comes
     from disk and is byte-identical *)
  let store2 = Store.open_dir dir in
  let sched2 = Scheduler.create ~store:store2 () in
  (match Scheduler.submit sched2 ra2 with
  | Ok { Scheduler.payload; source = Wire.Disk } ->
    check_string "disk answer identical" first payload
  | Ok { Scheduler.source = s; _ } ->
    Alcotest.failf "expected disk hit, got %s" (Wire.source_to_string s)
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  Scheduler.shutdown sched2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Listener + Client                                                  *)
(* ------------------------------------------------------------------ *)

let with_server ?store f =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "test.sock" in
  let store = Option.map (fun () -> Store.open_dir (Filename.concat dir "store")) store in
  let scheduler = Scheduler.create ?store () in
  let listener = Listener.start_scheduler ~scheduler (Listener.Unix_sock sock) in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop listener;
      (match store with Some s -> rm_rf (Store.dir s) | None -> ());
      rm_rf dir)
    (fun () -> f (Listener.Unix_sock sock))

let test_concurrent_clients_identical () =
  with_server (fun addr ->
      let reference = Query.eval ra2 in
      let results = Array.make 4 None in
      let clients =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Some
                    (Client.with_connection addr (fun c ->
                         fst (Client.query c ra2))))
              ())
      in
      Array.iter Thread.join clients;
      Array.iter
        (function
          | Some p -> check_string "client payload = one-shot eval" reference p
          | None -> Alcotest.fail "client returned nothing")
        results)

let test_listener_bad_frames () =
  with_server (fun addr ->
      let sock_path =
        match addr with Listener.Unix_sock p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      (* a malformed request gets a typed refusal... *)
      Wire.write_frame fd "((not a)) request";
      (match Wire.read_frame ~max_frame:Wire.default_max_frame fd with
      | Ok raw -> (
        match Result.bind (Sexp.of_string raw) Wire.response_of_sexp with
        | Ok (Wire.Refused (Fact_error.Precondition _)) -> ()
        | Ok _ -> Alcotest.fail "expected a Precondition refusal"
        | Error m -> Alcotest.fail m)
      | Error _ -> Alcotest.fail "no reply to malformed frame");
      (* ...and the same connection still serves *)
      Wire.write_frame fd (Sexp.to_string (Wire.request_to_sexp Wire.Ping));
      (match Wire.read_frame ~max_frame:Wire.default_max_frame fd with
      | Ok raw -> (
        match Result.bind (Sexp.of_string raw) Wire.response_of_sexp with
        | Ok Wire.Pong -> ()
        | _ -> Alcotest.fail "connection unusable after refusal")
      | Error _ -> Alcotest.fail "connection closed after refusal");
      Unix.close fd;
      (* an oversized frame gets a typed refusal, then the connection
         closes; the listener itself keeps accepting *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.default_max_frame + 1));
      ignore (Unix.write fd hdr 0 4);
      (match Wire.read_frame ~max_frame:Wire.default_max_frame fd with
      | Ok raw -> (
        match Result.bind (Sexp.of_string raw) Wire.response_of_sexp with
        | Ok (Wire.Refused (Fact_error.Resource_limit _)) -> ()
        | Ok _ -> Alcotest.fail "expected a Resource_limit refusal"
        | Error m -> Alcotest.fail m)
      | Error _ -> Alcotest.fail "no reply to oversized frame");
      Unix.close fd;
      Client.with_connection addr (fun c -> Client.ping c))

let test_client_deadline_typed () =
  with_server (fun addr ->
      Client.with_connection addr (fun c ->
          let expensive = Query.Ra { n = 4; adv = Query.Preset "wait-free" } in
          (match Client.query c ~deadline_s:0.0005 expensive with
          | _ -> Alcotest.fail "expensive query beat a 0.5ms deadline"
          | exception Fact_error.Error e ->
            check "deadline maps to exit 3" 3 (Fact_error.exit_code e));
          (* the same connection, and the server, keep working *)
          let p, _ = Client.query c ra2 in
          check_string "served after deadline" (Query.eval ra2) p))

let test_serve_chaos () =
  let stats = Serve_chaos.run ~seed:7 ~max_faults:12 () in
  check "all faults injected" 12 stats.Chaos.injected;
  Alcotest.(check (list string)) "no violations" [] stats.Chaos.violations;
  List.iter
    (fun (kind, n) -> check kind n (Chaos.count stats kind))
    [
      ("disconnects", 3);
      ("store corruptions", 2);
      ("forced evictions", 1);
      ("bad frames", 6);
    ]

(* ------------------------------------------------------------------ *)
(* Crash simulation, adversarial I/O, retry / unavailable             *)
(* ------------------------------------------------------------------ *)

let chr21 = Query.Chr { n = 2; m = 1 }

let test_store_crash_sim () =
  let dir = fresh_dir () in
  let digest = Digest.of_query ra2 in
  let s1 = Store.open_dir dir in
  Store.put s1 ~digest ~query:(Query.to_sexp ra2) ~payload:"committed";
  (* a writer killed mid-put leaves an un-renamed tmp file... *)
  let oc = open_out (Filename.concat dir ("." ^ digest ^ "dead.tmp")) in
  output_string oc "((store-version 1) (trunc";
  close_out oc;
  (* ...and a crash can tear a file that carries a committed name *)
  let torn_digest = Digest.of_query chr21 in
  let oc = open_out (Filename.concat dir (torn_digest ^ ".fact")) in
  output_string oc "((store-version 1) (digest";
  close_out oc;
  (* reboot: the tmp is swept, the torn entry quarantined, the good
     entry served byte-for-byte *)
  let s2 = Store.open_dir dir in
  check "tmp swept at boot" 1 (Store.stats s2).Store.swept;
  check_bool "no tmp files survive" false
    (Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir));
  (match Store.get s2 ~digest with
  | Some p -> check_string "committed entry intact" "committed" p
  | None -> Alcotest.fail "committed entry lost");
  (match Store.get s2 ~digest:torn_digest with
  | None -> ()
  | Some _ -> Alcotest.fail "torn entry served");
  check "torn entry quarantined" 1 (Store.stats s2).Store.corrupt;
  check_bool "torn entry removed" false (Store.has s2 ~digest:torn_digest);
  rm_rf dir

let test_scheduler_inject () =
  let dir = fresh_dir () in
  let store = Store.open_dir dir in
  let sched = Scheduler.create ~store () in
  let payload = Query.eval ra2 in
  (match Scheduler.inject sched ra2 ~payload with
  | Ok `Stored -> ()
  | Ok `Already -> Alcotest.fail "first inject reported already-stored"
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  (match Scheduler.inject sched ra2 ~payload with
  | Ok `Already -> ()
  | Ok `Stored -> Alcotest.fail "second inject not idempotent"
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  check_bool "entry on disk" true (Store.has store ~digest:(Digest.of_query ra2));
  (* an injected entry serves as a disk-sourced result — the cluster's
     read-repair contract: warm re-serves report source=disk *)
  (match Scheduler.submit sched ra2 with
  | Ok { Scheduler.payload = p; source = Wire.Disk } ->
    check_string "injected payload served" payload p
  | Ok { Scheduler.source = s; _ } ->
    Alcotest.failf "expected disk source, got %s" (Wire.source_to_string s)
  | Error e -> Alcotest.fail (Fact_error.to_string e));
  Scheduler.shutdown sched;
  rm_rf dir

let test_wire_adversarial_io () =
  with_server (fun addr ->
      let sock_path =
        match addr with Listener.Unix_sock p -> p | _ -> assert false
      in
      (* slow-loris: a valid ping delivered one byte at a time must be
         assembled and answered, not misread or hung on *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      let req = Sexp.to_string (Wire.request_to_sexp Wire.Ping) in
      let n = String.length req in
      let frame = Bytes.create (4 + n) in
      Bytes.set_int32_be frame 0 (Int32.of_int n);
      Bytes.blit_string req 0 frame 4 n;
      for i = 0 to Bytes.length frame - 1 do
        ignore (Unix.write fd frame i 1);
        if i mod 5 = 0 then Thread.delay 0.002
      done;
      (match Wire.read_frame ~max_frame:Wire.default_max_frame fd with
      | Ok raw -> (
        match Result.bind (Sexp.of_string raw) Wire.response_of_sexp with
        | Ok Wire.Pong -> ()
        | _ -> Alcotest.fail "slow-loris ping mis-answered")
      | Error _ -> Alcotest.fail "no reply to slow-loris ping");
      Unix.close fd;
      (* mid-frame disconnect: declare 100 bytes, deliver 10, hang up;
         only that connection dies *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      let partial = Bytes.create 14 in
      Bytes.set_int32_be partial 0 100l;
      ignore (Unix.write fd partial 0 14);
      Unix.close fd;
      (* the listener keeps serving fresh clients *)
      Client.with_connection addr Client.ping)

let test_bind_failure_typed () =
  let l1 =
    Listener.start ~handler:(fun _ -> Wire.Pong) (Listener.Tcp ("127.0.0.1", 0))
  in
  let port =
    match Listener.bound_addr l1 with Listener.Tcp (_, p) -> p | _ -> 0
  in
  check_bool "kernel assigned a port" true (port > 0);
  (* a second bind on a live port must be a typed, retryable refusal —
     the EADDRINUSE a supervisor restart loop has to absorb *)
  (match
     Listener.start ~handler:(fun _ -> Wire.Pong)
       (Listener.Tcp ("127.0.0.1", port))
   with
  | l2 ->
    Listener.stop l2;
    Alcotest.fail "second bind on a live port succeeded"
  | exception Fact_error.Error e ->
    check "bind failure maps to exit 7" 7 (Fact_error.exit_code e);
    check_bool "bind failure is retryable" true
      (Fact_error.is_unavailable (Fact_error.Error e)));
  Listener.stop l1

let test_client_unavailable_retry () =
  let dir = fresh_dir () in
  let missing = Listener.Unix_sock (Filename.concat dir "absent.sock") in
  (match Client.connect missing with
  | c ->
    Client.close c;
    Alcotest.fail "connected to a nonexistent server"
  | exception Fact_error.Error e ->
    check "unreachable maps to exit 7" 7 (Fact_error.exit_code e));
  let backoff = Backoff.make ~base_ms:1. ~max_ms:2. () in
  (match Client.query_with_retry ~retries:2 ~backoff missing ra2 with
  | _ -> Alcotest.fail "query against nothing succeeded"
  | exception Fact_error.Error e ->
    check_bool "budget exhausted stays typed" true
      (Fact_error.is_unavailable (Fact_error.Error e)));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Ring, loadgen, cluster                                             *)
(* ------------------------------------------------------------------ *)

let test_ring_determinism_balance () =
  let r1 = Ring.create ~shards:4 () and r2 = Ring.create ~shards:4 () in
  let keys = List.init 500 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k -> check "ring deterministic" (Ring.shard_of r1 k) (Ring.shard_of r2 k))
    keys;
  let spread = Ring.spread r1 keys in
  check "spread accounts for every key" 500 (Array.fold_left ( + ) 0 spread);
  Array.iter
    (fun c -> check_bool "every shard carries load" true (c > 0))
    spread;
  Array.iter
    (fun c -> check_bool "no shard owns a majority" true (c < 250))
    spread;
  (* consistency: adding a shard remaps a minority of the keyspace *)
  let r5 = Ring.create ~shards:5 () in
  let moved =
    List.length
      (List.filter (fun k -> Ring.shard_of r1 k <> Ring.shard_of r5 k) keys)
  in
  check_bool "resize moves a minority of keys" true (moved < 250)

let test_loadgen_zero_failures () =
  with_server ~store:() (fun addr ->
      let r =
        Loadgen.run ~threads:3 ~requests:12 ~retries:1
          ~queries:[ ra2; chr21 ] addr
      in
      check "every request answered" 12 r.Loadgen.ok;
      check "zero failures" 0 r.Loadgen.failed;
      check "sources partition the answers" 12
        (r.Loadgen.computed + r.Loadgen.memory + r.Loadgen.disk))

let rec rm_rf_deep dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if (try Sys.is_directory p with Sys_error _ -> false) then rm_rf_deep p
        else try Sys.remove p with Sys_error _ -> ())
      files;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let test_cluster_e2e () =
  let dir = fresh_dir () in
  let cfg =
    Cluster.config ~dir:(Filename.concat dir "c") ~shards:2 ~replicas:2
      ~attempt_timeout_s:5.
      ~backoff:(Backoff.make ~base_ms:50. ~max_ms:500. ())
      ~heartbeat_period_s:0.2 ~fail_threshold:2 ()
  in
  let cluster = Cluster.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Cluster.stop cluster;
      rm_rf_deep dir)
    (fun () ->
      let reference = Query.eval ra2 in
      let q () =
        match
          Cluster.handler cluster (Wire.Query { query = ra2; deadline_s = None })
        with
        | Wire.Payload { payload; _ } -> payload
        | Wire.Refused e -> Alcotest.fail (Fact_error.to_string e)
        | _ -> Alcotest.fail "unexpected response shape"
      in
      check_string "cluster answer = one-shot eval" reference (q ());
      let shard = Cluster.shard_of cluster ra2 in
      (* one replica down: the twin serves *)
      Cluster.kill_worker cluster ~shard ~replica:0;
      check_string "survives a replica kill" reference (q ());
      (* whole shard down: the front tier degrades to local eval *)
      Cluster.kill_worker cluster ~shard ~replica:0;
      Cluster.kill_worker cluster ~shard ~replica:1;
      check_string "survives a shard blackout" reference (q ());
      check_bool "faults were actually routed around" true
        (Cluster.failovers cluster + Cluster.degraded cluster > 0))

let test_cluster_chaos () =
  let s = Serve_chaos.run_cluster ~seed:3 ~max_faults:6 () in
  check "all faults injected" 6 s.Chaos.injected;
  Alcotest.(check (list string)) "no violations" [] s.Chaos.violations;
  check_bool "every fault recovered" true (s.Chaos.recovered > 0);
  List.iter
    (fun (kind, n) -> check kind n (Chaos.count s kind))
    [ ("kills", 2); ("replica corruptions", 1); ("stalls", 1); ("blackouts", 2) ];
  (* a boot that fails still removes its throwaway directory *)
  let ours () =
    let prefix = Printf.sprintf "fact-serve-chaos-%d-" (Unix.getpid ()) in
    Sys.readdir (Filename.get_temp_dir_name ())
    |> Array.exists (String.starts_with ~prefix)
  in
  let bin = Option.value ~default:"" (Sys.getenv_opt "FACT_WORKER_BIN") in
  Unix.putenv "FACT_WORKER_BIN" "/nonexistent/fact";
  Fun.protect ~finally:(fun () -> Unix.putenv "FACT_WORKER_BIN" bin) (fun () ->
      match Serve_chaos.run_cluster ~max_faults:1 () with
      | _ -> Alcotest.fail "cluster booted without a worker binary"
      | exception Fact_error.Error _ -> ());
  check_bool "failed boot leaves no temp dir" false (ours ())

(* ------------------------------------------------------------------ *)
(* Zero-copy wire path                                                *)
(* ------------------------------------------------------------------ *)

(* The buffered writer must emit exactly the bytes the one-shot
   [Sexp.to_string] rendering produced before it existed: the wire
   format is versioned, and a quoting difference would split the
   protocol in two. One writer/reader pair over a socketpair, messages
   chosen to hit every atom class (bare, quoted-without-escapes,
   escaped, empty) and to reuse the buffers across frames. *)
let test_wire_writer_byte_identity () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let w = Wire.writer a and r = Wire.reader b in
  let recv () =
    match Wire.read_frame_view r ~max_frame:Wire.default_max_frame with
    | Ok (raw, len) -> String.sub raw 0 len
    | Error _ -> Alcotest.fail "frame expected"
  in
  let payloads =
    [
      "bare-atom_123"; "with space and (parens)"; "esc \"q\" b\\s\nnl\ttab\rcr";
      ""; String.make 5000 'x' ^ "\"" ^ String.make 5000 'y';
    ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun rq ->
          Wire.write_request w rq;
          check_string "request bytes"
            (Sexp.to_string (Wire.request_to_sexp rq))
            (recv ()))
        [
          Wire.Query { query = ra2; deadline_s = Some 1.5 };
          Wire.Query { query = ra2; deadline_s = None };
          Wire.Put { query = ra2; payload = p };
          Wire.Stats; Wire.Ping; Wire.Shutdown;
        ];
      List.iter
        (fun resp ->
          Wire.write_response w resp;
          check_string "response bytes"
            (Sexp.to_string (Wire.response_to_sexp resp))
            (recv ()))
        [
          Wire.Payload { payload = p; source = Wire.Computed };
          Wire.Payload { payload = p; source = Wire.Memory };
          Wire.Payload { payload = p; source = Wire.Disk };
          Wire.Stats_payload p;
          Wire.Pong; Wire.Shutting_down;
          Wire.Stored { already = true };
          Wire.Stored { already = false };
          Wire.Refused (Fact_error.Precondition { fn = "f"; what = p });
          Wire.Refused
            (Fact_error.Deadline_exceeded { where = "x"; budget_s = 0.5 });
          Wire.Refused
            (Fact_error.Worker_failure
               { fn = "f"; failed = 1; chunks = 2; first = p });
          Wire.Refused
            (Fact_error.Resource_limit { what = "w"; limit = 1; got = 2 });
          Wire.Refused (Fact_error.Unavailable { what = p });
          Wire.Refused (Fact_error.Cancelled { where = "x" });
        ])
    payloads;
  (* both framing layers interoperate: writer frames parse under the
     allocating reader and vice versa *)
  Wire.write_request w Wire.Ping;
  (match Wire.read_frame ~max_frame:Wire.default_max_frame b with
  | Ok s -> check_string "writer -> read_frame" "((version 2) (request ping))" s
  | Error _ -> Alcotest.fail "frame expected");
  Wire.write_frame a "((version 2) (request ping))";
  check_string "write_frame -> reader" "((version 2) (request ping))" (recv ());
  Unix.close a;
  Unix.close b

(* Per-connection buffers mean concurrent connections can never
   interleave partial frames, and the refusal path reuses its scratch
   instead of allocating per refusal. Eight threads hammer one
   listener with large echo payloads (distinct per thread) mixed with
   malformed requests; every reply must come back intact and in
   request order on its own connection. *)
let test_concurrent_no_interleave () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "interleave.sock" in
  let handler = function
    | Wire.Put { payload; query = _ } ->
      Wire.Payload { payload; source = Wire.Computed }
    | _ -> Wire.Pong
  in
  let listener = Listener.start ~handler (Listener.Unix_sock sock) in
  let errors = ref 0 in
  let lock = Mutex.create () in
  let flag () = Mutex.lock lock; incr errors; Mutex.unlock lock in
  let worker tid =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let w = Wire.writer fd and r = Wire.reader fd in
    let parse () =
      match Wire.read_frame_view r ~max_frame:Wire.default_max_frame with
      | Error _ -> Error "short read"
      | Ok (raw, len) -> (
        match Sexp.of_substring raw ~pos:0 ~len with
        | Error m -> Error m
        | Ok sx -> Wire.response_of_sexp sx)
    in
    for i = 1 to 25 do
      let payload =
        Printf.sprintf "t%d:%d:%s" tid i
          (String.make (2048 + (tid * 131)) (Char.chr (Char.code 'A' + tid)))
      in
      Wire.write_request w (Wire.Put { query = ra2; payload });
      (match parse () with
      | Ok (Wire.Payload { payload = got; _ }) when got = payload -> ()
      | _ -> flag ());
      if i mod 5 = 0 then begin
        (* well-formed sexp, ill-formed request: a refusal that must
           not disturb this or any other connection's framing *)
        Wire.write_frame fd "(not a request)";
        match parse () with
        | Ok (Wire.Refused _) -> ()
        | _ -> flag ()
      end
    done;
    Unix.close fd
  in
  let ths = List.init 8 (fun tid -> Thread.create worker tid) in
  List.iter Thread.join ths;
  Listener.stop listener;
  rm_rf dir;
  check "corrupted or misordered replies" 0 !errors

(* ------------------------------------------------------------------ *)

(* The one-shot commands and the query service resolve an adversary
   through the same function: a bad preset is the same typed
   Precondition, printed the same way with the same exit code, whether
   [fact analyze] or [fact ra] reads it. *)
let test_cli_adversary_resolver () =
  let run args =
    let err = Filename.temp_file "fact-cli" ".err" in
    let code =
      Sys.command
        (Filename.quote_command "../bin/fact_cli.exe" args
           ~stdout:Filename.null ~stderr:err)
    in
    let msg = In_channel.with_open_text err In_channel.input_all in
    Sys.remove err;
    (code, String.trim msg)
  in
  let bad = [ "-n"; "3"; "--preset"; "t-res:x" ] in
  let a_code, a_msg = run ("analyze" :: bad) in
  let r_code, r_msg = run ("ra" :: bad) in
  check "analyze exit" 2 a_code;
  check "ra exit" 2 r_code;
  check_string "same message" r_msg a_msg;
  let expected = "Query.eval: bad t-res parameter" in
  let rec contains i =
    i + String.length expected <= String.length a_msg
    && (String.sub a_msg i (String.length expected) = expected
       || contains (i + 1))
  in
  check_bool "typed precondition" true (contains 0);
  let ok_code, _ = run [ "analyze"; "-n"; "3"; "--preset"; "k-of:1" ] in
  check "good preset" 0 ok_code

let suite =
  [
    Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
    Alcotest.test_case "checkpoint error names file" `Quick
      test_checkpoint_error_names_file;
    Alcotest.test_case "query roundtrip + digest" `Quick test_query_roundtrip;
    Alcotest.test_case "wire roundtrip + version" `Quick test_wire_roundtrip;
    Alcotest.test_case "store restart roundtrip" `Quick
      test_store_restart_roundtrip;
    Alcotest.test_case "cache import/probe/evict hooks" `Quick
      test_cache_add_find_evict;
    Alcotest.test_case "scheduler dedup" `Slow test_scheduler_dedup;
    Alcotest.test_case "scheduler deadline" `Quick test_scheduler_deadline;
    Alcotest.test_case "scheduler store warm restart" `Quick
      test_scheduler_store_warm;
    Alcotest.test_case "concurrent clients identical" `Quick
      test_concurrent_clients_identical;
    Alcotest.test_case "listener bad frames" `Quick test_listener_bad_frames;
    Alcotest.test_case "client deadline typed" `Quick
      test_client_deadline_typed;
    Alcotest.test_case "serve chaos" `Slow test_serve_chaos;
    Alcotest.test_case "store crash simulation" `Quick test_store_crash_sim;
    Alcotest.test_case "scheduler inject (write-through)" `Quick
      test_scheduler_inject;
    Alcotest.test_case "wire adversarial io" `Quick test_wire_adversarial_io;
    Alcotest.test_case "bind failure typed unavailable" `Quick
      test_bind_failure_typed;
    Alcotest.test_case "client unavailable + retry budget" `Quick
      test_client_unavailable_retry;
    Alcotest.test_case "ring determinism + balance" `Quick
      test_ring_determinism_balance;
    Alcotest.test_case "loadgen zero failures" `Quick
      test_loadgen_zero_failures;
    Alcotest.test_case "cluster end-to-end" `Slow test_cluster_e2e;
    Alcotest.test_case "cluster chaos storm" `Slow test_cluster_chaos;
    Alcotest.test_case "wire writer byte identity" `Quick
      test_wire_writer_byte_identity;
    Alcotest.test_case "concurrent connections no interleave" `Quick
      test_concurrent_no_interleave;
    Alcotest.test_case "cli: one adversary resolver" `Quick
      test_cli_adversary_resolver;
  ]
