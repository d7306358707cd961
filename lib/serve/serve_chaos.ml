module Fact_error = Fact_resilience.Fact_error
module Cache = Fact_resilience.Cache
module Backoff = Fact_resilience.Backoff
module Chaos = Fact_check.Chaos

let ref_query = Query.Ra { n = 2; adv = Query.Preset "wait-free" }

(* One throwaway directory around setup, storm and teardown alike. *)
let with_temp_dir prefix f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh i =
    let d =
      Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh (i + 1)
  in
  let rec rm_rf dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | files ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if try Sys.is_directory p with Sys_error _ -> false then rm_rf p
          else try Sys.remove p with Sys_error _ -> ())
        files;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  in
  let dir = fresh 0 in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let scribble rng file =
  let garbage =
    if Random.State.bool rng then "((store-version 1) (truncated"
    else String.init 64 (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let oc = open_out file in
  output_string oc garbage;
  close_out oc

(* ----------------------------- listener ----------------------------- *)

type env = {
  sock_path : string;
  store : Store.t;
  reference : string;  (* fault-free payload for [ref_query] *)
}

let addr env = Listener.Unix_sock env.sock_path

(* Checks the server end-to-end after a fault: a fresh client must get
   the byte-identical fault-free payload. *)
let check_recovered p env what =
  match
    Client.with_connection (addr env) (fun c -> fst (Client.query c ref_query))
  with
  | payload ->
    if String.equal payload env.reference then Chaos.recovered p
    else Chaos.violation p "%s: payload drifted from reference" what
  | exception Fact_error.Error e ->
    Chaos.violation p "%s: recovery query refused: %s" what
      (Fact_error.to_string e)

let raw_connect env =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX env.sock_path);
  fd

let inject_disconnect p env =
  (* send a valid query, hang up without reading the response: the
     server's write hits a dead peer mid-response *)
  (match raw_connect env with
  | fd ->
    let req = Wire.Query { query = ref_query; deadline_s = None } in
    (try
       Wire.write_frame fd
         (Fact_sexp.Sexp.to_string (Wire.request_to_sexp req))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ());
  Thread.yield ();
  check_recovered p env "disconnect"

let inject_corruption p env =
  let digest = Digest.of_query ref_query in
  scribble (Chaos.rng p)
    (Filename.concat (Store.dir env.store) (digest ^ ".fact"));
  (* the defensive read must drop the entry, not surface garbage *)
  (match Store.get env.store ~digest with
  | None -> Chaos.typed p
  | Some payload ->
    if not (String.equal payload env.reference) then
      Chaos.violation p "corruption: store served garbage");
  (* and a served query must recompute (or answer from memory) fine *)
  check_recovered p env "corruption"

let inject_eviction p env =
  (* flush every bounded cache while requests are in flight *)
  let results = Array.make 3 None in
  let workers =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some
                (try
                   `Payload
                     (Client.with_connection (addr env) (fun c ->
                          fst (Client.query c ref_query)))
                 with
                | Fact_error.Error e -> `Typed e
                | e -> `Untyped (Printexc.to_string e)))
          ())
  in
  Cache.force_evict_all ();
  Array.iter Thread.join workers;
  Array.iter
    (function
      | Some (`Payload s) ->
        if String.equal s env.reference then Chaos.recovered p
        else Chaos.violation p "eviction: payload drifted from reference"
      | Some (`Typed e) ->
        Chaos.violation p "eviction: query refused: %s" (Fact_error.to_string e)
      | Some (`Untyped m) -> Chaos.violation p "eviction: untyped escape: %s" m
      | None -> Chaos.violation p "eviction: worker produced no result")
    results

let inject_bad_frame p env =
  if Random.State.bool (Chaos.rng p) then begin
    (* well-framed garbage: typed refusal, connection stays usable *)
    match raw_connect env with
    | exception Unix.Unix_error _ ->
      Chaos.violation p "bad-frame: connect failed"
    | fd ->
      (match
         Wire.write_frame fd "((this is (not a request";
         Wire.read_frame ~max_frame:Wire.default_max_frame fd
       with
      | Ok raw -> (
        match
          Result.bind (Fact_sexp.Sexp.of_string raw) Wire.response_of_sexp
        with
        | Ok (Wire.Refused (Fact_error.Precondition _)) -> (
          Chaos.typed p;
          (* same connection must still answer *)
          try
            Wire.write_frame fd
              (Fact_sexp.Sexp.to_string (Wire.request_to_sexp Wire.Ping));
            match Wire.read_frame ~max_frame:Wire.default_max_frame fd with
            | Ok _ -> Chaos.recovered p
            | Error _ ->
              Chaos.violation p "bad-frame: connection died after refusal"
          with Unix.Unix_error _ ->
            Chaos.violation p "bad-frame: connection died after refusal")
        | Ok _ -> Chaos.violation p "bad-frame: expected a Precondition refusal"
        | Error m -> Chaos.violation p "bad-frame: unreadable reply: %s" m)
      | Error _ -> Chaos.violation p "bad-frame: no reply to malformed request"
      | exception Unix.Unix_error (e, _, _) ->
        Chaos.violation p "bad-frame: %s" (Unix.error_message e));
      (try Unix.close fd with Unix.Unix_error _ -> ())
  end
  else begin
    (* oversized length prefix: typed refusal, then the server closes *)
    match raw_connect env with
    | exception Unix.Unix_error _ ->
      Chaos.violation p "oversized: connect failed"
    | fd ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.default_max_frame + 1));
      (match
         let rec write_all off len =
           if len > 0 then begin
             let n = Unix.write fd hdr off len in
             write_all (off + n) (len - n)
           end
         in
         write_all 0 4;
         Wire.read_frame ~max_frame:Wire.default_max_frame fd
       with
      | Ok raw -> (
        match
          Result.bind (Fact_sexp.Sexp.of_string raw) Wire.response_of_sexp
        with
        | Ok (Wire.Refused (Fact_error.Resource_limit _)) -> Chaos.typed p
        | Ok _ ->
          Chaos.violation p "oversized: expected a Resource_limit refusal"
        | Error m -> Chaos.violation p "oversized: unreadable reply: %s" m)
      | Error _ -> Chaos.violation p "oversized: no reply"
      | exception Unix.Unix_error (e, _, _) ->
        Chaos.violation p "oversized: %s" (Unix.error_message e));
      (try Unix.close fd with Unix.Unix_error _ -> ())
  end;
  (* whatever happened, the listener itself must still serve *)
  check_recovered p env "bad-frame"

let run ?seed ~max_faults () =
  Chaos.drive ~fn:"Serve_chaos.run" ~tier:"listener" ~salt:0x5e12e ?seed
    ~max_faults
    ~with_env:(fun _ storm ->
      with_temp_dir "fact-serve-chaos" (fun dir ->
          let sock_path = Filename.concat dir "chaos.sock" in
          let store = Store.open_dir (Filename.concat dir "store") in
          let scheduler = Scheduler.create ~store () in
          let listener =
            Listener.start_scheduler ~scheduler (Listener.Unix_sock sock_path)
          in
          Fun.protect
            ~finally:(fun () -> try Listener.stop listener with _ -> ())
            (fun () ->
              let reference =
                Client.with_connection (Listener.Unix_sock sock_path) (fun c ->
                    fst (Client.query c ref_query))
              in
              storm { sock_path; store; reference })))
    Chaos.
      [
        { kind = "disconnects"; inject = inject_disconnect };
        { kind = "store corruptions"; inject = inject_corruption };
        { kind = "forced evictions"; inject = inject_eviction };
        { kind = "bad frames"; inject = inject_bad_frame };
      ]

(* ------------------------------ cluster ----------------------------- *)

type cenv = {
  cluster : Cluster.t;
  shards : int;
  replicas : int;
  creference : string;  (* one-shot [Query.eval ref_query] *)
  ref_shard : int;
  ref_digest : string;
}

(* one front-tier query, straight through the handler *)
let cquery env =
  match
    Cluster.handler env.cluster
      (Wire.Query { query = ref_query; deadline_s = None })
  with
  | Wire.Payload { payload; source } -> Ok (payload, source)
  | Wire.Refused e -> Error (Fact_error.to_string e)
  | _ -> Error "unexpected response shape"
  | exception e -> Error ("untyped escape: " ^ Printexc.to_string e)

(* availability invariant: after any fault, a query must succeed with
   the byte-identical one-shot payload *)
let ccheck p env what =
  match cquery env with
  | Ok (payload, _) ->
    if String.equal payload env.creference then Chaos.recovered p
    else Chaos.violation p "%s: payload drifted from one-shot eval" what
  | Error m -> Chaos.violation p "%s: query failed: %s" what m

let wait_up p env ~shard ~replica what =
  let state () = Cluster.worker_state env.cluster ~shard ~replica in
  let deadline = Unix.gettimeofday () +. 15. in
  let rec poll () =
    match state () with
    | Supervisor.Up _ -> ()
    | _ when Unix.gettimeofday () > deadline ->
      Chaos.violation p "%s: worker %d/%d not restarted (state %s)" what shard
        replica
        (Supervisor.state_to_string (state ()))
    | _ ->
      Thread.delay 0.05;
      poll ()
  in
  poll ()

let ref_entry_path env ~replica =
  Filename.concat
    (Cluster.worker_dir env.cluster ~shard:env.ref_shard ~replica)
    (env.ref_digest ^ ".fact")

(* read-repair convergence: after a query, the replica's store must
   regain the reference entry *)
let wait_repaired p env ~replica what =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec poll () =
    if Sys.file_exists (ref_entry_path env ~replica) then
      Chaos.bump p "repaired replicas"
    else if Unix.gettimeofday () > deadline then
      Chaos.violation p "%s: read-repair did not restore replica %d of shard %d"
        what replica env.ref_shard
    else begin
      ignore (cquery env);
      Thread.delay 0.1;
      poll ()
    end
  in
  poll ()

(* kill -9 a random worker while requests are in flight *)
let inject_kill p env =
  let shard = Random.State.int (Chaos.rng p) env.shards in
  let replica = Random.State.int (Chaos.rng p) env.replicas in
  let outcomes = Array.make 3 (Error "no result") in
  let clients =
    Array.init 3 (fun i ->
        Thread.create (fun () -> outcomes.(i) <- cquery env) ())
  in
  Cluster.kill_worker env.cluster ~shard ~replica;
  Array.iter Thread.join clients;
  Array.iter
    (function
      | Ok (payload, _) ->
        if String.equal payload env.creference then Chaos.recovered p
        else Chaos.violation p "kill: mid-request payload drifted"
      | Error m -> Chaos.violation p "kill: mid-request query failed: %s" m)
    outcomes;
  wait_up p env ~shard ~replica "kill";
  ccheck p env "kill"

(* corrupt the reference entry in one replica's store, then kill that
   worker: the restart must quarantine the garbage (never serve it)
   and read-repair must put the entry back *)
let inject_replica_corruption p env =
  let replica = Random.State.int (Chaos.rng p) env.replicas in
  (try scribble (Chaos.rng p) (ref_entry_path env ~replica)
   with Sys_error _ -> ());
  Cluster.kill_worker env.cluster ~shard:env.ref_shard ~replica;
  wait_up p env ~shard:env.ref_shard ~replica "corruption";
  ccheck p env "corruption";
  wait_repaired p env ~replica "corruption"

(* SIGSTOP: the worker is alive but silent; heartbeats must mark it
   down and routing must prefer its twin *)
let inject_stall p env =
  let shard = Random.State.int (Chaos.rng p) env.shards in
  let replica = Random.State.int (Chaos.rng p) env.replicas in
  Cluster.pause_worker env.cluster ~shard ~replica;
  (* two heartbeat periods at 0.2s, fail_threshold 2: health flips *)
  Thread.delay 0.6;
  ccheck p env "stall";
  Cluster.resume_worker env.cluster ~shard ~replica;
  ccheck p env "stall-resume"

(* kill every replica of the reference shard at once: the front tier
   must degrade to local evaluation rather than fail, and the shard's
   stores must be repopulated once the workers return *)
let inject_blackout p env =
  for replica = 0 to env.replicas - 1 do
    Cluster.kill_worker env.cluster ~shard:env.ref_shard ~replica
  done;
  ccheck p env "blackout";
  for replica = 0 to env.replicas - 1 do
    wait_up p env ~shard:env.ref_shard ~replica "blackout"
  done;
  ccheck p env "blackout-recovered";
  for replica = 0 to env.replicas - 1 do
    wait_repaired p env ~replica "blackout"
  done

let run_cluster ?seed ?(shards = 2) ?(replicas = 2) ~max_faults () =
  Chaos.drive ~fn:"Serve_chaos.run_cluster" ~tier:"cluster" ~salt:0xc1a5 ?seed
    ~outcomes:[ "repaired replicas" ] ~max_faults
    ~with_env:(fun p storm ->
      with_temp_dir "fact-serve-chaos" (fun dir ->
          let cfg =
            Cluster.config ~dir:(Filename.concat dir "cluster") ~shards
              ~replicas ~attempt_timeout_s:2.
              ~backoff:(Backoff.make ~base_ms:50. ~max_ms:500. ())
              ~restart_budget:max_int ~reset_after_s:0.5
              ~heartbeat_period_s:0.2 ~fail_threshold:2 ()
          in
          let cluster = Cluster.start cfg in
          Fun.protect
            ~finally:(fun () -> try Cluster.stop cluster with _ -> ())
            (fun () ->
              let env =
                {
                  cluster;
                  shards;
                  replicas;
                  creference = Query.eval ref_query;
                  ref_shard = Cluster.shard_of cluster ref_query;
                  ref_digest = Digest.of_query ref_query;
                }
              in
              (* seed the entry and let write-through replicate it *)
              ccheck p env "warmup";
              for replica = 0 to replicas - 1 do
                wait_repaired p env ~replica "warmup"
              done;
              storm env)))
    Chaos.
      [
        { kind = "kills"; inject = inject_kill };
        { kind = "replica corruptions"; inject = inject_replica_corruption };
        { kind = "stalls"; inject = inject_stall };
        { kind = "blackouts"; inject = inject_blackout };
      ]
