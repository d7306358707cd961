module Fact_error = Fact_resilience.Fact_error
module Cache = Fact_resilience.Cache
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
