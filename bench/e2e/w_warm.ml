(* serve-warm: the real [fact serve], driven through [Client.query].

   Once every key has been computed, a request never evaluates
   anything: it crosses the wire, the listener, the scheduler and the
   result cache. The fill phase that computes the keys goes through the
   same scheduler and writes each result to the store (with fsync). *)

module F = Fact_core.Fact
open Common

let conns = 2
let rate = 4000.

(* Tail latency is taken per half-second window (see
   [Openloop.window_percentiles]): 2000 requests a window at 4000 req/s. *)
let windows duration = max 1 (int_of_float (duration /. 0.5))

type server = { pid : int; addr : F.Listener.addr }

type state = {
  keys : F.Query.t array;
  refs : string array;
  server : server;
}

(* The socket path is relative to the working directory (which the
   server inherits), keeping it under the length limit of a Unix socket
   path however deep the checkout is. *)
let spawn ctx ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "fact.sock" in
  let log =
    Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process ctx.fact_exe
          [| ctx.fact_exe; "serve"; "--addr"; "unix:" ^ sock; "--store"; Filename.concat dir "store" |]
          null log log)
  in
  children := pid :: !children;
  let server = { pid; addr = F.Listener.Unix_sock sock } in
  let give_up = now () +. 30. in
  let rec wait_ready () =
    match F.Client.with_connection ~timeout_s:5. server.addr F.Client.ping with
    | () -> server
    | exception F.Fact_error.Error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("fact serve exited early; see " ^ Filename.concat dir "server.log"));
      if now () > give_up then failwith "fact serve did not become ready";
      Thread.delay 0.005;
      wait_ready ()
  in
  wait_ready ()

(* Ask the server to stop and wait for it; kill it if it does not. *)
let stop s =
  (try F.Client.with_connection ~timeout_s:5. s.addr F.Client.shutdown
   with F.Fact_error.Error _ -> ());
  let give_up = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < give_up -> Thread.delay 0.01; reap ()
    | 0, _ -> Unix.kill s.pid Sys.sigkill; ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  children := List.filter (( <> ) s.pid) !children

let setup_count = ref 0

let setup ctx () =
  let keys = Inputs.warm_keys ~seed:ctx.seed in
  F.Cache.clear_all ();
  let refs = Array.map (fun q -> corrupt_payload ctx (F.Query.eval q)) keys in
  incr setup_count;
  let dir = Filename.concat ctx.tmp (Printf.sprintf "serve-%d" !setup_count) in
  { keys; refs; server = spawn ctx ~dir }

type counts = { computed : int Atomic.t; memory : int Atomic.t; disk : int Atomic.t }

let counts () = { computed = Atomic.make 0; memory = Atomic.make 0; disk = Atomic.make 0 }

(* One request over [c]: whether the payload was the reference. *)
let ask st counts c k =
  match F.Client.query c st.keys.(k) with
  | payload, source ->
    Atomic.incr
      (match source with
      | F.Wire.Computed -> counts.computed
      | F.Wire.Memory -> counts.memory
      | F.Wire.Disk -> counts.disk);
    String.equal payload st.refs.(k)
  | exception F.Fact_error.Error _ -> false

let with_conns st f =
  let cs = Array.init conns (fun _ -> F.Client.connect ~timeout_s:10. st.server.addr) in
  Fun.protect ~finally:(fun () -> Array.iter F.Client.close cs) (fun () -> f cs)

(* Closed loop over [conns] connections: each sends its next request
   when the previous one is answered, taking keys from [next_key] until
   it returns [None]. [around] wraps each request (the traced run puts
   a span there). Returns per-request (seconds, ok). *)
let closed ?(around = fun f -> f ()) st counts cs next_key =
  let lock = Mutex.create () in
  let out = ref [] in
  let worker c () =
    let rec loop acc =
      match Mutex.protect lock next_key with
      | None -> Mutex.protect lock (fun () -> out := acc @ !out)
      | Some k ->
        let t0 = now () in
        let ok = around (fun () -> ask st counts c k) in
        loop ((now () -. t0, ok) :: acc)
    in
    loop []
  in
  Array.to_list cs |> List.map (fun c -> Thread.create (worker c) ()) |> List.iter Thread.join;
  Array.of_list !out

(* First touch of every key: computed by the server and written
   through to its store. *)
let fill st counts cs =
  let next = ref 0 in
  let t0 = now () in
  let res =
    closed st counts cs (fun () ->
        if !next < Array.length st.keys then (incr next; Some (!next - 1)) else None)
  in
  (res, now () -. t0)

(* Open loop at [rate] for [duration] seconds; the stream id keeps the
   arrivals and keys of each phase distinct but seeded. *)
let open_loop ctx st counts cs ~stream ~rate ~duration =
  let offsets = Openloop.poisson (Inputs.rng ~seed:ctx.seed stream) ~rate ~duration in
  let picks =
    Inputs.warm_picks ~seed:ctx.seed ~stream:(stream + 1) ~keys:(Array.length st.keys)
      (Array.length offsets)
  in
  let t0 = now () +. 0.01 in
  Openloop.drive ~workers:conns
    ~due:(Array.map (fun o -> t0 +. o) offsets)
    (fun w i -> ask st counts cs.(w) picks.(i))

(* A closed loop over [cs] for [duration]: its requests, and the
   seconds they took together. *)
let capacity ?around ctx st counts cs ~stream ~duration =
  let picks = Inputs.warm_picks ~seed:ctx.seed ~stream ~keys:(Array.length st.keys) 4096 in
  let i = ref 0 in
  let stop = now () +. duration in
  let t0 = now () in
  let res =
    closed ?around st counts cs (fun () ->
        if now () < stop then begin
          incr i;
          Some picks.(!i mod Array.length picks)
        end
        else None)
  in
  (res, now () -. t0)

let per_s (res, seconds) = float_of_int (Array.length res) /. seconds

let oks out = Array.map (fun o -> o.Openloop.ok) out

(* Attempted and failed requests, over every phase. *)
type tally = { add : bool array -> unit; attempted : unit -> int; failed : unit -> int }

let tally () =
  let attempted = ref 0 and failed = ref 0 in
  {
    add =
      (fun oks ->
        attempted := !attempted + Array.length oks;
        Array.iter (fun ok -> if not ok then incr failed) oks);
    attempted = (fun () -> !attempted);
    failed = (fun () -> !failed);
  }

(* The measured time is cut into slices of about [slice_s] seconds:
   two thirds of each at [rate] in the open loop over both connections,
   then a third in a closed loop over one connection, so that both
   sample every phase of the machine. One connection, because the two
   client threads share one OCaml runtime lock: over two, the closed
   loop's rate followed the client's lock hand-offs as much as the
   server. The gauge is probed before each part of a slice, and every
   time in the part is rescaled by the probes around it. *)
let slice_s = 3.

(* A part of a slice: when it ran, and what it measured. *)
type 'a part = { t0 : float; t1 : float; got : 'a }

let timed f =
  let t0 = now () in
  let got = f () in
  { t0; t1 = now (); got }

let run ctx =
  let gauge = Gauge.create () in
  let st, setup_s = repeated_setup ~discard:(fun st -> stop st.server) ~gauge (setup ctx) in
  Fun.protect ~finally:(fun () -> stop st.server) @@ fun () ->
  with_conns st @@ fun cs ->
  let counts = counts () in
  let tally = tally () in
  let filled, _ = fill st counts cs in
  tally.add (Array.map snd filled);
  let slices = max 1 (int_of_float (Float.round (ctx.seconds /. slice_s))) in
  let each = ctx.seconds /. float_of_int slices in
  let open_s = 2. *. each /. 3. and closed_s = each /. 3. in
  let opens = ref [] and closeds = ref [] in
  for i = 0 to slices - 1 do
    Gauge.measure gauge;
    let o = timed (fun () -> open_loop ctx st counts cs ~stream:(10 + (3 * i)) ~rate ~duration:open_s) in
    tally.add (oks o.got);
    opens := o :: !opens;
    Gauge.measure gauge;
    let c =
      timed (fun () -> capacity ctx st counts [| cs.(0) |] ~stream:(12 + (3 * i)) ~duration:closed_s)
    in
    tally.add (Array.map snd (fst c.got));
    closeds := c :: !closeds
  done;
  Gauge.measure gauge;
  print_gauge gauge;
  let factor p = Gauge.factor gauge ~t0:p.t0 ~t1:p.t1 in
  let latencies =
    List.map (fun p -> Array.map (fun o -> Openloop.latency o *. factor p) p.got) !opens
  in
  let all = Array.concat latencies and n = ref 0 and busy = ref 0. in
  List.iter
    (fun p ->
      let res, seconds = p.got in
      n := !n + Array.length res;
      busy := !busy +. (seconds *. factor p))
    !closeds;
  (* the median of the per-window p95s: a stall of the shared host
     moves the windows it lands in, not the run's figure *)
  let p95 =
    Stats.median
      (Array.concat (List.map (Openloop.window_percentiles ~windows:(windows open_s) ~p:95.) latencies))
  in
  let rss = peak_rss_mb ~pid:(string_of_int st.server.pid) () in
  {
    attempted = tally.attempted ();
    failed = tally.failed ();
    metrics =
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:!n "ops_per_s" "1/s" (float_of_int !n /. !busy);
        metric ~samples:(Array.length all) "p50_ms" "ms" (Stats.percentile all 50. *. 1000.);
        metric ~samples:(Array.length all) "p95_ms" "ms" (p95 *. 1000.);
        metric "peak_rss_mb" "MB" rss ];
  }

(* ------------------------------ trace ------------------------------ *)

(* In-process probes of the layers a warm request crosses, on this
   run's own keys and reference payloads, [reps] passes over the keys
   in one span each: the wire codec (the writer the listener and client
   render frames with, and the parser they read frames with), the
   scheduler on its result cache, the store, and evaluation. *)
let probes ctx st r ~reps =
  let n = Array.length st.keys in
  let requests = Array.map (fun query -> F.Wire.Query { query; deadline_s = None }) st.keys in
  let responses =
    Array.map (fun payload -> F.Wire.Payload { payload; source = F.Wire.Memory }) st.refs
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let w = F.Wire.writer null in
  let req_text = Array.map (fun q -> F.Sexp.to_string (F.Wire.request_to_sexp q)) requests in
  let resp_text = Array.map (fun p -> F.Sexp.to_string (F.Wire.response_to_sexp p)) responses in
  let parse text of_sexp =
    match F.Sexp.of_substring text ~pos:0 ~len:(String.length text) with
    | Ok sx -> ignore (of_sexp sx)
    | Error e -> failwith e
  in
  for op = 1 to reps do
    Span.record r ~op "serve.wire_encode" (fun () ->
        for k = 0 to n - 1 do
          F.Wire.write_request w requests.(k);
          F.Wire.write_response w responses.(k)
        done);
    Span.record r ~op "serve.wire_decode" (fun () ->
        for k = 0 to n - 1 do
          parse req_text.(k) F.Wire.request_of_sexp;
          parse resp_text.(k) F.Wire.response_of_sexp
        done)
  done;
  Unix.close null;
  let sched = F.Scheduler.create () in
  let submit q =
    match F.Scheduler.submit sched q with
    | Ok _ -> ()
    | Error e -> failwith ("in-process scheduler: " ^ F.Fact_error.to_string e)
  in
  Array.iter submit st.keys;
  for op = 1 to reps do
    Span.record r ~op "serve.scheduler_submit" (fun () -> Array.iter submit st.keys)
  done;
  F.Scheduler.shutdown sched;
  let store = F.Store.open_dir (Filename.concat ctx.tmp "store-probe") in
  let digests = Array.map F.Serve_digest.of_query st.keys in
  Span.record r ~op:1 "serve.store_put" (fun () ->
      Array.iteri
        (fun k q -> F.Store.put store ~digest:digests.(k) ~query:(F.Query.to_sexp q) ~payload:st.refs.(k))
        st.keys);
  Span.record r ~op:1 "serve.store_get" (fun () ->
      Array.iter (fun digest -> ignore (F.Store.get store ~digest)) digests);
  F.Cache.clear_all ();
  Span.record r ~op:1 "serve.eval" (fun () -> Array.iter (fun q -> ignore (F.Query.eval q)) st.keys)

let reps = 20

let trace ctx r =
  let st = setup ctx () in
  Fun.protect ~finally:(fun () -> stop st.server) @@ fun () ->
  let counts = counts () in
  let tally = tally () in
  let fill_rate, steady, untraced, overhead =
    with_conns st @@ fun cs ->
    let filled, fill_s = fill st counts cs in
    tally.add (Array.map snd filled);
    let steady = open_loop ctx st counts cs ~stream:10 ~rate ~duration:(0.4 *. ctx.seconds) in
    tally.add (oks steady);
    (* untraced and traced closed loops alternate, so neither half
       gets the warmer server *)
    let slice = 0.05 *. ctx.seconds in
    let untraced = ref [] and traced = ref [] in
    let one = [| cs.(0) |] in
    for _ = 1 to 3 do
      let u = capacity ctx st counts one ~stream:9 ~duration:slice in
      let t =
        capacity ~around:(fun f -> Span.record r ~op:0 "serve.rtt" f) ctx st counts one ~stream:9 ~duration:slice
      in
      List.iter (fun (res, _) -> tally.add (Array.map snd res)) [ u; t ];
      untraced := u :: !untraced;
      traced := t :: !traced
    done;
    let rate l = List.fold_left (fun a c -> a +. per_s c) 0. l in
    let untraced_res = Array.concat (List.map fst !untraced) in
    (float_of_int (Array.length filled) /. fill_s, steady, untraced_res, rate !untraced /. rate !traced)
  in
  probes ctx st r ~reps;
  let n = Array.length st.keys in
  let spans = Span.spans r in
  let per_key name passes =
    List.fold_left
      (fun acc s -> if s.Span.name = name then acc +. Span.duration s else acc)
      0. spans
    /. float_of_int (passes * n)
  in
  let encode = per_key "serve.wire_encode" reps and decode = per_key "serve.wire_decode" reps in
  let submit = per_key "serve.scheduler_submit" reps in
  let rtt = Stats.median (Array.map fst untraced) in
  let late = Stats.percentile (Array.map Openloop.lateness steady) 99. in
  let p name = "serve-warm." ^ name in
  let count name c = metric (p name) "count" (float_of_int (Atomic.get c)) in
  let probe name unit_ scale v = metric ~samples:n (p name) unit_ (v *. scale) in
  let n_rtt = Array.length untraced in
  {
    attempted = tally.attempted ();
    failed = tally.failed ();
    metrics =
      [ metric ~samples:(reps * n) (p "serve.wire_encode_us") "us" (encode *. 1e6);
        metric ~samples:(reps * n) (p "serve.wire_decode_us") "us" (decode *. 1e6);
        metric ~samples:(reps * n) (p "serve.scheduler_submit_us") "us" (submit *. 1e6);
        metric ~samples:n_rtt (p "serve.rtt_us") "us" (rtt *. 1e6);
        metric ~samples:n_rtt (p "serve.socket_us") "us" ((rtt -. encode -. decode -. submit) *. 1e6);
        count "serve.source_computed" counts.computed;
        count "serve.source_memory" counts.memory;
        count "serve.source_disk" counts.disk;
        metric ~samples:(Array.length steady) (p "loadgen.late_ms") "ms" (late *. 1000.);
        probe "serve.eval_ms" "ms" 1000. (per_key "serve.eval" 1);
        probe "serve.store_put_ms" "ms" 1000. (per_key "serve.store_put" 1);
        probe "serve.store_get_ms" "ms" 1000. (per_key "serve.store_get" 1);
        probe "serve.fill_ops_per_s" "1/s" 1. fill_rate;
        metric ~samples:n_rtt (p "trace.overhead") "ratio" overhead ];
  }
