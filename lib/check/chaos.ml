open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_resilience

(* ------------------------------ driver ------------------------------ *)

type stats = {
  tier : string;
  injected : int;
  faults : (string * int) list;
  outcomes : (string * int) list;
  typed_errors : int;
  recovered : int;
  violations : string list;
}

let count s name =
  Option.value ~default:0 (List.assoc_opt name (s.faults @ s.outcomes))

type probe = {
  rng : Random.State.t;
  counts : (string * int ref) list;
  mutable typed : int;
  mutable recovered : int;
  mutable violations : string list;  (* newest first *)
}

type 'env fault = { kind : string; inject : probe -> 'env -> unit }

let rng p = p.rng
let bump p name = incr (List.assoc name p.counts)
let typed p = p.typed <- p.typed + 1
let recovered p = p.recovered <- p.recovered + 1

let violation p fmt =
  Printf.ksprintf (fun m -> p.violations <- m :: p.violations) fmt

let drive ~fn ~tier ~salt ?(seed = 0) ?(outcomes = []) ~max_faults ~with_env
    faults =
  if max_faults < 1 then Fact_error.precondition ~fn "max_faults must be >= 1";
  let table = Array.of_list faults in
  let kinds = List.map (fun f -> f.kind) faults in
  let p =
    {
      rng = Random.State.make [| seed; salt |];
      counts = List.map (fun k -> (k, ref 0)) (kinds @ outcomes);
      typed = 0;
      recovered = 0;
      violations = [];
    }
  in
  let audit = Cache.checking () in
  Fun.protect
    ~finally:(fun () -> Cache.set_check audit)
    (fun () ->
      with_env p (fun env ->
          for _ = 1 to max_faults do
            let f = table.(Random.State.int p.rng (Array.length table)) in
            bump p f.kind;
            try f.inject p env
            with e ->
              violation p "%s: uncaught %s" f.kind (Printexc.to_string e)
          done));
  let tally names = List.map (fun k -> (k, !(List.assoc k p.counts))) names in
  {
    tier;
    injected = max_faults;
    faults = tally kinds;
    outcomes = tally outcomes;
    typed_errors = p.typed;
    recovered = p.recovered;
    violations = List.rev p.violations;
  }

let pp_stats ppf s =
  let pp_count ppf (k, c) = Format.fprintf ppf "%s %d" k c in
  Format.fprintf ppf "%s: injected %d (%a)" s.tier s.injected
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_count)
    s.faults;
  List.iter (Format.fprintf ppf " %a" pp_count) s.outcomes;
  Format.fprintf ppf " typed errors %d recovered %d violations %d"
    s.typed_errors s.recovered (List.length s.violations)

(* ---------------------------- pipeline ----------------------------- *)

type pipeline = {
  refs : (Agreement.t * Complex.t) list;
  explore_ref : ((int * int) list Explore.stats * Opart.t list) Lazy.t;
}

(* The fan-out workload: big enough to split into several chunks. *)
let items = List.init 60 Fun.id
let f_ref x = (x * x) + 1
let expected = List.map f_ref items

let trip p =
  bump p "cancel trips";
  typed p

(* Fault-free recompute of every reference; true when all match. *)
let check_pipeline p env what =
  List.fold_left
    (fun ok (a, reference) ->
      match Ra.complex a ~n:3 with
      | c when Complex.equal c reference -> ok
      | _ ->
        violation p "%s: R_A differs from the fault-free reference" what;
        false
      | exception e ->
        violation p "%s: fault-free recompute raised %s" what
          (Printexc.to_string e);
        false)
    true env.refs

(* Deterministic worker crash: must aggregate to Worker_failure and
   leave the fan-out reusable. *)
let worker_crash p _ =
  let bad = Random.State.int p.rng (List.length items) in
  let crash x =
    if x = bad then failwith "chaos: injected worker crash" else f_ref x
  in
  (match Parallel.map ~domains:4 crash items with
  | _ -> violation p "worker crash: deterministic fault returned a result"
  | exception Fact_error.Error (Fact_error.Worker_failure _) -> typed p
  | exception e ->
    violation p "worker crash: untyped escape %s" (Printexc.to_string e));
  if Parallel.map ~domains:4 f_ref items = expected then recovered p
  else violation p "worker crash: post-fault fan-out is wrong"

(* Transient fault: fails the first time only; the sequential retry
   must recover the exact reference result. *)
let transient p _ =
  let bad = Random.State.int p.rng (List.length items) in
  let lock = Mutex.create () in
  let tripped = ref false in
  let f x =
    if x = bad then begin
      Mutex.lock lock;
      let first = not !tripped in
      tripped := true;
      Mutex.unlock lock;
      if first then failwith "chaos: transient worker fault"
    end;
    f_ref x
  in
  if Parallel.map ~domains:4 f items = expected then recovered p
  else violation p "transient: retried result differs from reference"

(* Mid-pipeline cancellation: trips after a random number of polls;
   outcome must be the reference result or a typed Cancelled, and the
   pipeline must stay healthy afterwards. *)
let cancel p env =
  let alpha, reference = List.nth env.refs (Random.State.int p.rng 2) in
  let tok = Cancel.create ~trip_after:(Random.State.int p.rng 40) () in
  (match Cancel.with_token tok (fun () -> Ra.complex alpha ~n:3) with
  | c when Complex.equal c reference -> recovered p
  | _ -> violation p "cancel: completed run differs from reference"
  | exception Fact_error.Error (Fact_error.Cancelled _) -> trip p
  | exception e ->
    violation p "cancel: untyped escape %s" (Printexc.to_string e));
  ignore (check_pipeline p env "cancel")

(* Explore storm: cancel a pooled parallel exploration mid-search, then
   resume fault-free from the snapshot flushed on the trip; the resumed
   stats must be bit-identical to the uninterrupted reference. *)
let explore_storm p env =
  let ref_stats, ref_parts = Lazy.force env.explore_ref in
  let saved = ref None in
  let tok = Cancel.create ~trip_after:(1 + Random.State.int p.rng 2500) () in
  let stats, parts =
    match
      Cancel.with_token tok (fun () ->
          Harness.explore_immediate_snapshot ~n:3 ~checkpoint_every:100
            ~on_checkpoint:(fun ck -> saved := Some ck)
            ~domains:4 ())
    with
    | r -> r
    | exception Fact_error.Error (Fact_error.Cancelled _) ->
      trip p;
      Harness.explore_immediate_snapshot ?resume:!saved ~domains:4 ~n:3 ()
  in
  if
    stats.Explore.runs = ref_stats.Explore.runs
    && stats.Explore.truncated = ref_stats.Explore.truncated
    && stats.Explore.pruned = ref_stats.Explore.pruned
    && stats.Explore.crash_patterns = ref_stats.Explore.crash_patterns
    && List.equal Opart.equal parts ref_parts
  then recovered p
  else violation p "explore storm: resumed stats differ from reference"

(* Assertion sweep: a random seeded mutant must still be caught by the
   DSL, with a shrunk counterexample that replays standalone. A
   surviving mutant means the assertion suite lost its teeth. *)
let assertion_sweep p _ =
  let spec =
    List.nth Mutant.all (Random.State.int p.rng (List.length Mutant.all))
  in
  match Mutant.hunt ~max_runs:20_000 spec with
  | Ok _ -> recovered p
  | Error msg -> violation p "assertion sweep: %s" msg

(* Forced eviction under recompute-equality checking: the recomputed
   pipeline must match; a cache that recomputes a different value
   raises from inside [find_or_add]. *)
let eviction p env =
  Cache.force_evict_all ();
  if check_pipeline p env "evict" then recovered p

let run ?seed ~max_faults () =
  drive ~fn:"Chaos.run" ~tier:"pipeline" ~salt:0xc4a05 ?seed
    ~outcomes:[ "cancel trips" ] ~max_faults
    ~with_env:(fun _ storm ->
      (* Two agreement functions so cache keys for distinct α coexist
         under chaos; the audit stays on for the whole storm so every
         eviction is checked. *)
      let alphas =
        [
          Agreement.of_adversary (Adversary.t_resilient ~n:3 ~t:1);
          Agreement.of_adversary (Adversary.wait_free 3);
        ]
      in
      let refs = List.map (fun a -> (a, Ra.complex a ~n:3)) alphas in
      Cache.set_check true;
      let explore_ref = lazy (Harness.explore_immediate_snapshot ~n:3 ()) in
      storm { refs; explore_ref })
    [
      { kind = "worker crash"; inject = worker_crash };
      { kind = "transient"; inject = transient };
      { kind = "cancel"; inject = cancel };
      { kind = "explore storms"; inject = explore_storm };
      { kind = "assertion sweeps"; inject = assertion_sweep };
      { kind = "evictions"; inject = eviction };
    ]
