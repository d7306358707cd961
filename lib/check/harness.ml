open Fact_topology
open Fact_adversary
open Fact_affine
open Fact_runtime

(* ------------------------------------------------------------------ *)
(* One-shot immediate snapshot.                                       *)
(* ------------------------------------------------------------------ *)

let views_of_report report =
  List.map
    (fun (i, view) -> (i, Immediate_snapshot.view_set view))
    (Exec.decided report)

type is_mutation = Split_snapshot

(* The split-snapshot mutant replaces the immediate write-snapshot by
   a plain write followed by a separate snapshot. Containment still
   holds (snapshots of one memory are totally ordered) but immediacy
   breaks for n >= 3, which [is-valid-views] must catch. *)
let is_make ?mutation ~n () =
  match mutation with
  | None ->
    let is = Immediate_snapshot.create n in
    let procs =
      Array.init n (fun _ pid -> Immediate_snapshot.write_snapshot is ~pid pid)
    in
    (procs, [ ("is", Immediate_snapshot.id is) ])
  | Some Split_snapshot ->
    let mem = Memory.create n in
    let procs =
      Array.init n (fun _ pid ->
          let open Proc in
          let* () = Memory.update mem ~pid pid in
          let* snap = Memory.snapshot mem in
          Array.to_list snap
          |> List.mapi (fun j c -> (j, c))
          |> List.filter_map (function
               | j, Some v -> Some (j, v)
               | _, None -> None)
          |> return)
    in
    (procs, [ ("is", Memory.id mem) ])

let is_procs ~n () = fst (is_make ~n ())

let is_named =
  [
    ( "is-valid-views",
      fun (view : _ Assertion.view) ->
        if Opart.is_valid_views (views_of_report view.Assertion.v_report) then
          Ok ()
        else
          Error
            "is-valid-views: decided views do not form a valid ordered \
             partition (self-inclusion, containment or immediacy broken)" );
  ]

let is_default_assertion =
  Assertion.All
    [ Assertion.Named "is-valid-views"; Assertion.Eventually_decides None ]

let is_subject ?mutation ?(assertion = is_default_assertion) ~n () =
  Assertion.subject ~participants:(Pset.full n)
    ~make:(fun () ->
      let procs, objects = is_make ?mutation ~n () in
      (procs, Assertion.env ~objects ~named:is_named ()))
    assertion

(* ------------------------------------------------------------------ *)
(* Algorithm 1.                                                       *)
(* ------------------------------------------------------------------ *)

let alg1_prop ~ra report =
  match List.map snd (Exec.decided report) with
  | [] -> true
  | outputs -> Complex.mem (Algorithm1.simplex_of_outputs outputs) ra

let alg1_named ~ra =
  [
    ( "in-ra",
      fun (view : _ Assertion.view) ->
        if alg1_prop ~ra view.Assertion.v_report then Ok ()
        else Error "in-ra: the decided outputs form a simplex outside R_A" );
  ]

let alg1_default_assertion =
  Assertion.All [ Assertion.Named "in-ra"; Assertion.Eventually_decides None ]

let alg1_object_names = [ "is1"; "is2"; "reg-is1"; "reg-is2"; "reg-conc" ]

let alg1_subject ?(skip_wait = false) ?mutation ?variant
    ?(assertion = alg1_default_assertion) ~alpha ~participants () =
  let n = Agreement.n alpha in
  let ra = Ra.complex ?variant alpha ~n in
  let skip_wait = skip_wait || mutation = Some Algorithm1.Skip_wait in
  Assertion.subject ~participants
    ~make:(fun () ->
      let inst = Algorithm1.create_instance ~n in
      let procs =
        Array.init n (fun _ pid ->
            Algorithm1.process ~skip_wait ?mutation inst alpha ~pid)
      in
      (procs, Assertion.env ~objects:(Algorithm1.objects inst)
                ~named:(alg1_named ~ra) ()))
    assertion

(* ------------------------------------------------------------------ *)
(* Write–snapshot–decide-min (wsmin).                                 *)
(* ------------------------------------------------------------------ *)

type wsmin_mutation = Biased_decision

let wsmin_default_proposals n = Array.init n (fun i -> 2 * i)

let wsmin_default_assertion ~k =
  Assertion.All
    [ Assertion.Validity; Assertion.Agreement k;
      Assertion.Eventually_decides None ]

let wsmin_subject ?mutation ?proposals ?k ?assertion ~n () =
  let proposals =
    match proposals with Some p -> p | None -> wsmin_default_proposals n
  in
  if Array.length proposals <> n then
    Fact_resilience.Fact_error.precondition ~fn:"Harness.wsmin_subject"
      "need one proposal per process";
  let k = match k with Some k -> k | None -> n in
  let assertion =
    match assertion with Some a -> a | None -> wsmin_default_assertion ~k
  in
  let biased = mutation = Some Biased_decision in
  let plist = Array.to_list proposals |> List.mapi (fun i v -> (i, v)) in
  Assertion.subject ~participants:(Pset.full n)
    ~make:(fun () ->
      let inst = Snapmin.create ~proposals in
      let procs =
        Array.init n (fun _ pid -> Snapmin.process ~biased inst ~pid)
      in
      (procs, Assertion.env ~objects:(Snapmin.objects inst)
                ~decisions_of:Exec.decided ~proposals:plist ()))
    assertion

(* ------------------------------------------------------------------ *)
(* Built-in assertion registry (for [fact assert list] and --assert). *)
(* ------------------------------------------------------------------ *)

type builtin = {
  b_protocol : string;
  b_name : string;
  b_doc : string;
  b_assertion : n:int -> Assertion.t;
}

let builtins =
  [
    {
      b_protocol = "is";
      b_name = "default";
      b_doc = "the full IS oracle: valid views plus termination";
      b_assertion = (fun ~n:_ -> is_default_assertion);
    };
    {
      b_protocol = "is";
      b_name = "is-valid-views";
      b_doc = "decided views form a valid ordered set partition";
      b_assertion = (fun ~n:_ -> Assertion.Named "is-valid-views");
    };
    {
      b_protocol = "is";
      b_name = "termination";
      b_doc = "every participant decides or crashes (vacuous when cut)";
      b_assertion = (fun ~n:_ -> Assertion.Eventually_decides None);
    };
    {
      b_protocol = "alg1";
      b_name = "default";
      b_doc = "the full Theorem 7 oracle: outputs in R_A plus termination";
      b_assertion = (fun ~n:_ -> alg1_default_assertion);
    };
    {
      b_protocol = "alg1";
      b_name = "in-ra";
      b_doc = "decided outputs form a simplex of R_A (Theorem 7 safety)";
      b_assertion = (fun ~n:_ -> Assertion.Named "in-ra");
    };
    {
      b_protocol = "alg1";
      b_name = "termination";
      b_doc = "every participant decides or crashes (vacuous when cut)";
      b_assertion = (fun ~n:_ -> Assertion.Eventually_decides None);
    };
    {
      b_protocol = "alg1";
      b_name = "footprint";
      b_doc =
        "frame condition: processes only touch the two IS objects and \
         the three registers";
      b_assertion =
        (fun ~n -> Assertion.Frame (Pset.full n, alg1_object_names));
    };
    {
      b_protocol = "wsmin";
      b_name = "default";
      b_doc = "validity, n-agreement and termination";
      b_assertion = (fun ~n -> wsmin_default_assertion ~k:n);
    };
    {
      b_protocol = "wsmin";
      b_name = "validity";
      b_doc = "every decided value was proposed";
      b_assertion = (fun ~n:_ -> Assertion.Validity);
    };
    {
      b_protocol = "wsmin";
      b_name = "agreement-1";
      b_doc = "consensus agreement: at most one distinct decided value \
               (has counterexamples — wsmin does not solve consensus)";
      b_assertion = (fun ~n:_ -> Assertion.Agreement 1);
    };
    {
      b_protocol = "wsmin";
      b_name = "termination";
      b_doc = "every participant decides or crashes (vacuous when cut)";
      b_assertion = (fun ~n:_ -> Assertion.Eventually_decides None);
    };
  ]

let builtin ~protocol name =
  List.find_opt
    (fun b -> b.b_protocol = protocol && b.b_name = name)
    builtins

(* ------------------------------------------------------------------ *)
(* Ready-made explorations.                                           *)
(* ------------------------------------------------------------------ *)

(* The checkpoint plumbing shared by the explorations: a resumed
   checkpoint must name this protocol and universe, and every emitted
   snapshot is wrapped with them (plus [parts snapshot], the IS
   harness's observed partitions). *)
let explore ~fn ~protocol ?(parts = fun _ -> []) ~config ?stop_on_violation
    ?classify ?resume ?checkpoint_every ?on_checkpoint ?domains ~n
    ~participants ~subject () =
  let resume =
    Option.map
      (fun (ck : Checkpoint.t) ->
        if ck.protocol <> protocol then
          Fact_resilience.Fact_error.precondition ~fn
            (Printf.sprintf "checkpoint is for protocol %S, not %S"
               ck.protocol protocol);
        if ck.n <> n || not (Pset.equal ck.participants participants) then
          Fact_resilience.Fact_error.precondition ~fn
            "checkpoint universe does not match";
        ck.state)
      resume
  in
  let on_checkpoint =
    Option.map
      (fun f state ->
        f { Checkpoint.protocol; n; participants; state; parts = parts state })
      on_checkpoint
  in
  Explore.explore ~config ?stop_on_violation ?classify ?resume
    ?checkpoint_every ?on_checkpoint ?domains ~n ~participants ~subject ()

let explore_immediate_snapshot ?(max_depth = 64) ?(max_runs = 100_000)
    ?mutation ?assertion ?stop_on_violation ?resume ?checkpoint_every
    ?on_checkpoint ?domains ~n () =
  (* A completed run's ordered partition is its class, as block masks;
     the explorer keeps the distinct classes per subtree task, the way
     it keeps crash patterns. Partitions of a resumed checkpoint were
     observed before the resume and join the union. *)
  let classify (outcome : _ Explore.outcome) =
    if outcome.truncated then None
    else
      Option.map
        (fun part -> List.map Pset.to_mask (Opart.blocks part))
        (Opart.of_views (views_of_report outcome.report))
  in
  let base = match resume with Some ck -> ck.Checkpoint.parts | None -> [] in
  let parts_of classes =
    List.sort_uniq Opart.compare
      (base @ List.map (fun c -> Opart.make (List.map Pset.of_mask c)) classes)
  in
  let snapshot_parts (snap : Explore.snapshot) =
    parts_of
      (List.concat_map
         (fun st ->
           match st.Explore.progress with
           | Explore.Todo -> []
           | Explore.Done t | Explore.Active (t, _) -> t.Explore.t_classes)
         snap)
  in
  let stats =
    explore ~fn:"Harness.explore_immediate_snapshot" ~protocol:"is"
      ~parts:snapshot_parts
      ~config:(Explore.config ~max_depth ~max_runs ())
      ?stop_on_violation ~classify ?resume ?checkpoint_every
      ?on_checkpoint ?domains ~n ~participants:(Pset.full n)
      ~subject:(is_subject ?mutation ?assertion ~n ())
      ()
  in
  (stats, parts_of stats.Explore.classes)

let explore_algorithm1 ?(skip_wait = false) ?mutation ?variant ?assertion
    ?max_crashes ?(max_depth = 64) ?(max_runs = 100_000) ?stop_on_violation
    ?resume ?checkpoint_every ?on_checkpoint ?domains ~alpha ~participants () =
  let n = Agreement.n alpha in
  let max_crashes =
    match max_crashes with
    | Some c -> c
    | None -> (
      match Agreement.max_faulty alpha participants with
      | Some t -> t
      | None -> 0)
  in
  explore ~fn:"Harness.explore_algorithm1" ~protocol:"alg1"
    ~config:
      (Explore.config ~max_crashes ~crashable:participants ~max_depth
         ~max_runs ())
    ?stop_on_violation ?resume ?checkpoint_every ?on_checkpoint ?domains ~n
    ~participants
    ~subject:
      (alg1_subject ~skip_wait ?mutation ?variant ?assertion ~alpha
         ~participants ())
    ()

let explore_snapmin ?mutation ?proposals ?k ?assertion ?(max_depth = 64)
    ?(max_runs = 100_000) ?stop_on_violation ?resume ?checkpoint_every
    ?on_checkpoint ?domains ~n () =
  explore ~fn:"Harness.explore_snapmin" ~protocol:"wsmin"
    ~config:(Explore.config ~max_depth ~max_runs ())
    ?stop_on_violation ?resume ?checkpoint_every ?on_checkpoint ?domains ~n
    ~participants:(Pset.full n)
    ~subject:(wsmin_subject ?mutation ?proposals ?k ?assertion ~n ())
    ()
