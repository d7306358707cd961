(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name ("<library>.<call>"), the op it belongs to, its
   parent span (0 for a root) and its wall-clock interval. Spans stay
   in memory while the workload runs and are written as JSONL at the
   end, so recording costs one allocation and two clock reads. *)

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

(* Client threads share a recorder, hence the lock. *)
type recorder = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let recorder () = { spans = []; next = 1; lock = Mutex.create () }

(* Like [record], handing [f] the new span's id so that the calls it
   makes can record their spans as its children. *)
let nest r ?(parent = 0) ~op name f =
  let id =
    Mutex.protect r.lock (fun () ->
        let id = r.next in
        r.next <- id + 1;
        id)
  in
  let t0 = Unix.gettimeofday () in
  let v = f id in
  let t1 = Unix.gettimeofday () in
  Mutex.protect r.lock (fun () -> r.spans <- { id; parent; op; name; t0; t1 } :: r.spans);
  v

(* [f] runs inside a new span. *)
let record r ?parent ~op name f = nest r ?parent ~op name (fun _ -> f ())

let spans r = Mutex.protect r.lock (fun () -> List.rev r.spans)
let duration s = s.t1 -. s.t0

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: a span's duration minus the part of it that its direct
   children cover (overlapping children are counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    spans

(* Total self time per span name, in seconds, in first-seen order. *)
let self_by_name spans =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some t -> Hashtbl.replace tbl s.name (t +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.add tbl s.name self)
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let to_json ~workload s =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("op", Json.Num (float_of_int s.op));
      ("id", Json.Num (float_of_int s.id));
      ("parent", Json.Num (float_of_int s.parent));
      ("name", Json.Str s.name);
      ("start_us", Json.Num (Float.round (s.t0 *. 1e6)));
      ("dur_us", Json.Num (duration s *. 1e6));
    ]

let write_jsonl ~workload path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (to_json ~workload s));
          output_char oc '\n')
        spans)
