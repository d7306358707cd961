open Fact_sexp
module Fact_error = Fact_resilience.Fact_error

let store_version = 1
let suffix = ".fact"

type stats = {
  puts : int;
  gets : int;
  hits : int;
  misses : int;
  corrupt : int;
  swept : int;
}

type t = {
  dir : string;
  lock : Mutex.t;
  mutable puts : int;
  mutable gets : int;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable swept : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A crashed writer leaves a [.<digest>...tmp] behind; it was never
   renamed, so it holds no committed data — sweep it at boot. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f ".tmp" then (
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n + 1)
        else n)
      0 files

let open_dir dir =
  mkdir_p dir;
  (match Sys.is_directory dir with
  | true -> ()
  | false | (exception Sys_error _) ->
    Fact_error.precondition ~fn:"Store.open_dir"
      (Printf.sprintf "%s is not a directory" dir));
  let swept = sweep_tmp dir in
  { dir; lock = Mutex.create (); puts = 0; gets = 0; hits = 0; misses = 0;
    corrupt = 0; swept }

let dir t = t.dir

let counted t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path t digest = Filename.concat t.dir (digest ^ suffix)

let entry_sexp ~digest ~query ~payload =
  Sexp.List
    [
      Sexp.List [ Sexp.Atom "store-version"; Sexp.int store_version ];
      Sexp.List [ Sexp.Atom "code"; Sexp.Atom Digest.code_version ];
      Sexp.List [ Sexp.Atom "digest"; Sexp.Atom digest ];
      Sexp.List [ Sexp.Atom "query"; query ];
      Sexp.List [ Sexp.Atom "payload"; Sexp.Atom payload ];
    ]

let put t ~digest ~query ~payload =
  let final = path t digest in
  let tmp =
    Filename.temp_file ~temp_dir:t.dir ("." ^ digest) ".tmp"
  in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Sexp.to_string (entry_sexp ~digest ~query ~payload));
      output_char oc '\n';
      (* fsync before the rename: a worker killed mid-put must never
         commit a truncated entry under a valid name. Without it the
         rename can hit disk before the data does. *)
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp final;
  counted t (fun () -> t.puts <- t.puts + 1)

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let parse_entry ~digest s =
  let* sx = Sexp.of_string (String.trim s) in
  let* v = Sexp.assoc "store-version" sx in
  let* v = Sexp.to_int v in
  let* code = Sexp.assoc "code" sx in
  let* code = Sexp.to_atom code in
  let* d = Sexp.assoc "digest" sx in
  let* d = Sexp.to_atom d in
  let* query = Sexp.assoc "query" sx in
  let* payload = Sexp.assoc "payload" sx in
  let* payload = Sexp.to_atom payload in
  if v <> store_version then Error "stale store version"
  else if code <> Digest.code_version then Error "stale code version"
  else if d <> digest then Error "digest mismatch"
  else Ok (query, payload)

(* A failed read drops the entry: stale and corrupt files degrade to
   recomputes instead of accumulating. *)
let read_valid t digest =
  let file = path t digest in
  match
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | exception End_of_file -> None
  | s -> (
    match parse_entry ~digest s with
    | Ok entry -> Some entry
    | Error _ ->
      (try Sys.remove file with Sys_error _ -> ());
      counted t (fun () -> t.corrupt <- t.corrupt + 1);
      None)

let get t ~digest =
  counted t (fun () -> t.gets <- t.gets + 1);
  match read_valid t digest with
  | Some (_, payload) ->
    counted t (fun () -> t.hits <- t.hits + 1);
    Some payload
  | None ->
    counted t (fun () -> t.misses <- t.misses + 1);
    None

let digests_on_disk t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter_map (fun f ->
           if Filename.check_suffix f suffix then
             Some (Filename.chop_suffix f suffix)
           else None)
    |> List.sort compare

let iter t f =
  List.iter
    (fun digest ->
      match read_valid t digest with
      | Some (query, payload) -> f ~digest ~query ~payload
      | None -> ())
    (digests_on_disk t)

let entries t = List.length (digests_on_disk t)

let stats t =
  counted t (fun () ->
      { puts = t.puts; gets = t.gets; hits = t.hits; misses = t.misses;
        corrupt = t.corrupt; swept = t.swept })
