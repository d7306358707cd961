type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  cap : int;
}

let env_cap =
  match Sys.getenv_opt "FACT_CACHE_CAP" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 65536)
  | None -> 65536

let default = Atomic.make env_cap
let default_cap () = Atomic.get default
let set_default_cap c = Atomic.set default c

let env_check =
  match Sys.getenv_opt "FACT_CACHE_CHECK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let check_flag = Atomic.make env_check
let set_check b = Atomic.set check_flag b
let checking () = Atomic.get check_flag

(* Evicted entries parked for the recompute-equality check are bounded
   too: a runaway shadow would defeat the point of capping. *)
let shadow_cap = 4096

(* Registry of every live cache, as closures so instantiations of the
   functor below can all be driven together. *)
type handle = {
  name : string;
  get_stats : unit -> stats;
  do_clear : unit -> unit;
  do_force_evict : unit -> unit;
  do_reset : unit -> unit;
}

let registry_lock = Mutex.create ()
let registry : handle list ref = ref []

let register h =
  Mutex.lock registry_lock;
  registry := h :: !registry;
  Mutex.unlock registry_lock

let with_registry f =
  Mutex.lock registry_lock;
  let hs = !registry in
  Mutex.unlock registry_lock;
  f hs

let all_stats () =
  with_registry (fun hs ->
      List.sort compare (List.map (fun h -> (h.name, h.get_stats ())) hs))

let clear_all () = with_registry (List.iter (fun h -> h.do_clear ()))
let force_evict_all () = with_registry (List.iter (fun h -> h.do_force_evict ()))
let reset_counters () = with_registry (List.iter (fun h -> h.do_reset ()))

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a entry = { value : 'a; mutable used : int }

  type 'a t = {
    name : string;
    cap : int option; (* None: follow the process default *)
    equal : 'a -> 'a -> bool;
    on_evict : (K.t -> 'a -> unit) option;
    lock : Mutex.t;
    tbl : 'a entry H.t;
    shadow : 'a H.t; (* evicted entries awaiting the recompute check *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let effective_cap t =
    match t.cap with Some c -> c | None -> default_cap ()

  (* Called with [t.lock] held. Evict the least-recently-used entries
     down to [target], parking them in the shadow table when checking
     is on. Returns the victims so the caller can run the [on_evict]
     hook {e outside} the lock (the hook may do I/O or re-enter the
     cache). *)
  let evict_to t target =
    let entries = ref [] in
    H.iter (fun k e -> entries := (k, e) :: !entries) t.tbl;
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare a.used b.used) !entries
    in
    let excess = List.length sorted - target in
    let victims = List.filteri (fun i _ -> i < excess) sorted in
    List.iter
      (fun (k, e) ->
        H.remove t.tbl k;
        t.evictions <- t.evictions + 1;
        if Atomic.get check_flag then begin
          if H.length t.shadow >= shadow_cap then H.reset t.shadow;
          H.replace t.shadow k e.value
        end)
      victims;
    victims

  let notify_evicted t victims =
    match t.on_evict with
    | None -> ()
    | Some hook -> List.iter (fun (k, e) -> hook k e.value) victims

  let create ~name ?cap ?on_evict ~equal () =
    let t =
      {
        name;
        cap;
        equal;
        on_evict;
        lock = Mutex.create ();
        tbl = H.create 256;
        shadow = H.create 16;
        tick = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
      }
    in
    let locked f =
      Mutex.lock t.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
    in
    register
      {
        name;
        get_stats =
          (fun () ->
            locked (fun () ->
                {
                  hits = t.hits;
                  misses = t.misses;
                  evictions = t.evictions;
                  size = H.length t.tbl;
                  cap = effective_cap t;
                }));
        do_clear =
          (fun () ->
            locked (fun () ->
                H.reset t.tbl;
                H.reset t.shadow));
        do_force_evict =
          (fun () -> notify_evicted t (locked (fun () -> evict_to t 0)));
        do_reset =
          (fun () ->
            locked (fun () ->
                t.hits <- 0;
                t.misses <- 0;
                t.evictions <- 0));
      };
    t

  let find_or_add t key compute =
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    let tick = t.tick in
    match H.find_opt t.tbl key with
    | Some e ->
      e.used <- tick;
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      e.value
    | None ->
      t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      (* compute outside the lock: can be expensive, may recurse
         through other caches; a racing duplicate is dropped below. *)
      let v = compute key in
      Mutex.lock t.lock;
      let stale =
        if Atomic.get check_flag then H.find_opt t.shadow key else None
      in
      let victims =
        match H.find_opt t.tbl key with
        | Some _ -> [] (* racing insert won; both values are equal *)
        | None ->
          H.replace t.tbl key { value = v; used = tick };
          H.remove t.shadow key;
          let cap = effective_cap t in
          if cap > 0 && H.length t.tbl > cap then
            evict_to t (max 1 (cap * 3 / 4))
          else []
      in
      Mutex.unlock t.lock;
      notify_evicted t victims;
      (match stale with
      | Some old when not (t.equal old v) ->
        Fact_error.precondition
          ~fn:(Printf.sprintf "Cache(%s)" t.name)
          "evicted entry recomputed to a different value"
      | Some _ | None -> ());
      v

  (* Import path: insert a value obtained elsewhere (e.g. a persisted
     store) without touching the hit/miss counters. An existing entry
     wins — the resident value is at least as fresh. *)
  let add t key v =
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    let victims =
      match H.find_opt t.tbl key with
      | Some _ -> []
      | None ->
        H.replace t.tbl key { value = v; used = t.tick };
        let cap = effective_cap t in
        if cap > 0 && H.length t.tbl > cap then
          evict_to t (max 1 (cap * 3 / 4))
        else []
    in
    Mutex.unlock t.lock;
    notify_evicted t victims

  let find_opt t key =
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    let r =
      match H.find_opt t.tbl key with
      | Some e ->
        e.used <- t.tick;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None
    in
    Mutex.unlock t.lock;
    r

  let stats t =
    Mutex.lock t.lock;
    let s =
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = H.length t.tbl;
        cap = effective_cap t;
      }
    in
    Mutex.unlock t.lock;
    s

  let clear t =
    Mutex.lock t.lock;
    H.reset t.tbl;
    H.reset t.shadow;
    Mutex.unlock t.lock

  let force_evict t =
    Mutex.lock t.lock;
    let victims = evict_to t 0 in
    Mutex.unlock t.lock;
    notify_evicted t victims
end
