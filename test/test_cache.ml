(* Buffer cache tests, three layers deep:

   - replacement level: exact LRU ordering, CLOCK's second chance, 2Q's
     FIFO A1in / protected Am split, and every policy's victims against
     a list-based model, across a Marshal round trip;
   - cache level: hit/miss accounting, fetch coalescing and clamping,
     prefetch hysteresis, write-through vs write-back dirtiness, flush
     coalescing, eviction write-backs, invalidation, per-type counters,
     plus QCheck properties (accounting identities, the eviction bound,
     per-policy determinism on identical op streams);
   - engine level: with [cache = None] the engine reproduces, to the
     last bit, throughput goldens frozen before lib/cache existed (the
     same numbers test_fault pins), and a cache-enabled run produces a
     consistent report.  Exact float equality here is the guarantee
     that the disabled cache is free. *)

module C = Core
module Cache = C.Cache
module Cache_policy = C.Cache_policy
module Replacement = C.Cache_replacement
module Policy = C.Sched_policy
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type
module Rng = C.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_invalid name ~substr f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%s: %S mentions %S" name msg substr) true (contains msg substr)

(* ------------------------------------------------------------------ *)
(* Policy names and config validation                                 *)
(* ------------------------------------------------------------------ *)

let test_policy_names () =
  List.iter
    (fun p ->
      match Cache_policy.of_string (Cache_policy.name p) with
      | Some p' -> check_bool (Cache_policy.name p ^ " round-trips") true (p = p')
      | None -> Alcotest.failf "%s does not round-trip" (Cache_policy.name p))
    Cache_policy.all;
  check_bool "two_q alias" true (Cache_policy.of_string "two_q" = Some Cache_policy.Two_q);
  check_bool "junk rejected" true (Cache_policy.of_string "mru" = None)

let test_config_validation () =
  let ok = Cache.config ~mb:4 () in
  Cache.validate ok;
  check_int "4 MB of 8K pages" 512 ok.Cache.pages;
  expect_invalid "zero pages" ~substr:"capacity" (fun () ->
      Cache.validate { ok with Cache.pages = 0 });
  expect_invalid "bad page size" ~substr:"page_bytes" (fun () ->
      Cache.validate { ok with Cache.page_bytes = 0 });
  expect_invalid "bad flush interval" ~substr:"flush_interval_ms" (fun () ->
      Cache.validate { ok with Cache.flush_interval_ms = 0. });
  expect_invalid "negative prefetch" ~substr:"prefetch_pages" (fun () ->
      Cache.validate { ok with Cache.prefetch_pages = -1 });
  expect_invalid "zero prefetch factor" ~substr:"prefetch_factor" (fun () ->
      Cache.validate { ok with Cache.prefetch_factor = 0 })

(* ------------------------------------------------------------------ *)
(* Replacement structures                                             *)
(* ------------------------------------------------------------------ *)

let drain_victims repl n = List.init n (fun _ -> Replacement.victim repl)

let test_lru_order () =
  let r = Replacement.make Cache_policy.Lru ~capacity:4 in
  List.iter (Replacement.on_insert r) [ 0; 1; 2; 3 ];
  Replacement.on_hit r 0;
  Replacement.on_hit r 1;
  (* recency order is now 1, 0, 3, 2 — victims pop from the cold end *)
  Alcotest.(check (list int)) "LRU victim order" [ 2; 3; 0; 1 ] (drain_victims r 4)

let test_clock_second_chance () =
  let r = Replacement.make Cache_policy.Clock ~capacity:3 in
  List.iter (Replacement.on_insert r) [ 0; 1; 2 ];
  (* all referenced: the hand strips every bit, wraps, takes frame 0 *)
  check_int "first victim" 0 (Replacement.victim r);
  Replacement.on_insert r 0;
  Replacement.on_hit r 1;
  (* hand is at 1: frame 1 gets its second chance, frame 2 does not *)
  check_int "unreferenced frame goes first" 2 (Replacement.victim r)

let test_two_q_split () =
  (* capacity 8 -> A1in target 2.  Pages never hit again leave in FIFO
     order; a hit promotes to Am and survives the A1in churn. *)
  let r = Replacement.make Cache_policy.Two_q ~capacity:8 in
  List.iter (Replacement.on_insert r) [ 0; 1; 2; 3 ];
  check_int "A1in evicts FIFO" 0 (Replacement.victim r);
  Replacement.on_hit r 3;
  (* 3 is in Am now; A1in holds 1, 2 plus the new arrivals *)
  List.iter (Replacement.on_insert r) [ 4; 5 ];
  check_int "promoted page survives" 1 (Replacement.victim r);
  check_int "next cold page" 2 (Replacement.victim r)

let test_victim_on_empty_raises () =
  List.iter
    (fun p ->
      let r = Replacement.make p ~capacity:2 in
      expect_invalid (Cache_policy.name p ^ " empty victim") ~substr:"no tracked frame"
        (fun () -> Replacement.victim r))
    Cache_policy.all

(* Reference models, one per policy, over plain lists.  LRU: tracked
   frames, most recent first.  CLOCK: the tracked frames and the ones
   whose reference bit is set, plus the hand.  2Q: A1in newest first
   (FIFO) and Am most recent first (LRU), A1in's target a quarter of
   the capacity. *)
type repl_model = {
  mutable lru : int list;
  mutable tracked : int list;
  mutable referenced : int list;
  mutable hand : int;
  mutable a1 : int list;
  mutable am : int list;
}

let without f = List.filter (( <> ) f)
let last l = List.nth l (List.length l - 1)

let model_insert policy m f =
  match policy with
  | Cache_policy.Lru -> m.lru <- f :: m.lru
  | Cache_policy.Clock ->
      m.tracked <- f :: m.tracked;
      m.referenced <- f :: without f m.referenced
  | Cache_policy.Two_q -> m.a1 <- f :: m.a1

let model_hit policy m f =
  match policy with
  | Cache_policy.Lru -> m.lru <- f :: without f m.lru
  | Cache_policy.Clock -> m.referenced <- f :: without f m.referenced
  | Cache_policy.Two_q ->
      m.a1 <- without f m.a1;
      m.am <- f :: without f m.am

let model_remove policy m f =
  match policy with
  | Cache_policy.Lru -> m.lru <- without f m.lru
  | Cache_policy.Clock ->
      m.tracked <- without f m.tracked;
      m.referenced <- without f m.referenced
  | Cache_policy.Two_q ->
      m.a1 <- without f m.a1;
      m.am <- without f m.am

let model_victim policy ~capacity m =
  let f =
    match policy with
    | Cache_policy.Lru -> last m.lru
    | Cache_policy.Clock ->
        let rec sweep () =
          let f = m.hand in
          m.hand <- (f + 1) mod capacity;
          if not (List.mem f m.tracked) then sweep ()
          else if List.mem f m.referenced then begin
            m.referenced <- without f m.referenced;
            sweep ()
          end
          else f
        in
        sweep ()
    | Cache_policy.Two_q ->
        if m.a1 <> [] && (List.length m.a1 > max 1 (capacity / 4) || m.am = []) then last m.a1
        else last m.am
  in
  model_remove policy m f;
  f

let model_tracked policy m =
  match policy with
  | Cache_policy.Lru -> m.lru
  | Cache_policy.Clock -> m.tracked
  | Cache_policy.Two_q -> m.a1 @ m.am

type repl_op = Insert of int | Hit of int | Remove of int | Victim

(* Frames are drawn by index and mapped onto whatever the contract
   allows at that step: an insert takes an untracked frame, a hit or a
   remove a tracked one, and a victim needs one tracked. *)
let repl_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (6, Gen.map (fun i -> Insert i) Gen.nat);
        (5, Gen.map (fun i -> Hit i) Gen.nat);
        (1, Gen.map (fun i -> Remove i) Gen.nat);
        (4, Gen.return Victim);
      ]
  in
  let print = function
    | Insert i -> Printf.sprintf "insert#%d" i
    | Hit i -> Printf.sprintf "hit#%d" i
    | Remove i -> Printf.sprintf "remove#%d" i
    | Victim -> "victim"
  in
  triple (int_range 1 12)
    (make ~print:(Print.list print) (Gen.list_size (Gen.int_range 1 300) op))
    (int_bound 300)

let prop_replacement_matches_model =
  QCheck.Test.make ~name:"every policy's victims match a list-based model" ~count:300 repl_ops
    (fun (capacity, ops, roundtrip_at) ->
      List.for_all
        (fun policy ->
          let r = ref (Replacement.make policy ~capacity) in
          let m = { lru = []; tracked = []; referenced = []; hand = 0; a1 = []; am = [] } in
          List.for_all
            (fun (step, op) ->
              (* One Marshal round trip at a random step: the copy must
                 give the same victims from there on. *)
              if step = roundtrip_at then r := Marshal.from_string (Marshal.to_string !r []) 0;
              let tracked = model_tracked policy m in
              let untracked = List.filter (fun f -> not (List.mem f tracked)) (List.init capacity Fun.id) in
              let pick l i = List.nth l (i mod List.length l) in
              match op with
              | Insert i when untracked <> [] ->
                  let f = pick untracked i in
                  Replacement.on_insert !r f;
                  model_insert policy m f;
                  true
              | Hit i when tracked <> [] ->
                  let f = pick tracked i in
                  Replacement.on_hit !r f;
                  model_hit policy m f;
                  true
              | Remove i when tracked <> [] ->
                  let f = pick tracked i in
                  Replacement.on_remove !r f;
                  model_remove policy m f;
                  true
              | Victim when tracked <> [] ->
                  Replacement.victim !r = model_victim policy ~capacity m
              | _ -> true)
            (List.mapi (fun i op -> (i, op)) ops))
        Cache_policy.all)

(* ------------------------------------------------------------------ *)
(* Cache behaviour                                                    *)
(* ------------------------------------------------------------------ *)

let pb = 4096

let small_config ?(pages = 8) ?(policy = Cache_policy.Lru) ?(write_mode = Cache.Write_through)
    ?(prefetch_pages = 0) ?(prefetch_factor = 1) () =
  {
    Cache.pages;
    page_bytes = pb;
    policy;
    write_mode;
    flush_interval_ms = 100.;
    prefetch_pages;
    prefetch_factor;
  }

let test_read_miss_then_hit () =
  let c = Cache.create (small_config ()) in
  let big = 1024 * 1024 in
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:(2 * pb) ~logical:big in
  check_bool "cold read fetches" true (o.Cache.o_fetch = Some (0, 2 * pb));
  check_int "cold misses" 2 o.Cache.o_page_misses;
  check_int "cold hits" 0 o.Cache.o_page_hits;
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:(2 * pb) ~logical:big in
  check_bool "warm read is free" true (o.Cache.o_fetch = None);
  check_int "warm hits" 2 o.Cache.o_page_hits;
  check_int "warm hit bytes" (2 * pb) o.Cache.o_hit_bytes;
  (* pages 1 and 2: page 1 is resident, page 2 faults *)
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:pb ~len:(2 * pb) ~logical:big in
  check_bool "partial hit fetches the gap" true (o.Cache.o_fetch = Some (2 * pb, pb));
  check_int "partial hit bytes" pb o.Cache.o_hit_bytes;
  let s = Cache.stats c in
  check_int "lookups = hits + misses" s.Cache.lookups (s.Cache.hits + s.Cache.misses);
  check_int "total hits" 3 s.Cache.hits;
  check_int "total misses" 3 s.Cache.misses

let test_fetch_clamps_to_logical () =
  let c = Cache.create (small_config ()) in
  let logical = (2 * pb) + 1808 in
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:(2 * pb) ~len:1808 ~logical in
  check_bool "fetch stops at end of file" true (o.Cache.o_fetch = Some (2 * pb, 1808))

let test_prefetch_hysteresis () =
  let c = Cache.create (small_config ~pages:64 ~prefetch_pages:2 ()) in
  let big = 1024 * 1024 in
  let read page =
    Cache.read c ~type_idx:0 ~file:7 ~off:(page * pb) ~len:pb ~logical:big
  in
  let o = read 0 in
  check_int "first access is not a scan" 0 o.Cache.o_prefetched;
  check_bool "first access fetches itself" true (o.Cache.o_fetch = Some (0, pb));
  (* resuming at page 1 is sequential: the miss stages the window *)
  let o = read 1 in
  check_int "scan prefetches the window" 2 o.Cache.o_prefetched;
  check_bool "one coalesced fetch" true (o.Cache.o_fetch = Some (pb, 3 * pb));
  (* pages 2 and 3 are staged: full hits must NOT top the window up *)
  let o = read 2 in
  check_bool "window hit is free" true (o.Cache.o_fetch = None && o.Cache.o_prefetched = 0);
  let o = read 3 in
  check_bool "window hit is free (2)" true (o.Cache.o_fetch = None);
  (* page 4 misses: the window refills in one fetch *)
  let o = read 4 in
  check_int "window refills on miss" 2 o.Cache.o_prefetched;
  check_bool "refill is one fetch" true (o.Cache.o_fetch = Some (4 * pb, 3 * pb))

let test_prefetch_scales_with_access () =
  let c = Cache.create (small_config ~pages:64 ~prefetch_pages:1 ~prefetch_factor:4 ()) in
  let big = 1024 * 1024 in
  ignore (Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:(2 * pb) ~logical:big);
  (* a 2-page sequential burst stages (factor - 1) * 2 = 6 pages ahead *)
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:(2 * pb) ~len:(2 * pb) ~logical:big in
  check_int "window is factor * access" 6 o.Cache.o_prefetched;
  check_bool "one big fetch" true (o.Cache.o_fetch = Some (2 * pb, 8 * pb))

let test_write_through_stays_clean () =
  let c = Cache.create (small_config ()) in
  let o = Cache.write c ~type_idx:0 ~file:0 ~off:0 ~len:(2 * pb) in
  check_bool "write allocates" true (o.Cache.o_page_misses = 2 && o.Cache.o_fetch = None);
  check_int "nothing dirty" 0 (Cache.dirty_pages c);
  check_bool "nothing to flush" true (Cache.flush c = [])

let test_write_back_dirties_and_flushes () =
  let c = Cache.create (small_config ~write_mode:Cache.Write_back ()) in
  ignore (Cache.write c ~type_idx:0 ~file:0 ~off:0 ~len:(3 * pb));
  ignore (Cache.write c ~type_idx:0 ~file:1 ~off:0 ~len:pb);
  check_int "dirty pages counted" 4 (Cache.dirty_pages c);
  let runs = Cache.flush c in
  check_bool "adjacent pages coalesce per file" true
    (runs
    = [
        { Cache.r_file = 0; r_off = 0; r_len = 3 * pb };
        { Cache.r_file = 1; r_off = 0; r_len = pb };
      ]);
  check_int "flush cleans" 0 (Cache.dirty_pages c);
  check_bool "second flush is empty" true (Cache.flush c = []);
  let s = Cache.stats c in
  check_int "one flush cycle" 1 s.Cache.flushes;
  check_int "write-back bytes" (4 * pb) s.Cache.writeback_bytes

let test_eviction_writes_back_dirty_pages () =
  let c = Cache.create (small_config ~pages:4 ~write_mode:Cache.Write_back ()) in
  for p = 0 to 3 do
    ignore (Cache.write c ~type_idx:0 ~file:0 ~off:(p * pb) ~len:pb)
  done;
  (* a fifth page evicts the LRU page 0, which is dirty *)
  let o = Cache.write c ~type_idx:0 ~file:0 ~off:(4 * pb) ~len:pb in
  check_int "one eviction" 1 o.Cache.o_evictions;
  check_bool "dirty victim written back" true
    (o.Cache.o_writebacks = [ { Cache.r_file = 0; r_off = 0; r_len = pb } ]);
  let s = Cache.stats c in
  check_int "insertions" 5 s.Cache.insertions;
  check_int "evictions" 1 s.Cache.evictions;
  check_int "dirty evictions" 1 s.Cache.dirty_evictions;
  check_int "capacity respected" 4 (Cache.resident_pages c)

let test_invalidate_and_truncate () =
  let c = Cache.create (small_config ~pages:16 ()) in
  let big = 1024 * 1024 in
  ignore (Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:(4 * pb) ~logical:big);
  ignore (Cache.read c ~type_idx:0 ~file:1 ~off:0 ~len:(2 * pb) ~logical:big);
  check_int "six resident" 6 (Cache.resident_pages c);
  Cache.truncate_file c ~file:0 ~logical:((2 * pb) + 1);
  (* pages wholly past the new size go; page 2 straddles and stays *)
  check_int "truncate drops the tail" 5 (Cache.resident_pages c);
  Cache.invalidate_file c ~file:0;
  check_int "delete drops the file" 2 (Cache.resident_pages c);
  check_int "invalidations counted" 4 (Cache.stats c).Cache.invalidations;
  let o = Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:pb ~logical:big in
  check_bool "invalidated pages miss again" true (o.Cache.o_page_misses = 1)

let test_per_type_counters () =
  let c = Cache.create ~ntypes:2 (small_config ~pages:16 ()) in
  let big = 1024 * 1024 in
  ignore (Cache.read c ~type_idx:0 ~file:0 ~off:0 ~len:(2 * pb) ~logical:big);
  ignore (Cache.read c ~type_idx:1 ~file:0 ~off:0 ~len:(2 * pb) ~logical:big);
  ignore (Cache.read c ~type_idx:1 ~file:1 ~off:0 ~len:pb ~logical:big);
  let per = Cache.per_type c in
  check_bool "type 0 all misses" true (per.(0) = (0, 2));
  check_bool "type 1 hits its reuse" true (per.(1) = (2, 1));
  let s = Cache.stats c in
  let th = Array.fold_left (fun a (h, _) -> a + h) 0 per in
  let tm = Array.fold_left (fun a (_, m) -> a + m) 0 per in
  check_int "per-type hits sum" s.Cache.hits th;
  check_int "per-type misses sum" s.Cache.misses tm

let test_packing_bound () =
  let c = Cache.create (small_config ~pages:4 ()) in
  let top = (1 lsl 31) - 1 in
  let logical = (top + 1) * pb in
  let o = Cache.read c ~type_idx:0 ~file:top ~off:(top * pb) ~len:pb ~logical in
  check_int "the top file and page are cached" 1 o.Cache.o_page_misses;
  expect_invalid "file past the bound" ~substr:"packable" (fun () ->
      Cache.read c ~type_idx:0 ~file:(top + 1) ~off:0 ~len:pb ~logical);
  expect_invalid "negative file" ~substr:"packable" (fun () ->
      Cache.write c ~type_idx:0 ~file:(-1) ~off:0 ~len:pb);
  expect_invalid "page past the bound" ~substr:"packable" (fun () ->
      Cache.write c ~type_idx:0 ~file:0 ~off:(top * pb) ~len:(pb + 1));
  check_int "refused accesses change nothing" 1 (Cache.resident_pages c);
  check_int "nor the counters" 1 (Cache.stats c).Cache.lookups

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* One random op: (file 0-3, page 0-63, pages 1-3, is_write).  Lengths
   and offsets are page-granular — byte-level clipping is covered by
   the unit tests above. *)
let op_gen =
  QCheck.(quad (int_bound 3) (int_bound 63) (int_range 1 3) bool)

let apply_ops cfg ops =
  let c = Cache.create cfg in
  let logical = 80 * pb in
  let outcomes =
    List.map
      (fun (file, page, npages, is_write) ->
        let off = min (page * pb) (logical - pb) in
        let len = min (npages * pb) (logical - off) in
        if is_write then Cache.write c ~type_idx:0 ~file ~off ~len
        else Cache.read c ~type_idx:0 ~file ~off ~len ~logical)
      ops
  in
  (c, outcomes)

let prop_accounting_identities =
  QCheck.Test.make ~name:"hits + misses = lookups; evictions bounded" ~count:100
    QCheck.(list_of_size (Gen.return 200) op_gen)
    (fun ops ->
      let cfg = small_config ~pages:16 ~prefetch_pages:2 () in
      let c, outcomes = apply_ops cfg ops in
      let s = Cache.stats c in
      s.Cache.lookups = s.Cache.hits + s.Cache.misses
      && s.Cache.evictions <= max 0 (s.Cache.insertions - cfg.Cache.pages)
      && Cache.resident_pages c <= cfg.Cache.pages
      && Cache.dirty_pages c = 0 (* write-through *)
      && List.for_all
           (fun (o : Cache.outcome) -> o.Cache.o_page_hits + o.Cache.o_page_misses >= 1)
           outcomes)

let prop_write_back_dirty_bounded =
  QCheck.Test.make ~name:"write-back dirtiness is bounded by residency" ~count:50
    QCheck.(list_of_size (Gen.return 200) op_gen)
    (fun ops ->
      let cfg = small_config ~pages:16 ~write_mode:Cache.Write_back () in
      let c, _ = apply_ops cfg ops in
      let bounded = Cache.dirty_pages c <= Cache.resident_pages c in
      ignore (Cache.flush c : Cache.run list);
      bounded && Cache.dirty_pages c = 0)

let prop_policies_deterministic =
  QCheck.Test.make ~name:"identical op streams replay identically (all policies)" ~count:30
    QCheck.(list_of_size (Gen.return 150) op_gen)
    (fun ops ->
      List.for_all
        (fun policy ->
          let cfg = small_config ~pages:12 ~policy ~prefetch_pages:2 () in
          let c1, o1 = apply_ops cfg ops in
          let c2, o2 = apply_ops cfg ops in
          o1 = o2 && Cache.stats c1 = Cache.stats c2)
        Cache_policy.all)

(* ------------------------------------------------------------------ *)
(* Reference model                                                    *)
(* ------------------------------------------------------------------ *)

(* A naive cache with the same contract: an association list from
   (file, page) to frame, frames claimed free-list first (last freed
   first), then never-used in order, then the replacement policy's
   victim.  It drives its own instance of the same [Replacement]
   policy, so the two must pick the same victims and return the same
   outcome, field for field, after every operation. *)
module Model = struct
  type t = {
    cfg : Cache.config;
    repl : Replacement.t;
    file : int array;
    page : int array;
    dirty : bool array;
    mutable map : ((int * int) * int) list;
    mutable seq : (int * int) list;  (** file -> page a scan reads next *)
    mutable unused : int;
    mutable free : int list;
    mutable hits : int;
    mutable misses : int;
    mutable hit_bytes : int;
    mutable insertions : int;
    mutable evictions : int;
    mutable dirty_evictions : int;
    mutable flushes : int;
    mutable writeback_bytes : int;
    mutable prefetched : int;
    mutable invalidations : int;
  }

  let create cfg =
    let n = cfg.Cache.pages in
    {
      cfg;
      repl = Replacement.make cfg.Cache.policy ~capacity:n;
      file = Array.make n (-1);
      page = Array.make n (-1);
      dirty = Array.make n false;
      map = [];
      seq = [];
      unused = 0;
      free = [];
      hits = 0;
      misses = 0;
      hit_bytes = 0;
      insertions = 0;
      evictions = 0;
      dirty_evictions = 0;
      flushes = 0;
      writeback_bytes = 0;
      prefetched = 0;
      invalidations = 0;
    }

  let pb m = m.cfg.Cache.page_bytes
  let find m file page = List.assoc_opt (file, page) m.map
  let dirty_pages m = Array.fold_left (fun n d -> if d then n + 1 else n) 0 m.dirty

  let runs m pairs =
    let rec go acc = function
      | [] -> List.rev acc
      | (f, p) :: rest ->
          let rec span last = function
            | (f', p') :: rest when f' = f && p' = last + 1 -> span p' rest
            | rest -> (last, rest)
          in
          let last, rest = span p rest in
          let len = (last - p + 1) * pb m in
          m.writeback_bytes <- m.writeback_bytes + len;
          go ({ Cache.r_file = f; r_off = p * pb m; r_len = len } :: acc) rest
    in
    go [] (List.sort compare pairs)

  let claim m evicted =
    match m.free with
    | f :: rest ->
        m.free <- rest;
        f
    | [] when m.unused < m.cfg.Cache.pages ->
        m.unused <- m.unused + 1;
        m.unused - 1
    | [] ->
        let f = Replacement.victim m.repl in
        m.map <- List.remove_assoc (m.file.(f), m.page.(f)) m.map;
        m.evictions <- m.evictions + 1;
        if m.dirty.(f) then begin
          m.dirty.(f) <- false;
          m.dirty_evictions <- m.dirty_evictions + 1;
          evicted := (m.file.(f), m.page.(f)) :: !evicted
        end;
        f

  let insert m ~file ~page ~dirty evicted =
    let f = claim m evicted in
    m.file.(f) <- file;
    m.page.(f) <- page;
    m.dirty.(f) <- dirty;
    m.map <- ((file, page), f) :: m.map;
    Replacement.on_insert m.repl f;
    m.insertions <- m.insertions + 1

  let outcome m ~fetch ~evicted ~hit_bytes ~hits ~misses ~prefetched ~evictions =
    {
      Cache.o_fetch = fetch;
      o_writebacks = runs m evicted;
      o_hit_bytes = hit_bytes;
      o_page_hits = hits;
      o_page_misses = misses;
      o_prefetched = prefetched;
      o_evictions = m.evictions - evictions;
    }

  let read m ~file ~off ~len ~logical =
    let pb = pb m in
    let p0 = off / pb and p1 = (off + len - 1) / pb in
    let seq = List.assoc_opt file m.seq = Some p0 in
    m.seq <- (file, (off + len) / pb) :: List.remove_assoc file m.seq;
    let hits = ref 0 and misses = ref 0 and hit_bytes = ref 0 in
    let missing = ref [] in
    for p = p0 to p1 do
      match find m file p with
      | Some f ->
          Replacement.on_hit m.repl f;
          incr hits;
          hit_bytes := !hit_bytes + (min (off + len) ((p + 1) * pb) - max off (p * pb))
      | None ->
          incr misses;
          missing := p :: !missing
    done;
    let prefetched = ref 0 in
    if seq && m.cfg.Cache.prefetch_pages > 0 && !misses > 0 then begin
      let ahead =
        max m.cfg.Cache.prefetch_pages ((m.cfg.Cache.prefetch_factor - 1) * (p1 - p0 + 1))
      in
      for p = p1 + 1 to min ((logical - 1) / pb) (p1 + ahead) do
        if find m file p = None then begin
          incr prefetched;
          missing := p :: !missing
        end
      done
    end;
    m.hits <- m.hits + !hits;
    m.misses <- m.misses + !misses;
    m.hit_bytes <- m.hit_bytes + !hit_bytes;
    m.prefetched <- m.prefetched + !prefetched;
    let evictions = m.evictions and evicted = ref [] in
    let fetch =
      match !missing with
      | [] -> None
      | hi :: _ ->
          let lo = List.fold_left min hi !missing in
          (* the fetch covers the whole span, so resident pages inside
             it are re-read but not re-inserted *)
          for p = lo to hi do
            if find m file p = None then insert m ~file ~page:p ~dirty:false evicted
          done;
          Some (lo * pb, min ((hi + 1) * pb) logical - (lo * pb))
    in
    outcome m ~fetch ~evicted:!evicted ~hit_bytes:!hit_bytes ~hits:!hits ~misses:!misses
      ~prefetched:!prefetched ~evictions

  let write m ~file ~off ~len =
    let pb = pb m in
    let dirty = m.cfg.Cache.write_mode = Cache.Write_back in
    let hits = ref 0 and misses = ref 0 in
    let evictions = m.evictions and evicted = ref [] in
    for p = off / pb to (off + len - 1) / pb do
      match find m file p with
      | Some f ->
          Replacement.on_hit m.repl f;
          incr hits;
          if dirty then m.dirty.(f) <- true
      | None ->
          incr misses;
          insert m ~file ~page:p ~dirty evicted
    done;
    m.seq <- (file, (off + len) / pb) :: List.remove_assoc file m.seq;
    m.hits <- m.hits + !hits;
    m.misses <- m.misses + !misses;
    outcome m ~fetch:None ~evicted:!evicted ~hit_bytes:0 ~hits:!hits ~misses:!misses
      ~prefetched:0 ~evictions

  let flush m =
    let pairs =
      List.filter_map (fun ((f, p), fr) -> if m.dirty.(fr) then Some (f, p) else None) m.map
    in
    if pairs = [] then []
    else begin
      Array.fill m.dirty 0 (Array.length m.dirty) false;
      m.flushes <- m.flushes + 1;
      runs m pairs
    end

  (* Dropped frames join the free list in ascending frame order, so the
     last one dropped (the highest) is claimed first. *)
  let drop m keep =
    for f = 0 to m.unused - 1 do
      if m.file.(f) >= 0 && not (keep m.file.(f) m.page.(f)) then begin
        m.map <- List.remove_assoc (m.file.(f), m.page.(f)) m.map;
        m.file.(f) <- -1;
        m.page.(f) <- -1;
        m.dirty.(f) <- false;
        Replacement.on_remove m.repl f;
        m.free <- f :: m.free;
        m.invalidations <- m.invalidations + 1
      end
    done

  let invalidate m ~file =
    m.seq <- List.remove_assoc file m.seq;
    drop m (fun f _ -> f <> file)

  let truncate m ~file ~logical =
    drop m (fun f p -> f <> file || p * pb m < logical);
    match List.assoc_opt file m.seq with
    | Some next when next * pb m > logical -> m.seq <- List.remove_assoc file m.seq
    | _ -> ()

  let stats m =
    {
      Cache.lookups = m.hits + m.misses;
      hits = m.hits;
      misses = m.misses;
      hit_bytes = m.hit_bytes;
      insertions = m.insertions;
      evictions = m.evictions;
      dirty_evictions = m.dirty_evictions;
      flushes = m.flushes;
      writeback_bytes = m.writeback_bytes;
      prefetched_pages = m.prefetched;
      invalidations = m.invalidations;
    }
end

(* The largest file id and page index a cache key can pack. *)
let max_key = (1 lsl 31) - 1

(* Four files, two of them at the top of the file-id range and two
   whose 24-page window ends at the top page index, each with a
   logical size that ends mid-page.  A file whose window ends at the
   top page is followed by one whose window starts at page 0, so
   their pages are adjacent keys that must not coalesce. *)
let model_files =
  let top = max_key - 23 in
  [| (0, top); (1, 0); (max_key - 1, top); (max_key, 0) |]

type model_op =
  | M_read of int * int * int  (** file slot, byte offset in window, length *)
  | M_write of int * int * int
  | M_flush
  | M_invalidate of int
  | M_truncate of int * int  (** file slot, new logical size in window *)

let model_op_gen =
  let open QCheck.Gen in
  let slot = int_bound 3 and off = int_bound ((24 * pb) - 1) and len = int_range 1 (3 * pb) in
  frequency
    [
      (6, map3 (fun s o l -> M_read (s, o, l)) slot off len);
      (4, map3 (fun s o l -> M_write (s, o, l)) slot off len);
      (1, return M_flush);
      (1, map (fun s -> M_invalidate s) slot);
      (1, map2 (fun s l -> M_truncate (s, l)) slot off);
    ]

let model_case_gen =
  let open QCheck.Gen in
  let* policy = oneofl Cache_policy.all in
  let* write_mode = oneofl [ Cache.Write_through; Cache.Write_back ] in
  let* pages = int_range 1 8 in
  let* prefetch_pages = int_range 0 3 in
  let* prefetch_factor = int_range 1 3 in
  let* ops = list_size (int_range 50 200) model_op_gen in
  return (small_config ~pages ~policy ~write_mode ~prefetch_pages ~prefetch_factor (), ops)

let print_model_case (cfg, ops) =
  Printf.sprintf "%s/%s pages=%d prefetch=%d×%d, %d ops: %s" (Cache_policy.name cfg.Cache.policy)
    (Cache.write_mode_name cfg.Cache.write_mode)
    cfg.Cache.pages cfg.Cache.prefetch_pages cfg.Cache.prefetch_factor (List.length ops)
    (String.concat "; "
       (List.map
          (function
            | M_read (s, o, l) -> Printf.sprintf "R%d@%d+%d" s o l
            | M_write (s, o, l) -> Printf.sprintf "W%d@%d+%d" s o l
            | M_flush -> "F"
            | M_invalidate s -> Printf.sprintf "I%d" s
            | M_truncate (s, l) -> Printf.sprintf "T%d@%d" s l)
          ops))

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache matches a naive reference model" ~count:300
    (QCheck.make ~print:print_model_case model_case_gen)
    (fun (cfg, ops) ->
      let c = Cache.create cfg and m = Model.create cfg in
      let window s = snd model_files.(s) * pb in
      (* each file's logical size ends 100 bytes short of its window *)
      let logical s = window s + (24 * pb) - 100 in
      List.iteri
        (fun i op ->
          let fail what = QCheck.Test.fail_reportf "op %d: %s differs" i what in
          let same_outcome a b = if a <> b then fail "outcome" in
          (match op with
          | M_read (s, o, l) ->
              let file = fst model_files.(s) and off = window s + o in
              let len = min l (logical s - off) in
              if len > 0 then
                same_outcome
                  (Cache.read c ~type_idx:0 ~file ~off ~len ~logical:(logical s))
                  (Model.read m ~file ~off ~len ~logical:(logical s))
          | M_write (s, o, l) ->
              let file = fst model_files.(s) and off = window s + o in
              let len = min l (logical s - off) in
              if len > 0 then
                same_outcome
                  (Cache.write c ~type_idx:0 ~file ~off ~len)
                  (Model.write m ~file ~off ~len)
          | M_flush -> if Cache.flush c <> Model.flush m then fail "flush"
          | M_invalidate s ->
              Cache.invalidate_file c ~file:(fst model_files.(s));
              Model.invalidate m ~file:(fst model_files.(s))
          | M_truncate (s, l) ->
              let file = fst model_files.(s) and logical = window s + l in
              Cache.truncate_file c ~file ~logical;
              Model.truncate m ~file ~logical);
          if Cache.stats c <> Model.stats m then fail "stats";
          if Cache.resident_pages c <> List.length m.Model.map then fail "resident_pages";
          if Cache.dirty_pages c <> Model.dirty_pages m then fail "dirty_pages")
        ops;
      true)

(* Minor words per page a cache access touches, on a fixed stream: a
   64 MiB write-back LRU cache of 8K pages over 64 files of 8 MiB,
   100k random 8-128K reads and writes (one in three a write) with a
   flush every 100 accesses, Rng seed 5.  The stream is drawn before
   counting starts (a draw allocates about 33 words, twice what the
   cache spends on a whole access), so the count is the cache's alone
   and does not depend on the host. *)
let cache_words_per_page () =
  let c = Cache.create (Cache.config ~mb:64 ~write_mode:Cache.Write_back ()) in
  let rng = Rng.create ~seed:5 in
  let n = 100_000 and file_bytes = 8 * 1024 * 1024 and page_bytes = 8192 in
  let files = Array.make n 0 and offs = Array.make n 0 and lens = Array.make n 0 in
  let writes = Array.make n false and pages = ref 0 in
  for i = 0 to n - 1 do
    let len = (8 + Rng.int rng 121) * 1024 in
    files.(i) <- Rng.int rng 64;
    offs.(i) <- Rng.int rng (file_bytes - len + 1);
    lens.(i) <- len;
    writes.(i) <- Rng.int rng 3 = 0;
    pages := !pages + ((offs.(i) + len - 1) / page_bytes) - (offs.(i) / page_bytes) + 1
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    let file = files.(i) and off = offs.(i) and len = lens.(i) in
    (if writes.(i) then ignore (Cache.write c ~type_idx:0 ~file ~off ~len : Cache.outcome)
     else ignore (Cache.read c ~type_idx:0 ~file ~off ~len ~logical:file_bytes : Cache.outcome));
    if (i + 1) mod 100 = 0 then ignore (Cache.flush c : Cache.run list)
  done;
  (Gc.minor_words () -. before) /. float_of_int !pages

(* Measured with OCaml 5.1 without flambda: an index keyed by (file,
   page) tuples in a polymorphic [Hashtbl], with flush and eviction
   coalescing sorting boxed pairs, read 32.2 words per page here.  An
   intrusive index over frames, int-keyed file tables and one reused
   key buffer leave the outcome record, the fetch pair and the
   write-back runs: 1.4.  The budget sits ~10% above today's count. *)
let test_cache_allocation_budget () =
  let per_page = cache_words_per_page () in
  if per_page > 1.6 then
    Alcotest.failf "cache allocates %.2f minor words per page (budget 1.6)" per_page

(* ------------------------------------------------------------------ *)
(* Engine level                                                       *)
(* ------------------------------------------------------------------ *)

(* Same scaled workload and protocol test_fault uses for its goldens. *)
let mini_tp =
  {
    Workload.name = "MINI-TP";
    description = "scaled transaction-processing workload";
    types =
      [
        {
          File_type.name = "relation";
          count = 20;
          users = 10;
          process_time_ms = 20.;
          hit_freq_ms = 30.;
          rw_mean_bytes = 16 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 40 * 1024 * 1024;
          initial_dev_bytes = 8 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 6;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
      ];
  }

let buddy = Experiment.Buddy C.Buddy.default_config

let engine_config ~cache ~scheduler () =
  {
    Engine.default_config with
    lower_bound = 0.50;
    upper_bound = 0.60;
    max_measure_ms = 60_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 4_000_000;
    array_config = (fun stripe_unit -> C.Array_model.Striped { stripe_unit });
    scheduler;
    cache;
  }

let run_app ~cache ~scheduler () =
  let config = engine_config ~cache ~scheduler () in
  let engine = Experiment.make_engine ~config buddy mini_tp in
  Engine.fill_to_lower_bound engine;
  let app = Engine.run_application_test engine in
  (app, Engine.cache_report engine)

(* Frozen from the implementation before lib/cache existed (identical
   to test_fault's striped goldens).  Exact equality proves
   [cache = None] changes nothing — no RNG draw, no event, no float —
   on both the synchronous FCFS path and the dispatch-queue path. *)
let goldens =
  [
    (Policy.Fcfs, (12.17699789351555, 1385.382679652462, 60028.651772065787, 6, 4781));
    (Policy.Sstf, (14.004676518604464, 1593.318521746806, 60004.618860849529, 6, 5498));
  ]

let test_disabled_cache_reproduces_goldens () =
  List.iter
    (fun (scheduler, (g_pct, g_bpm, g_measured, g_checkpoints, g_ios)) ->
      let name = "striped/" ^ Policy.name scheduler in
      let app, cr = run_app ~cache:None ~scheduler () in
      check_exact_float (name ^ " pct_of_max") g_pct app.Engine.pct_of_max;
      check_exact_float (name ^ " bytes_per_ms") g_bpm app.Engine.bytes_per_ms;
      check_exact_float (name ^ " measured_ms") g_measured app.Engine.measured_ms;
      check_int (name ^ " checkpoints") g_checkpoints app.Engine.checkpoints;
      check_int (name ^ " io_ops") g_ios app.Engine.io_ops;
      check_bool (name ^ " no cache report") true (cr = None))
    goldens

let test_cached_engine_report_is_consistent () =
  let cache = Cache.config ~mb:4 ~write_mode:Cache.Write_back () in
  let app, cr = run_app ~cache:(Some cache) ~scheduler:Policy.Fcfs () in
  check_bool "still delivers throughput" true (app.Engine.pct_of_max > 0.);
  match cr with
  | None -> Alcotest.fail "expected a cache report"
  | Some r ->
      check_int "lookups = hits + misses" r.Engine.cr_lookups
        (r.Engine.cr_hits + r.Engine.cr_misses);
      check_bool "cache saw traffic" true (r.Engine.cr_lookups > 0);
      check_bool "some hits" true (r.Engine.cr_hits > 0);
      check_bool "write-back flushed" true (r.Engine.cr_flushes > 0);
      check_bool "write-back pushed bytes" true (r.Engine.cr_writeback_bytes > 0);
      check_bool "hit rate sane" true (r.Engine.cr_hit_rate >= 0. && r.Engine.cr_hit_rate <= 1.);
      check_bool "per-type counters present" true (Array.length r.Engine.cr_per_type = 1);
      (let name, h, m = r.Engine.cr_per_type.(0) in
       check_bool "per-type name" true (name = "relation");
       check_int "per-type sums to totals" r.Engine.cr_lookups (h + m));
      check_bool "policy name" true (r.Engine.cr_policy = "lru");
      check_bool "write mode name" true (r.Engine.cr_write_mode = "back")

let test_cached_engine_deterministic () =
  let cache = Cache.config ~mb:2 () in
  let run () =
    let app, cr = run_app ~cache:(Some cache) ~scheduler:Policy.Sstf () in
    ( app.Engine.pct_of_max,
      app.Engine.io_ops,
      match cr with Some r -> (r.Engine.cr_hits, r.Engine.cr_evictions) | None -> (-1, -1) )
  in
  check_bool "same seed, same cached run" true (run () = run ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_cache"
    [
      ( "config",
        [
          quick "policy names" test_policy_names;
          quick "validation" test_config_validation;
        ] );
      ( "replacement",
        [
          quick "lru order" test_lru_order;
          quick "clock second chance" test_clock_second_chance;
          quick "2q split" test_two_q_split;
          quick "empty victim raises" test_victim_on_empty_raises;
          QCheck_alcotest.to_alcotest prop_replacement_matches_model;
        ] );
      ( "cache",
        [
          quick "miss then hit" test_read_miss_then_hit;
          quick "fetch clamps to eof" test_fetch_clamps_to_logical;
          quick "prefetch hysteresis" test_prefetch_hysteresis;
          quick "prefetch scales with access" test_prefetch_scales_with_access;
          quick "write-through stays clean" test_write_through_stays_clean;
          quick "write-back flush coalesces" test_write_back_dirties_and_flushes;
          quick "eviction writes back" test_eviction_writes_back_dirty_pages;
          quick "invalidate and truncate" test_invalidate_and_truncate;
          quick "per-type counters" test_per_type_counters;
          quick "packing bound" test_packing_bound;
          QCheck_alcotest.to_alcotest prop_accounting_identities;
          QCheck_alcotest.to_alcotest prop_write_back_dirty_bounded;
          QCheck_alcotest.to_alcotest prop_policies_deterministic;
          QCheck_alcotest.to_alcotest prop_cache_matches_model;
          Alcotest.test_case "minor words per page bounded" `Slow test_cache_allocation_budget;
        ] );
      ( "engine",
        [
          quick "cache=None reproduces goldens" test_disabled_cache_reproduces_goldens;
          quick "cached report consistent" test_cached_engine_report_is_consistent;
          quick "cached run deterministic" test_cached_engine_deterministic;
        ] );
    ]
