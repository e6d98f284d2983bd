(* Unit and property tests for the utility substrate: PRNG,
   distributions, event heap, statistics, bitset, free tree, vector,
   units and tables. *)

module Rng = Core.Rng
module Dist = Core.Dist
module Heap = Core.Heap
module Stats = Core.Stats
module Bitset = Core.Bitset
module Free_tree = Core.Free_tree
module Vec = Core.Vec
module Units = Core.Units
module Table = Core.Table

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing one does not affect the other *)
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  let x = Rng.bits64 a and y = Rng.bits64 b in
  check_bool "streams now desynchronized" true (x <> y)

let test_rng_split_decorrelates () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr matches
  done;
  check_bool "split streams differ" true (!matches < 4)

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let rng = Rng.create ~seed:13 in
  for n = 1 to 50 do
    for _ = 1 to 100 do
      let v = Rng.int rng n in
      check_bool "in range" true (v >= 0 && v < n)
    done
  done

let test_rng_int_covers_all () =
  let rng = Rng.create ~seed:17 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 10) <- true
  done;
  Array.iteri (fun i hit -> check_bool (Printf.sprintf "value %d seen" i) true hit) seen

let test_rng_int_in () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng ~lo:(-5) ~hi:5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: 16 buckets over 32k draws should each hold
     within 20% of the expected count. *)
  let rng = Rng.create ~seed:23 in
  let buckets = Array.make 16 0 in
  let draws = 32_768 in
  for _ = 1 to draws do
    let b = Rng.int rng 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = draws / 16 in
  Array.iter
    (fun c ->
      check_bool "bucket within 20% of expectation" true
        (abs (c - expected) < expected / 5))
    buckets

(* A mixed stream of [int] / [float] / [bits64] draws plus a split,
   digested.  The digest was captured from the boxed-[int64] generator
   this one replaced: changing how the state is stored must not change
   a single draw. *)
let test_rng_stream_golden () =
  let r = Rng.create ~seed:42 in
  let b = Buffer.create 4096 in
  for i = 1 to 1000 do
    if i mod 3 = 0 then Buffer.add_string b (Printf.sprintf "%h," (Rng.float r))
    else if i mod 3 = 1 then Buffer.add_string b (Printf.sprintf "%d," (Rng.int r (1 + (i * 7919))))
    else Buffer.add_string b (Printf.sprintf "%Ld," (Rng.bits64 r))
  done;
  let s = Rng.split r in
  Buffer.add_string b (Printf.sprintf "%d %b" (Rng.int s 1000000) (Rng.bool s));
  Alcotest.(check string)
    "stream digest" "84b228d0d0876043793f77f43e021872"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_rng_assign_and_marshal () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:6 in
  ignore (Rng.int a 100);
  let blob = Marshal.to_string a [] in
  Rng.assign ~dst:b ~src:a;
  let c = (Marshal.from_string blob 0 : Rng.t) in
  for _ = 1 to 50 do
    let x = Rng.bits64 a in
    Alcotest.(check int64) "assign continues the stream" x (Rng.bits64 b);
    Alcotest.(check int64) "a marshalled copy continues the stream" x (Rng.bits64 c)
  done

(* Minor words per draw over [n] draws of [f]. *)
let words_per_draw f =
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The state is four unboxed words in a byte buffer and the rejection
   loop is a top-level function, so [int] allocates nothing; [float]
   boxes only its result (2 words).  The generator it replaced read
   about 33 and 23. *)
let test_rng_allocation_budget () =
  let rng = Rng.create ~seed:29 in
  let per_int = words_per_draw (fun i -> Rng.int rng (1 + (i land 1023))) in
  if per_int >= 1. then Alcotest.failf "Rng.int allocates %.2f minor words per draw (budget 1)" per_int;
  let per_float = words_per_draw (fun _ -> Rng.float rng) in
  if per_float > 2.2 then
    Alcotest.failf "Rng.float allocates %.2f minor words per draw (budget 2.2)" per_float

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_uniform_bounds () =
  let rng = Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    let x = Dist.uniform rng ~lo:3. ~hi:7. in
    check_bool "in [3,7)" true (x >= 3. && x < 7.)
  done

let test_dist_uniform_mean_dev () =
  let rng = Rng.create ~seed:31 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    let x = Dist.uniform_mean_dev rng ~mean:100. ~dev:50. in
    check_bool "within mean +- dev" true (x >= 50. && x <= 150.);
    Stats.add s x
  done;
  check_bool "mean near 100" true (Float.abs (Stats.mean s -. 100.) < 2.)

let test_dist_uniform_mean_dev_clamps () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 1000 do
    let x = Dist.uniform_mean_dev rng ~mean:1. ~dev:1. in
    check_bool "never negative" true (x >= 0.)
  done

let test_dist_exponential_positive_and_mean () =
  let rng = Rng.create ~seed:41 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    let x = Dist.exponential rng ~mean:20. in
    check_bool "positive" true (x >= 0.);
    Stats.add s x
  done;
  check_bool "mean near 20" true (Float.abs (Stats.mean s -. 20.) < 1.)

let test_dist_normal_moments () =
  let rng = Rng.create ~seed:43 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Dist.normal rng ~mean:10. ~std:2.)
  done;
  check_bool "mean near 10" true (Float.abs (Stats.mean s -. 10.) < 0.1);
  check_bool "std near 2" true (Float.abs (Stats.stddev s -. 2.) < 0.1)

let test_dist_normal_positive () =
  let rng = Rng.create ~seed:47 in
  for _ = 1 to 10_000 do
    check_bool "strictly positive" true (Dist.normal_positive rng ~mean:5. ~std:5. > 0.)
  done

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "is_empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_bool "pop none" true (Heap.pop h = None);
  check_bool "peek none" true (Heap.peek h = None)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~prio:p p) [ 5.; 1.; 4.; 2.; 3. ];
  let order = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] order;
  (* to_sorted_list is non-destructive *)
  check_int "still 5 elements" 5 (Heap.length h)

let test_heap_pop_order () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:53 in
  for i = 0 to 999 do
    Heap.push h ~prio:(Rng.float rng) i
  done;
  let rec drain last n =
    match Heap.pop h with
    | None -> n
    | Some (p, _) ->
        check_bool "non-decreasing" true (p >= last);
        drain p (n + 1)
  in
  check_int "drained all" 1000 (drain neg_infinity 0)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~prio:2. "b";
  Heap.push h ~prio:1. "a";
  check_bool "peek a" true (Heap.peek h = Some (1., "a"));
  check_bool "pop a" true (Heap.pop h = Some (1., "a"));
  Heap.push h ~prio:0.5 "c";
  check_bool "pop c" true (Heap.pop h = Some (0.5, "c"));
  check_bool "pop b" true (Heap.pop h = Some (2., "b"));
  check_bool "empty" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~prio:(float_of_int i) i
  done;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  Heap.push h ~prio:1. 1;
  check_int "usable after clear" 1 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any float list in order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun floats ->
      let h = Heap.create () in
      List.iter (fun f -> Heap.push h ~prio:f f) floats;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.sort compare floats)

let test_heap_min_prio_take_min () =
  let h = Heap.create () in
  check_bool "min_prio on empty raises" true
    (match Heap.min_prio h with _ -> false | exception Invalid_argument _ -> true);
  check_bool "take_min on empty raises" true
    (match Heap.take_min h with _ -> false | exception Invalid_argument _ -> true);
  List.iter (fun p -> Heap.push h ~prio:p (int_of_float p)) [ 5.; 1.; 4.; 2.; 3. ];
  (* min_prio + take_min drains exactly like pop *)
  let rec drain acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let p = Heap.min_prio h in
      let v = Heap.take_min h in
      drain ((p, v) :: acc)
    end
  in
  check_bool "drain order" true
    (drain [] = [ (1., 1); (2., 2); (3., 3); (4., 4); (5., 5) ])

let test_heap_push_batch_basic () =
  let h = Heap.create () in
  (* a batch that dominates the heap takes the bulk-append path *)
  Heap.push h ~prio:1. 1;
  Heap.push_batch h ~prios:[| 5.; 3.; 4. |] ~values:[| 5; 3; 4 |] 3;
  (* one that does not (2. undercuts the existing 3.) takes the
     push-loop path *)
  Heap.push_batch h ~prios:[| 2.; 6. |] ~values:[| 2; 6 |] 2;
  (* len < array length inserts a prefix only *)
  Heap.push_batch h ~prios:[| 0.5; 99. |] ~values:[| 0; 99 |] 1;
  check_int "length" 7 (Heap.length h);
  check_bool "drains sorted" true
    (List.map snd (Heap.to_sorted_list h) = [ 0; 1; 2; 3; 4; 5; 6 ]);
  check_bool "empty batch is a no-op" true
    (Heap.push_batch h ~prios:[||] ~values:[||] 0;
     Heap.length h = 7);
  check_bool "oversized len raises" true
    (match Heap.push_batch h ~prios:[| 1. |] ~values:[| 1; 2 |] 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Batched insertion interleaved with drains is observationally equal to
   one-at-a-time pushes: same drained (prio, value) sequences.  Values
   equal priorities so equal-priority ties (unspecified order) cannot
   produce a false mismatch. *)
let prop_heap_push_batch_equiv =
  QCheck.Test.make ~name:"push_batch equals one-at-a-time pushes" ~count:200
    QCheck.(list (pair (list_of_size Gen.(int_bound 12) (float_bound_inclusive 1000.)) (int_bound 5)))
    (fun rounds ->
      let batched = Heap.create () and reference = Heap.create () in
      let drained_b = ref [] and drained_r = ref [] in
      List.iter
        (fun (batch, drains) ->
          let prios = Array.of_list batch in
          Heap.push_batch batched ~prios ~values:prios (Array.length prios);
          Array.iter (fun p -> Heap.push reference ~prio:p p) prios;
          for _ = 1 to drains do
            if not (Heap.is_empty batched) then begin
              let p = Heap.min_prio batched in
              let v = Heap.take_min batched in
              drained_b := (p, v) :: !drained_b;
              drained_r := Option.get (Heap.pop reference) :: !drained_r
            end
          done)
        rounds;
      !drained_b = !drained_r
      && List.map fst (Heap.to_sorted_list batched)
         = List.map fst (Heap.to_sorted_list reference))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  check_float "empty mean" 0. (Stats.mean s);
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Stats.count s);
  check_float "mean" 5. (Stats.mean s);
  check_bool "variance (unbiased)" true (Float.abs (Stats.variance s -. (32. /. 7.)) < 1e-9);
  Alcotest.(check (option (float 0.))) "min" (Some 2.) (Stats.min_value s);
  Alcotest.(check (option (float 0.))) "max" (Some 9.) (Stats.max_value s);
  check_float "total" 40. (Stats.total s);
  let empty = Stats.create () in
  Alcotest.(check (option (float 0.))) "empty min" None (Stats.min_value empty);
  Alcotest.(check (option (float 0.))) "empty max" None (Stats.max_value empty)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  check_float "mean" 3.5 (Stats.mean s);
  check_float "variance" 0. (Stats.variance s);
  Alcotest.(check (option (float 0.))) "min=max" (Some 3.5) (Stats.min_value s)

let test_series_stability () =
  let s = Stats.Series.create ~window:3 ~tolerance:0.1 in
  check_bool "empty not stable" false (Stats.Series.is_stable s);
  Stats.Series.add s 10.0;
  Stats.Series.add s 10.05;
  check_bool "two samples not stable" false (Stats.Series.is_stable s);
  Stats.Series.add s 10.08;
  check_bool "three close samples stable" true (Stats.Series.is_stable s);
  Stats.Series.add s 11.0;
  check_bool "a jump breaks stability" false (Stats.Series.is_stable s);
  Stats.Series.add s 11.05;
  Stats.Series.add s 11.02;
  check_bool "stabilizes again" true (Stats.Series.is_stable s)

let test_series_exact_tolerance () =
  let s = Stats.Series.create ~window:2 ~tolerance:0.5 in
  Stats.Series.add s 1.0;
  Stats.Series.add s 1.5;
  check_bool "span equal to tolerance counts as stable" true (Stats.Series.is_stable s)

let test_series_accessors () =
  let s = Stats.Series.create ~window:3 ~tolerance:1. in
  check_bool "last of empty" true (Stats.Series.last s = None);
  Stats.Series.add s 1.;
  Stats.Series.add s 2.;
  check_bool "last" true (Stats.Series.last s = Some 2.);
  Alcotest.(check (list (float 0.))) "samples oldest first" [ 1.; 2. ] (Stats.Series.samples s)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"running mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.))
    (fun samples ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let naive = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_int "length" 100 (Bitset.length b);
  check_int "cardinal 0" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check_bool "mem 0" true (Bitset.mem b 0);
  check_bool "mem 63" true (Bitset.mem b 63);
  check_bool "mem 99" true (Bitset.mem b 99);
  check_bool "not mem 50" false (Bitset.mem b 50);
  check_int "cardinal 3" 3 (Bitset.cardinal b);
  Bitset.clear b 63;
  check_bool "cleared" false (Bitset.mem b 63);
  check_int "cardinal 2" 2 (Bitset.cardinal b)

let test_bitset_idempotent () =
  let b = Bitset.create 8 in
  Bitset.set b 3;
  Bitset.set b 3;
  check_int "double set counts once" 1 (Bitset.cardinal b);
  Bitset.clear b 3;
  Bitset.clear b 3;
  check_int "double clear counts once" 0 (Bitset.cardinal b)

let test_bitset_first_set () =
  let b = Bitset.create 200 in
  check_int "none" (-1) (Bitset.first_set_from b 0);
  Bitset.set b 17;
  Bitset.set b 130;
  check_int "finds 17" 17 (Bitset.first_set_from b 0);
  check_int "finds 17 from 17" 17 (Bitset.first_set_from b 17);
  check_int "finds 130 from 18" 130 (Bitset.first_set_from b 18);
  check_int "none from 131" (-1) (Bitset.first_set_from b 131);
  check_int "window hit" 17 (Bitset.first_set_in b ~lo:0 ~hi:18);
  check_int "window miss" (-1) (Bitset.first_set_in b ~lo:18 ~hi:130)

let test_bitset_iter () =
  let b = Bitset.create 64 in
  List.iter (Bitset.set b) [ 1; 7; 8; 31; 63 ];
  let collected = ref [] in
  Bitset.iter_set b (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iterates in order" [ 1; 7; 8; 31; 63 ] (List.rev !collected)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "index = length" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem b 10))

(* Bitsets of up to three chunks (63-bit words, 64 words to a chunk):
   dense when small, sparse enough to leave chunks unallocated when
   large; windows both long and short, so they start and end mid-word
   and cross word and chunk boundaries. *)
let prop_bitset_matches_model =
  QCheck.Test.make ~name:"bitset behaves like a bool array" ~count:300
    QCheck.(
      triple (int_range 0 9000)
        (list (pair (int_bound 8999) bool))
        (list (pair (int_range (-5) 9005) (int_range (-5) 9005))))
    (fun (n, operations, windows) ->
      let b = Bitset.create n in
      let model = Array.make n false in
      List.iter
        (fun (i, set) ->
          if n > 0 then begin
            let i = i mod n in
            if set then Bitset.set b i else Bitset.clear b i;
            model.(i) <- set
          end)
        operations;
      let model_first ~lo ~hi =
        let rec go i = if i >= min hi n then -1 else if model.(i) then i else go (i + 1) in
        go (max lo 0)
      in
      let windows =
        (0, n) :: List.concat_map (fun (lo, hi) -> [ (lo, hi); (lo, lo + (abs hi mod 130)) ]) windows
      in
      let cardinal = Array.fold_left (fun a v -> if v then a + 1 else a) 0 model in
      Bitset.length b = n
      && Bitset.cardinal b = cardinal
      && List.for_all (fun i -> Bitset.mem b i = model.(i)) (List.init n Fun.id)
      && List.for_all (fun (lo, hi) -> Bitset.first_set_in b ~lo ~hi = model_first ~lo ~hi) windows
      && List.for_all (fun (lo, _) -> Bitset.first_set_from b lo = model_first ~lo ~hi:n) windows)

(* ------------------------------------------------------------------ *)
(* Free_tree *)

let ft_of_list pairs =
  let t = Free_tree.create () in
  List.iter (fun (addr, len) -> Free_tree.insert t ~addr ~len) pairs;
  t

let test_free_tree_basic () =
  let t = ft_of_list [ (10, 5); (0, 3); (20, 10) ] in
  check_int "cardinal" 3 (Free_tree.cardinal t);
  check_int "total" 18 (Free_tree.total_len t);
  check_int "max_len" 10 (Free_tree.max_len t);
  check_int "length at 20" 10 (Free_tree.length t ~addr:20);
  check_int "length at 5 (absent)" 0 (Free_tree.length t ~addr:5);
  Alcotest.(check (list (pair int int))) "address order" [ (0, 3); (10, 5); (20, 10) ]
    (Free_tree.to_list t);
  let empty = Free_tree.create () in
  check_int "empty cardinal" 0 (Free_tree.cardinal empty);
  check_int "empty max_len" 0 (Free_tree.max_len empty)

let test_free_tree_remove () =
  let t = ft_of_list [ (0, 1); (5, 2); (9, 3) ] in
  Free_tree.remove t ~addr:5;
  check_int "cardinal" 2 (Free_tree.cardinal t);
  check_int "gone" 0 (Free_tree.length t ~addr:5);
  check_int "total adjusted" 4 (Free_tree.total_len t);
  Free_tree.remove t ~addr:12345;
  check_int "removing absent is a no-op" 2 (Free_tree.cardinal t)

let test_free_tree_neighbors () =
  let t = ft_of_list [ (0, 4); (10, 4); (20, 4) ] in
  check_int "pred of 10" 0 (Free_tree.pred t ~addr:10);
  check_int "pred of 0" (-1) (Free_tree.pred t ~addr:0);
  check_int "pred of 15" 10 (Free_tree.pred t ~addr:15);
  check_int "pred of 1000" 20 (Free_tree.pred t ~addr:1000);
  check_int "length of the pred of 15" 4 (Free_tree.length t ~addr:(Free_tree.pred t ~addr:15))

let test_free_tree_first_fit () =
  let t = ft_of_list [ (0, 2); (10, 8); (30, 4); (50, 16) ] in
  check_int "wants 1 -> lowest" 0 (Free_tree.first_fit t ~want:1);
  check_int "wants 3 -> 10" 10 (Free_tree.first_fit t ~want:3);
  check_int "wants 9 -> 50" 50 (Free_tree.first_fit t ~want:9);
  check_int "wants 17 -> none" (-1) (Free_tree.first_fit t ~want:17)

let test_free_tree_duplicate_raises () =
  let t = ft_of_list [ (1, 1); (5, 2); (9, 1) ] in
  Alcotest.check_raises "duplicate address" (Invalid_argument "Free_tree.insert: duplicate address")
    (fun () -> Free_tree.insert t ~addr:5 ~len:9);
  check_bool "unchanged" true (Free_tree.to_list t = [ (1, 1); (5, 2); (9, 1) ]);
  check_bool "invariants hold" true (Free_tree.check_invariants t = Ok ())

let test_free_tree_invariants_small () =
  let t = ft_of_list (List.init 100 (fun i -> (i * 10, (i mod 7) + 1))) in
  check_bool "invariants hold" true (Free_tree.check_invariants t = Ok ())

let test_free_tree_replace () =
  let fresh () = ft_of_list [ (0, 4); (10, 4); (20, 4) ] in
  let carved = fresh () in
  Free_tree.replace carved ~addr:10 ~new_addr:13 ~len:1;
  check_bool "front carved" true (Free_tree.to_list carved = [ (0, 4); (13, 1); (20, 4) ]);
  let grown = fresh () in
  Free_tree.replace grown ~addr:0 ~new_addr:0 ~len:10;
  check_bool "grown in place" true (Free_tree.max_len grown = 10 && Free_tree.total_len grown = 18);
  let moved = fresh () in
  Free_tree.replace moved ~addr:20 ~new_addr:15 ~len:9;
  check_bool "key moved down" true (Free_tree.to_list moved = [ (0, 4); (10, 4); (15, 9) ]);
  let t = fresh () in
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument ("Free_tree.replace: " ^ msg)) f;
    check_bool (what ^ " leaves the tree unchanged") true
      (Free_tree.to_list t = [ (0, 4); (10, 4); (20, 4) ] && Free_tree.check_invariants t = Ok ())
  in
  raises "absent key" "absent address" (fun () -> Free_tree.replace t ~addr:5 ~new_addr:5 ~len:1);
  raises "past the successor" "new address out of order" (fun () ->
      Free_tree.replace t ~addr:10 ~new_addr:25 ~len:1);
  raises "onto the predecessor" "new address out of order" (fun () ->
      Free_tree.replace t ~addr:10 ~new_addr:0 ~len:1);
  raises "onto the successor" "new address out of order" (fun () ->
      Free_tree.replace t ~addr:0 ~new_addr:10 ~len:1);
  raises "non-positive length" "non-positive length" (fun () ->
      Free_tree.replace t ~addr:0 ~new_addr:0 ~len:0)

let test_free_tree_marshal_round_trip () =
  (* A checkpoint marshals the tree whole; the decoded copy shares no
     node with the original, so later updates to one leave the other
     as it was. *)
  let t = ft_of_list (List.init 50 (fun i -> (i * 10, (i mod 5) + 1))) in
  let before = Free_tree.to_list t in
  let copy = (Marshal.from_string (Marshal.to_string t []) 0 : Free_tree.t) in
  Free_tree.remove t ~addr:0;
  Free_tree.replace t ~addr:10 ~new_addr:12 ~len:3;
  Free_tree.insert t ~addr:1000 ~len:7;
  check_bool "decoded copy unchanged" true (Free_tree.to_list copy = before);
  check_bool "decoded copy valid" true (Free_tree.check_invariants copy = Ok ());
  Free_tree.insert copy ~addr:2000 ~len:1;
  Free_tree.remove copy ~addr:490;
  check_bool "original untouched by the copy's updates" true
    (Free_tree.length t ~addr:2000 = 0 && Free_tree.length t ~addr:490 = 5);
  check_bool "copy updates in place" true
    (Free_tree.check_invariants copy = Ok () && Free_tree.cardinal copy = 50)

let prop_free_tree_model =
  (* Random insert / remove / replace sequences behave like a sorted
     association list, and the AVL invariants hold after every step.  A
     replace takes the extent at or above a random address and moves its
     key anywhere strictly between its neighbours' keys. *)
  let gen = QCheck.(list (triple (int_bound 500) (int_bound 2) (int_bound 1000))) in
  QCheck.Test.make ~name:"free tree matches a model under churn" ~count:200 gen (fun ops ->
      let model = ref [] (* sorted (addr, len) *) and tree = Free_tree.create () in
      let set m = model := List.sort compare m in
      List.for_all
        (fun (addr, op, r) ->
          (match op with
          | 0 when not (List.mem_assoc addr !model) ->
              let len = (addr mod 9) + 1 in
              set ((addr, len) :: !model);
              Free_tree.insert tree ~addr ~len
          | 0 | 1 ->
              set (List.remove_assoc addr !model);
              Free_tree.remove tree ~addr
          | _ -> (
              match List.find_opt (fun (a, _) -> a >= addr) !model with
              | None -> ()
              | Some (key, _) ->
                  let lo = List.fold_left (fun acc (a, _) -> if a < key then a else acc) (-1) !model in
                  let hi =
                    match List.find_opt (fun (a, _) -> a > key) !model with
                    | Some (a, _) -> a
                    | None -> 1000
                  in
                  let new_addr = lo + 1 + (r mod (hi - lo - 1)) and len = (r mod 13) + 1 in
                  set ((new_addr, len) :: List.remove_assoc key !model);
                  Free_tree.replace tree ~addr:key ~new_addr ~len));
          let model_pred a = List.fold_left (fun acc (k, _) -> if k < a then k else acc) (-1) !model in
          Free_tree.check_invariants tree = Ok ()
          && Free_tree.to_list tree = !model
          && Free_tree.cardinal tree = List.length !model
          && Free_tree.total_len tree = List.fold_left (fun a (_, l) -> a + l) 0 !model
          && Free_tree.max_len tree = List.fold_left (fun a (_, l) -> max a l) 0 !model
          && Free_tree.pred tree ~addr = model_pred addr
          && Free_tree.length tree ~addr
             = Option.value (List.assoc_opt addr !model) ~default:0)
        ops)

let prop_free_tree_first_fit_is_lowest =
  QCheck.Test.make ~name:"first_fit returns the lowest adequate address" ~count:200
    QCheck.(pair (small_list (pair (int_bound 1000) (int_range 1 20))) (int_range 1 20))
    (fun (pairs, want) ->
      (* Dedup addresses to satisfy the no-duplicate precondition. *)
      let seen = Hashtbl.create 16 in
      let pairs =
        List.filter
          (fun (a, _) ->
            if Hashtbl.mem seen a then false
            else begin
              Hashtbl.add seen a ();
              true
            end)
          pairs
      in
      let tree = ft_of_list pairs in
      let expected =
        match List.sort compare pairs |> List.find_opt (fun (_, l) -> l >= want) with
        | Some (addr, _) -> addr
        | None -> -1
      in
      Free_tree.first_fit tree ~want = expected)

(* ------------------------------------------------------------------ *)
(* Vec *)

let vec_to_list v = List.init (Vec.length v) (Vec.get v)

let test_vec_push_truncate () =
  let v = Vec.create () in
  check_int "empty" 0 (Vec.length v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check_int "length" 3 (Vec.length v);
  check_int "last" 3 (Vec.get v (Vec.length v - 1));
  Vec.truncate v 2;
  check_int "length after truncate" 2 (Vec.length v);
  check_int "new last" 2 (Vec.get v 1);
  Alcotest.check_raises "dropped slot" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 2))

let test_vec_get_set () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "get 50" 50 (Vec.get v 50);
  Vec.set v 50 999;
  check_int "set worked" 999 (Vec.get v 50);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 100))

let test_vec_clear () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.truncate v 3;
  check_int "truncate to the length keeps all" 3 (Vec.length v);
  Vec.truncate v 1;
  Alcotest.(check (list int)) "truncated" [ 1 ] (vec_to_list v);
  Alcotest.check_raises "past the length" (Invalid_argument "Vec.truncate") (fun () ->
      Vec.truncate v 2);
  Alcotest.check_raises "negative" (Invalid_argument "Vec.truncate") (fun () -> Vec.truncate v (-1));
  Vec.push v 4;
  Alcotest.(check (list int)) "push after truncate" [ 1; 4 ] (vec_to_list v);
  Vec.truncate v 0;
  check_int "cleared" 0 (Vec.length v)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_constants () =
  check_int "kib" 1024 Units.kib;
  check_int "mib" (1024 * 1024) Units.mib;
  check_int "of_kib" (8 * 1024) (Units.of_kib 8);
  check_int "of_mib" (16 * 1024 * 1024) (Units.of_mib 16);
  check_int "of_gib" (Units.gib * 2) (Units.of_gib 2.)

let test_units_formatting () =
  Alcotest.(check string) "bytes" "512" (Units.to_string 512);
  Alcotest.(check string) "8K" "8K" (Units.to_string (8 * 1024));
  Alcotest.(check string) "1M" "1M" (Units.to_string (1024 * 1024));
  Alcotest.(check string) "16M" "16M" (Units.to_string (16 * 1024 * 1024));
  Alcotest.(check string) "2.5G" "2.5G" (Units.to_string (Units.of_gib 2.5));
  Alcotest.(check string) "1.5K" "1.5K" (Units.to_string 1536);
  Alcotest.(check string) "negative" "-8K" (Units.to_string (-8192))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  check_bool "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 4 = "name");
  (* all lines align: every row has the same width *)
  let lines = String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "") in
  check_int "line count (header + rule + 2 rows)" 4 (List.length lines)

let test_table_pads_short_rows () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  check_bool "renders" true (String.length (Table.render t) > 0)

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "quote\"here"; "multi\nline" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "a,b" (List.hd lines);
  check_bool "comma quoted" true
    (String.length csv > 0 && List.exists (fun l -> l = "plain,\"with,comma\"") lines)

let test_table_rejects_long_rows () =
  let t = Table.create ~header:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than columns") (fun () ->
      Table.add_row t [ "1"; "2" ])

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_util"
    [
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "copy independent" test_rng_copy_independent;
          quick "split decorrelates" test_rng_split_decorrelates;
          quick "float range" test_rng_float_range;
          quick "int range" test_rng_int_range;
          quick "int covers all values" test_rng_int_covers_all;
          quick "int_in inclusive" test_rng_int_in;
          quick "uniformity" test_rng_uniformity;
          quick "stream matches frozen digest" test_rng_stream_golden;
          quick "assign and marshal continue the stream" test_rng_assign_and_marshal;
          quick "minor words per draw bounded" test_rng_allocation_budget;
        ] );
      ( "dist",
        [
          quick "uniform bounds" test_dist_uniform_bounds;
          quick "uniform mean/dev" test_dist_uniform_mean_dev;
          quick "uniform clamps at zero" test_dist_uniform_mean_dev_clamps;
          quick "exponential" test_dist_exponential_positive_and_mean;
          quick "normal moments" test_dist_normal_moments;
          quick "normal positive" test_dist_normal_positive;
        ] );
      ( "heap",
        [
          quick "empty" test_heap_empty;
          quick "ordering" test_heap_ordering;
          quick "pop order (1000 random)" test_heap_pop_order;
          quick "interleaved push/pop" test_heap_interleaved;
          quick "clear" test_heap_clear;
          quick "min_prio / take_min" test_heap_min_prio_take_min;
          quick "push_batch paths" test_heap_push_batch_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_push_batch_equiv;
        ] );
      ( "stats",
        [
          quick "welford basics" test_stats_basic;
          quick "single sample" test_stats_single;
          quick "series stability" test_series_stability;
          quick "series exact tolerance" test_series_exact_tolerance;
          quick "series accessors" test_series_accessors;
          QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
        ] );
      ( "bitset",
        [
          quick "basic" test_bitset_basic;
          quick "idempotent" test_bitset_idempotent;
          quick "first_set" test_bitset_first_set;
          quick "iter" test_bitset_iter;
          quick "bounds" test_bitset_bounds;
          QCheck_alcotest.to_alcotest prop_bitset_matches_model;
        ] );
      ( "free_tree",
        [
          quick "basic" test_free_tree_basic;
          quick "remove" test_free_tree_remove;
          quick "neighbors" test_free_tree_neighbors;
          quick "first fit" test_free_tree_first_fit;
          quick "duplicate raises" test_free_tree_duplicate_raises;
          quick "replace" test_free_tree_replace;
          quick "invariants" test_free_tree_invariants_small;
          quick "marshal round trip" test_free_tree_marshal_round_trip;
          QCheck_alcotest.to_alcotest prop_free_tree_model;
          QCheck_alcotest.to_alcotest prop_free_tree_first_fit_is_lowest;
        ] );
      ( "vec",
        [
          quick "push/truncate" test_vec_push_truncate;
          quick "get/set" test_vec_get_set;
          quick "clear" test_vec_clear;
        ] );
      ( "units",
        [ quick "constants" test_units_constants; quick "formatting" test_units_formatting ] );
      ( "table",
        [
          quick "render" test_table_render;
          quick "pads short rows" test_table_pads_short_rows;
          quick "csv export" test_table_csv;
          quick "rejects long rows" test_table_rejects_long_rows;
        ] );
    ]
