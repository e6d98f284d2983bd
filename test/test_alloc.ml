(* Tests for the allocation layer: extents, per-file extent lists, and
   the five policies (buddy, restricted buddy, extent-based,
   fixed-block, log-structured).  Policy tests use small synthetic address spaces so
   every interesting boundary is reachable. *)

module Extent = Core.Extent
module File_extents = Core.File_extents
module Policy = Core.Policy
module Buddy = Core.Buddy
module Restricted_buddy = Core.Restricted_buddy
module Extent_alloc = Core.Extent_alloc
module Fixed_block = Core.Fixed_block
module Rng = Core.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok () -> ()
  | Error `Disk_full -> Alcotest.fail "unexpected disk full"

let expect_full = function
  | Ok () -> Alcotest.fail "expected disk full"
  | Error `Disk_full -> ()

(* Invariant helpers shared by all policy tests. *)

let extents_disjoint extents =
  let sorted = List.sort Extent.compare_addr extents in
  let rec check = function
    | a :: (b :: _ as rest) -> (not (Extent.overlap a b)) && check rest
    | [ _ ] | [] -> true
  in
  check sorted

let all_extents (p : Policy.t) files =
  List.concat_map (fun file -> p.Policy.extents ~file) files

(* Conservation: free + allocated-to-files = total. *)
let check_conservation (p : Policy.t) files =
  let allocated = List.fold_left (fun acc file -> acc + p.Policy.allocated_units ~file) 0 files in
  check_int "free + allocated = total" p.Policy.total_units (p.Policy.free_units () + allocated)

(* ------------------------------------------------------------------ *)
(* Extent *)

let test_extent_basics () =
  let e = Extent.make ~addr:10 ~len:5 in
  check_int "end" 15 (Extent.end_ e);
  check_bool "contains 10" true (Extent.contains e 10);
  check_bool "contains 14" true (Extent.contains e 14);
  check_bool "not 15" false (Extent.contains e 15);
  check_bool "not 9" false (Extent.contains e 9)

let test_extent_relations () =
  let a = Extent.make ~addr:0 ~len:4 and b = Extent.make ~addr:4 ~len:4 in
  let c = Extent.make ~addr:6 ~len:4 in
  check_bool "adjacent" true (Extent.adjacent a b);
  check_bool "adjacent symmetric" true (Extent.adjacent b a);
  check_bool "not adjacent" false (Extent.adjacent a c);
  check_bool "overlap" true (Extent.overlap b c);
  check_bool "no overlap" false (Extent.overlap a c);
  check_bool "equal" true (Extent.equal a (Extent.make ~addr:0 ~len:4))

let test_extent_sub () =
  let e = Extent.make ~addr:100 ~len:10 in
  let s = Extent.sub e ~off:3 ~len:4 in
  check_int "sub addr" 103 s.Extent.addr;
  check_int "sub len" 4 s.Extent.len;
  Alcotest.check_raises "sub out of range" (Invalid_argument "Extent.sub") (fun () ->
      ignore (Extent.sub e ~off:8 ~len:4))

let test_extent_validation () =
  Alcotest.check_raises "negative addr" (Invalid_argument "Extent.make") (fun () ->
      ignore (Extent.make ~addr:(-1) ~len:1));
  Alcotest.check_raises "zero len" (Invalid_argument "Extent.make") (fun () ->
      ignore (Extent.make ~addr:0 ~len:0))

(* ------------------------------------------------------------------ *)
(* File_extents *)

let pairs_of extents = List.map (fun e -> (e.Extent.addr, e.Extent.len)) extents

let test_file_extents_push_pop () =
  let fx = File_extents.create () in
  check_int "empty" 0 (File_extents.allocated_units fx);
  File_extents.push fx ~addr:0 ~len:4;
  File_extents.push fx ~addr:10 ~len:2;
  check_int "allocated" 6 (File_extents.allocated_units fx);
  check_int "count" 2 (File_extents.count fx);
  check_int "last addr" 10 (File_extents.addr fx 1);
  check_int "last len" 2 (File_extents.len fx 1);
  check_int "offset of the last" 4 (File_extents.offset fx 1);
  File_extents.set_addr fx 1 20;
  Alcotest.(check (list (pair int int)))
    "moved, same length and order" [ (0, 4); (20, 2) ] (pairs_of (File_extents.to_list fx));
  check_int "allocated after a move" 6 (File_extents.allocated_units fx);
  File_extents.truncate fx 1;
  check_int "count after pop" 1 (File_extents.count fx);
  check_int "allocated after pop" 4 (File_extents.allocated_units fx);
  let out_of_bounds = Invalid_argument "File_extents: index out of bounds" in
  Alcotest.check_raises "addr past the end" out_of_bounds (fun () ->
      ignore (File_extents.addr fx 1 : int));
  Alcotest.check_raises "len past the end" out_of_bounds (fun () ->
      ignore (File_extents.len fx 1 : int));
  Alcotest.check_raises "set_addr past the end" out_of_bounds (fun () ->
      File_extents.set_addr fx 1 0);
  Alcotest.check_raises "truncate past the end" (Invalid_argument "File_extents.truncate")
    (fun () -> File_extents.truncate fx 2);
  Alcotest.check_raises "empty extent" (Invalid_argument "File_extents.push") (fun () ->
      File_extents.push fx ~addr:0 ~len:0);
  Alcotest.check_raises "negative address" (Invalid_argument "File_extents.push") (fun () ->
      File_extents.push fx ~addr:(-1) ~len:1)

let test_file_extents_slice_within_one () =
  let fx = File_extents.create () in
  File_extents.push fx ~addr:100 ~len:10;
  Alcotest.(check (list (pair int int)))
    "middle slice" [ (103, 4) ]
    (pairs_of (File_extents.slice fx ~off:3 ~len:4))

let test_file_extents_slice_spanning () =
  let fx = File_extents.create () in
  File_extents.push fx ~addr:0 ~len:4;
  File_extents.push fx ~addr:100 ~len:4;
  File_extents.push fx ~addr:200 ~len:4;
  (* logical units 2..9 cover the tail of e0, all of e1, half of e2 *)
  Alcotest.(check (list (pair int int)))
    "spanning slice"
    [ (2, 2); (100, 4); (200, 2) ]
    (pairs_of (File_extents.slice fx ~off:2 ~len:8))

let test_file_extents_slice_clamps () =
  let fx = File_extents.create () in
  File_extents.push fx ~addr:0 ~len:4;
  check_bool "beyond end" true (File_extents.slice fx ~off:10 ~len:5 = []);
  Alcotest.(check (list (pair int int)))
    "clamped" [ (2, 2) ]
    (pairs_of (File_extents.slice fx ~off:2 ~len:100));
  check_bool "zero length" true (File_extents.slice fx ~off:0 ~len:0 = [])

let prop_file_extents_slice_covers =
  QCheck.Test.make ~name:"slice covers exactly the requested range" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 10) (int_range 1 20))
        (pair (int_bound 50) (int_range 1 50)))
    (fun (lens, (off, len)) ->
      let fx = File_extents.create () in
      (* Lay extents at widely spaced addresses so physical ranges are
         unambiguous. *)
      List.iteri (fun i l -> File_extents.push fx ~addr:(i * 1000) ~len:l) lens;
      let total = File_extents.allocated_units fx in
      let slice = File_extents.slice fx ~off ~len in
      let covered = List.fold_left (fun acc e -> acc + e.Extent.len) 0 slice in
      let expected = max 0 (min (off + len) total - min off total) in
      covered = expected)

(* A file's extents as an [(addr, len)] list in logical order, driven
   through random steps beside the flat table and compared exactly
   after each one.  Halfway through, the table goes through a [Marshal]
   round trip, as it does inside every policy snapshot. *)
type fx_step =
  | Push of int * int
  | Truncate of int
  | Set_addr of int * int
  | Slice of int * int
  | Offset of int

let fx_step_to_string = function
  | Push (a, l) -> Printf.sprintf "push %d+%d" a l
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Set_addr (i, a) -> Printf.sprintf "set_addr %d %d" i a
  | Slice (o, l) -> Printf.sprintf "slice %d+%d" o l
  | Offset i -> Printf.sprintf "offset %d" i

let model_slice model ~off ~len =
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 model in
  let off = min off total in
  let stop = min (off + len) total in
  let _, pieces =
    List.fold_left
      (fun (pos, acc) (a, l) ->
        let lo = max off pos and hi = min stop (pos + l) in
        (pos + l, if hi > lo then (a + lo - pos, hi - lo) :: acc else acc))
      (0, []) model
  in
  List.rev pieces

let prop_file_extents_match_model =
  let step =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun a l -> Push (a, l)) (int_bound 1_000_000_000) (int_range 1 64));
          (1, map (fun k -> Truncate k) (int_bound 1000));
          (2, map2 (fun i a -> Set_addr (i, a)) (int_bound 1000) (int_bound 1_000_000_000));
          (2, map2 (fun o l -> Slice (o, l)) (int_bound 600) (int_bound 300));
          (1, map (fun i -> Offset i) (int_bound 1000));
        ])
  in
  QCheck.Test.make ~name:"file extents match a list model" ~count:300
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map fx_step_to_string steps))
       QCheck.Gen.(list_size (int_range 0 120) step))
    (fun steps ->
      let fx = ref (File_extents.create ()) in
      let model = ref [] in
      let half = List.length steps / 2 in
      List.for_all
        (fun (k, step) ->
          if k = half then fx := Marshal.from_string (Marshal.to_string !fx []) 0;
          let n = List.length !model in
          let answer_ok =
            match step with
            | Push (addr, len) ->
                File_extents.push !fx ~addr ~len;
                model := !model @ [ (addr, len) ];
                true
            | Truncate k ->
                let k = k mod (n + 1) in
                File_extents.truncate !fx k;
                model := List.filteri (fun i _ -> i < k) !model;
                true
            | Set_addr (i, addr) ->
                n = 0
                || begin
                     let i = i mod n in
                     File_extents.set_addr !fx i addr;
                     model := List.mapi (fun j (a, l) -> if j = i then (addr, l) else (a, l)) !model;
                     true
                   end
            | Slice (off, len) ->
                pairs_of (File_extents.slice !fx ~off ~len) = model_slice !model ~off ~len
            | Offset i ->
                n = 0
                || begin
                     let i = i mod n in
                     File_extents.offset !fx i
                     = List.fold_left ( + ) 0 (List.filteri (fun j _ -> j < i) (List.map snd !model))
                     && File_extents.addr !fx i = fst (List.nth !model i)
                     && File_extents.len !fx i = snd (List.nth !model i)
                   end
          in
          answer_ok
          && pairs_of (File_extents.to_list !fx) = !model
          && File_extents.count !fx = List.length !model
          && File_extents.allocated_units !fx = List.fold_left (fun acc (_, l) -> acc + l) 0 !model)
        (List.mapi (fun k step -> (k, step)) steps))

(* Words allocated (minor, plus major allocations made directly). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Pushing n extents allocates only the two arrays' doublings: with n a
   power of two, less than 2n words per array, plus a header per
   doubling.  A block per extent would add at least 3n words. *)
let test_file_extents_allocation_budget () =
  let n = 4096 in
  let fx = File_extents.create () in
  let before = allocated_words () in
  for i = 0 to n - 1 do
    File_extents.push fx ~addr:(2 * i) ~len:1
  done;
  let words = allocated_words () -. before in
  if words > float_of_int ((4 * n) + 64) then
    Alcotest.failf "pushing %d extents allocated %.0f words (budget %d)" n words ((4 * n) + 64);
  let held = Obj.reachable_words (Obj.repr fx) in
  if held > (2 * n) + 8 then
    Alcotest.failf "a table of %d extents holds %d words (budget %d)" n held ((2 * n) + 8)

(* ------------------------------------------------------------------ *)
(* Buddy *)

let buddy ?(total = 1024) ?(max_extent = 256 * 1024) () =
  Buddy.create { Buddy.unit_bytes = 1024; max_extent_bytes = max_extent } ~total_units:total

let test_buddy_doubling_growth () =
  let p = buddy () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:100);
  (* Doubling: 1,1,2,4,8,16,32,64 -> 128 allocated in 8 extents. *)
  check_int "allocated rounds up by doubling" 128 (p.Policy.allocated_units ~file:1);
  check_int "extent count" 8 (p.Policy.extent_count ~file:1);
  check_conservation p [ 1 ]

let test_buddy_extent_sizes_are_powers_of_two () =
  let p = buddy () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:300);
  List.iter
    (fun e ->
      let l = e.Extent.len in
      check_bool "power of two" true (l land (l - 1) = 0);
      check_bool "aligned to own size" true (e.Extent.addr mod l = 0))
    (p.Policy.extents ~file:1)

let test_buddy_no_extend_while_overshoot_covers () =
  let p = buddy () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:100);
  let extents_before = p.Policy.extent_count ~file:1 in
  (* 128 allocated; targets up to 128 must not allocate more. *)
  ok_or_fail (p.Policy.ensure ~file:1 ~target:128);
  check_int "no new extents" extents_before (p.Policy.extent_count ~file:1)

let test_buddy_disk_full_fails_strictly () =
  let p = buddy ~total:64 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:48);
  (* Allocated 64 (doubled); next doubling wants 64 more: impossible. *)
  expect_full (p.Policy.ensure ~file:1 ~target:65);
  (* Space allocated before the failure is kept. *)
  check_int "keeps what it had" 64 (p.Policy.allocated_units ~file:1)

let test_buddy_delete_coalesces_fully () =
  let p = buddy ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  p.Policy.create_file ~file:2 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:200);
  ok_or_fail (p.Policy.ensure ~file:2 ~target:300);
  p.Policy.delete ~file:1;
  p.Policy.delete ~file:2;
  check_int "all free" 1024 (p.Policy.free_units ());
  (* Eager coalescing must rebuild blocks of the policy's maximum order
     (the 256K cap = 256 units here). *)
  check_int "largest block restored" 256 (p.Policy.largest_free ())

let test_buddy_shrink_frees_whole_extents () =
  let p = buddy () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:128);
  (* allocated 128 = extents 1,1,2,4,8,16,32,64 *)
  p.Policy.shrink_to ~file:1 ~target:50;
  (* Can free the trailing 64 (leaves 64 >= 50) but not the 32. *)
  check_int "allocated after shrink" 64 (p.Policy.allocated_units ~file:1);
  check_conservation p [ 1 ]

let test_buddy_regrowth_after_shrink () =
  let p = buddy () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:128);
  p.Policy.shrink_to ~file:1 ~target:50;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:200);
  check_bool "regrows" true (p.Policy.allocated_units ~file:1 >= 200);
  check_bool "extents disjoint" true (extents_disjoint (all_extents p [ 1 ]))

let test_buddy_extents_disjoint_under_churn () =
  let p = buddy ~total:4096 () in
  let rng = Rng.create ~seed:99 in
  let files = List.init 10 (fun i -> i) in
  List.iter (fun f -> p.Policy.create_file ~file:f ~hint:1) files;
  for _ = 1 to 500 do
    let f = Rng.int rng 10 in
    match Rng.int rng 3 with
    | 0 ->
        ignore
          (p.Policy.ensure ~file:f ~target:(p.Policy.allocated_units ~file:f + Rng.int rng 64 + 1))
    | 1 -> p.Policy.shrink_to ~file:f ~target:(Rng.int rng (p.Policy.allocated_units ~file:f + 1))
    | _ ->
        p.Policy.delete ~file:f;
        p.Policy.create_file ~file:f ~hint:1
  done;
  check_bool "disjoint" true (extents_disjoint (all_extents p files));
  check_conservation p files

(* ------------------------------------------------------------------ *)
(* Restricted buddy *)

let rb ?(sizes = [ 1024; 8 * 1024; 64 * 1024 ]) ?(grow = 1) ?(clustered = true)
    ?(region = 256 * 1024) ?(total = 1024) () =
  Restricted_buddy.create
    (Restricted_buddy.config ~grow_factor:grow ~clustered ~region_bytes:region
       ~block_sizes_bytes:sizes ())
    ~total_units:total

let test_rb_grow_progression () =
  (* The paper's example: sizes 1K,8K with grow factor 1 allocate eight
     1K blocks before any 8K block. *)
  let p = rb ~sizes:[ 1024; 8 * 1024 ] ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:8);
  check_int "eight 1K blocks" 8 (p.Policy.extent_count ~file:1);
  List.iter (fun e -> check_int "1K block" 1 e.Extent.len) (p.Policy.extents ~file:1);
  ok_or_fail (p.Policy.ensure ~file:1 ~target:16);
  let last = List.nth (p.Policy.extents ~file:1) (p.Policy.extent_count ~file:1 - 1) in
  check_int "ninth block is 8K" 8 last.Extent.len

let test_rb_grow_factor_two_delays () =
  (* grow factor 2: sixteen 1K blocks before the first 8K block. *)
  let p = rb ~sizes:[ 1024; 8 * 1024 ] ~grow:2 ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:16);
  check_int "sixteen 1K blocks" 16 (p.Policy.extent_count ~file:1);
  ok_or_fail (p.Policy.ensure ~file:1 ~target:24);
  let last = List.nth (p.Policy.extents ~file:1) 16 in
  check_int "then 8K" 8 last.Extent.len

let test_rb_blocks_aligned () =
  let p = rb ~total:2048 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:500);
  List.iter
    (fun e -> check_bool "aligned to own size" true (e.Extent.addr mod e.Extent.len = 0))
    (p.Policy.extents ~file:1)

let test_rb_sequential_layout () =
  (* A lone file growing in an empty system should be laid out
     contiguously. *)
  let p = rb ~total:2048 () in
  p.Policy.create_file ~file:1 ~hint:1;
  for target = 1 to 64 do
    ok_or_fail (p.Policy.ensure ~file:1 ~target)
  done;
  let extents = p.Policy.extents ~file:1 in
  let rec contiguous = function
    | a :: (b :: _ as rest) -> Extent.end_ a = b.Extent.addr && contiguous rest
    | [ _ ] | [] -> true
  in
  check_bool "contiguous growth" true (contiguous extents)

let test_rb_tail_bounded_no_overshoot () =
  (* A 96K file (sizes 1K/8K/64K, g=1) must not round up to a whole 64K
     block: allocation lands exactly on the target. *)
  let p = rb ~total:2048 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:96);
  check_int "no whole-tier overshoot" 96 (p.Policy.allocated_units ~file:1)

let test_rb_coalescing_restores_large_blocks () =
  let p = rb ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:777);
  p.Policy.delete ~file:1;
  check_int "all free" 1024 (p.Policy.free_units ());
  check_int "64K blocks coalesced back" 64 (p.Policy.largest_free ())

let test_rb_strict_failure_leaves_space () =
  (* When only scattered 1K holes remain, a request that needs an 8K
     block must fail even though total free space would suffice. *)
  let p = rb ~total:128 () in
  for f = 0 to 127 do
    p.Policy.create_file ~file:f ~hint:1;
    ok_or_fail (p.Policy.ensure ~file:f ~target:1)
  done;
  for f = 0 to 63 do
    p.Policy.delete ~file:(2 * f)
  done;
  check_int "64 units free" 64 (p.Policy.free_units ());
  p.Policy.create_file ~file:1000 ~hint:1;
  (* Tail-bounded 1K steps succeed up to the progression switch... *)
  ok_or_fail (p.Policy.ensure ~file:1000 ~target:8);
  (* ...but once the grow policy demands an 8K block (and the remaining
     request is large enough to want one), no aligned free 8K block
     exists anywhere: strict failure with 56 units still free. *)
  expect_full (p.Policy.ensure ~file:1000 ~target:64);
  check_bool "external fragmentation visible" true (p.Policy.free_units () > 0)

let test_rb_unclustered_invariants () =
  let p = rb ~clustered:false ~total:2048 () in
  let files = List.init 20 (fun i -> i) in
  List.iter (fun f -> p.Policy.create_file ~file:f ~hint:1) files;
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 300 do
    let f = Rng.int rng 20 in
    ignore
      (p.Policy.ensure ~file:f ~target:(p.Policy.allocated_units ~file:f + 1 + Rng.int rng 30))
  done;
  check_bool "disjoint" true (extents_disjoint (all_extents p files));
  check_conservation p files

let test_rb_shrink_reverses_progression () =
  let p = rb ~sizes:[ 1024; 8 * 1024 ] ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:24);
  (* 8 x 1K + 2 x 8K = 24 *)
  p.Policy.shrink_to ~file:1 ~target:10;
  check_int "dropped one 8K" 16 (p.Policy.allocated_units ~file:1);
  ok_or_fail (p.Policy.ensure ~file:1 ~target:24);
  check_int "back to 24" 24 (p.Policy.allocated_units ~file:1);
  check_conservation p [ 1 ]

let test_rb_validation () =
  Alcotest.check_raises "first size must equal unit"
    (Invalid_argument "Restricted_buddy: smallest block size must equal the disk unit")
    (fun () -> ignore (rb ~sizes:[ 2048; 8192 ] ()));
  Alcotest.check_raises "sizes must divide"
    (Invalid_argument "Restricted_buddy: each block size must be a multiple of the previous")
    (fun () -> ignore (rb ~sizes:[ 1024; 3000 ] ()))

let test_rb_paper_block_sizes () =
  check_int "two sizes" 2 (List.length (Restricted_buddy.paper_block_sizes 2));
  check_int "five sizes" 5 (List.length (Restricted_buddy.paper_block_sizes 5));
  Alcotest.(check (list int))
    "the 5-size ladder"
    [ 1024; 8 * 1024; 64 * 1024; 1024 * 1024; 16 * 1024 * 1024 ]
    (Restricted_buddy.paper_block_sizes 5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Restricted_buddy.paper_block_sizes: expected 2..5") (fun () ->
      ignore (Restricted_buddy.paper_block_sizes 6))

let prop_rb_conservation_under_churn =
  QCheck.Test.make ~name:"restricted buddy conserves space under churn" ~count:50
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, clustered) ->
      let p = rb ~clustered ~total:4096 () in
      let rng = Rng.create ~seed in
      let nfiles = 12 in
      for f = 0 to nfiles - 1 do
        p.Policy.create_file ~file:f ~hint:1
      done;
      for _ = 1 to 400 do
        let f = Rng.int rng nfiles in
        match Rng.int rng 4 with
        | 0 | 1 ->
            ignore
              (p.Policy.ensure ~file:f
                 ~target:(p.Policy.allocated_units ~file:f + 1 + Rng.int rng 100))
        | 2 ->
            p.Policy.shrink_to ~file:f ~target:(Rng.int rng (p.Policy.allocated_units ~file:f + 1))
        | _ ->
            p.Policy.delete ~file:f;
            p.Policy.create_file ~file:f ~hint:1
      done;
      let files = List.init nfiles (fun i -> i) in
      let allocated =
        List.fold_left (fun acc file -> acc + p.Policy.allocated_units ~file) 0 files
      in
      p.Policy.free_units () + allocated = p.Policy.total_units
      && extents_disjoint (all_extents p files))

(* A naive reference for restricted buddy: each tier's free blocks are
   an address-sorted list, searched in Section 4.2's order — in the
   optimal region the exact size (lowest at or after the sequential
   address, else lowest in the region), then a split of the next larger
   size that has one; then an exact-size block anywhere; then a split
   anywhere — with multi-level splitting and eager coalescing, and the
   block-size rule (grow factor, tail bound) applied per request. *)
module Rb_model = struct
  type file = { totals : int array; fd_region : int; mutable rev : (int * int) list }

  type t = {
    sizes : int array;
    total : int;
    region : int;
    grow : int;
    clustered : bool;
    tail_bounded : bool;
    free : int list array;
    files : (int, file) Hashtbl.t;
    mutable next_fd : int;
  }

  let top m = Array.length m.sizes - 1
  let insert a l = List.merge compare [ a ] l

  let create ~sizes ~total ~region ~grow ~clustered ~tail_bounded =
    let m =
      {
        sizes;
        total;
        region;
        grow;
        clustered;
        tail_bounded;
        free = Array.make (Array.length sizes) [];
        files = Hashtbl.create 16;
        next_fd = 0;
      }
    in
    let rec seed addr =
      if addr < total then begin
        let rec pick k =
          if k > 0 && (addr mod sizes.(k) <> 0 || addr + sizes.(k) > total) then pick (k - 1)
          else k
        in
        let k = pick (top m) in
        m.free.(k) <- insert addr m.free.(k);
        seed (addr + sizes.(k))
      end
    in
    seed 0;
    m

  (* Lowest free tier-k address in [from, hi). *)
  let lowest m k ~from ~hi =
    match List.find_opt (fun a -> a >= from) m.free.(k) with
    | Some a when a < hi -> Some a
    | Some _ | None -> None

  let take m k a = m.free.(k) <- List.filter (( <> ) a) m.free.(k)

  let split m ~j ~k a =
    take m j a;
    for i = k to j - 1 do
      for s = 1 to (m.sizes.(i + 1) / m.sizes.(i)) - 1 do
        m.free.(i) <- insert (a + (s * m.sizes.(i))) m.free.(i)
      done
    done

  let rec coalesce m k a =
    let parent_size = if k < top m then m.sizes.(k + 1) else 0 in
    let parent = if k < top m then a - (a mod parent_size) else 0 in
    let siblings =
      if k < top m && parent + parent_size <= m.total then
        List.init (parent_size / m.sizes.(k)) (fun s -> parent + (s * m.sizes.(k)))
      else []
    in
    if siblings <> [] && List.for_all (fun b -> b = a || List.mem b m.free.(k)) siblings then begin
      m.free.(k) <- List.filter (fun b -> not (List.mem b siblings)) m.free.(k);
      coalesce m (k + 1) parent
    end
    else m.free.(k) <- insert a m.free.(k)

  let tier_of_len m len =
    let rec go k = if m.sizes.(k) = len then k else go (k + 1) in
    go 0

  let release m f (a, len) =
    let k = tier_of_len m len in
    f.totals.(k) <- f.totals.(k) - len;
    coalesce m k a

  let create_file m ~file =
    let regions = ((m.total - 1) / m.region) + 1 in
    Hashtbl.replace m.files file
      { totals = Array.make (Array.length m.sizes) 0; fd_region = m.next_fd; rev = [] };
    m.next_fd <- (m.next_fd + 1) mod regions

  let allocated f = List.fold_left (fun acc (_, l) -> acc + l) 0 f.rev

  (* One tier-k block, or None. *)
  let alloc m f k =
    let prefer =
      match f.rev with (a, l) :: _ when (a + l) mod m.sizes.(k) = 0 -> a + l | _ -> -1
    in
    let from_prefer k = if prefer > 0 then lowest m k ~from:prefer ~hi:m.total else None in
    let anywhere k =
      match from_prefer k with Some _ as hit -> hit | None -> lowest m k ~from:0 ~hi:m.total
    in
    let in_region k =
      let r = match f.rev with (a, _) :: _ -> a / m.region | [] -> f.fd_region in
      let lo = r * m.region and hi = min m.total ((r + 1) * m.region) in
      if prefer > lo && prefer < hi then
        match lowest m k ~from:prefer ~hi with
        | Some _ as hit -> hit
        | None -> lowest m k ~from:lo ~hi
      else lowest m k ~from:lo ~hi
    in
    let exact search = Option.map (fun a -> take m k a; a) (search k) in
    let rec split_from search j =
      if j > top m then None
      else
        match search j with
        | Some a ->
            split m ~j ~k a;
            Some a
        | None -> split_from search (j + 1)
    in
    let ( ||| ) x y = match x with Some _ -> x | None -> y () in
    (if m.clustered then exact in_region ||| fun () -> split_from in_region (k + 1) else None)
    ||| (fun () -> exact anywhere)
    ||| fun () -> split_from anywhere (k + 1)

  let tier m f ~target =
    let rec grow_tier i =
      if i >= top m then top m
      else if f.totals.(i) < m.grow * m.sizes.(i + 1) then i
      else grow_tier (i + 1)
    in
    let floor_tier limit =
      let rec go k = if k = 0 then 0 else if m.sizes.(k) <= limit then k else go (k - 1) in
      go (top m)
    in
    let have = allocated f in
    if m.tail_bounded then
      min (grow_tier 0) (max (floor_tier (target - have)) (floor_tier (have / 8)))
    else grow_tier 0

  let ensure m ~file ~target =
    let f = Hashtbl.find m.files file in
    let rec grow () =
      if allocated f >= target then Ok ()
      else
        let k = tier m f ~target in
        match alloc m f k with
        | None -> Error `Disk_full
        | Some a ->
            f.totals.(k) <- f.totals.(k) + m.sizes.(k);
            f.rev <- (a, m.sizes.(k)) :: f.rev;
            grow ()
    in
    grow ()

  let shrink_to m ~file ~target =
    let f = Hashtbl.find m.files file in
    let rec drop () =
      match f.rev with
      | ((_, l) as e) :: rest when allocated f - l >= target ->
          f.rev <- rest;
          release m f e;
          drop ()
      | _ -> ()
    in
    drop ()

  let delete m ~file =
    let f = Hashtbl.find m.files file in
    List.iter (release m f) (List.rev f.rev);
    Hashtbl.remove m.files file

  let free_units m =
    Array.fold_left ( + ) 0 (Array.mapi (fun k l -> m.sizes.(k) * List.length l) m.free)

  let largest_free m =
    Array.fold_left max 0 (Array.mapi (fun k l -> if l = [] then 0 else m.sizes.(k)) m.free)

  let free_hist m =
    List.filter_map
      (fun k -> match m.free.(k) with [] -> None | l -> Some (m.sizes.(k), List.length l))
      (List.init (Array.length m.sizes) Fun.id)
end

(* Block-size ladders of 2-5 sizes with ratios 2 or 4, regions of one
   to three top blocks, and a volume of three to five whole regions
   plus part of a top block.  Files grow by up to a sixth of the volume
   per step, so both the optimal region and the fall-back to the rest
   of the disk run, and the volume's tail is carved into smaller blocks
   that never coalesce.  One step in six swaps the allocator for a fresh
   one loaded from its own snapshot. *)
let prop_rb_matches_reference =
  QCheck.Test.make ~name:"restricted buddy places exactly like a sorted-list reference"
    ~count:150
    QCheck.(pair (int_bound 100_000) (quad (int_range 2 5) bool bool (int_range 1 2)))
    (fun (seed, (nsizes, clustered, tail_bounded, grow)) ->
      let rng = Rng.create ~seed in
      let sizes = Array.make nsizes 1 in
      for k = 1 to nsizes - 1 do
        sizes.(k) <- sizes.(k - 1) * if Rng.bool rng then 2 else 4
      done;
      let top = sizes.(nsizes - 1) in
      let region = top * (1 + Rng.int rng 3) in
      let total = (region * (3 + Rng.int rng 3)) + 1 + Rng.int rng (max 1 (top - 1)) in
      let cfg =
        Restricted_buddy.config ~grow_factor:grow ~clustered ~tail_bounded
          ~region_bytes:(region * 1024)
          ~block_sizes_bytes:(Array.to_list (Array.map (fun s -> s * 1024) sizes))
          ()
      in
      let make () = Restricted_buddy.create cfg ~total_units:total in
      let p = ref (make ()) in
      let m = Rb_model.create ~sizes ~total ~region ~grow ~clustered ~tail_bounded in
      let nfiles = 8 and fails = ref 0 in
      let create file =
        !p.Policy.create_file ~file ~hint:1;
        Rb_model.create_file m ~file
      in
      let ensure step file target =
        let got = !p.Policy.ensure ~file ~target in
        if got <> Rb_model.ensure m ~file ~target then
          QCheck.Test.fail_reportf "ensure outcome differs at step %d" step;
        if got <> Ok () then incr fails
      in
      let agree step =
        List.iter
          (fun file ->
            match Hashtbl.find_opt m.Rb_model.files file with
            | None ->
                if !p.Policy.file_exists ~file then
                  QCheck.Test.fail_reportf "file %d exists only in the allocator at step %d" file
                    step
            | Some f ->
                if
                  List.map (fun e -> (e.Extent.addr, e.Extent.len)) (!p.Policy.extents ~file)
                  <> List.rev f.Rb_model.rev
                then QCheck.Test.fail_reportf "file %d placed differently at step %d" file step)
          (List.init nfiles Fun.id);
        if
          not
            (!p.Policy.free_units () = Rb_model.free_units m
            && !p.Policy.largest_free () = Rb_model.largest_free m
            && !p.Policy.free_hist () = Rb_model.free_hist m)
        then QCheck.Test.fail_reportf "free space differs at step %d" step
      in
      let step_limit = max 2 (total / 6) in
      for step = 1 to 300 do
        let file = Rng.int rng nfiles in
        (if not (!p.Policy.file_exists ~file) then create file
         else
           match Rng.int rng 6 with
           | 0 | 1 | 2 ->
               ensure step file (!p.Policy.allocated_units ~file + 1 + Rng.int rng step_limit)
           | 3 ->
               let target = Rng.int rng (!p.Policy.allocated_units ~file + 1) in
               !p.Policy.shrink_to ~file ~target;
               Rb_model.shrink_to m ~file ~target
           | 4 ->
               !p.Policy.delete ~file;
               Rb_model.delete m ~file
           | _ ->
               let q = make () in
               q.Policy.ckpt_load (!p.Policy.ckpt_save ());
               p := q);
        agree step
      done;
      for file = 0 to nfiles - 1 do
        if not (!p.Policy.file_exists ~file) then create file;
        ensure (301 + file) file (total + 1);
        agree (301 + file)
      done;
      !fails >= nfiles)

(* Minor words per op of a fixed churn over 256M of 1K units: 400
   files, 100k random ensure / shrink / delete ops.  Like the extent
   budget below, a count that does not depend on the host. *)
let churn_words_per_op (p : Policy.t) =
  let rng = Rng.create ~seed:9 in
  let nfiles = 400 and ops = 100_000 in
  for file = 0 to nfiles - 1 do
    p.Policy.create_file ~file ~hint:1
  done;
  let before = Gc.minor_words () in
  for _ = 1 to ops do
    let file = Rng.int rng nfiles in
    match Rng.int rng 3 with
    | 0 ->
        ignore
          (p.Policy.ensure ~file ~target:(p.Policy.allocated_units ~file + 1 + Rng.int rng 512))
    | 1 -> p.Policy.shrink_to ~file ~target:(Rng.int rng (p.Policy.allocated_units ~file + 1))
    | _ ->
        p.Policy.delete ~file;
        p.Policy.create_file ~file ~hint:1
  done;
  (Gc.minor_words () -. before) /. float_of_int ops

(* Restricted buddy with the paper's five sizes and 32M regions. *)
let restricted_churn_words_per_op () =
  churn_words_per_op
    (Restricted_buddy.create
       (Restricted_buddy.config ~block_sizes_bytes:(Restricted_buddy.paper_block_sizes 5) ())
       ~total_units:262_144)

(* Measured with OCaml 5.1 without flambda: one [Set.Make (Int)] per
   tier read 885 words per op here, and per-tier bitmaps with
   per-region free counts 258.  A file table that reads and truncates a
   file's extents without boxing an option read 233, and 141 once [Rng]
   stopped allocating on the churn's own draws.  A flat file
   table (two int arrays per file, no block per extent) and tier
   searches lifted to top-level functions, so that no block taken or
   freed builds a closure, read 30.8.  The budget sits ~10% above
   today's count. *)
let test_restricted_allocation_budget () =
  let per_op = restricted_churn_words_per_op () in
  if per_op > 34. then
    Alcotest.failf "restricted buddy churn allocates %.1f minor words per op (budget 34)" per_op

(* ------------------------------------------------------------------ *)
(* Extent-based *)

let ext ?(fit = Extent_alloc.First_fit) ?(ranges = [ 8 * 1024 ]) ?(total = 1024) ?(seed = 3) () =
  Extent_alloc.create
    (Extent_alloc.config ~fit ~range_means_bytes:ranges ())
    ~total_units:total ~rng:(Rng.create ~seed)

let test_extent_allocates_in_extent_units () =
  let p = ext () in
  p.Policy.create_file ~file:1 ~hint:8;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:20);
  (* Extent size drawn near 8 units (std 10%): about 3 extents. *)
  let count = p.Policy.extent_count ~file:1 in
  check_bool "about three extents" true (count >= 2 && count <= 4);
  check_bool "covers target" true (p.Policy.allocated_units ~file:1 >= 20)

let test_extent_first_fit_prefers_low_addresses () =
  let p = ext ~total:100 () in
  p.Policy.create_file ~file:1 ~hint:8;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:8);
  let e1 = List.hd (p.Policy.extents ~file:1) in
  check_int "starts at 0" 0 e1.Extent.addr

let test_extent_coalescing () =
  let p = ext ~total:100 () in
  p.Policy.create_file ~file:1 ~hint:8;
  p.Policy.create_file ~file:2 ~hint:8;
  p.Policy.create_file ~file:3 ~hint:8;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:8);
  ok_or_fail (p.Policy.ensure ~file:2 ~target:8);
  ok_or_fail (p.Policy.ensure ~file:3 ~target:8);
  p.Policy.delete ~file:1;
  p.Policy.delete ~file:2;
  p.Policy.delete ~file:3;
  check_int "all free" 100 (p.Policy.free_units ());
  check_int "one coalesced run" 100 (p.Policy.largest_free ())

let test_extent_best_fit_picks_smallest_hole () =
  (* Force deterministic extent sizes by using a huge total and a mean
     far above the draw noise: we manufacture two holes by deletion and
     check which one best fit takes. *)
  let p = ext ~fit:Extent_alloc.Best_fit ~ranges:[ 8 * 1024 ] ~total:200 ~seed:11 () in
  p.Policy.create_file ~file:1 ~hint:8;
  p.Policy.create_file ~file:2 ~hint:8;
  p.Policy.create_file ~file:3 ~hint:8;
  (* three files, one extent each, consecutive *)
  ok_or_fail (p.Policy.ensure ~file:1 ~target:1);
  ok_or_fail (p.Policy.ensure ~file:2 ~target:1);
  ok_or_fail (p.Policy.ensure ~file:3 ~target:1);
  let e2 = List.hd (p.Policy.extents ~file:2) in
  (* free the middle hole (size of file 2's extent) *)
  p.Policy.delete ~file:2;
  (* a new file whose extent fits the hole should take exactly it rather
     than the large free tail *)
  p.Policy.create_file ~file:4 ~hint:8;
  ok_or_fail (p.Policy.ensure ~file:4 ~target:1);
  let e4 = List.hd (p.Policy.extents ~file:4) in
  if e4.Extent.len <= e2.Extent.len then
    check_int "reused the middle hole" e2.Extent.addr e4.Extent.addr

let test_extent_disk_full_when_no_fit () =
  let p = ext ~ranges:[ 16 * 1024 ] ~total:40 ~seed:8 () in
  p.Policy.create_file ~file:1 ~hint:16;
  (* One or two ~16-unit extents fit; pushing to the full address space
     must eventually find no extent-sized hole. *)
  ok_or_fail (p.Policy.ensure ~file:1 ~target:14);
  expect_full (p.Policy.ensure ~file:1 ~target:40)

let test_extent_range_assignment_by_hint () =
  (* With ranges 1K and 1M, a file hinted at 4K must use the 1K range
     (about 1 unit per extent), a file hinted at 1M the 1M range. *)
  let p = ext ~ranges:[ 1024; 1024 * 1024 ] ~total:4096 () in
  p.Policy.create_file ~file:1 ~hint:4;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:4);
  check_bool "small file, small extents" true (p.Policy.extent_count ~file:1 >= 3);
  p.Policy.create_file ~file:2 ~hint:1024;
  ok_or_fail (p.Policy.ensure ~file:2 ~target:2048);
  check_bool "large file, few extents" true (p.Policy.extent_count ~file:2 <= 3)

let test_extent_truncate_frees_tail () =
  let p = ext ~ranges:[ 8 * 1024 ] ~total:200 () in
  p.Policy.create_file ~file:1 ~hint:8;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:40);
  let before = p.Policy.allocated_units ~file:1 in
  p.Policy.shrink_to ~file:1 ~target:20;
  let after = p.Policy.allocated_units ~file:1 in
  check_bool "freed trailing extents" true (after < before && after >= 20);
  check_conservation p [ 1 ]

let prop_extent_conservation_and_coalescing =
  QCheck.Test.make ~name:"extent policy conserves space; full delete coalesces" ~count:50
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, first) ->
      let fit = if first then Extent_alloc.First_fit else Extent_alloc.Best_fit in
      let p = ext ~fit ~ranges:[ 4 * 1024; 32 * 1024 ] ~total:2048 ~seed () in
      let rng = Rng.create ~seed:(seed + 1) in
      let nfiles = 10 in
      for f = 0 to nfiles - 1 do
        p.Policy.create_file ~file:f ~hint:(if f mod 2 = 0 then 4 else 32)
      done;
      for _ = 1 to 300 do
        let f = Rng.int rng nfiles in
        match Rng.int rng 3 with
        | 0 ->
            ignore
              (p.Policy.ensure ~file:f
                 ~target:(p.Policy.allocated_units ~file:f + 1 + Rng.int rng 60))
        | 1 ->
            p.Policy.shrink_to ~file:f ~target:(Rng.int rng (p.Policy.allocated_units ~file:f + 1))
        | _ ->
            p.Policy.delete ~file:f;
            p.Policy.create_file ~file:f ~hint:4
      done;
      let files = List.init nfiles (fun i -> i) in
      let allocated =
        List.fold_left (fun acc file -> acc + p.Policy.allocated_units ~file) 0 files
      in
      let conserved = p.Policy.free_units () + allocated = p.Policy.total_units in
      List.iter (fun f -> p.Policy.delete ~file:f) files;
      conserved
      && p.Policy.free_units () = p.Policy.total_units
      && p.Policy.largest_free () = p.Policy.total_units)

(* A naive reference for the extent policy: free space is an
   address-sorted list of (addr, len); a claim takes the lowest adequate
   extent (first fit) or the smallest, lowest-addressed among equals
   (best fit) and carves its front; a release coalesces with both
   neighbours.  Each file's extent size is drawn by the policy's own
   rule from a generator with the same seed.  One step in five (among
   files that exist) swaps the allocator for a fresh one loaded from its
   own snapshot. *)
module Extent_model = struct
  type file = { want : int; mutable rev : (int * int) list (* last extent first *) }

  type t = {
    fit : Extent_alloc.fit;
    means : int list;
    rng : Rng.t;
    mutable free : (int * int) list;
    files : (int, file) Hashtbl.t;
  }

  let create ~fit ~means ~total ~seed =
    { fit; means; rng = Rng.create ~seed; free = [ (0, total) ]; files = Hashtbl.create 16 }

  let draw m ~hint =
    let hint_bytes = float_of_int (hint * 1024) in
    let dist mean = Float.abs (float_of_int mean -. hint_bytes) in
    let mean =
      List.fold_left (fun b x -> if dist x < dist b then x else b) (List.hd m.means) m.means
    in
    let mean = float_of_int mean in
    let bytes = Core.Dist.normal_positive m.rng ~mean ~std:(0.1 *. mean) in
    max 1 (int_of_float (Float.round (bytes /. 1024.)))

  let create_file m ~file ~hint = Hashtbl.replace m.files file { want = draw m ~hint; rev = [] }

  let allocated f = List.fold_left (fun acc (_, l) -> acc + l) 0 f.rev

  let claim m want =
    let fit =
      match m.fit with
      | Extent_alloc.First_fit -> List.find_opt (fun (_, l) -> l >= want) m.free
      | Extent_alloc.Best_fit ->
          List.fold_left
            (fun best (a, l) ->
              match best with
              | Some (_, bl) when l >= bl -> best
              | _ -> if l >= want then Some (a, l) else best)
            None m.free
    in
    Option.map
      (fun (a, l) ->
        m.free <-
          List.concat_map
            (fun (a', l') ->
              if a' <> a then [ (a', l') ] else if l > want then [ (a + want, l - want) ] else [])
            m.free;
        (a, want))
      fit

  let release m (addr, len) =
    let rec merge = function
      | (a1, l1) :: (a2, l2) :: rest when a1 + l1 = a2 -> merge ((a1, l1 + l2) :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    m.free <- merge (List.sort compare ((addr, len) :: m.free))

  let ensure m ~file ~target =
    let f = Hashtbl.find m.files file in
    let rec grow () =
      if allocated f >= target then Ok ()
      else
        match claim m f.want with
        | None -> Error `Disk_full
        | Some e ->
            f.rev <- e :: f.rev;
            grow ()
    in
    grow ()

  let shrink_to m ~file ~target =
    let f = Hashtbl.find m.files file in
    let rec drop () =
      match f.rev with
      | ((_, l) as e) :: rest when allocated f - l >= target ->
          f.rev <- rest;
          release m e;
          drop ()
      | _ -> ()
    in
    drop ()

  let delete m ~file =
    List.iter (release m) (List.rev (Hashtbl.find m.files file).rev);
    Hashtbl.remove m.files file

  let free_hist m =
    List.fold_left
      (fun acc l ->
        match acc with (s, c) :: rest when s = l -> (s, c + 1) :: rest | _ -> (l, 1) :: acc)
      []
      (List.sort compare (List.map snd m.free))
    |> List.rev
end

let prop_extent_matches_reference =
  QCheck.Test.make ~name:"extent policy places exactly like a sorted-list reference" ~count:60
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, first) ->
      let fit = if first then Extent_alloc.First_fit else Extent_alloc.Best_fit in
      let means = [ 2 * 1024; 16 * 1024 ] and total = 2048 and nfiles = 8 in
      let p = ref (ext ~fit ~ranges:means ~total ~seed ()) in
      let m = Extent_model.create ~fit ~means ~total ~seed in
      let rng = Rng.create ~seed:(seed + 1) in
      let fails = ref 0 in
      let create file =
        let hint = if Rng.bool rng then 2 else 16 in
        !p.Policy.create_file ~file ~hint;
        Extent_model.create_file m ~file ~hint
      in
      let ensure step file target =
        let got = !p.Policy.ensure ~file ~target in
        if got <> Extent_model.ensure m ~file ~target then
          QCheck.Test.fail_reportf "ensure outcome differs at step %d" step;
        if got <> Ok () then incr fails
      in
      let agree step =
        let same_files =
          List.for_all
            (fun file ->
              match Hashtbl.find_opt m.Extent_model.files file with
              | None -> not (!p.Policy.file_exists ~file)
              | Some f ->
                  List.map (fun e -> (e.Extent.addr, e.Extent.len)) (!p.Policy.extents ~file)
                  = List.rev f.Extent_model.rev)
            (List.init nfiles Fun.id)
        in
        let total_free = List.fold_left (fun acc (_, l) -> acc + l) 0 m.Extent_model.free in
        let largest = List.fold_left (fun acc (_, l) -> max acc l) 0 m.Extent_model.free in
        if
          not
            (same_files
            && !p.Policy.free_units () = total_free
            && !p.Policy.largest_free () = largest
            && !p.Policy.free_hist () = Extent_model.free_hist m)
        then QCheck.Test.fail_reportf "diverged from the reference at step %d" step
      in
      for step = 1 to 300 do
        let file = Rng.int rng nfiles in
        (if not (!p.Policy.file_exists ~file) then create file
         else
           match Rng.int rng 5 with
           | 0 | 1 -> ensure step file (!p.Policy.allocated_units ~file + 1 + Rng.int rng 200)
           | 2 ->
               let target = Rng.int rng (!p.Policy.allocated_units ~file + 1) in
               !p.Policy.shrink_to ~file ~target;
               Extent_model.shrink_to m ~file ~target
           | 3 ->
               !p.Policy.delete ~file;
               Extent_model.delete m ~file
           | _ ->
               (* A fresh allocator, seeded differently, loaded from the
                  snapshot: the free tree, the size index and the
                  extent-size stream all come from the blob. *)
               let q = ext ~fit ~ranges:means ~total ~seed:(seed + 17) () in
               q.Policy.ckpt_load (!p.Policy.ckpt_save ());
               p := q);
        agree step
      done;
      (* Finally grow every file past the volume: each run ends on
         Disk_full, with whatever fits carved first. *)
      for file = 0 to nfiles - 1 do
        if not (!p.Policy.file_exists ~file) then create file;
        ensure (301 + file) file (total + 1);
        agree (301 + file)
      done;
      !fails >= nfiles)

(* Minor words per op of a fixed churn on the extent policy: 65 536
   units, 400 files over three extent ranges, 100k random
   ensure / shrink / delete ops.  Wall time depends on the host; this
   count does not. *)
let extent_churn_words_per_op fit =
  let p = ext ~fit ~ranges:[ 4 * 1024; 32 * 1024; 256 * 1024 ] ~total:65_536 ~seed:7 () in
  let rng = Rng.create ~seed:9 in
  let nfiles = 400 and ops = 100_000 in
  let hint () = match Rng.int rng 3 with 0 -> 4 | 1 -> 32 | _ -> 256 in
  for file = 0 to nfiles - 1 do
    p.Policy.create_file ~file ~hint:(hint ())
  done;
  let before = Gc.minor_words () in
  for _ = 1 to ops do
    let file = Rng.int rng nfiles in
    match Rng.int rng 3 with
    | 0 ->
        ignore
          (p.Policy.ensure ~file ~target:(p.Policy.allocated_units ~file + 1 + Rng.int rng 128))
    | 1 -> p.Policy.shrink_to ~file ~target:(Rng.int rng (p.Policy.allocated_units ~file + 1))
    | _ ->
        p.Policy.delete ~file;
        p.Policy.create_file ~file ~hint:(hint ())
  done;
  (Gc.minor_words () -. before) /. float_of_int ops

(* Measured with OCaml 5.1 without flambda: one free-tree update per
   carved run, and no by-size index under first fit, brought this churn
   from 1329 (first fit) / 1258 (best fit) words per op to 492 / 797.
   Releasing a deleted or truncated file's pieces one address-contiguous
   run at a time, into a free tree updated in place (only an insert
   allocates, one node), brought it to 158 / 391.  An allocation-free
   [Rng] (the churn's own draws) brought it to 39.3 / 271.9, and a flat
   file table (two int arrays per file, no block per extent) to
   31.0 / 263.6.  Each budget sits ~10% above today's count, so all of
   the older designs fail it. *)
let test_extent_allocation_budget () =
  List.iter
    (fun (fit, name, budget) ->
      let per_op = extent_churn_words_per_op fit in
      if per_op > budget then
        Alcotest.failf "%s churn allocates %.1f minor words per op (budget %.0f)" name per_op
          budget)
    [ (Extent_alloc.First_fit, "first fit", 34.); (Extent_alloc.Best_fit, "best fit", 290.) ]

(* ------------------------------------------------------------------ *)
(* Fixed block *)

let fixed ?(block = 4096) ?(aged = false) ?(total = 1024) () =
  Fixed_block.create
    (Fixed_block.config ~aged ~block_bytes:block ())
    ~total_units:total ~rng:(Rng.create ~seed:12)

let test_fixed_allocates_whole_blocks () =
  let p = fixed () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:5);
  (* 4K blocks = 4 units; 5 units need 2 blocks. *)
  check_int "rounded to blocks" 8 (p.Policy.allocated_units ~file:1);
  check_int "two blocks" 2 (p.Policy.extent_count ~file:1)

let test_fixed_unaged_sequential () =
  let p = fixed () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:16);
  let addrs = List.map (fun e -> e.Extent.addr) (p.Policy.extents ~file:1) in
  Alcotest.(check (list int)) "address order from head" [ 0; 4; 8; 12 ] addrs

let test_fixed_aged_scatters () =
  let p = fixed ~aged:true ~total:4096 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:64);
  let addrs = List.map (fun e -> e.Extent.addr) (p.Policy.extents ~file:1) in
  let sorted = List.sort compare addrs in
  check_bool "not in address order" true (addrs <> sorted)

let test_fixed_free_list_recycles () =
  let p = fixed ~total:16 () in
  (* 4 blocks total *)
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:16);
  expect_full (p.Policy.ensure ~file:1 ~target:17);
  p.Policy.delete ~file:1;
  check_int "all free" 16 (p.Policy.free_units ());
  p.Policy.create_file ~file:2 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:2 ~target:16)

let test_fixed_truncate () =
  let p = fixed () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:16);
  p.Policy.shrink_to ~file:1 ~target:6;
  check_int "two blocks remain" 8 (p.Policy.allocated_units ~file:1);
  check_conservation p [ 1 ]

let test_fixed_rejects_bad_block () =
  Alcotest.check_raises "block not multiple of unit"
    (Invalid_argument "Fixed_block.create: block size must be a multiple of the unit") (fun () ->
      ignore
        (Fixed_block.create
           (Fixed_block.config ~block_bytes:3000 ())
           ~total_units:100 ~rng:(Rng.create ~seed:0)))

(* The free list as [Stdlib.Queue]: blocks come off the head and go
   back on the tail, last first on a shrink and in logical order on a
   delete.  Files are lists of block addresses in logical order. *)
module Fixed_model = struct
  type t = { free : int Queue.t; files : (int, int list) Hashtbl.t; block : int }

  let create ~order ~block =
    let free = Queue.create () in
    Array.iter (fun a -> Queue.add a free) order;
    { free; files = Hashtbl.create 16; block }

  let blocks m ~file = Option.value ~default:[] (Hashtbl.find_opt m.files file)

  let ensure m ~file ~target =
    let rec go acc =
      if List.length acc * m.block >= target then Ok acc
      else if Queue.is_empty m.free then Error acc
      else go (acc @ [ Queue.take m.free ])
    in
    let r = go (blocks m ~file) in
    let acc = match r with Ok a | Error a -> a in
    Hashtbl.replace m.files file acc;
    Result.is_ok r

  let shrink_to m ~file ~target =
    let kept = ref (blocks m ~file) in
    let rec drop () =
      match List.rev !kept with
      | last :: rest when List.length rest * m.block >= target ->
          Queue.add last m.free;
          kept := List.rev rest;
          drop ()
      | _ -> ()
    in
    drop ();
    Hashtbl.replace m.files file !kept

  let delete m ~file =
    List.iter (fun a -> Queue.add a m.free) (blocks m ~file);
    Hashtbl.remove m.files file
end

let prop_fixed_matches_reference =
  QCheck.Test.make ~name:"fixed block places exactly like a FIFO queue model" ~count:100
    QCheck.(pair small_nat bool)
    (fun (seed, aged) ->
      let block = 4 and total = 512 and nfiles = 6 in
      let make () =
        Fixed_block.create
          (Fixed_block.config ~aged ~block_bytes:(block * 1024) ())
          ~total_units:total ~rng:(Rng.create ~seed)
      in
      (* The model starts from the same shuffled order: the blocks one
         file takes from a fresh policy that it empties. *)
      let order =
        let q = make () in
        q.Policy.create_file ~file:0 ~hint:1;
        ignore (q.Policy.ensure ~file:0 ~target:(total + 1));
        Array.of_list (List.map (fun e -> e.Extent.addr) (q.Policy.extents ~file:0))
      in
      let p = ref (make ()) in
      let m = Fixed_model.create ~order ~block in
      let rng = Rng.create ~seed:(seed + 1) in
      let agree () =
        List.for_all
          (fun file ->
            (not (!p.Policy.file_exists ~file))
            || List.map (fun e -> e.Extent.addr) (!p.Policy.extents ~file)
               = Fixed_model.blocks m ~file)
          (List.init nfiles Fun.id)
        && !p.Policy.free_units () = Queue.length m.Fixed_model.free * block
      in
      let ok = ref true in
      for file = 0 to nfiles - 1 do
        !p.Policy.create_file ~file ~hint:1
      done;
      for _ = 1 to 300 do
        let file = Rng.int rng nfiles in
        (match Rng.int rng 5 with
        | 0 | 1 ->
            let target = !p.Policy.allocated_units ~file + 1 + Rng.int rng 64 in
            let full = Result.is_error (!p.Policy.ensure ~file ~target) in
            if full = Fixed_model.ensure m ~file ~target then ok := false
        | 2 ->
            let target = Rng.int rng (!p.Policy.allocated_units ~file + 1) in
            !p.Policy.shrink_to ~file ~target;
            Fixed_model.shrink_to m ~file ~target
        | 3 ->
            !p.Policy.delete ~file;
            Fixed_model.delete m ~file;
            !p.Policy.create_file ~file ~hint:1
        | _ ->
            let q = make () in
            q.Policy.ckpt_load (!p.Policy.ckpt_save ());
            p := q);
        if not (agree ()) then ok := false
      done;
      !ok)

(* The 256M churn above, on 4K blocks.  Measured with OCaml 5.1 without
   flambda: boxed extents and a [Stdlib.Queue] free list (a cell per
   freed block, live until the block is taken again) read 227.7 words
   per op; the flat file table with the same queue 163.2; the flat
   table with an int ring 99.3.  The budget sits ~10% above today's
   count. *)
let test_fixed_allocation_budget () =
  let per_op = churn_words_per_op (fixed ~aged:true ~total:262_144 ()) in
  if per_op > 109. then
    Alcotest.failf "fixed block churn allocates %.1f minor words per op (budget 109)" per_op

(* ------------------------------------------------------------------ *)
(* Log-structured *)

module Log_structured = Core.Log_structured

let lfs ?(seg = 64 * 1024) ?(total = 1024) () =
  Log_structured.create
    (Log_structured.config ~segment_bytes:seg ~clean_threshold:2 ~clean_target:4 ())
    ~total_units:total

let test_lfs_appends_contiguously () =
  let p = lfs () in
  p.Policy.create_file ~file:1 ~hint:1;
  p.Policy.create_file ~file:2 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:10);
  ok_or_fail (p.Policy.ensure ~file:2 ~target:10);
  ok_or_fail (p.Policy.ensure ~file:1 ~target:20);
  (* All allocation bumps the same log head: extents are adjacent in
     allocation order across files. *)
  let all =
    List.sort Extent.compare_addr (p.Policy.extents ~file:1 @ p.Policy.extents ~file:2)
  in
  let rec adjacent = function
    | a :: (b :: _ as rest) -> Extent.end_ a = b.Extent.addr && adjacent rest
    | [ _ ] | [] -> true
  in
  check_bool "log is dense" true (adjacent all);
  check_int "file 1 target met" 20 (p.Policy.allocated_units ~file:1)

let test_lfs_extents_bounded_by_segment () =
  let p = lfs ~seg:(16 * 1024) ~total:1024 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:100);
  List.iter
    (fun e ->
      check_bool "within one segment" true
        (e.Extent.addr / 16 = (Extent.end_ e - 1) / 16))
    (p.Policy.extents ~file:1)

let test_lfs_whole_delete_reclaims_everything () =
  let p = lfs ~total:1024 () in
  let files = List.init 8 (fun i -> i) in
  List.iter
    (fun f ->
      p.Policy.create_file ~file:f ~hint:1;
      ok_or_fail (p.Policy.ensure ~file:f ~target:100))
    files;
  List.iter (fun f -> p.Policy.delete ~file:f) files;
  (* Fully dead segments are reclaimed for free; only the head's
     partial fill can linger, and it holds no live data. *)
  check_bool "almost everything free" true (p.Policy.free_units () >= 1024 - 64)

let test_lfs_cleaner_compacts_garbage () =
  let p = lfs ~seg:(16 * 1024) ~total:256 () in
  (* Interleave two files across all segments, then delete one: every
     segment is half dead.  Growing a third file must succeed because
     the cleaner compacts the survivors. *)
  p.Policy.create_file ~file:1 ~hint:1;
  p.Policy.create_file ~file:2 ~hint:1;
  for target = 1 to 100 do
    ok_or_fail (p.Policy.ensure ~file:1 ~target);
    ok_or_fail (p.Policy.ensure ~file:2 ~target)
  done;
  p.Policy.delete ~file:1;
  p.Policy.create_file ~file:3 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:3 ~target:100);
  check_int "survivor intact" 100 (p.Policy.allocated_units ~file:2);
  check_bool "extents disjoint after compaction" true
    (extents_disjoint (all_extents p [ 2; 3 ]))

let test_lfs_relocation_preserves_logical_order () =
  let p = lfs ~seg:(16 * 1024) ~total:256 () in
  p.Policy.create_file ~file:1 ~hint:1;
  p.Policy.create_file ~file:2 ~hint:1;
  for target = 1 to 90 do
    ok_or_fail (p.Policy.ensure ~file:1 ~target);
    ok_or_fail (p.Policy.ensure ~file:2 ~target)
  done;
  let logical_len = p.Policy.allocated_units ~file:2 in
  p.Policy.delete ~file:1;
  (* Force cleaning by allocating. *)
  p.Policy.create_file ~file:3 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:3 ~target:100);
  check_int "length preserved through relocation" logical_len
    (p.Policy.allocated_units ~file:2);
  (* slice still covers the whole range exactly *)
  let covered =
    List.fold_left (fun a e -> a + e.Extent.len) 0 (p.Policy.slice ~file:2 ~off:0 ~len:logical_len)
  in
  check_int "slice covers file" logical_len covered

let test_lfs_disk_full () =
  let p = lfs ~seg:(16 * 1024) ~total:64 () in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:60);
  expect_full (p.Policy.ensure ~file:1 ~target:80)

let test_lfs_validation () =
  Alcotest.check_raises "segment multiple of unit"
    (Invalid_argument "Log_structured.create: segment size must be a multiple of the unit")
    (fun () -> ignore (Log_structured.create (Log_structured.config ~segment_bytes:1500 ()) ~total_units:1024));
  Alcotest.check_raises "threshold ordering"
    (Invalid_argument "Log_structured.create: need clean_target > clean_threshold >= 1")
    (fun () ->
      ignore
        (Log_structured.create
           (Log_structured.config ~clean_threshold:4 ~clean_target:4 ())
           ~total_units:4096))

(* ------------------------------------------------------------------ *)
(* Every policy *)

let policies =
  [
    ("buddy", fun () -> buddy ());
    ("restricted buddy", fun () -> rb ());
    ("extent", fun () -> ext ());
    ("fixed block", fun () -> fixed ());
    ("log-structured", fun () -> lfs ~seg:(32 * 1024) ());
  ]

(* [steps] random grows, shrinks and delete-then-recreates over files
   [0, nfiles). *)
let churn (p : Policy.t) rng ~nfiles ~steps =
  try
    for _ = 1 to steps do
      let f = Rng.int rng nfiles in
      match Rng.int rng 3 with
      | 0 ->
          ignore
            (p.Policy.ensure ~file:f ~target:(p.Policy.allocated_units ~file:f + 1 + Rng.int rng 60))
      | 1 -> p.Policy.shrink_to ~file:f ~target:(Rng.int rng (p.Policy.allocated_units ~file:f + 1))
      | _ ->
          p.Policy.delete ~file:f;
          p.Policy.create_file ~file:f ~hint:1
    done
  with Invalid_argument _ -> ()

(* After churn: extents are disjoint, each file's allocation is the sum
   of its extents and free space is non-negative.  Then ckpt_save ->
   ckpt_load into a fresh policy -> ckpt_save gives the same bytes, and
   the same further churn leaves both policies with the same extents.
   Forty files share hash buckets in a 256-bucket table, so a load that
   rebuilt the file table binding by binding would reorder its chains
   and change the re-saved bytes.  On 1024 units the churn runs every
   policy into Disk_full on most seeds and the log-structured cleaner
   on every seed; the property checks the latter, so the round trip
   covers relocated extents. *)
let prop_churn_invariants name =
  let make = List.assoc name policies in
  QCheck.Test.make ~name:(name ^ " survives churn with disjoint extents") ~count:40
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = make () in
      let nfiles = 40 in
      for f = 0 to nfiles - 1 do
        p.Policy.create_file ~file:f ~hint:1
      done;
      churn p (Rng.create ~seed) ~nfiles ~steps:400;
      let files = List.init nfiles (fun i -> i) in
      let cleaned =
        name <> "log-structured" || (p.Policy.churn_stats ()).Policy.cs_cleaner_passes > 0
      in
      let invariants =
        cleaned
        && extents_disjoint (all_extents p files)
        && p.Policy.free_units () >= 0
        && List.for_all
             (fun f ->
               let a = p.Policy.allocated_units ~file:f in
               let covered =
                 List.fold_left (fun acc e -> acc + e.Extent.len) 0 (p.Policy.extents ~file:f)
               in
               a = covered)
             files
      in
      let blob = p.Policy.ckpt_save () in
      let q = make () in
      q.Policy.ckpt_load blob;
      let same_bytes = String.equal blob (q.Policy.ckpt_save ()) in
      churn p (Rng.create ~seed:(seed + 1)) ~nfiles ~steps:100;
      churn q (Rng.create ~seed:(seed + 1)) ~nfiles ~steps:100;
      let same_layout =
        List.for_all (fun file -> p.Policy.extents ~file = q.Policy.extents ~file) files
        && p.Policy.free_hist () = q.Policy.free_hist ()
      in
      invariants && same_bytes && same_layout)

(* A snapshot's object count, from its [Marshal] header: magic number,
   data length, then the number of objects, each big-endian 32-bit. *)
let marshalled_objects blob =
  if String.get_int32_be blob 0 <> 0x8495A6BEl then Alcotest.fail "unexpected Marshal header";
  Int32.to_int (String.get_int32_be blob 8)

(* After the 256M churn on 1K blocks (~165 extents per file), the policy
   state is a few blocks per file, not one per extent.  Measured with
   OCaml 5.1 without flambda: 1,603 objects for 400 files and 65,920
   extents, and a file table of 3.84 words per extent (two arrays that
   grow by doubling and keep their capacity when a file shrinks).  A
   record per extent read 286,027 objects and 7.85 words per extent.
   The budgets sit ~10% above today's counts. *)
let test_policy_state_per_file () =
  let nfiles = 400 in
  let p =
    Fixed_block.create
      (Fixed_block.config ~block_bytes:1024 ())
      ~total_units:262_144 ~rng:(Rng.create ~seed:12)
  in
  ignore (churn_words_per_op p : float);
  let extents =
    List.fold_left (fun acc file -> acc + p.Policy.extent_count ~file) 0 (List.init nfiles Fun.id)
  in
  let blob = p.Policy.ckpt_save () in
  let objects = marshalled_objects blob in
  if objects > (4 * nfiles) + 160 then
    Alcotest.failf "%d files of %d extents marshal as %d objects (budget %d)" nfiles extents objects
      ((4 * nfiles) + 160);
  (* Only the file table is read from the decoded state, so its
     per-file data and free structure can stay untyped. *)
  let st : (Obj.t, Obj.t) Policy.state = Marshal.from_string blob 0 in
  let per_extent =
    float_of_int (Obj.reachable_words (Obj.repr st.Policy.files)) /. float_of_int extents
  in
  if per_extent > 4.2 then
    Alcotest.failf "the file table holds %.2f words per extent (budget 4.2)" per_extent

let test_unknown_and_duplicate_files () =
  List.iter
    (fun (name, make) ->
      let p : Policy.t = make () in
      p.Policy.create_file ~file:1 ~hint:1;
      let raises what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s: %s did not raise Invalid_argument" name what
      in
      raises "duplicate create_file" (fun () -> p.Policy.create_file ~file:1 ~hint:1);
      check_bool (name ^ ": unknown file does not exist") false (p.Policy.file_exists ~file:2);
      raises "ensure" (fun () -> ignore (p.Policy.ensure ~file:2 ~target:1));
      raises "shrink_to" (fun () -> p.Policy.shrink_to ~file:2 ~target:0);
      raises "delete" (fun () -> p.Policy.delete ~file:2);
      raises "allocated_units" (fun () -> ignore (p.Policy.allocated_units ~file:2));
      raises "extent_count" (fun () -> ignore (p.Policy.extent_count ~file:2));
      raises "extents" (fun () -> ignore (p.Policy.extents ~file:2));
      raises "slice" (fun () -> ignore (p.Policy.slice ~file:2 ~off:0 ~len:1));
      p.Policy.delete ~file:1;
      raises "deleted file" (fun () -> ignore (p.Policy.allocated_units ~file:1)))
    policies

(* ------------------------------------------------------------------ *)
(* Policy helpers *)

(* A toy policy over [Policy.make] that hands out scripted extents and
   records every release, to pin how [delete] and [shrink_to] call
   [give] and [give_run]. *)
type toy = { mutable script : (int * int) list; mutable log : (string * int * int) list }

let toy_policy ~runs script =
  let space = { script; log = [] } in
  let give_run =
    if runs then Some (fun s () ~addr ~len -> s.log <- ("run", addr, len) :: s.log) else None
  in
  let take (st : (unit, toy) Policy.state) ~file:_ (f : unit Policy.file) ~target:_ =
    match st.Policy.space.script with
    | (addr, len) :: rest ->
        st.Policy.space.script <- rest;
        File_extents.push f.Policy.fx ~addr ~len;
        true
    | [] -> false
  in
  let p =
    Policy.make ~name:"toy" ~unit_bytes:1 ~total_units:1000
      ~new_file:(fun _ ~hint:_ -> ())
      ~take
      ~give:(fun s () ~addr ~len -> s.log <- ("piece", addr, len) :: s.log)
      ?give_run
      ~free_units:(fun _ -> 0)
      ~largest_free:(fun _ -> 0)
      ~free_hist:(fun _ -> [])
      space
  in
  (p, space)

(* Pieces in logical order; address-contiguous runs [10, 16), [30, 32),
   [40, 48), then [50, 52) and [48, 50): a piece below the one before
   it starts a run of its own. *)
let toy_script = [ (10, 2); (12, 3); (15, 1); (30, 2); (40, 4); (44, 4); (50, 2); (48, 2) ]

let toy_file ~runs =
  let p, space = toy_policy ~runs toy_script in
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:20);
  check_int "every scripted piece taken" 8 (p.Policy.extent_count ~file:1);
  (p, space)

let take_log space =
  let log = List.rev space.log in
  space.log <- [];
  log

let check_log = Alcotest.(check (list (triple string int int)))

let test_policy_release_by_run () =
  let p, space = toy_file ~runs:true in
  p.Policy.shrink_to ~file:1 ~target:20;
  check_log "nothing to free" [] (take_log space);
  (* Offsets 0 2 5 6 8 12 16 18: pieces from offset 5 on go. *)
  p.Policy.shrink_to ~file:1 ~target:5;
  check_log "one call per trailing run"
    [ ("run", 15, 1); ("run", 30, 2); ("run", 40, 8); ("run", 50, 2); ("run", 48, 2) ]
    (take_log space);
  check_int "allocation kept" 5 (p.Policy.allocated_units ~file:1);
  check_int "pieces kept" 2 (p.Policy.extent_count ~file:1);
  p.Policy.delete ~file:1;
  check_log "delete: one call for the rest" [ ("run", 10, 5) ] (take_log space);
  let p, space = toy_file ~runs:true in
  p.Policy.delete ~file:1;
  check_log "delete: one call per run, in logical order"
    [ ("run", 10, 6); ("run", 30, 2); ("run", 40, 8); ("run", 50, 2); ("run", 48, 2) ]
    (take_log space);
  check_bool "forgotten" false (p.Policy.file_exists ~file:1)

let test_policy_release_by_piece () =
  let p, space = toy_file ~runs:false in
  p.Policy.shrink_to ~file:1 ~target:5;
  check_log "shrink: one call per piece, last first"
    [
      ("piece", 48, 2);
      ("piece", 50, 2);
      ("piece", 44, 4);
      ("piece", 40, 4);
      ("piece", 30, 2);
      ("piece", 15, 1);
    ]
    (take_log space);
  check_int "allocation kept" 5 (p.Policy.allocated_units ~file:1);
  let p, space = toy_file ~runs:false in
  p.Policy.delete ~file:1;
  check_log "delete: one call per piece, in logical order"
    (List.map (fun (a, l) -> ("piece", a, l)) toy_script)
    (take_log space)

let test_policy_units_of_bytes () =
  let p = fixed () in
  check_int "zero" 0 (Policy.units_of_bytes p 0);
  check_int "one byte is one unit" 1 (Policy.units_of_bytes p 1);
  check_int "exactly one unit" 1 (Policy.units_of_bytes p 1024);
  check_int "one over" 2 (Policy.units_of_bytes p 1025);
  check_int "bytes back" 2048 (Policy.bytes_of_units p 2)

let test_policy_utilization () =
  let p = fixed ~total:100 () in
  check_bool "starts empty" true (Policy.utilization p < 0.05);
  p.Policy.create_file ~file:1 ~hint:1;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:48);
  check_bool "about half" true (Float.abs (Policy.utilization p -. 0.48) < 0.05)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_alloc"
    [
      ( "extent type",
        [
          quick "basics" test_extent_basics;
          quick "relations" test_extent_relations;
          quick "sub" test_extent_sub;
          quick "validation" test_extent_validation;
        ] );
      ( "file extents",
        [
          quick "push/pop" test_file_extents_push_pop;
          quick "slice within one extent" test_file_extents_slice_within_one;
          quick "slice spanning" test_file_extents_slice_spanning;
          quick "slice clamps" test_file_extents_slice_clamps;
          QCheck_alcotest.to_alcotest prop_file_extents_slice_covers;
          QCheck_alcotest.to_alcotest prop_file_extents_match_model;
          quick "pushes allocate only array doublings" test_file_extents_allocation_budget;
        ] );
      ( "buddy",
        [
          quick "doubling growth" test_buddy_doubling_growth;
          quick "power-of-two extents" test_buddy_extent_sizes_are_powers_of_two;
          quick "overshoot covers later extends" test_buddy_no_extend_while_overshoot_covers;
          quick "strict disk full" test_buddy_disk_full_fails_strictly;
          quick "delete coalesces fully" test_buddy_delete_coalesces_fully;
          quick "shrink frees whole extents" test_buddy_shrink_frees_whole_extents;
          quick "regrowth after shrink" test_buddy_regrowth_after_shrink;
          quick "disjoint under churn" test_buddy_extents_disjoint_under_churn;
          QCheck_alcotest.to_alcotest (prop_churn_invariants "buddy");
        ] );
      ( "restricted buddy",
        [
          quick "grow progression (paper example)" test_rb_grow_progression;
          quick "grow factor 2 delays" test_rb_grow_factor_two_delays;
          quick "blocks aligned" test_rb_blocks_aligned;
          quick "sequential layout" test_rb_sequential_layout;
          quick "tail-bounded allocation" test_rb_tail_bounded_no_overshoot;
          quick "coalescing restores large blocks" test_rb_coalescing_restores_large_blocks;
          quick "strict failure leaves space" test_rb_strict_failure_leaves_space;
          quick "unclustered invariants" test_rb_unclustered_invariants;
          quick "shrink reverses progression" test_rb_shrink_reverses_progression;
          quick "config validation" test_rb_validation;
          quick "paper block sizes" test_rb_paper_block_sizes;
          QCheck_alcotest.to_alcotest prop_rb_conservation_under_churn;
          QCheck_alcotest.to_alcotest prop_rb_matches_reference;
          Alcotest.test_case "minor words per churn op bounded" `Slow
            test_restricted_allocation_budget;
          QCheck_alcotest.to_alcotest (prop_churn_invariants "restricted buddy");
        ] );
      ( "extent policy",
        [
          quick "allocates in extent units" test_extent_allocates_in_extent_units;
          quick "first fit prefers low addresses" test_extent_first_fit_prefers_low_addresses;
          quick "coalescing" test_extent_coalescing;
          quick "best fit picks smallest hole" test_extent_best_fit_picks_smallest_hole;
          quick "disk full when no fit" test_extent_disk_full_when_no_fit;
          quick "range assignment by hint" test_extent_range_assignment_by_hint;
          quick "truncate frees tail" test_extent_truncate_frees_tail;
          QCheck_alcotest.to_alcotest prop_extent_conservation_and_coalescing;
          QCheck_alcotest.to_alcotest prop_extent_matches_reference;
          Alcotest.test_case "minor words per churn op bounded" `Slow test_extent_allocation_budget;
          QCheck_alcotest.to_alcotest (prop_churn_invariants "extent");
        ] );
      ( "fixed block",
        [
          quick "whole blocks" test_fixed_allocates_whole_blocks;
          quick "unaged sequential" test_fixed_unaged_sequential;
          quick "aged scatters" test_fixed_aged_scatters;
          quick "free list recycles" test_fixed_free_list_recycles;
          quick "truncate" test_fixed_truncate;
          quick "bad block size" test_fixed_rejects_bad_block;
          QCheck_alcotest.to_alcotest prop_fixed_matches_reference;
          Alcotest.test_case "minor words per churn op bounded" `Slow test_fixed_allocation_budget;
          QCheck_alcotest.to_alcotest (prop_churn_invariants "fixed block");
        ] );
      ( "log structured",
        [
          quick "appends contiguously" test_lfs_appends_contiguously;
          quick "extents bounded by segment" test_lfs_extents_bounded_by_segment;
          quick "whole delete reclaims" test_lfs_whole_delete_reclaims_everything;
          quick "cleaner compacts garbage" test_lfs_cleaner_compacts_garbage;
          quick "relocation preserves order" test_lfs_relocation_preserves_logical_order;
          quick "disk full" test_lfs_disk_full;
          quick "validation" test_lfs_validation;
          QCheck_alcotest.to_alcotest (prop_churn_invariants "log-structured");
        ] );
      ( "policy helpers",
        [
          quick "release by run with give_run" test_policy_release_by_run;
          quick "release by piece without give_run" test_policy_release_by_piece;
          quick "units_of_bytes" test_policy_units_of_bytes;
          quick "utilization" test_policy_utilization;
          quick "unknown and duplicate files raise" test_unknown_and_duplicate_files;
          Alcotest.test_case "policy state is a few blocks per file" `Slow test_policy_state_per_file;
        ] );
    ]
