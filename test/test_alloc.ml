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

let test_file_extents_push_pop () =
  let fx = File_extents.create () in
  check_int "empty" 0 (File_extents.allocated_units fx);
  File_extents.push fx (Extent.make ~addr:0 ~len:4);
  File_extents.push fx (Extent.make ~addr:10 ~len:2);
  check_int "allocated" 6 (File_extents.allocated_units fx);
  check_int "count" 2 (File_extents.count fx);
  check_bool "last" true (File_extents.last fx = Some (Extent.make ~addr:10 ~len:2));
  check_bool "pop" true (File_extents.pop fx = Some (Extent.make ~addr:10 ~len:2));
  check_int "allocated after pop" 4 (File_extents.allocated_units fx)

let test_file_extents_slice_within_one () =
  let fx = File_extents.create () in
  File_extents.push fx (Extent.make ~addr:100 ~len:10);
  Alcotest.(check (list (pair int int)))
    "middle slice" [ (103, 4) ]
    (File_extents.slice fx ~off:3 ~len:4 |> List.map (fun e -> (e.Extent.addr, e.Extent.len)))

let test_file_extents_slice_spanning () =
  let fx = File_extents.create () in
  File_extents.push fx (Extent.make ~addr:0 ~len:4);
  File_extents.push fx (Extent.make ~addr:100 ~len:4);
  File_extents.push fx (Extent.make ~addr:200 ~len:4);
  (* logical units 2..9 cover the tail of e0, all of e1, half of e2 *)
  Alcotest.(check (list (pair int int)))
    "spanning slice"
    [ (2, 2); (100, 4); (200, 2) ]
    (File_extents.slice fx ~off:2 ~len:8 |> List.map (fun e -> (e.Extent.addr, e.Extent.len)))

let test_file_extents_slice_clamps () =
  let fx = File_extents.create () in
  File_extents.push fx (Extent.make ~addr:0 ~len:4);
  check_bool "beyond end" true (File_extents.slice fx ~off:10 ~len:5 = []);
  Alcotest.(check (list (pair int int)))
    "clamped" [ (2, 2) ]
    (File_extents.slice fx ~off:2 ~len:100 |> List.map (fun e -> (e.Extent.addr, e.Extent.len)));
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
      List.iteri (fun i l -> File_extents.push fx (Extent.make ~addr:(i * 1000) ~len:l)) lens;
      let total = File_extents.allocated_units fx in
      let slice = File_extents.slice fx ~off ~len in
      let covered = List.fold_left (fun acc e -> acc + e.Extent.len) 0 slice in
      let expected = max 0 (min (off + len) total - min off total) in
      covered = expected)

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
          quick "units_of_bytes" test_policy_units_of_bytes;
          quick "utilization" test_policy_utilization;
          quick "unknown and duplicate files raise" test_unknown_and_duplicate_files;
        ] );
    ]
