(* Micro-benchmarks (Bechamel) of the allocator and data-structure
   primitives: one allocate+free cycle per policy, free-tree and event
   heap operations, and the logical-to-physical slice query.  These are
   engineering benchmarks for the library itself, not paper artifacts;
   they make the cost of the simulation's inner loops visible. *)

module C = Core
open Bechamel
open Toolkit

let alloc_free_cycle (p : C.Policy.t) target =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let file = !counter in
    p.C.Policy.create_file ~file ~hint:8;
    (match p.C.Policy.ensure ~file ~target with
    | Ok () -> ()
    | Error `Disk_full -> failwith "micro: disk full");
    p.C.Policy.delete ~file

let buddy_cycle () =
  let p = C.Buddy.create C.Buddy.default_config ~total_units:65536 in
  alloc_free_cycle p 100

let rbuddy_cycle () =
  let p =
    C.Restricted_buddy.create
      (C.Restricted_buddy.config ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 3) ())
      ~total_units:65536
  in
  alloc_free_cycle p 100

let extent_cycle () =
  let p =
    C.Extent_alloc.create
      (C.Extent_alloc.config ~range_means_bytes:[ 64 * 1024 ] ())
      ~total_units:65536 ~rng:(C.Rng.create ~seed:1)
  in
  alloc_free_cycle p 100

let fixed_cycle () =
  let p =
    C.Fixed_block.create
      (C.Fixed_block.config ~block_bytes:4096 ())
      ~total_units:65536 ~rng:(C.Rng.create ~seed:1)
  in
  alloc_free_cycle p 100

let free_tree_churn () =
  let tree = C.Free_tree.create () in
  for i = 0 to 999 do
    C.Free_tree.insert tree ~addr:(i * 10) ~len:5
  done;
  let i = ref 0 in
  fun () ->
    let addr = 10_000 + (!i mod 97) in
    incr i;
    C.Free_tree.insert tree ~addr ~len:3;
    ignore (C.Free_tree.first_fit tree ~want:4 : int);
    C.Free_tree.remove tree ~addr

let heap_churn () =
  let heap = C.Heap.create () in
  let rng = C.Rng.create ~seed:7 in
  for i = 0 to 999 do
    C.Heap.push heap ~prio:(C.Rng.float rng) i
  done;
  fun () ->
    (match C.Heap.pop heap with
    | Some (_, v) -> C.Heap.push heap ~prio:(C.Rng.float rng) v
    | None -> ())

let slice_query () =
  let fx = C.File_extents.create () in
  for i = 0 to 9_999 do
    C.File_extents.push fx (C.Extent.make ~addr:(i * 16) ~len:8)
  done;
  let rng = C.Rng.create ~seed:9 in
  let total = C.File_extents.allocated_units fx in
  fun () -> ignore (C.File_extents.slice fx ~off:(C.Rng.int rng (total - 64)) ~len:64)

let disk_access () =
  let array = C.Array_model.create ~disks:8 (C.Array_model.Striped { stripe_unit = 24 * 1024 }) in
  let rng = C.Rng.create ~seed:11 in
  let now = ref 0. in
  fun () ->
    let addr = C.Rng.int rng 1_000_000 * 1024 in
    C.Array_model.serve_extents array ~now:!now ~kind:C.Array_model.Read ~extents:[ (addr, 65536) ];
    now := C.Array_model.last_finished array

let tests =
  Test.make_grouped ~name:"rofs" ~fmt:"%s %s"
    [
      Test.make ~name:"buddy alloc+free 100u" (Staged.stage (buddy_cycle ()));
      Test.make ~name:"rbuddy alloc+free 100u" (Staged.stage (rbuddy_cycle ()));
      Test.make ~name:"extent alloc+free 100u" (Staged.stage (extent_cycle ()));
      Test.make ~name:"fixed alloc+free 100u" (Staged.stage (fixed_cycle ()));
      Test.make ~name:"free-tree insert/fit/remove" (Staged.stage (free_tree_churn ()));
      Test.make ~name:"heap pop+push (1k live)" (Staged.stage (heap_churn ()));
      Test.make ~name:"slice of 10k-extent file" (Staged.stage (slice_query ()));
      Test.make ~name:"striped 64K disk access" (Staged.stage (disk_access ()));
    ]

let run () =
  Common.heading "Micro-benchmarks: allocator and substrate primitives (ns/op)";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = C.Table.create ~header:[ "benchmark"; "time/op" ] in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some (x :: _) -> x | Some [] | None -> nan
      in
      let cell =
        if Float.is_nan ns then "n/a"
        else if ns > 1_000_000. then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1_000. then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      C.Table.add_row table [ name; cell ])
    (List.sort compare rows);
  Common.emit table
