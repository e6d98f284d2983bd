(* Tests for the simulation layer: Volume (logical sizes, fragmentation
   metrics) and Engine (event loop, the three tests of Section 3).
   Engine tests use a scaled-down array (fewer cylinders) and a tiny
   workload so they run in milliseconds. *)

module C = Core
module Volume = C.Volume
module Engine = C.Engine
module Experiment = C.Experiment
module Policy = C.Policy
module File_type = C.File_type
module Workload = C.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* minimal substring check to avoid a string-library dependency *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let fixed_policy ?(total = 1024) () =
  C.Fixed_block.create
    (C.Fixed_block.config ~aged:false ~block_bytes:4096 ())
    ~total_units:total ~rng:(C.Rng.create ~seed:1)

(* ------------------------------------------------------------------ *)
(* Volume *)

(* Live files of one type.  The volume numbers files consecutively from
   0, and no test here creates more than a few hundred. *)
let files_of_type v ~type_idx =
  List.length
    (List.filter
       (fun file -> Volume.file_exists v ~file && Volume.type_of_file v ~file = type_idx)
       (List.init 10_000 Fun.id))

let test_volume_create_and_grow () =
  let v = Volume.create (fixed_policy ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  check_int "logical 0" 0 (Volume.logical_bytes v ~file:f);
  (match Volume.grow v ~file:f ~bytes:5000 with
  | Ok () -> ()
  | Error `Disk_full -> Alcotest.fail "fits");
  check_int "logical" 5000 (Volume.logical_bytes v ~file:f);
  check_int "allocated rounds to blocks" 8192 (Volume.used_bytes v)

let test_volume_truncate_and_delete () =
  let v = Volume.create (fixed_policy ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  ignore (Volume.grow v ~file:f ~bytes:16384);
  Volume.truncate v ~file:f ~bytes:10000;
  check_int "logical shrunk" 6384 (Volume.logical_bytes v ~file:f);
  check_int "allocated shrunk to two blocks" 8192 (Volume.used_bytes v);
  Volume.delete v ~file:f;
  check_bool "gone" false (Volume.file_exists v ~file:f);
  check_int "nothing allocated" 0 (Volume.used_bytes v)

let test_volume_truncate_clamps () =
  let v = Volume.create (fixed_policy ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  ignore (Volume.grow v ~file:f ~bytes:1000);
  Volume.truncate v ~file:f ~bytes:99999;
  check_int "clamped at zero" 0 (Volume.logical_bytes v ~file:f)

let test_volume_fragmentation_metrics () =
  let v = Volume.create (fixed_policy ~total:100 ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  (* 1 byte in a 4K block: internal fragmentation ~ 1 - 1/4096 *)
  ignore (Volume.grow v ~file:f ~bytes:1);
  let internal = Volume.internal_fragmentation v in
  check_bool "internal near 1" true (internal > 0.99);
  let external_ = Volume.external_fragmentation v in
  check_bool "external = free share" true (Float.abs (external_ -. (96. /. 100.)) < 0.01)

let test_volume_random_file () =
  let v = Volume.create (fixed_policy ()) ~ntypes:2 in
  check_bool "empty type" true (Volume.random_file v (C.Rng.create ~seed:2) ~type_idx:0 = None);
  let f0 = Volume.create_file v ~type_idx:0 ~hint_bytes:1 in
  let _f1 = Volume.create_file v ~type_idx:1 ~hint_bytes:1 in
  let rng = C.Rng.create ~seed:3 in
  for _ = 1 to 20 do
    check_bool "picks the only type-0 file" true (Volume.random_file v rng ~type_idx:0 = Some f0)
  done;
  check_int "counts per type" 1 (files_of_type v ~type_idx:0)

let test_volume_delete_swaps_correctly () =
  let v = Volume.create (fixed_policy ()) ~ntypes:1 in
  let files = List.init 5 (fun _ -> Volume.create_file v ~type_idx:0 ~hint_bytes:1) in
  (* delete the middle file; the rest stay reachable *)
  (match files with
  | [ _; _; f2; _; _ ] -> Volume.delete v ~file:f2
  | _ -> Alcotest.fail "expected five files");
  check_int "four left" 4 (files_of_type v ~type_idx:0);
  let rng = C.Rng.create ~seed:4 in
  for _ = 1 to 50 do
    match Volume.random_file v rng ~type_idx:0 with
    | Some f -> check_bool "live" true (Volume.file_exists v ~file:f)
    | None -> Alcotest.fail "files exist"
  done

let test_volume_slice_bytes_unit_rounding () =
  let v = Volume.create (fixed_policy ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  ignore (Volume.grow v ~file:f ~bytes:8192);
  (* 100 bytes at offset 100 lie inside the first 1K unit *)
  match Volume.slice_bytes v ~file:f ~off:100 ~len:100 with
  | [ (off, len) ] ->
      check_int "unit-aligned offset" 0 off;
      check_int "one unit" 1024 len
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_volume_grow_disk_full_keeps_logical () =
  let v = Volume.create (fixed_policy ~total:8 ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:1 in
  ignore (Volume.grow v ~file:f ~bytes:8192);
  (match Volume.grow v ~file:f ~bytes:8192 with
  | Ok () -> Alcotest.fail "disk should be full"
  | Error `Disk_full -> ());
  check_int "logical unchanged" 8192 (Volume.logical_bytes v ~file:f)

(* ------------------------------------------------------------------ *)
(* Engine: scaled-down experiments *)

(* A small geometry is not exposed, so scale via workload size instead:
   tiny files on the full array run fast because events are few. *)
let tiny_workload =
  {
    Workload.name = "TINY";
    description = "scaled test workload";
    types =
      [
        {
          File_type.name = "tiny-small";
          count = 50;
          users = 4;
          process_time_ms = 10.;
          hit_freq_ms = 10.;
          rw_mean_bytes = 4096;
          rw_dev_bytes = 1024;
          alloc_hint_bytes = 4096;
          truncate_bytes = 4096;
          initial_mean_bytes = 16 * 1024 * 1024;
          initial_dev_bytes = 4 * 1024 * 1024;
          read_pct = 50;
          write_pct = 20;
          extend_pct = 20;
          delete_pct_of_deallocs = 50;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "tiny-big";
          count = 4;
          users = 2;
          process_time_ms = 10.;
          hit_freq_ms = 10.;
          rw_mean_bytes = 128 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 128 * 1024;
          (* 220M keeps the buddy policy's power-of-two overshoot
             (4 x 256M) inside the array *)
          initial_mean_bytes = 220 * 1024 * 1024;
          initial_dev_bytes = 0;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let quick_config =
  {
    Engine.default_config with
    Engine.max_measure_ms = 120_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 300_000;
  }

let rb_spec =
  Experiment.Restricted
    (C.Restricted_buddy.config ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 3) ())

let test_engine_initialization () =
  let engine = Experiment.make_engine ~config:quick_config rb_spec tiny_workload in
  let v = Engine.volume engine in
  check_int "all small files created" 50 (files_of_type v ~type_idx:0);
  check_int "all big files created" 4 (files_of_type v ~type_idx:1);
  (* initial sizes respected *)
  let util = Volume.utilization v in
  check_bool "populated" true (util > 0.4 && util < 0.9)

let test_engine_allocation_test_terminates_with_failure () =
  let report = Experiment.run_allocation ~config:quick_config rb_spec tiny_workload in
  check_bool "saw a failure" true report.Engine.failed;
  check_bool "high utilization at failure" true (report.Engine.utilization_at_end > 0.9);
  check_bool "internal frag sane" true
    (report.Engine.internal_frag >= 0. && report.Engine.internal_frag < 0.5);
  check_bool "external frag sane" true
    (report.Engine.external_frag >= 0. && report.Engine.external_frag < 0.5)

let test_engine_fill_reaches_lower_bound () =
  let engine = Experiment.make_engine ~config:quick_config rb_spec tiny_workload in
  Engine.fill_to_lower_bound engine;
  check_bool "at or near N" true (Volume.utilization (Engine.volume engine) >= 0.85)

let test_engine_throughput_tests_produce_sane_numbers () =
  let app, seq = Experiment.run_throughput ~config:quick_config rb_spec tiny_workload in
  check_bool "app positive" true (app.Engine.pct_of_max > 0.);
  check_bool "app below ceiling" true (app.Engine.pct_of_max < 104.);
  check_bool "seq positive" true (seq.Engine.pct_of_max > 0.);
  check_bool "seq below ceiling" true (seq.Engine.pct_of_max < 104.);
  check_bool "seq at least app here" true (seq.Engine.pct_of_max > app.Engine.pct_of_max *. 0.5);
  check_bool "did I/O" true (app.Engine.io_ops > 0 && seq.Engine.io_ops > 0);
  check_bool "utilization in governor band" true
    (app.Engine.utilization > 0.85 && app.Engine.utilization < 0.97)

let test_engine_deterministic () =
  let run () =
    let r = Experiment.run_allocation ~config:quick_config rb_spec tiny_workload in
    (r.Engine.internal_frag, r.Engine.external_frag, r.Engine.alloc_ops)
  in
  check_bool "same seed, same report" true (run () = run ())

let test_engine_seed_changes_results () =
  let run seed =
    let config = { quick_config with Engine.seed } in
    let r = Experiment.run_allocation ~config rb_spec tiny_workload in
    r.Engine.alloc_ops
  in
  check_bool "different seeds diverge" true (run 1 <> run 2)

let test_engine_rejects_oversized_policy () =
  let policy = fixed_policy ~total:(10 * 1024 * 1024) () in
  Alcotest.check_raises "policy too big"
    (Invalid_argument "Engine.create: policy address space exceeds the array capacity")
    (fun () -> ignore (Engine.create Engine.default_config ~policy ~workload:tiny_workload))

let test_engine_all_policies_run () =
  (* Every policy spec completes the allocation test on the tiny
     workload. *)
  let specs =
    [
      Experiment.Buddy C.Buddy.default_config;
      rb_spec;
      Experiment.Extent
        (C.Extent_alloc.config ~range_means_bytes:[ 512 * 1024; 16 * 1024 * 1024 ] ());
      Experiment.Fixed (C.Fixed_block.config ~block_bytes:(16 * 1024) ());
    ]
  in
  List.iter
    (fun spec ->
      let r = Experiment.run_allocation ~config:quick_config spec tiny_workload in
      check_bool "terminated" true (r.Engine.failed || r.Engine.alloc_ops > 0))
    specs

let test_report_rendering () =
  let alloc =
    {
      Engine.internal_frag = 0.159;
      external_frag = 0.04;
      alloc_ops = 1837;
      utilization_at_end = 0.993;
      failed = true;
    }
  in
  let tp =
    {
      Engine.pct_of_max = 83.4;
      bytes_per_ms = 9000.;
      measured_ms = 10.;
      checkpoints = 9;
      stabilized = true;
      io_ops = 1350;
      disk_fulls = 0;
      utilization = 0.93;
      mean_extents_per_file = 50.;
      meta_bytes = 0;
    }
  in
  let s =
    C.Report.summary ~workload:"SC" ~policy:"buddy" ~alloc:(Some alloc) ~application:(Some tp)
      ~sequential:None ()
  in
  check_bool "mentions internal" true (Astring_like.contains s "internal 15.9%");
  check_bool "mentions pct" true (Astring_like.contains s "83.4%");
  check_bool "summary has policy line" true (Astring_like.contains s "buddy on SC");
  check_bool "summary has allocation line" true (Astring_like.contains s "allocation");
  check_bool "mb conversion" true (Float.abs (C.Report.mb_per_s 1048.576 -. 1.0) < 0.001)

let test_experiment_helpers () =
  check_int "unit bytes of rb" 1024 (Experiment.spec_unit_bytes rb_spec);
  let units = Experiment.capacity_units quick_config ~unit_bytes:1024 in
  check_int "capacity units" (8 * 9 * 24 * 1600) units

let test_volume_occupancy () =
  let v = Volume.create (fixed_policy ~total:100 ()) ~ntypes:1 in
  let f = Volume.create_file v ~type_idx:0 ~hint_bytes:4096 in
  (* fill the first half of the (unaged) address space *)
  ignore (Volume.grow v ~file:f ~bytes:(50 * 1024));
  let cells = Volume.occupancy v ~buckets:10 in
  check_int "ten cells" 10 (Array.length cells);
  check_bool "front full" true (cells.(0) > 0.9 && cells.(3) > 0.9);
  check_bool "back empty" true (cells.(8) < 0.1 && cells.(9) < 0.1)

let replay_report trace = (C.Trace_replay.run ~config:quick_config rb_spec trace).C.Trace_replay.report

let test_trace_replays () =
  let trace =
    C.Trace.synthesize ~workload:tiny_workload ~duration_ms:20_000. ~seed:5
  in
  let r = replay_report trace in
  check_bool "moved bytes" true (r.C.Trace_replay.bytes_moved > 0);
  check_bool "did I/O" true (r.C.Trace_replay.io_ops > 0);
  check_bool "sane throughput" true
    (r.C.Trace_replay.pct_of_max > 0. && r.C.Trace_replay.pct_of_max < 104.);
  check_bool "utilization positive" true (r.C.Trace_replay.utilization > 0.)

let test_trace_replay_deterministic () =
  (* The same trace must issue the same logical requests under any
     policy: I/O op counts may differ only through zero-length skips,
     never through randomness.  Run the same policy twice: identical. *)
  let trace = C.Trace.synthesize ~workload:tiny_workload ~duration_ms:10_000. ~seed:6 in
  let run () =
    let r = replay_report trace in
    (r.C.Trace_replay.bytes_moved, r.C.Trace_replay.io_ops, r.C.Trace_replay.pct_of_max)
  in
  check_bool "identical replays" true (run () = run ())

let test_engine_governor_caps_utilization () =
  (* During the measured phase, extends above the upper bound become
     truncates: utilization must never exceed M by more than one
     allocation. *)
  let config = { quick_config with Engine.upper_bound = 0.9; lower_bound = 0.85 } in
  let engine = Experiment.make_engine ~config rb_spec tiny_workload in
  Engine.fill_to_lower_bound engine;
  let _ = Engine.run_application_test engine in
  let util = Volume.utilization (Engine.volume engine) in
  check_bool (Printf.sprintf "governed at %.2f" util) true (util < 0.93)

let test_engine_fill_plateaus_gracefully () =
  (* The buddy policy overshoots so much that 95% is unreachable; the
     fill phase must detect the plateau and stop rather than loop. *)
  let config = { quick_config with Engine.lower_bound = 0.99; upper_bound = 0.995 } in
  let engine = Experiment.make_engine ~config (Experiment.Buddy C.Buddy.default_config) tiny_workload in
  Engine.fill_to_lower_bound engine;
  (* reaching here is the assertion; utilization should still be high *)
  check_bool "still a filled system" true (Volume.utilization (Engine.volume engine) > 0.5)

let test_engine_readahead_reduces_ios () =
  (* With read-ahead, sequential bursts are staged several at a time:
     the application test on a sequential workload issues measurably
     fewer physical I/Os than without. *)
  let seq_workload =
    {
      Workload.name = "SEQ";
      description = "sequential-only";
      types =
        [
          {
            (List.nth tiny_workload.Workload.types 1) with
            File_type.name = "seq";
            count = 6;
            users = 3;
            read_pct = 70;
            write_pct = 30;
            extend_pct = 0;
          };
        ];
    }
  in
  let run readahead_factor =
    let config = { quick_config with Engine.readahead_factor; max_measure_ms = 60_000. } in
    let engine = Experiment.make_engine ~config rb_spec seq_workload in
    Engine.fill_to_lower_bound engine;
    (Engine.run_application_test engine).Engine.io_ops
  in
  let with_ra = run 4 and without_ra = run 1 in
  check_bool
    (Printf.sprintf "fewer I/Os with read-ahead (%d vs %d)" with_ra without_ra)
    true
    (float_of_int with_ra < 0.7 *. float_of_int without_ra)

let test_engine_degenerate_growth_step_terminates () =
  (* Regression: populate grows files in steps of
     [readahead_factor * draw_rw_bytes]; the [max 1] guard must cover
     the whole product, so a file type whose byte draws bottom out at
     the minimum still makes progress.  With the guard parenthesized
     around the factor alone, a zero-byte draw would loop forever. *)
  check_bool "draws never reach zero" true
    (let ft = { (List.hd tiny_workload.Workload.types) with rw_mean_bytes = 1; rw_dev_bytes = 1 } in
     let rng = C.Rng.create ~seed:7 in
     let ok = ref true in
     for _ = 1 to 10_000 do
       if File_type.draw_rw_bytes ft rng < 1 then ok := false
     done;
     !ok);
  let degenerate =
    {
      Workload.name = "DEGENERATE";
      description = "single-byte growth steps";
      types =
        [
          {
            (List.hd tiny_workload.Workload.types) with
            File_type.name = "degenerate";
            count = 3;
            users = 2;
            rw_mean_bytes = 1;
            rw_dev_bytes = 1;
            initial_mean_bytes = 32 * 1024;
            initial_dev_bytes = 8 * 1024;
            delete_pct_of_deallocs = 0;
          };
        ];
    }
  in
  (* creation runs populate: returning at all is the regression check *)
  let engine = Experiment.make_engine ~config:quick_config rb_spec degenerate in
  let v = Engine.volume engine in
  check_int "all files created" 3 (files_of_type v ~type_idx:0);
  check_bool "files actually grew" true (Volume.used_bytes v > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_sim"
    [
      ( "volume",
        [
          quick "create and grow" test_volume_create_and_grow;
          quick "truncate and delete" test_volume_truncate_and_delete;
          quick "truncate clamps" test_volume_truncate_clamps;
          quick "fragmentation metrics" test_volume_fragmentation_metrics;
          quick "random file" test_volume_random_file;
          quick "delete swap-remove" test_volume_delete_swaps_correctly;
          quick "slice unit rounding" test_volume_slice_bytes_unit_rounding;
          quick "disk full keeps logical" test_volume_grow_disk_full_keeps_logical;
        ] );
      ( "engine",
        [
          quick "initialization" test_engine_initialization;
          quick "allocation test fails at full" test_engine_allocation_test_terminates_with_failure;
          quick "fill reaches lower bound" test_engine_fill_reaches_lower_bound;
          quick "throughput tests sane" test_engine_throughput_tests_produce_sane_numbers;
          quick "deterministic" test_engine_deterministic;
          quick "seed sensitivity" test_engine_seed_changes_results;
          quick "rejects oversized policy" test_engine_rejects_oversized_policy;
          quick "all policies run" test_engine_all_policies_run;
          quick "experiment helpers" test_experiment_helpers;
          quick "report rendering" test_report_rendering;
          quick "occupancy map" test_volume_occupancy;
          quick "trace replay" test_trace_replays;
          quick "trace replay deterministic" test_trace_replay_deterministic;
          quick "governor caps utilization" test_engine_governor_caps_utilization;
          quick "fill plateaus gracefully" test_engine_fill_plateaus_gracefully;
          quick "read-ahead reduces I/Os" test_engine_readahead_reduces_ios;
          quick "degenerate growth step terminates" test_engine_degenerate_growth_step_terminates;
        ] );
    ]
