(* Tests for the workload characterization: file-type parameter
   validation, operation selection, size draws, and the three standard
   workloads of Section 2.2. *)

module File_type = Core.File_type
module Workload = Core.Workload
module Rng = Core.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base =
  {
    File_type.name = "test";
    count = 10;
    users = 2;
    process_time_ms = 10.;
    hit_freq_ms = 10.;
    rw_mean_bytes = 4096;
    rw_dev_bytes = 1024;
    alloc_hint_bytes = 4096;
    truncate_bytes = 4096;
    initial_mean_bytes = 8192;
    initial_dev_bytes = 4096;
    read_pct = 50;
    write_pct = 20;
    extend_pct = 20;
    delete_pct_of_deallocs = 50;
    pattern = File_type.Whole_file;
  }

(* ------------------------------------------------------------------ *)
(* File_type *)

let test_validate_accepts_base () = File_type.validate base

let test_validate_rejects_bad_percentages () =
  let bad = { base with File_type.read_pct = 60; write_pct = 30; extend_pct = 30 } in
  Alcotest.check_raises "over 100"
    (Invalid_argument "File_type test: read+write+extend exceeds 100") (fun () ->
      File_type.validate bad)

let test_validate_rejects_nonpositive () =
  Alcotest.check_raises "zero count" (Invalid_argument "File_type test: count must be positive")
    (fun () -> File_type.validate { base with File_type.count = 0 });
  Alcotest.check_raises "zero users" (Invalid_argument "File_type test: users must be positive")
    (fun () -> File_type.validate { base with File_type.users = 0 });
  Alcotest.check_raises "zero process time"
    (Invalid_argument "File_type test: process time must be positive") (fun () ->
      File_type.validate { base with File_type.process_time_ms = 0. })

(* The deallocation share is what read + write + extend leave of 100
   (10% for [base], see [test_pick_op_distribution]); a type whose three
   shares fill 100 never deallocates. *)
let test_deallocate_pct () =
  let full = { base with File_type.extend_pct = 30 } in
  File_type.validate full;
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    check_bool "zero: always extends" true (File_type.pick_alloc_op full rng = File_type.Extend)
  done

let test_pick_op_distribution () =
  let rng = Rng.create ~seed:1 in
  let counts = Hashtbl.create 5 in
  let n = 100_000 in
  for _ = 1 to n do
    let op = File_type.pick_op base rng in
    Hashtbl.replace counts op (1 + Option.value ~default:0 (Hashtbl.find_opt counts op))
  done;
  let freq op = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts op)) /. float_of_int n in
  check_bool "reads ~50%" true (Float.abs (freq File_type.Read -. 0.50) < 0.01);
  check_bool "writes ~20%" true (Float.abs (freq File_type.Write -. 0.20) < 0.01);
  check_bool "extends ~20%" true (Float.abs (freq File_type.Extend -. 0.20) < 0.01);
  (* dealloc 10% split evenly between delete and truncate *)
  check_bool "deletes ~5%" true (Float.abs (freq File_type.Delete -. 0.05) < 0.01);
  check_bool "truncates ~5%" true (Float.abs (freq File_type.Truncate -. 0.05) < 0.01)

let test_pick_alloc_op_renormalizes () =
  (* Only extend/truncate/delete, in 20 : 5 : 5 proportion. *)
  let rng = Rng.create ~seed:2 in
  let extends = ref 0 and truncates = ref 0 and deletes = ref 0 in
  let n = 60_000 in
  for _ = 1 to n do
    match File_type.pick_alloc_op base rng with
    | File_type.Extend -> incr extends
    | File_type.Truncate -> incr truncates
    | File_type.Delete -> incr deletes
    | File_type.Read | File_type.Write -> Alcotest.fail "read/write from pick_alloc_op"
  done;
  let f r = float_of_int !r /. float_of_int n in
  check_bool "extends ~2/3" true (Float.abs (f extends -. (2. /. 3.)) < 0.02);
  check_bool "truncates ~1/6" true (Float.abs (f truncates -. (1. /. 6.)) < 0.02);
  check_bool "deletes ~1/6" true (Float.abs (f deletes -. (1. /. 6.)) < 0.02)

let test_draw_sizes_bounded () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let rw = File_type.draw_rw_bytes base rng in
    check_bool "rw within mean±dev" true (rw >= 4096 - 1024 && rw <= 4096 + 1024);
    let init = File_type.draw_initial_bytes base rng in
    check_bool "initial within mean±dev" true (init >= 8192 - 4096 && init <= 8192 + 4096)
  done

let test_draw_rw_minimum_one () =
  let tiny = { base with File_type.rw_mean_bytes = 1; rw_dev_bytes = 1 } in
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    check_bool "at least one byte" true (File_type.draw_rw_bytes tiny rng >= 1)
  done

(* ------------------------------------------------------------------ *)
(* Standard workloads *)

let test_all_workloads_valid () = List.iter Workload.validate Workload.all

let test_workload_names () =
  Alcotest.(check (list string)) "names" [ "TS"; "TP"; "SC" ]
    (List.map (fun w -> w.Workload.name) Workload.all)

let test_by_name () =
  check_bool "ts" true (Workload.by_name "ts" = Some Workload.ts);
  check_bool "TP case-insensitive" true (Workload.by_name "TP" = Some Workload.tp);
  check_bool "unknown" true (Workload.by_name "nope" = None)

let test_ts_composition () =
  (* Section 2.2: an abundance of small 8K files plus larger 96K files;
     two-thirds of requests go to the small files. *)
  match Workload.ts.Workload.types with
  | [ small; large ] ->
      check_int "small mean 8K" (8 * 1024) small.File_type.initial_mean_bytes;
      check_int "large mean 96K" (96 * 1024) large.File_type.initial_mean_bytes;
      check_bool "small files more numerous" true (small.File_type.count > large.File_type.count);
      (* 2/3 of requests: small users = 2 x large users at equal think time *)
      check_int "two thirds of requests" (2 * large.File_type.users) small.File_type.users;
      check_int "large: 60% reads" 60 large.File_type.read_pct;
      check_int "large: 15% writes" 15 large.File_type.write_pct;
      check_int "large: 15% extends" 15 large.File_type.extend_pct;
      check_int "large: 10% deallocate" 10
        (100 - large.File_type.read_pct - large.File_type.write_pct - large.File_type.extend_pct)
  | _ -> Alcotest.fail "TS must have exactly two file types"

let test_tp_composition () =
  (* Ten 210M relations, five 5M application logs, one 10M txn log. *)
  match Workload.tp.Workload.types with
  | [ relations; app_logs; txn_log ] ->
      check_int "10 relations" 10 relations.File_type.count;
      check_int "relations 210M" (210 * 1024 * 1024) relations.File_type.initial_mean_bytes;
      check_int "relations read 60%" 60 relations.File_type.read_pct;
      check_int "relations write 30%" 30 relations.File_type.write_pct;
      check_int "relations extend 7%" 7 relations.File_type.extend_pct;
      check_int "5 app logs" 5 app_logs.File_type.count;
      check_int "app logs 5M" (5 * 1024 * 1024) app_logs.File_type.initial_mean_bytes;
      check_int "app logs extend 93%" 93 app_logs.File_type.extend_pct;
      check_int "app logs read 2%" 2 app_logs.File_type.read_pct;
      check_int "one txn log" 1 txn_log.File_type.count;
      check_int "txn log 10M" (10 * 1024 * 1024) txn_log.File_type.initial_mean_bytes;
      check_int "txn log extend 94%" 94 txn_log.File_type.extend_pct;
      check_int "txn log read 5%" 5 txn_log.File_type.read_pct
  | _ -> Alcotest.fail "TP must have exactly three file types"

let test_sc_composition () =
  (* One 500M file, fifteen 100M files, ten 10M files; 60/30 read/write
     in large bursts; small files periodically deleted and recreated. *)
  match Workload.sc.Workload.types with
  | [ large; medium; small ] ->
      check_int "one large" 1 large.File_type.count;
      check_int "large 500M" (500 * 1024 * 1024) large.File_type.initial_mean_bytes;
      check_int "15 medium" 15 medium.File_type.count;
      check_int "medium 100M" (100 * 1024 * 1024) medium.File_type.initial_mean_bytes;
      check_int "10 small" 10 small.File_type.count;
      check_int "small 10M" (10 * 1024 * 1024) small.File_type.initial_mean_bytes;
      check_int "reads 60%" 60 large.File_type.read_pct;
      check_int "writes 30%" 30 large.File_type.write_pct;
      check_int "small bursts 32K" (32 * 1024) small.File_type.rw_mean_bytes;
      check_int "large bursts 512K" (512 * 1024) large.File_type.rw_mean_bytes;
      check_int "small deletes among deallocs" 100 small.File_type.delete_pct_of_deallocs;
      check_bool "sequential bursts" true (large.File_type.pattern = File_type.Sequential)
  | _ -> Alcotest.fail "SC must have exactly three file types"

let test_initial_bytes_fit_array () =
  (* All three populations must fit the 2.6G array with headroom for
     policy overshoot (the buddy policy doubles). *)
  let capacity = 8 * 9 * 24 * 1024 * 1600 in
  List.iter
    (fun w ->
      let bytes = Workload.initial_bytes w in
      let frac = float_of_int bytes /. float_of_int capacity in
      check_bool
        (Printf.sprintf "%s initial %.0f%% in (55, 85)" w.Workload.name (100. *. frac))
        true
        (frac > 0.55 && frac < 0.85))
    Workload.all

let test_total_users () =
  List.iter
    (fun w -> check_bool "has users" true (Workload.total_users w > 0))
    Workload.all

let test_extent_ranges_tables () =
  (* The paper's Section 4.3 range tables. *)
  let k = 1024 and m = 1024 * 1024 in
  Alcotest.(check (list int)) "TS 1 range" [ 4 * k ] (Workload.extent_ranges Workload.ts 1);
  Alcotest.(check (list int)) "TS 3 ranges" [ k; 8 * k; m ] (Workload.extent_ranges Workload.ts 3);
  Alcotest.(check (list int)) "TS 5 ranges"
    [ k; 4 * k; 8 * k; 16 * k; m ]
    (Workload.extent_ranges Workload.ts 5);
  Alcotest.(check (list int)) "TP 1 range" [ 512 * k ] (Workload.extent_ranges Workload.tp 1);
  Alcotest.(check (list int)) "TP 3 ranges"
    [ 512 * k; m; 16 * m ]
    (Workload.extent_ranges Workload.tp 3);
  Alcotest.(check (list int)) "SC 5 ranges"
    [ 10 * k; 512 * k; m; 10 * m; 16 * m ]
    (Workload.extent_ranges Workload.sc 5);
  check_bool "TP and SC share tables" true
    (Workload.extent_ranges Workload.tp 4 = Workload.extent_ranges Workload.sc 4);
  Alcotest.check_raises "range count bounds"
    (Invalid_argument "Workload.extent_ranges: expected 1..5") (fun () ->
      ignore (Workload.extent_ranges Workload.ts 6))

let test_scaled_rejects_bad_factors () =
  List.iter
    (fun factor ->
      Alcotest.check_raises (Printf.sprintf "factor %g" factor)
        (Invalid_argument "Workload.scaled: factor must be a finite positive number") (fun () ->
          ignore (Workload.scaled Workload.ts ~factor)))
    [ 0.; -1.; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Traces *)

module Trace = Core.Trace

let small_workload =
  {
    Workload.name = "small";
    description = "trace test workload";
    types = [ { base with File_type.count = 20; users = 3; initial_mean_bytes = 64 * 1024 } ];
  }

let test_trace_synthesize_basic () =
  let t = Trace.synthesize ~workload:small_workload ~duration_ms:5_000. ~seed:1 in
  check_int "initial population" 20 (List.length t.Trace.initial);
  check_bool "has events" true (Trace.event_count t > 50);
  check_bool "validates" true (Trace.validate t = Ok { Trace.stale_refs = 0 });
  check_bool "bounded duration" true (Trace.duration_ms t <= 5_000.)

let test_trace_synthesize_deterministic () =
  let run () = Trace.save (Trace.synthesize ~workload:small_workload ~duration_ms:2_000. ~seed:9) in
  Alcotest.(check string) "same seed, same trace" (run ()) (run ())

let test_trace_seed_sensitivity () =
  let run seed = Trace.save (Trace.synthesize ~workload:small_workload ~duration_ms:2_000. ~seed) in
  check_bool "different seeds differ" true (run 1 <> run 2)

let test_trace_roundtrip () =
  let t = Trace.synthesize ~workload:small_workload ~duration_ms:3_000. ~seed:3 in
  match Trace.load (Trace.save t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
      check_int "same event count" (Trace.event_count t) (Trace.event_count t');
      check_int "same population" (List.length t.Trace.initial) (List.length t'.Trace.initial);
      Alcotest.(check string) "identical after reserialization" (Trace.save t) (Trace.save t')

let test_trace_load_rejects_garbage () =
  (match Trace.load "ev not-a-number 1 read 1 0" with
  | Error msg -> check_bool "mentions line" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace.load "# rofs-trace v1 x\nfile 0 100 4096\nev 5.0 0 read 10 0\nev 1.0 0 read 10 0" with
  | Error msg -> check_bool "time order detected" true (msg = "events out of time order")
  | Ok _ -> Alcotest.fail "expected time-order error"

let test_trace_validate_rules () =
  let bad_initial = { Trace.name = "x"; initial = [ (0, -5, 4096, 0) ]; events = [] } in
  check_bool "bad initial" true (Result.is_error (Trace.validate bad_initial));
  let ok = { Trace.name = "x"; initial = [ (0, 5, 4096, 0) ]; events = [] } in
  check_bool "empty events fine" true (Trace.validate ok = Ok { Trace.stale_refs = 0 })

let test_trace_validate_counts_stale_refs () =
  let ev time_ms file op = { Trace.time_ms; file; op } in
  let t =
    {
      Trace.name = "stale";
      initial = [ (0, 4096, 4096, 0) ];
      events =
        [
          ev 1. 0 (Trace.Read { off = 0; bytes = 512 });
          (* id 7 was never introduced: read, write and delete are stale *)
          ev 2. 7 (Trace.Read { off = 0; bytes = 512 });
          ev 3. 7 (Trace.Write { off = 0; bytes = 512 });
          ev 4. 7 Trace.Delete;
          (* a create makes the id known from then on *)
          ev 5. 7 (Trace.Create { bytes = 512; hint = 4096; ty = 0 });
          ev 6. 7 (Trace.Extend 512);
          (* deleting id 0 makes later references stale again *)
          ev 7. 0 Trace.Delete;
          ev 8. 0 (Trace.Grow 512);
        ];
    }
  in
  match Trace.validate t with
  | Error msg -> Alcotest.fail msg
  | Ok w -> check_int "stale refs counted" 4 w.Trace.stale_refs

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_workload"
    [
      ( "file type",
        [
          quick "validate accepts base" test_validate_accepts_base;
          quick "rejects bad percentages" test_validate_rejects_bad_percentages;
          quick "rejects non-positive fields" test_validate_rejects_nonpositive;
          quick "deallocate pct" test_deallocate_pct;
          quick "pick_op distribution" test_pick_op_distribution;
          quick "pick_alloc_op renormalizes" test_pick_alloc_op_renormalizes;
          quick "size draws bounded" test_draw_sizes_bounded;
          quick "rw draw minimum" test_draw_rw_minimum_one;
        ] );
      ( "standard workloads",
        [
          quick "all valid" test_all_workloads_valid;
          quick "names" test_workload_names;
          quick "lookup by name" test_by_name;
          quick "TS composition (Section 2.2)" test_ts_composition;
          quick "TP composition (Section 2.2)" test_tp_composition;
          quick "SC composition (Section 2.2)" test_sc_composition;
          quick "initial populations fit" test_initial_bytes_fit_array;
          quick "user counts" test_total_users;
          quick "extent range tables (Section 4.3)" test_extent_ranges_tables;
          quick "scaled rejects bad factors" test_scaled_rejects_bad_factors;
        ] );
      ( "traces",
        [
          quick "synthesize" test_trace_synthesize_basic;
          quick "deterministic" test_trace_synthesize_deterministic;
          quick "seed sensitivity" test_trace_seed_sensitivity;
          quick "save/load roundtrip" test_trace_roundtrip;
          quick "load rejects garbage" test_trace_load_rejects_garbage;
          quick "validation rules" test_trace_validate_rules;
          quick "stale references counted" test_trace_validate_counts_stale_refs;
        ] );
    ]
