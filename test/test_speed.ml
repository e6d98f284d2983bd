(* Sharded-run determinism battery (the sharding PR's headline test):

   - partition invariance: Experiment.run_sharded produces bit-identical
     merged reports (throughput, cache counters, fault counters) at
     shards 1 / 2 / 4 / 8 for every allocator policy on every mini
     workload — the "--shards changes the wall clock and nothing else"
     guarantee, one level below test_par.ml's per-seed pool goldens;
   - frozen goldens: the sliced (shard_slices = 4) percentages were
     captured once and pinned as hex floats, so the decomposition
     itself (slice configs, RNG stream derivation, workload partition,
     merge order) cannot drift silently;
   - serial equivalence: with shard_slices = 1 the sharded entry point
     is byte-identical to an engine driven through the protocol by
     hand, field for field — sink, timeline, snapshots and recorded
     trace included;
   - instrumented runs: attaching per-slice sinks (with tracing) merges
     to the same Sink JSON at every shard count, with each slice's
     per-drive statistics under array-wide drive numbers;
   - hot-path allocation: a queued-path (SSTF) run is bounded in minor
     words allocated per simulated operation — the regression guard for
     the engine's preallocated-scratch / pooled-event design;
   - validation: --shards 0 style misuse raises Invalid_argument, and
     Workload.partition's arithmetic invariants hold.

   Regenerate the goldens after an intentional behavior change with:
     ROFS_GOLDEN_CAPTURE=1 dune exec test/test_speed.exe 2>/dev/null *)

module C = Core
module Workload = C.Workload
module File_type = C.File_type
module Engine = C.Engine
module Experiment = C.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Mini workloads: frozen verbatim (same as test_par.ml — the goldens
   below depend on every field). *)
(* ------------------------------------------------------------------ *)

let mini_tp =
  {
    Workload.name = "MINI-TP";
    description = "scaled transaction-processing workload";
    types =
      [
        {
          File_type.name = "relation";
          count = 8;
          users = 8;
          process_time_ms = 20.;
          hit_freq_ms = 30.;
          rw_mean_bytes = 16 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 25 * 1024 * 1024;
          initial_dev_bytes = 4 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 6;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
      ];
  }

let mini_sc =
  {
    Workload.name = "MINI-SC";
    description = "scaled supercomputing workload";
    types =
      [
        {
          File_type.name = "big";
          count = 4;
          users = 4;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 40 * 1024 * 1024;
          initial_dev_bytes = 8 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let mini_ts =
  {
    Workload.name = "MINI-TS";
    description = "scaled timesharing workload";
    types =
      [
        {
          File_type.name = "small";
          count = 200;
          users = 6;
          process_time_ms = 10.;
          hit_freq_ms = 25.;
          rw_mean_bytes = 8 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 8 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 8 * 1024;
          initial_dev_bytes = 2 * 1024;
          read_pct = 55;
          write_pct = 25;
          extend_pct = 10;
          delete_pct_of_deallocs = 70;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "large";
          count = 100;
          users = 3;
          process_time_ms = 20.;
          hit_freq_ms = 40.;
          rw_mean_bytes = 24 * 1024;
          rw_dev_bytes = 8 * 1024;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 96 * 1024;
          initial_mean_bytes = 2 * 1024 * 1024;
          initial_dev_bytes = 256 * 1024;
          read_pct = 60;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 20;
          pattern = File_type.Sequential;
        };
      ];
  }

(* 4 disks so the default shard_slices = 4 gives one disk per slice —
   the finest decomposition, hence the most merge arithmetic to pin.
   Low fill bounds and short 15-second measurement windows: the battery
   runs every policy x workload cell at four shard counts, and bitwise
   equality does not need aged or stabilized runs, just identical ones
   (high-utilization behavior is test_par.ml's and test_sim.ml's
   business). *)
let sharded_config =
  {
    Engine.default_config with
    disks = 4;
    lower_bound = 0.25;
    upper_bound = 0.35;
    interval_ms = 5_000.;
    max_measure_ms = 15_000.;
    warmup_checkpoints = 1;
    (* MINI-TS net-grows very slowly per churn op, so an uncapped fill
       would spend millions of allocation ops inching toward the bound;
       the cap cuts the fill short at a deterministic point instead. *)
    max_alloc_ops = 200_000;
  }

let k = 1024
let m = 1024 * 1024

let policies (w : Workload.t) =
  let ts = w.Workload.name = "MINI-TS" in
  [
    ("buddy", C.Experiment.Buddy C.Buddy.default_config);
    ( "restricted",
      C.Experiment.Restricted
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
           ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
           ()) );
    ( "extent",
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
           ~range_means_bytes:(if ts then [ 96 * k; m; 4 * m ] else [ 512 * k; m; 16 * m ])
           ()) );
    ( "fixed",
      C.Experiment.Fixed
        (C.Fixed_block.config ~block_bytes:(if ts then 4 * k else 16 * k) ()) );
    ("lfs", C.Experiment.Log_structured (C.Log_structured.config ()));
  ]

let edge_spec = C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:(16 * 1024) ())

(* ------------------------------------------------------------------ *)
(* Field-by-field bitwise equality helpers                             *)
(* ------------------------------------------------------------------ *)

let check_tp_equal name (a : Engine.throughput_report) (b : Engine.throughput_report) =
  check_exact_float (name ^ " pct_of_max") a.Engine.pct_of_max b.Engine.pct_of_max;
  check_exact_float (name ^ " bytes_per_ms") a.Engine.bytes_per_ms b.Engine.bytes_per_ms;
  check_exact_float (name ^ " measured_ms") a.Engine.measured_ms b.Engine.measured_ms;
  check_int (name ^ " checkpoints") a.Engine.checkpoints b.Engine.checkpoints;
  check_bool (name ^ " stabilized") a.Engine.stabilized b.Engine.stabilized;
  check_int (name ^ " io_ops") a.Engine.io_ops b.Engine.io_ops;
  check_int (name ^ " disk_fulls") a.Engine.disk_fulls b.Engine.disk_fulls;
  check_exact_float (name ^ " utilization") a.Engine.utilization b.Engine.utilization;
  check_exact_float
    (name ^ " mean_extents_per_file")
    a.Engine.mean_extents_per_file b.Engine.mean_extents_per_file;
  check_int (name ^ " meta_bytes") a.Engine.meta_bytes b.Engine.meta_bytes

let check_fault_equal name (a : Engine.fault_report) (b : Engine.fault_report) =
  check_bool (name ^ " drive_states") true (a.Engine.drive_states = b.Engine.drive_states);
  check_int (name ^ " data_loss") a.Engine.data_loss b.Engine.data_loss;
  check_int (name ^ " media_errors") a.Engine.media_errors b.Engine.media_errors;
  check_int (name ^ " retries") a.Engine.retries b.Engine.retries;
  check_int (name ^ " remaps") a.Engine.remaps b.Engine.remaps;
  check_int (name ^ " reconstructed") a.Engine.reconstructed_reads b.Engine.reconstructed_reads;
  check_int (name ^ " degraded_writes") a.Engine.degraded_writes b.Engine.degraded_writes;
  check_int (name ^ " rebuild_ios") a.Engine.rebuild_ios b.Engine.rebuild_ios

let check_cache_equal name (a : Engine.cache_report option) (b : Engine.cache_report option) =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
      check_int (name ^ " lookups") a.Engine.cr_lookups b.Engine.cr_lookups;
      check_int (name ^ " hits") a.Engine.cr_hits b.Engine.cr_hits;
      check_int (name ^ " misses") a.Engine.cr_misses b.Engine.cr_misses;
      check_exact_float (name ^ " hit_rate") a.Engine.cr_hit_rate b.Engine.cr_hit_rate;
      check_int (name ^ " hit_bytes") a.Engine.cr_hit_bytes b.Engine.cr_hit_bytes;
      check_int (name ^ " insertions") a.Engine.cr_insertions b.Engine.cr_insertions;
      check_int (name ^ " evictions") a.Engine.cr_evictions b.Engine.cr_evictions;
      check_int (name ^ " dirty_evictions") a.Engine.cr_dirty_evictions b.Engine.cr_dirty_evictions;
      check_int (name ^ " writeback") a.Engine.cr_writeback_bytes b.Engine.cr_writeback_bytes;
      check_int (name ^ " prefetched") a.Engine.cr_prefetched_pages b.Engine.cr_prefetched_pages;
      check_int (name ^ " invalidations") a.Engine.cr_invalidations b.Engine.cr_invalidations;
      check_bool (name ^ " per_type") true (a.Engine.cr_per_type = b.Engine.cr_per_type)
  | _ -> Alcotest.failf "%s: cache report presence differs" name

let check_sharded_equal name (a : Experiment.sharded_report) (b : Experiment.sharded_report) =
  check_tp_equal (name ^ " app") a.Experiment.s_application b.Experiment.s_application;
  check_tp_equal (name ^ " seq") a.Experiment.s_sequential b.Experiment.s_sequential;
  check_fault_equal (name ^ " fault") a.Experiment.s_fault b.Experiment.s_fault;
  check_cache_equal (name ^ " cache") a.Experiment.s_cache b.Experiment.s_cache;
  check_int (name ^ " slices") a.Experiment.s_slices b.Experiment.s_slices

(* ------------------------------------------------------------------ *)
(* Partition invariance: shards 1 / 2 / 4 / 8 bit-identical            *)
(* ------------------------------------------------------------------ *)

(* (policy, workload) -> (app pct_of_max, seq pct_of_max), captured
   from Experiment.run_sharded ~shards:1 under sharded_config
   (shard_slices = 4).  Hex float literals: exact. *)
let sharded_goldens =
  [
    (("buddy", "MINI-TS"), (0x1.26888df72f48p+5, 0x1.f45b7bce6922bp+5));
    (("restricted", "MINI-TS"), (0x1.f66d9e9dcde86p+4, 0x1.257c16d227635p+5));
    (("extent", "MINI-TS"), (0x1.81339a88d176p+5, 0x1.46902fb78cde3p+5));
    (("fixed", "MINI-TS"), (0x1.f082b1a10f1cp+2, 0x1.a3b54fc06626dp+2));
    (("lfs", "MINI-TS"), (0x1.5a16bcda1170cp+5, 0x1.bb2ef7e21bb4ep+5));
    (("buddy", "MINI-TP"), (0x1.14c4601bbd692p+5, 0x1.8a4a97d47fcbcp+6));
    (("restricted", "MINI-TP"), (0x1.b7d8adb66df61p+4, 0x1.8d05ffe321cd2p+6));
    (("extent", "MINI-TP"), (0x1.244a9fa1fb368p+5, 0x1.8889e27b9a7f1p+6));
    (("fixed", "MINI-TP"), (0x1.076eefb65f982p+4, 0x1.b3cd78ff5a8fep+4));
    (("lfs", "MINI-TP"), (0x1.bfb14e59b2c12p+4, 0x1.8cbd3f066571ep+5));
    (("buddy", "MINI-SC"), (0x1.794cda275bb83p+6, 0x1.8e1a03c98ba9dp+6));
    (("restricted", "MINI-SC"), (0x1.749d610a98423p+6, 0x1.892f057304ff9p+6));
    (("extent", "MINI-SC"), (0x1.79a3f94d8c7fcp+6, 0x1.8ccf2a5b166edp+6));
    (("fixed", "MINI-SC"), (0x1.aa139ffc061bep+4, 0x1.ae1c3c479164fp+4));
    (("lfs", "MINI-SC"), (0x1.76bc6c25c1009p+6, 0x1.8e193b96a66e6p+6));
  ]

let test_shard_count_invariance () =
  List.iter
    (fun w ->
      List.iter
        (fun (pname, spec) ->
          let cell = Printf.sprintf "%s/%s" pname w.Workload.name in
          let base = Experiment.run_sharded ~config:sharded_config ~shards:1 spec w in
          check_int (cell ^ " slices") 4 base.Experiment.s_slices;
          check_int (cell ^ " shards recorded") 1 base.Experiment.s_shards;
          check_bool (cell ^ " no sink unless instrumented") true (base.Experiment.s_sink = None);
          let ga, gs = List.assoc (pname, w.Workload.name) sharded_goldens in
          check_exact_float (cell ^ " app pct (vs golden)") ga
            base.Experiment.s_application.Engine.pct_of_max;
          check_exact_float (cell ^ " seq pct (vs golden)") gs
            base.Experiment.s_sequential.Engine.pct_of_max;
          List.iter
            (fun shards ->
              let r = Experiment.run_sharded ~config:sharded_config ~shards spec w in
              check_int (cell ^ " shards recorded") shards r.Experiment.s_shards;
              check_sharded_equal (Printf.sprintf "%s shards=%d" cell shards) base r)
            [ 2; 4; 8 ])
        (policies w))
    [ mini_ts; mini_tp; mini_sc ]

(* ------------------------------------------------------------------ *)
(* shard_slices = 1: the sharded entry point IS the serial path        *)
(* ------------------------------------------------------------------ *)

(* Everything one throughput run reports, plus what its observers
   captured: sink JSON and Chrome trace, timeline JSON and CSV, every
   snapshot written, and the recorded trace. *)
type full_run = {
  f_app : Engine.throughput_report;
  f_seq : Engine.throughput_report;
  f_cache : Engine.cache_report option;
  f_fault : Engine.fault_report;
  f_churn : C.Policy.churn_stats;
  f_drives : Engine.drive_report array;
  f_sink : string;
  f_timeline : string;
  f_snapshots : (string * string) list list;
  f_recorded : Engine.recorded list;
}

let sink_text sink =
  C.Obs.Json.to_string (C.Sink.to_json sink)
  ^ match C.Sink.trace_ref sink with
    | Some tr -> C.Obs.Json.to_string (C.Obs.Trace.chrome_json tr)
    | None -> ""

let timeline_text = function
  | Some tl -> C.Obs.Json.to_string (C.Timeline.to_json tl) ^ C.Timeline.to_csv tl
  | None -> Alcotest.fail "expected a timeline"

let every_ms = 4_000.

(* The protocol driven by hand on one engine, the way the CLI's serial
   mode used to: a tracing sink and a timeline always; a recorder
   detached before the sequential test, or else periodic checkpoints
   plus a final one (a recording engine cannot be checkpointed). *)
let hand_driven ~config ~record spec w =
  let recorded = ref [] and snapshots = ref [] in
  let recorder = if record then Some (fun r -> recorded := r :: !recorded) else None in
  let engine = Experiment.make_engine ?recorder ~config spec w in
  let sink = C.Sink.create ~trace:true () in
  Engine.attach_obs engine sink;
  Engine.attach_timeline engine ~every_ms:1_000.;
  let save () = snapshots := Engine.checkpoint engine :: !snapshots in
  if not record then Engine.set_checkpoint engine ~every_ms save;
  Engine.fill_to_lower_bound engine;
  Engine.run_aging engine;
  let f_app = Engine.run_application_test engine in
  Engine.set_recorder engine None;
  let f_seq = Engine.run_sequential_test engine in
  if not record then save ();
  {
    f_app;
    f_seq;
    f_cache = Engine.cache_report engine;
    f_fault = Engine.fault_report engine;
    f_churn = Engine.churn_stats engine;
    f_drives = Engine.drive_reports engine;
    f_sink = sink_text sink;
    f_timeline = timeline_text (Engine.timeline engine);
    f_snapshots = !snapshots;
    f_recorded = !recorded;
  }

let driven ~config ~shards ~record spec w =
  let recorded = ref [] and snapshots = ref [] in
  let r =
    Experiment.run_sharded ~config ~shards ~instrument:true ~trace:true
      ?recorder:(if record then Some (fun r -> recorded := r :: !recorded) else None)
      ~timeline_every_ms:1_000.
      ?ckpt_every_ms:(if record then None else Some every_ms)
      ?ckpt_save:(if record then None else Some (fun ~slice:_ s -> snapshots := s :: !snapshots))
      spec w
  in
  {
    f_app = r.Experiment.s_application;
    f_seq = r.Experiment.s_sequential;
    f_cache = r.Experiment.s_cache;
    f_fault = r.Experiment.s_fault;
    f_churn = r.Experiment.s_churn;
    f_drives = r.Experiment.s_drives;
    f_sink = sink_text (Option.get r.Experiment.s_sink);
    f_timeline = timeline_text r.Experiment.s_timeline;
    f_snapshots = !snapshots;
    f_recorded = !recorded;
  }

let check_full_equal name a b =
  check_tp_equal (name ^ " app") a.f_app b.f_app;
  check_tp_equal (name ^ " seq") a.f_seq b.f_seq;
  check_cache_equal (name ^ " cache") a.f_cache b.f_cache;
  check_fault_equal (name ^ " fault") a.f_fault b.f_fault;
  check_bool (name ^ " churn") true (a.f_churn = b.f_churn);
  check_bool (name ^ " drive reports") true (a.f_drives = b.f_drives);
  check_bool (name ^ " sink JSON + trace") true (String.equal a.f_sink b.f_sink);
  check_bool (name ^ " timeline") true (String.equal a.f_timeline b.f_timeline);
  check_int (name ^ " snapshot count") (List.length a.f_snapshots) (List.length b.f_snapshots);
  check_bool (name ^ " snapshots") true (a.f_snapshots = b.f_snapshots);
  check_int (name ^ " recorded count") (List.length a.f_recorded) (List.length b.f_recorded);
  check_bool (name ^ " recorded trace") true (a.f_recorded = b.f_recorded)

let test_serial_equivalence () =
  let config = { sharded_config with Engine.shard_slices = 1 } in
  List.iter
    (fun (w, pname) ->
      let spec = List.assoc pname (policies w) in
      let cell = Printf.sprintf "%s/%s slices=1" pname w.Workload.name in
      (* the protocol by hand, exactly as run_throughput once drove it *)
      let engine = Experiment.make_engine ~config spec w in
      Engine.fill_to_lower_bound engine;
      Engine.run_aging engine;
      let app = Engine.run_application_test engine in
      let seq = Engine.run_sequential_test engine in
      let tp_app, tp_seq = Experiment.run_throughput ~config spec w in
      check_tp_equal (cell ^ " run_throughput app") app tp_app;
      check_tp_equal (cell ^ " run_throughput seq") seq tp_seq;
      (* at any execution width: one slice just means one task *)
      List.iter
        (fun shards ->
          let r = Experiment.run_sharded ~config ~shards spec w in
          let name = Printf.sprintf "%s shards=%d" cell shards in
          check_int (name ^ " slices") 1 r.Experiment.s_slices;
          check_tp_equal (name ^ " app (vs hand-driven)") app r.Experiment.s_application;
          check_tp_equal (name ^ " seq (vs hand-driven)") seq r.Experiment.s_sequential)
        [ 1; 4 ])
    [ (mini_ts, "restricted"); (mini_sc, "fixed"); (mini_tp, "lfs") ];
  (* Everything the CLI's serial mode used to drive by hand, on a
     write-back cached array with media errors so every report section
     has content. *)
  let config =
    {
      config with
      Engine.cache = Some (C.Cache.config ~mb:4 ~write_mode:C.Cache.Write_back ());
      faults = { C.Fault_plan.none with C.Fault_plan.seed = 7; media_error_rate = 0.002 };
    }
  in
  let spec = List.assoc "restricted" (policies mini_tp) in
  List.iter
    (fun record ->
      let name = if record then "recorder" else "checkpoints" in
      let hand = hand_driven ~config ~record spec mini_tp in
      check_bool (name ^ ": observers captured something") true
        (if record then hand.f_recorded <> [] else List.length hand.f_snapshots > 1);
      check_bool (name ^ ": media errors injected") true (hand.f_fault.Engine.media_errors > 0);
      List.iter
        (fun shards ->
          check_full_equal
            (Printf.sprintf "%s shards=%d" name shards)
            hand
            (driven ~config ~shards ~record spec mini_tp))
        [ 1; 2 ])
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Instrumented runs: merged sink JSON identical at any width          *)
(* ------------------------------------------------------------------ *)

let sink_json (r : Experiment.sharded_report) =
  match r.Experiment.s_sink with
  | None -> Alcotest.fail "expected a merged sink"
  | Some sink -> C.Obs.Json.to_string (C.Sink.to_json sink)

let test_instrumented_invariance () =
  let spec = List.assoc "restricted" (policies mini_ts) in
  let run shards =
    Experiment.run_sharded ~config:sharded_config ~shards ~instrument:true ~trace:true spec
      mini_ts
  in
  let a = run 1 and b = run 4 in
  check_sharded_equal "instrumented shards=4 vs shards=1" a b;
  check_bool "sink traces" true (C.Sink.tracing (Option.get a.Experiment.s_sink));
  check_bool "sink JSON identical" true (String.equal (sink_json a) (sink_json b));
  (* and instrumentation never changes simulated results *)
  let plain = Experiment.run_sharded ~config:sharded_config ~shards:1 spec mini_ts in
  check_sharded_equal "instrumented vs plain" plain a

(* Per-drive sink statistics concatenate under array-wide numbers: on
   8 disks / 4 slices the merged sink has 8 drives, each equal to its
   own slice's drive, at every width.  The queued SSTF path gives every
   drive non-trivial queue-depth samples. *)
let test_sink_drives_concatenate () =
  let config =
    { sharded_config with Engine.disks = 8; scheduler = C.Sched_policy.Sstf }
  in
  let spec = edge_spec and w = mini_sc in
  let run ~config w shards =
    Experiment.run_sharded ~config ~shards ~instrument:true ~trace:true spec w
  in
  let merged = run ~config w 1 in
  let sink = Option.get merged.Experiment.s_sink in
  check_int "sink drives" 8 (C.Sink.drive_count sink);
  check_int "drive reports" 8 (Array.length merged.Experiment.s_drives);
  Array.iteri
    (fun i (d : Engine.drive_report) -> check_int "array-wide drive number" i d.Engine.dr_drive)
    merged.Experiment.s_drives;
  (* each slice run alone: 2 disks, its derived seeds, its partition *)
  let parts = Workload.partition w ~weights:[| 2; 2; 2; 2 |] in
  Array.iteri
    (fun slice part ->
      let derive seed = C.Rng.derive_seed ~seed ~stream:slice in
      let slice_config =
        {
          config with
          Engine.disks = 2;
          shard_slices = 1;
          seed = derive config.Engine.seed;
          faults =
            {
              config.Engine.faults with
              C.Fault_plan.seed = derive config.Engine.faults.C.Fault_plan.seed;
            };
        }
      in
      let alone = run ~config:slice_config part 1 in
      let own = Option.get alone.Experiment.s_sink in
      for d = 0 to 1 do
        let g = (2 * slice) + d in
        let name = Printf.sprintf "drive %d (slice %d drive %d)" g slice d in
        let hist s i = C.Obs.Json.to_string (C.Sink.hist_json (C.Sink.drive_seek_dist s i)) in
        check_bool (name ^ " seek distances") true (String.equal (hist own d) (hist sink g));
        check_bool (name ^ " queue depth") true
          (C.Sink.drive_queue_depth own d = C.Sink.drive_queue_depth sink g);
        check_bool (name ^ " queue was sampled") true (snd (C.Sink.drive_queue_depth sink g) > 0);
        check_bool (name ^ " drive report") true
          (alone.Experiment.s_drives.(d)
          = { (merged.Experiment.s_drives.(g)) with Engine.dr_drive = d })
      done)
    parts;
  let events = C.Obs.Trace.events (Option.get (C.Sink.trace_ref sink)) in
  check_bool "trace drive ids span the array" true
    (List.exists (fun e -> e.C.Obs.Trace.drive >= 4) events);
  check_bool "op-level trace events keep drive -1" true
    (List.exists (fun e -> e.C.Obs.Trace.drive = -1) events);
  List.iter
    (fun shards ->
      let r = run ~config w shards in
      check_bool (Printf.sprintf "sink JSON at shards=%d" shards) true
        (String.equal (sink_json merged) (sink_json r));
      check_bool (Printf.sprintf "drive reports at shards=%d" shards) true
        (merged.Experiment.s_drives = r.Experiment.s_drives))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Cache counters merge deterministically                              *)
(* ------------------------------------------------------------------ *)

let test_cached_invariance () =
  let config = { sharded_config with Engine.cache = Some (C.Cache.config ~mb:4 ()) } in
  let spec = List.assoc "fixed" (policies mini_tp) in
  let a = Experiment.run_sharded ~config ~shards:1 spec mini_tp in
  let b = Experiment.run_sharded ~config ~shards:4 spec mini_tp in
  check_sharded_equal "cached shards=4 vs shards=1" a b;
  match a.Experiment.s_cache with
  | None -> Alcotest.fail "expected a merged cache report"
  | Some c ->
      check_int "lookups = hits + misses" c.Engine.cr_lookups (c.Engine.cr_hits + c.Engine.cr_misses);
      check_bool "cache saw traffic" true (c.Engine.cr_lookups > 0);
      check_bool "per-type counters present" true (Array.length c.Engine.cr_per_type > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: invariance at arbitrary execution widths                    *)
(* ------------------------------------------------------------------ *)

let prop_any_width_invariant =
  let baseline = lazy (Experiment.run_sharded ~config:sharded_config ~shards:1 edge_spec mini_sc) in
  QCheck.Test.make ~name:"any shards width reproduces the shards=1 report" ~count:6
    QCheck.(int_range 1 12)
    (fun shards ->
      let base = Lazy.force baseline in
      let r = Experiment.run_sharded ~config:sharded_config ~shards edge_spec mini_sc in
      r.Experiment.s_application = base.Experiment.s_application
      && r.Experiment.s_sequential = base.Experiment.s_sequential
      && r.Experiment.s_fault.Engine.drive_states = base.Experiment.s_fault.Engine.drive_states
      && r.Experiment.s_shards = shards)

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budget (queued / SSTF path)                     *)
(* ------------------------------------------------------------------ *)

let test_hot_path_allocation_budget () =
  let config =
    {
      sharded_config with
      Engine.disks = 2;
      scheduler = C.Sched_policy.Sstf;
      (* a full minute of simulated measurement so the per-op average
         amortizes checkpoint sweeps and startup noise *)
      max_measure_ms = 60_000.;
    }
  in
  let engine = Experiment.make_engine ~config edge_spec mini_tp in
  Engine.fill_to_lower_bound engine;
  Gc.full_major ();
  let before = Gc.minor_words () in
  let report = Engine.run_application_test engine in
  let words = Gc.minor_words () -. before in
  check_bool "run did real work" true (report.Engine.io_ops > 500);
  let per_op = words /. float_of_int report.Engine.io_ops in
  (* The de-allocated engine measures ~590 minor words per simulated op
     on this cell — what remains is inherent to the model (per-op extent
     lists, dispatch-queue request records, hashtable waiter entries,
     non-flambda float boxing), not per-event garbage: the event loop
     itself runs on pooled records and preallocated scratch.  The budget
     has ~50% headroom; reintroducing per-event closures, service
     records or in-flight list cons blows well past it. *)
  if per_op > 900. then
    Alcotest.failf "hot path allocates %.1f minor words per op (budget 900)" per_op

(* ------------------------------------------------------------------ *)
(* Validation and partition arithmetic                                 *)
(* ------------------------------------------------------------------ *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_validate_shards () =
  Engine.validate_config ~shards:1 sharded_config;
  Engine.validate_config ~shards:64 sharded_config;
  check_bool "shards=0 rejected" true
    (raises_invalid (fun () -> Engine.validate_config ~shards:0 sharded_config));
  check_bool "negative shards rejected" true
    (raises_invalid (fun () -> Engine.validate_config ~shards:(-2) sharded_config));
  check_bool "shard_slices=0 rejected" true
    (raises_invalid (fun () ->
         Engine.validate_config { sharded_config with Engine.shard_slices = 0 }));
  check_bool "run_sharded shards=0 rejected" true
    (raises_invalid (fun () ->
         Experiment.run_sharded ~config:sharded_config ~shards:0 edge_spec mini_sc));
  check_bool "slices > disks rejected" true
    (raises_invalid (fun () ->
         Experiment.run_sharded
           ~config:{ sharded_config with Engine.disks = 2; shard_slices = 4 }
           edge_spec mini_sc))

let test_partition_arithmetic () =
  let parts = Workload.partition mini_ts ~weights:[| 1; 1; 1; 1 |] in
  check_int "slice count" 4 (Array.length parts);
  let total field =
    Array.fold_left
      (fun acc (w : Workload.t) ->
        List.fold_left (fun acc ft -> acc + field ft) acc w.Workload.types)
      0 parts
  in
  check_int "files conserved" 300 (total (fun ft -> ft.File_type.count));
  check_int "users conserved" 9 (total (fun ft -> ft.File_type.users));
  Array.iter (fun w -> Workload.validate w) parts;
  check_bool "weights [|w|] is the identity" true
    (Workload.partition mini_ts ~weights:[| 3 |] = [| mini_ts |]);
  check_bool "non-positive weight rejected" true
    (raises_invalid (fun () -> Workload.partition mini_ts ~weights:[| 1; 0 |]));
  check_bool "too-small workload rejected" true
    (raises_invalid (fun () -> Workload.partition mini_sc ~weights:[| 1; 1; 1; 1; 1 |]))

(* ------------------------------------------------------------------ *)

let capture_goldens () =
  (* regenerate the [sharded_goldens] table (see header comment) *)
  List.iter
    (fun w ->
      List.iter
        (fun (pname, spec) ->
          let r = Experiment.run_sharded ~config:sharded_config ~shards:1 spec w in
          Printf.printf "    ((%S, %S), (%h, %h));\n" pname w.Workload.name
            r.Experiment.s_application.Engine.pct_of_max
            r.Experiment.s_sequential.Engine.pct_of_max)
        (policies w))
    [ mini_ts; mini_tp; mini_sc ]

let () =
  if Sys.getenv_opt "ROFS_GOLDEN_CAPTURE" <> None then capture_goldens ()
  else
    let quick name f = Alcotest.test_case name `Quick f in
    let slow name f = Alcotest.test_case name `Slow f in
    Alcotest.run "rofs_speed"
      [
        ( "shard invariance",
          [
            slow "shards 1/2/4/8 bit-identical + frozen goldens (all cells)"
              test_shard_count_invariance;
            QCheck_alcotest.to_alcotest prop_any_width_invariant;
          ] );
        ( "serial equivalence",
          [ slow "shard_slices=1 equals run_throughput" test_serial_equivalence ] );
        ( "instrumentation",
          [
            slow "merged sink JSON invariant under width" test_instrumented_invariance;
            slow "sink drives concatenate in slice order" test_sink_drives_concatenate;
            slow "cache counters merge deterministically" test_cached_invariance;
          ] );
        ( "hot path",
          [ slow "minor words per op bounded" test_hot_path_allocation_budget ] );
        ( "validation",
          [
            quick "shards / shard_slices validation" test_validate_shards;
            quick "partition arithmetic" test_partition_arithmetic;
          ] );
      ]
