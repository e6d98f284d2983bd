(* Crash-safe checkpoint/restore battery (the checkpoint PR's headline
   test):

   - container robustness: Ckpt.encode/decode round-trips; EVERY prefix
     truncation and EVERY single-bit flip of a container is rejected
     with a one-line typed error — decode never raises and never
     accepts corrupt bytes (the per-section CRC covers name + payload);
   - checksum: the slicing-by-8 CRC-32 equals a bytewise reference at
     every length and alignment, allocates nothing, and a container the
     bytewise code wrote is reproduced byte for byte;
   - atomic commit: a writer that dies mid-write leaves the previous
     good snapshot untouched and no temp litter;
   - resume equality: for three allocator policies on each mini
     workload, a run resumed from a mid-run snapshot produces reports
     bit-identical to the same armed run left uninterrupted — pinned by
     frozen hex-float goldens so the armed event sequence cannot drift;
   - any-index property: resuming from ANY captured snapshot (QCheck
     picks the index) reproduces the uninterrupted reports exactly;
   - phase boundaries: snapshots taken before the fill, after every
     phase and at ticks inside each phase all resume bit-identically;
   - sharded runs: per-slice snapshots resume a shard_slices = 4 run to
     the identical merged report, and a completed run's final snapshots
     resume instantly;
   - refusal: mismatched configuration, missing sections, sink
     presence / tracing / ring-capacity mismatches and recording
     engines are refused with Invalid_argument, never a wrong answer,
     and a refused restore leaves every section as it was;
   - round trip: for every allocator with no sink or timeline, and for
     LFS with every subsystem live, restore-then-checkpoint reproduces
     each captured snapshot section by section, and a run finished from
     the re-taken snapshot matches the uninterrupted one;
   - trace codec: truncations and bit flips of a binary trace never
     raise out of Codec.decode.

   All determinism claims are armed-vs-armed: periodic Ckpt_tick events
   perturb equal-priority heap ordering relative to an unarmed run, so
   the guarantee is that a resumed armed run equals an uninterrupted
   armed run at the same cadence.

   Regenerate the goldens after an intentional behavior change with:
     ROFS_GOLDEN_CAPTURE=1 dune exec test/test_ckpt.exe 2>/dev/null *)

module C = Core
module Workload = C.Workload
module File_type = C.File_type
module Engine = C.Engine
module Experiment = C.Experiment
module Ckpt = C.Ckpt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Mini workloads: frozen verbatim (same as test_speed.ml — the
   goldens below depend on every field). *)
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

(* Same small-and-fast shape as test_speed.ml: 4 disks, low fill
   bounds, short measurement windows — bitwise equality needs identical
   runs, not aged ones. *)
let ckpt_config =
  {
    Engine.default_config with
    disks = 4;
    lower_bound = 0.25;
    upper_bound = 0.35;
    interval_ms = 5_000.;
    max_measure_ms = 15_000.;
    warmup_checkpoints = 1;
    max_alloc_ops = 200_000;
  }

let k = 1024
let m = 1024 * 1024

let spec_of = function
  | "buddy" -> C.Experiment.Buddy C.Buddy.default_config
  | "restricted" ->
      C.Experiment.Restricted
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
           ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
           ())
  | "extent" ->
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
           ~range_means_bytes:[ 512 * k; m; 16 * m ]
           ())
  | "fixed" -> C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:(16 * k) ())
  | "lfs" -> C.Experiment.Log_structured (C.Log_structured.config ())
  | other -> invalid_arg other

let every_ms = 2_000.

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

(* ------------------------------------------------------------------ *)
(* Armed reference runs with bounded snapshot sampling                 *)
(* ------------------------------------------------------------------ *)

(* Run the full throughput protocol with periodic checkpointing armed,
   capturing a bounded, evenly spread sample of snapshots: when the
   buffer exceeds [cap] entries the sampling stride doubles and entries
   off the new stride are dropped, so memory stays O(cap) snapshots
   over any run length while the kept tick indices span the whole run. *)
let run_armed_sampled ?(cap = 8) spec w =
  let engine = Experiment.make_engine ~config:ckpt_config spec w in
  let snaps = ref [] (* (tick index, sections), newest first *) in
  let stride = ref 1 and n = ref 0 in
  Engine.set_checkpoint engine ~every_ms (fun () ->
      (if !n mod !stride = 0 then begin
         snaps := (!n, Engine.checkpoint engine) :: !snaps;
         if List.length !snaps > cap then begin
           stride := !stride * 2;
           snaps := List.filter (fun (i, _) -> i mod !stride = 0) !snaps
         end
       end);
      incr n);
  Engine.fill_to_lower_bound engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  (app, seq, List.rev !snaps, !n)

(* Resume a fresh engine from [sections] and finish the protocol.  No
   set_checkpoint call: the snapshot carries the live tick chain and
   its cadence, so the resumed event sequence is identical with the
   hook armed or not. *)
let resume_from spec w sections =
  let engine = Experiment.make_engine ~config:ckpt_config spec w in
  Engine.restore engine sections;
  Engine.fill_to_lower_bound engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  (app, seq)

(* ------------------------------------------------------------------ *)
(* Frozen goldens: armed-run (app, seq) pct_of_max per cell            *)
(* ------------------------------------------------------------------ *)

let cells =
  [
    ("restricted", mini_ts); ("extent", mini_ts); ("lfs", mini_ts);
    ("restricted", mini_tp); ("extent", mini_tp); ("lfs", mini_tp);
    ("restricted", mini_sc); ("extent", mini_sc); ("lfs", mini_sc);
  ]

(* (policy, workload) -> (app pct_of_max, seq pct_of_max), captured
   from run_armed_sampled under ckpt_config at every_ms = 2000.  Hex
   float literals: exact. *)
let armed_goldens =
  [
    (("restricted", "MINI-TS"), (0x1.f325b1de657a5p+5, 0x1.de6caa8dc0b71p+5));
    (("extent", "MINI-TS"), (0x1.f368348cf2deap+4, 0x1.5606562198fe2p+6));
    (("lfs", "MINI-TS"), (0x1.893ee59ac0e47p+4, 0x1.bc73bb0b1a978p+3));
    (("restricted", "MINI-TP"), (0x1.6daf6b680fp+4, 0x1.824292d21cf5ap+6));
    (("extent", "MINI-TP"), (0x1.879d7ed4143bbp+4, 0x1.726e5873aa396p+6));
    (("lfs", "MINI-TP"), (0x1.32bbc5ec8c634p+4, 0x1.16fb1a06cfcefp+4));
    (("restricted", "MINI-SC"), (0x1.662b07c2548e6p+6, 0x1.70b4177abd2afp+6));
    (("extent", "MINI-SC"), (0x1.7a919fcd5b581p+6, 0x1.7e56f1fdbd205p+6));
    (("lfs", "MINI-SC"), (0x1.7413c66996ac2p+6, 0x1.4976521b36eb6p+6));
  ]

(* ------------------------------------------------------------------ *)
(* Resume equality: snapshot mid-run, finish, compare bit-exactly      *)
(* ------------------------------------------------------------------ *)

let test_resume_equality () =
  List.iter
    (fun (pname, w) ->
      let cell = Printf.sprintf "%s/%s" pname w.Workload.name in
      let spec = spec_of pname in
      let app, seq, snaps, ticks = run_armed_sampled spec w in
      check_bool (cell ^ " captured snapshots") true (snaps <> []);
      check_bool (cell ^ " ticks fired") true (ticks > 0);
      let ga, gs = List.assoc (pname, w.Workload.name) armed_goldens in
      check_exact_float (cell ^ " app pct (vs golden)") ga app.Engine.pct_of_max;
      check_exact_float (cell ^ " seq pct (vs golden)") gs seq.Engine.pct_of_max;
      (* resume from the earliest and the middle captured snapshot *)
      let pick nth =
        let i, sections = List.nth snaps nth in
        let rapp, rseq = resume_from spec w sections in
        let name = Printf.sprintf "%s resume@tick%d" cell i in
        check_tp_equal (name ^ " app") app rapp;
        check_tp_equal (name ^ " seq") seq rseq
      in
      pick 0;
      pick (List.length snaps / 2))
    cells

(* A completed run's snapshot stores both reports: restoring it replays
   nothing and returns them verbatim. *)
let test_resume_completed_run () =
  let spec = spec_of "restricted" and w = mini_tp in
  let engine = Experiment.make_engine ~config:ckpt_config spec w in
  Engine.set_checkpoint engine ~every_ms (fun () -> ());
  Engine.fill_to_lower_bound engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  let final = Engine.checkpoint engine in
  let rapp, rseq = resume_from spec w final in
  check_tp_equal "completed app" app rapp;
  check_tp_equal "completed seq" seq rseq

(* A snapshot names exactly what comes next wherever it is taken: before
   the fill, at each phase boundary, or at a tick inside a phase.  One
   armed LFS / MINI-TS run snapshots at every boundary (aging is off
   here, so the one after it equals the one after the fill) and at
   sampled ticks, tagged with the phase they fired in; each snapshot
   resumed into a fresh engine must finish with the uninterrupted run's
   reports bit for bit. *)
let test_resume_from_every_boundary () =
  let spec = spec_of "lfs" and w = mini_ts in
  let engine = Experiment.make_engine ~config:ckpt_config spec w in
  let phase = ref "fill" and n = ref 0 and snaps = ref [] in
  let take name = snaps := (name, Engine.checkpoint engine) :: !snaps in
  Engine.set_checkpoint engine ~every_ms (fun () ->
      if !n mod 4 = 0 then take (Printf.sprintf "tick %d (%s)" !n !phase);
      incr n);
  take "before the fill";
  Engine.fill_to_lower_bound engine;
  take "after the fill";
  phase := "aging";
  Engine.run_aging engine;
  take "after the aging";
  phase := "application";
  let app = Engine.run_application_test engine in
  take "after the application test";
  phase := "sequential";
  let seq = Engine.run_sequential_test engine in
  take "after the sequential test";
  let ticked p = List.exists (fun (name, _) -> String.ends_with ~suffix:("(" ^ p ^ ")") name) !snaps in
  List.iter
    (fun p -> check_bool ("a tick snapshot inside the " ^ p) true (ticked p))
    [ "fill"; "application"; "sequential" ];
  List.iter
    (fun (name, sections) ->
      let rapp, rseq = resume_from spec w sections in
      check_tp_equal ("resume from " ^ name ^ ": app") app rapp;
      check_tp_equal ("resume from " ^ name ^ ": seq") seq rseq)
    (List.rev !snaps)

(* A fully loaded engine — fault plan, buffer cache and instrumentation
   sink all on — resumes with byte-identical fault counters, cache
   counters and serialized sink JSON, not just throughput reports. *)
let loaded_config =
  {
    ckpt_config with
    Engine.faults =
      {
        C.Fault_plan.none with
        C.Fault_plan.seed = 42;
        mttf_ms = 60_000.;
        mttr_ms = 20_000.;
        media_error_rate = 0.001;
      };
    cache = Some (C.Cache.config ~mb:2 ~policy:C.Cache_policy.Lru ());
  }

let test_resume_loaded_engine () =
  let spec = spec_of "restricted" and w = mini_tp in
  let run resume =
    let engine = Experiment.make_engine ~config:loaded_config spec w in
    let sink = C.Sink.create () in
    Engine.attach_obs engine sink;
    let snap = ref None and n = ref 0 in
    (match resume with
    | Some sections -> Engine.restore engine sections
    | None ->
        Engine.set_checkpoint engine ~every_ms (fun () ->
            incr n;
            if !n = 3 then snap := Some (Engine.checkpoint engine)));
    Engine.fill_to_lower_bound engine;
    let app = Engine.run_application_test engine in
    let seq = Engine.run_sequential_test engine in
    let sink_json = C.Obs.Json.to_string (C.Sink.to_json sink) in
    (app, seq, Engine.fault_report engine, Engine.cache_report engine, sink_json, !snap)
  in
  let app, seq, fault, cache, sink_json, snap = run None in
  match snap with
  | None -> Alcotest.fail "tick 3 never fired"
  | Some sections ->
      let rapp, rseq, rfault, rcache, rsink_json, _ = run (Some sections) in
      check_tp_equal "loaded app" app rapp;
      check_tp_equal "loaded seq" seq rseq;
      check_bool "fault counters identical" true (fault = rfault);
      check_bool "cache counters identical" true (cache = rcache);
      check_bool "serialized sinks byte-identical" true (String.equal sink_json rsink_json)

(* ------------------------------------------------------------------ *)
(* QCheck: resume from ANY captured snapshot reproduces the run        *)
(* ------------------------------------------------------------------ *)

let prop_any_snapshot_resumes =
  let spec = spec_of "buddy" and w = mini_tp in
  let base = lazy (run_armed_sampled spec w) in
  QCheck.Test.make ~count:4 ~name:"resume from any captured snapshot is bit-identical"
    QCheck.(int_bound 1_000_000)
    (fun r ->
      let app, seq, snaps, _ = Lazy.force base in
      let _, sections = List.nth snaps (r mod List.length snaps) in
      let rapp, rseq = resume_from spec w sections in
      rapp = app && rseq = seq)

(* ------------------------------------------------------------------ *)
(* Sharded runs: per-slice snapshots, resumable at shard_slices = 4    *)
(* ------------------------------------------------------------------ *)

let test_sharded_resume () =
  let spec = spec_of "fixed" and w = mini_sc in
  let config = ckpt_config (* shard_slices = 4 (the default) *) in
  let first : (int, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  let last : (int, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  let save ~slice sections =
    if not (Hashtbl.mem first slice) then Hashtbl.add first slice sections;
    Hashtbl.replace last slice sections
  in
  let base =
    Experiment.run_sharded ~config ~shards:2 ~ckpt_every_ms:every_ms ~ckpt_save:save spec w
  in
  check_int "slices" 4 base.Experiment.s_slices;
  check_bool "every slice snapshotted" true (Hashtbl.length first = 4);
  (* resume every slice from its first mid-run snapshot; the merged
     report must match the uninterrupted armed run bit-exactly — at a
     different execution width, which must not matter *)
  let resume tbl shards name =
    let r =
      Experiment.run_sharded ~config ~shards ~ckpt_every_ms:every_ms
        ~ckpt_save:(fun ~slice:_ _ -> ())
        ~ckpt_resume:(fun ~slice -> Hashtbl.find_opt tbl slice)
        spec w
    in
    check_tp_equal (name ^ " app") base.Experiment.s_application r.Experiment.s_application;
    check_tp_equal (name ^ " seq") base.Experiment.s_sequential r.Experiment.s_sequential
  in
  resume first 4 "sharded resume (first snapshots)";
  (* the final snapshots were taken after each slice finished: resuming
     from them replays nothing *)
  resume last 1 "sharded resume (final snapshots)"

(* ------------------------------------------------------------------ *)
(* Refusal: wrong config, damaged sections, recording engines          *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument msg ->
      check_bool "one-line error" true (not (String.contains msg '\n'));
      true
  | _ -> false

(* A refused restore changes nothing: every section the engine
   checkpoints afterwards is byte-equal to the one it checkpointed
   before.  Every snapshot here is taken after a fill, so a section
   swapped in before the refusal would show. *)
let refused_unchanged name engine snap =
  let before = Engine.checkpoint engine in
  check_bool name true (raises_invalid (fun () -> Engine.restore engine snap));
  List.iter2
    (fun (section, a) (_, b) ->
      check_bool (Printf.sprintf "%s: %s section unchanged" name section) true (String.equal a b))
    before (Engine.checkpoint engine)

let test_restore_refusals () =
  let spec = spec_of "restricted" and w = mini_tp in
  let filled engine =
    Engine.fill_to_lower_bound engine;
    Engine.checkpoint engine
  in
  let snap = filled (Experiment.make_engine ~config:ckpt_config spec w) in
  (* different seed -> different fingerprint -> refused *)
  let other =
    Experiment.make_engine ~config:{ ckpt_config with Engine.seed = 43 } spec w
  in
  refused_unchanged "fingerprint mismatch refused" other snap;
  (* a missing section is refused *)
  let fresh () = Experiment.make_engine ~config:ckpt_config spec w in
  refused_unchanged "missing section refused" (fresh ())
    (List.filter (fun (n, _) -> n <> "volume") snap);
  (* a cache-presence mismatch is refused *)
  let cached =
    Experiment.make_engine
      ~config:
        {
          ckpt_config with
          Engine.cache = Some (C.Cache.config ~mb:4 ~policy:C.Cache_policy.Lru ());
        }
      spec w
  in
  refused_unchanged "cache presence mismatch refused" cached snap;
  (* recording engines hold closures: checkpoint refuses them *)
  let recorder = C.Trace_recorder.create ~name:"x" in
  let recording =
    Experiment.make_engine
      ~recorder:(C.Trace_recorder.hook recorder)
      ~config:ckpt_config spec w
  in
  check_bool "recording engine refused" true
    (raises_invalid (fun () -> Engine.checkpoint recording));
  (* sink rows: presence both ways, traced vs untraced, ring capacity *)
  let with_sink sink =
    let e = fresh () in
    Option.iter (Engine.attach_obs e) sink;
    e
  in
  let untraced () = Some (C.Sink.create ()) in
  let traced n = Some (C.Sink.create ~trace:true ~trace_capacity:n ()) in
  let snap_with sink = filled (with_sink sink) in
  List.iter
    (fun (name, snap, sink) -> refused_unchanged name (with_sink sink) snap)
    [
      ("sink in snapshot, none attached: refused", snap_with (untraced ()), None);
      ("no sink in snapshot, one attached: refused", snap, untraced ());
      ("traced snapshot, untraced sink: refused", snap_with (traced 1024), untraced ());
      ("untraced snapshot, traced sink: refused", snap_with (untraced ()), traced 1024);
      ("trace ring capacity mismatch: refused", snap_with (traced 1024), traced 2048);
    ];
  check_bool "matching traced sink accepted" false
    (raises_invalid (fun () -> Engine.restore (with_sink (traced 1024)) (snap_with (traced 1024))));
  (* timeline rows: presence both ways *)
  let with_timeline () =
    let e = fresh () in
    Engine.attach_timeline e ~every_ms;
    e
  in
  refused_unchanged "timeline in snapshot, none attached: refused" (fresh ())
    (filled (with_timeline ()));
  refused_unchanged "no timeline in snapshot, one attached: refused" (with_timeline ()) snap;
  (* A fault plan or a cache that the snapshot lacks while the
     fingerprint matches: a real config change trips the fingerprint
     first, so the section is edited by hand. *)
  let loaded () = Experiment.make_engine ~config:loaded_config spec w in
  let loaded_snap = filled (loaded ()) in
  List.iter
    (fun section ->
      let edited =
        List.map
          (fun (n, payload) ->
            (n, if n = section then Marshal.to_string (None : string option) [] else payload))
          loaded_snap
      in
      refused_unchanged (section ^ " section empty, owner present: refused") (loaded ()) edited)
    [ "fault_plan"; "cache" ]

(* A snapshot taken with no checkpoint cadence armed (here, of an
   engine that has not run yet) adopts the one the resuming caller arms:
   the resumed run's ticks fire, and a snapshot one of them writes
   carries that cadence on to an unarmed resume.  A timeline's presence
   is part of what a snapshot must match, so a timeline-less snapshot is
   refused by an engine that has one: a timeline's cadence always comes
   from the snapshot. *)
let test_restore_adopts_caller_cadence () =
  let spec = spec_of "restricted" and w = mini_tp in
  let fresh () = Experiment.make_engine ~config:ckpt_config spec w in
  let snap = Engine.checkpoint (fresh ()) in
  let finish engine =
    Engine.fill_to_lower_bound engine;
    Engine.run_application_test engine
  in
  let armed = fresh () in
  let ticks = ref 0 and later = ref None in
  Engine.set_checkpoint armed ~every_ms (fun () ->
      incr ticks;
      if !ticks = 3 then later := Some (Engine.checkpoint armed));
  Engine.restore armed snap;
  let app = finish armed in
  check_bool "ticks fire after the restore" true (!ticks > 3);
  (match !later with
  | None -> Alcotest.fail "tick 3 never fired"
  | Some sections ->
      let again = fresh () in
      Engine.restore again sections;
      check_tp_equal "unarmed resume from an adopted-cadence tick" app (finish again));
  let with_timeline = fresh () in
  Engine.attach_timeline with_timeline ~every_ms;
  refused_unchanged "timeline-less snapshot refused by a timeline engine" with_timeline snap

(* ------------------------------------------------------------------ *)
(* Round trip: restore then checkpoint reproduces every section        *)
(* ------------------------------------------------------------------ *)

(* Every subsystem with a section is live: LFS on mirrored pairs under
   SSTF, a write-back cache, drive failures and media errors, a tracing
   sink and a timeline. *)
let round_trip_config =
  {
    ckpt_config with
    Engine.array_config = (fun stripe_unit -> C.Array_model.Mirrored { stripe_unit });
    scheduler = C.Sched_policy.Sstf;
    faults =
      {
        C.Fault_plan.none with
        C.Fault_plan.seed = 42;
        mttf_ms = 20_000.;
        mttr_ms = 5_000.;
        media_error_rate = 0.001;
      };
    cache = Some (C.Cache.config ~mb:16 ~write_mode:C.Cache.Write_back ());
  }

(* The rows: the rich LFS run above, then every allocator on the plain
   [ckpt_config] with no sink or timeline attached. *)
let round_trip_rows =
  ("lfs", mini_tp, true)
  :: List.concat_map
       (fun w -> List.map (fun p -> (p, w, false)) [ "buddy"; "restricted"; "extent"; "fixed"; "lfs" ])
       [ mini_tp; mini_ts ]

let round_trip_engine (policy, w, rich) =
  if rich then begin
    let engine = Experiment.make_engine ~config:round_trip_config (spec_of policy) w in
    let sink = C.Sink.create ~trace:true () in
    Engine.attach_obs engine sink;
    Engine.attach_timeline engine ~every_ms:2_000.;
    (engine, Some sink)
  end
  else (Experiment.make_engine ~config:ckpt_config (spec_of policy) w, None)

(* Finish the protocol; everything a resumed run reports or exports. *)
let round_trip_finish (engine, sink) =
  Engine.fill_to_lower_bound engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  let json = C.Obs.Json.to_string in
  let trace =
    match Option.bind sink C.Sink.trace_ref with
    | Some ring -> json (C.Obs.Trace.chrome_json ring)
    | None -> ""
  in
  let timeline =
    match Engine.timeline engine with
    | Some tl -> json (C.Timeline.to_json tl) ^ C.Timeline.to_csv tl
    | None -> ""
  in
  ( (app, seq),
    (Engine.fault_report engine, Engine.cache_report engine),
    (Option.fold ~none:"" ~some:(fun s -> json (C.Sink.to_json s)) sink, trace, timeline) )

(* Every snapshot is restored and re-taken; the rich row finishes a run
   from every re-taken snapshot, the plain rows from the middle one. *)
let test_restore_checkpoint_round_trip () =
  List.iter
    (fun ((policy, w, rich) as row) ->
      let row_name = Printf.sprintf "%s/%s" policy w.Workload.name in
      let engine, sink = round_trip_engine row in
      let snaps = ref [] in
      Engine.set_checkpoint engine ~every_ms:3_000. (fun () ->
          snaps := Engine.checkpoint engine :: !snaps);
      let (app, seq), reports, exports = round_trip_finish (engine, sink) in
      let snaps = List.rev !snaps in
      check_bool (row_name ^ ": captured snapshots") true (List.length snaps >= 3);
      List.iteri
        (fun i s ->
          let fresh = round_trip_engine row in
          Engine.restore (fst fresh) s;
          let again = Engine.checkpoint (fst fresh) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s snapshot %d section names" row_name i)
            (List.map fst s) (List.map fst again);
          List.iter2
            (fun (name, a) (_, b) ->
              if not (String.equal a b) then
                Alcotest.failf "%s snapshot %d: section %S does not round-trip (%d vs %d bytes)"
                  row_name i name (String.length a) (String.length b))
            s again;
          if rich || i = List.length snaps / 2 then begin
            let resumed = round_trip_engine row in
            Engine.restore (fst resumed) again;
            let (rapp, rseq), rreports, rexports = round_trip_finish resumed in
            let name = Printf.sprintf "%s snapshot %d resumed" row_name i in
            check_tp_equal (name ^ " app") app rapp;
            check_tp_equal (name ^ " seq") seq rseq;
            check_bool (name ^ ": fault and cache reports") true (reports = rreports);
            check_bool (name ^ ": sink, trace and timeline exports") true (exports = rexports)
          end)
        snaps)
    round_trip_rows

(* ------------------------------------------------------------------ *)
(* Container: round-trip, truncation sweep, bit-flip sweep             *)
(* ------------------------------------------------------------------ *)

let sample_sections =
  [
    ("fingerprint", "abc123");
    ("engine", String.init 64 (fun i -> Char.chr (i * 7 land 0xff)));
    ("empty", "");
    ("volume", "payload with \x00 NUL and \xff bytes");
  ]

let test_container_roundtrip () =
  let bytes = Ckpt.encode sample_sections in
  (match Ckpt.decode bytes with
  | Ok sections -> check_bool "round-trip" true (sections = sample_sections)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  (match Ckpt.decode (Ckpt.encode []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty round-trip gained sections"
  | Error msg -> Alcotest.failf "empty round-trip failed: %s" msg)

(* [Ckpt.encode sample_sections] as written by the bytewise CRC-32 the
   slicing-by-8 one replaced: the checksums, and so the bytes, must not
   change. *)
let sample_container_hex =
  "524f4653434b505401000000040000000b0066696e6765727072696e74060000005cf02c3b6162633132330600"
  ^ "656e67696e65400000008a2033c900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2"
  ^ "d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b90500656d70747900000000c4"
  ^ "3dc7680600766f6c756d651e000000d6f51c977061796c6f616420776974682000204e554c20616e6420ff2062"
  ^ "79746573"

let of_hex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_container_bytes_frozen () =
  let frozen = of_hex sample_container_hex in
  check_bool "encode reproduces the frozen bytes" true (Ckpt.encode sample_sections = frozen);
  match Ckpt.decode frozen with
  | Ok sections -> check_bool "frozen container decodes" true (sections = sample_sections)
  | Error msg -> Alcotest.failf "frozen container refused: %s" msg

(* The bytewise table-driven CRC-32 the library used before slicing-by-8,
   kept as the reference model. *)
let reference_crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  String.iter (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8)) s;
  !crc lxor 0xFFFFFFFF

let random_bytes ~seed n =
  let st = Random.State.make [| seed |] in
  String.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_crc32_matches_bytewise () =
  check_int "IEEE check value" 0xCBF43926 (Ckpt.crc32 "123456789");
  let s = random_bytes ~seed:7 80 in
  for off = 0 to 7 do
    for len = 0 to 64 do
      let sub = String.sub s off len in
      if Ckpt.crc32 sub <> reference_crc32 sub then
        Alcotest.failf "crc32 differs from the bytewise loop at offset %d, length %d" off len
    done
  done;
  let big = random_bytes ~seed:11 (2 * 1024 * 1024) in
  check_int "2 MB string" (reference_crc32 big) (Ckpt.crc32 big)

(* Slicing-by-8 reads bytes inline and keeps its state in registers, so
   checksumming a snapshot allocates nothing. *)
let test_crc32_allocation_free () =
  let big = random_bytes ~seed:13 (2 * 1024 * 1024) in
  ignore (Ckpt.crc32 big);
  let before = Gc.minor_words () in
  let crc = Ckpt.crc32 big in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity crc);
  if words > 0. then Alcotest.failf "crc32 of 2 MB allocated %.0f minor words (budget 0)" words

let one_line msg = not (String.contains (String.trim msg) '\n')

let test_container_truncation_sweep () =
  let bytes = Ckpt.encode sample_sections in
  for len = 0 to String.length bytes - 1 do
    match Ckpt.decode (String.sub bytes 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error msg ->
        if not (one_line msg) then Alcotest.failf "multi-line error at %d: %s" len msg
  done

let test_container_bitflip_sweep () =
  let bytes = Ckpt.encode sample_sections in
  let flipped = Bytes.of_string bytes in
  for pos = 0 to String.length bytes - 1 do
    for bit = 0 to 7 do
      Bytes.set flipped pos (Char.chr (Char.code bytes.[pos] lxor (1 lsl bit)));
      (match Ckpt.decode (Bytes.to_string flipped) with
      | Ok _ -> Alcotest.failf "bit %d of byte %d flipped, still accepted" bit pos
      | Error msg ->
          if not (one_line msg) then
            Alcotest.failf "multi-line error at byte %d: %s" pos msg);
      Bytes.set flipped pos bytes.[pos]
    done
  done

(* ------------------------------------------------------------------ *)
(* Atomic commit: a crash mid-write never damages the previous file    *)
(* ------------------------------------------------------------------ *)

let test_atomic_write_crash () =
  let path = Filename.temp_file "rofs_ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ckpt.save_file path sample_sections;
      (* the writer dies mid-write: path must keep the old snapshot *)
      (match Ckpt.atomic_write path (fun oc -> output_string oc "part"; raise Exit) with
      | exception Exit -> ()
      | () -> Alcotest.fail "crashing writer returned");
      check_bool "no temp litter" false (Sys.file_exists (path ^ ".tmp"));
      match Ckpt.load_file path with
      | Ok sections -> check_bool "previous snapshot intact" true (sections = sample_sections)
      | Error msg -> Alcotest.failf "previous snapshot damaged: %s" msg)

(* The writer dies after emitting k bytes, for EVERY k in the new
   snapshot: recovery must always see the previous good snapshot (the
   temp file never reaches the target path), and once the writer does
   finish, the new snapshot must be visible. *)
let test_crash_at_every_offset () =
  let path = Filename.temp_file "rofs_ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ckpt.save_file path sample_sections;
      let replacement = [ ("engine", "replacement state") ] in
      let next = Ckpt.encode replacement in
      for k = 0 to String.length next - 1 do
        (match
           Ckpt.atomic_write path (fun oc ->
               output_string oc (String.sub next 0 k);
               raise Exit)
         with
        | exception Exit -> ()
        | () -> Alcotest.failf "writer crashed at offset %d yet returned" k);
        match Ckpt.load_file path with
        | Ok s ->
            if s <> sample_sections then
              Alcotest.failf "crash at offset %d exposed a partial snapshot" k
        | Error msg -> Alcotest.failf "crash at offset %d damaged the target: %s" k msg
      done;
      Ckpt.save_file path replacement;
      check_bool "completed writer commits" true (Ckpt.load_file path = Ok replacement))

let test_load_file_errors () =
  (match Ckpt.load_file "/nonexistent/rofs.snap" with
  | Error msg -> check_bool "missing file error is one line" true (one_line msg)
  | Ok _ -> Alcotest.fail "missing file accepted");
  let path = Filename.temp_file "rofs_ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a snapshot at all";
      close_out oc;
      match Ckpt.load_file path with
      | Error msg -> check_bool "garbage file error is one line" true (one_line msg)
      | Ok _ -> Alcotest.fail "garbage file accepted")

(* ------------------------------------------------------------------ *)
(* Trace codec: corruption never raises out of decode                  *)
(* ------------------------------------------------------------------ *)

let sample_trace =
  {
    C.Trace.name = "corrupt-me";
    initial = [ (0, 64 * k, 64 * k, 0); (1, 8 * k, 8 * k, 1) ];
    events =
      [
        { C.Trace.time_ms = 0.; file = 0; op = C.Trace.Read { off = 0; bytes = 4 * k } };
        { C.Trace.time_ms = 1.5; file = 1; op = C.Trace.Write { off = 8; bytes = 512 } };
        { C.Trace.time_ms = 2.5; file = 0; op = C.Trace.Grow (4 * k) };
        { C.Trace.time_ms = 9.; file = 1; op = C.Trace.Delete };
      ];
  }

let test_trace_codec_corruption () =
  let bytes = C.Trace_codec.encode sample_trace in
  (match C.Trace_codec.decode bytes with
  | Ok t -> check_bool "trace round-trip" true (t = sample_trace)
  | Error msg -> Alcotest.failf "trace round-trip failed: %s" msg);
  for len = 0 to String.length bytes - 1 do
    match C.Trace_codec.decode (String.sub bytes 0 len) with
    | Ok _ -> Alcotest.failf "trace truncated to %d bytes accepted" len
    | Error msg ->
        if not (one_line msg) then Alcotest.failf "multi-line trace error at %d" len;
        ignore msg
  done;
  (* bit flips: the codec has no checksum, so a flip may decode to a
     different-but-well-formed trace; the guarantee is a typed result,
     never an escaped exception or a torn backtrace *)
  let flipped = Bytes.of_string bytes in
  for pos = 0 to String.length bytes - 1 do
    for bit = 0 to 7 do
      Bytes.set flipped pos (Char.chr (Char.code bytes.[pos] lxor (1 lsl bit)));
      (match C.Trace_codec.decode (Bytes.to_string flipped) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "trace decode raised %s at byte %d bit %d"
            (Printexc.to_string e) pos bit);
      Bytes.set flipped pos bytes.[pos]
    done
  done

(* ------------------------------------------------------------------ *)

let capture_goldens () =
  (* regenerate the [armed_goldens] table (see header comment) *)
  List.iter
    (fun (pname, w) ->
      let app, seq, _, _ = run_armed_sampled (spec_of pname) w in
      Printf.printf "    ((%S, %S), (%h, %h));\n" pname w.Workload.name
        app.Engine.pct_of_max seq.Engine.pct_of_max)
    cells

let () =
  if Sys.getenv_opt "ROFS_GOLDEN_CAPTURE" <> None then capture_goldens ()
  else
    let quick name f = Alcotest.test_case name `Quick f in
    let slow name f = Alcotest.test_case name `Slow f in
    Alcotest.run "rofs_ckpt"
      [
        ( "container",
          [
            quick "round-trip" test_container_roundtrip;
            quick "bytes match the frozen container" test_container_bytes_frozen;
            quick "crc32 matches the bytewise reference" test_crc32_matches_bytewise;
            quick "crc32 allocates nothing" test_crc32_allocation_free;
            quick "every truncation rejected" test_container_truncation_sweep;
            quick "every bit flip rejected" test_container_bitflip_sweep;
            quick "atomic commit survives a crashing writer" test_atomic_write_crash;
            quick "writer killed at every byte offset" test_crash_at_every_offset;
            quick "unreadable files are typed errors" test_load_file_errors;
          ] );
        ( "resume",
          [
            slow "mid-run resume bit-identical + frozen goldens (all cells)"
              test_resume_equality;
            slow "completed-run snapshot resumes instantly" test_resume_completed_run;
            slow "resume from every phase boundary and mid-phase" test_resume_from_every_boundary;
            slow "faults + cache + sink resume byte-identically" test_resume_loaded_engine;
            slow "unarmed snapshot adopts the caller's cadence" test_restore_adopts_caller_cadence;
            QCheck_alcotest.to_alcotest prop_any_snapshot_resumes;
          ] );
        ( "sharded",
          [ slow "per-slice snapshots resume the merged run" test_sharded_resume ] );
        ( "refusal",
          [ slow "wrong config / damaged snapshot / recorder refused" test_restore_refusals ]
        );
        ( "round trip",
          [
            slow "restore then checkpoint is byte-identical per section"
              test_restore_checkpoint_round_trip;
          ] );
        ( "trace codec",
          [ quick "corrupt traces never raise" test_trace_codec_corruption ] );
      ]
