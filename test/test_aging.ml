(* Fast-forward aging battery (the aging PR's headline tests):

   - LFS cleaner accounting: a hand-built churn sequence (half-live
     segments, then growth pressure) drives Log_structured's cleaner
     and pins its work — user units, relocated units, passes — as
     frozen integers, so clean_one's accounting cannot drift silently;
   - cleaner termination: a 100%-occupied log (all live, or garbage
     smaller than any reclaimable victim) answers `Disk_full in finite
     time instead of letting maybe_clean loop forever;
   - free_hist degenerate states: for all five allocators, the
     free-space histogram respects sizes-strictly-ascending /
     counts-positive / sum = free_units at the three degenerate
     states — empty volume, fully allocated, single free extent;
   - aging driver: below-target picks are always Grow; the decision
     stream is a pure function of the per-user RNG (QCheck);
   - aged engine runs: the aging phase holds the target occupancy
     within tolerance and is seed-deterministic (QCheck over seeds);
   - aged sharded runs: with aging on, run_sharded stays bit-identical
     at shards 1/2/4/8 — merged reports, merged churn counters and the
     merged timeline JSON;
   - armed cadences across the jump: checkpoint ticks keep firing
     inside the aging fast-forward, and resuming from any mid-run
     snapshot (including mid-aging ones) finishes bit-identically to
     the uninterrupted armed run.

   Regenerate the frozen cleaner pins after an intentional behavior
   change with:
     ROFS_GOLDEN_CAPTURE=1 dune exec test/test_aging.exe 2>/dev/null *)

module C = Core
module Policy = C.Policy
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type
module Aging = C.Aging
module Rng = C.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

let ok_or_fail = function
  | Ok () -> ()
  | Error `Disk_full -> Alcotest.fail "unexpected disk full"

let expect_full = function
  | Ok () -> Alcotest.fail "expected disk full"
  | Error `Disk_full -> ()

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* LFS cleaner accounting on a known churn sequence                    *)
(* ------------------------------------------------------------------ *)

(* 16 segments of 64 units.  Fill segments 0-7 with two half-segment
   files each, kill the odd files (every filled segment half dead, all
   above the quarter-garbage victim threshold), then grow one file
   until the clean reserve drains and the cleaner must relocate the
   surviving halves. *)
let lfs_churned () =
  let p =
    C.Log_structured.create
      (C.Log_structured.config ~unit_bytes:1024 ~segment_bytes:(64 * 1024) ~clean_threshold:2
         ~clean_target:4 ())
      ~total_units:1024
  in
  for f = 1 to 16 do
    p.Policy.create_file ~file:f ~hint:32;
    ok_or_fail (p.Policy.ensure ~file:f ~target:32)
  done;
  let f = 1 in
  ignore f;
  let rec kill f = if f <= 15 then (p.Policy.delete ~file:f; kill (f + 2)) in
  kill 1;
  p.Policy.create_file ~file:100 ~hint:64;
  ok_or_fail (p.Policy.ensure ~file:100 ~target:448);
  p

(* Frozen pins, captured once from the sequence above.  user_units is
   exactly the units ever appended for user growth (16 * 32 + 448);
   moved_units and cleaner_passes are the cleaner's: every pass copies
   one 32-unit surviving half. *)
let lfs_user_units_golden = 960
let lfs_moved_units_golden = 64
let lfs_cleaner_passes_golden = 2

let test_lfs_cleaner_accounting () =
  let p = lfs_churned () in
  let cs = p.Policy.churn_stats () in
  check_int "user units" lfs_user_units_golden cs.Policy.cs_user_units;
  check_int "moved units" lfs_moved_units_golden cs.Policy.cs_moved_units;
  check_int "cleaner passes" lfs_cleaner_passes_golden cs.Policy.cs_cleaner_passes;
  (* every pass relocated exactly one surviving 32-unit half *)
  check_int "moved = passes * 32" (32 * cs.Policy.cs_cleaner_passes) cs.Policy.cs_moved_units;
  check_bool "write cost > 1 once the cleaner ran" true (Policy.write_cost cs > 1.);
  check_exact_float "write cost arithmetic"
    (float_of_int (cs.Policy.cs_user_units + cs.Policy.cs_moved_units)
    /. float_of_int cs.Policy.cs_user_units)
    (Policy.write_cost cs)

let test_update_in_place_allocators_never_move_data () =
  (* The four update-in-place policies count user units but can never
     report cleaner work. *)
  let policies =
    [
      C.Buddy.create { C.Buddy.unit_bytes = 1024; max_extent_bytes = 64 * 1024 } ~total_units:1024;
      C.Restricted_buddy.create
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true ~region_bytes:(256 * 1024)
           ~block_sizes_bytes:[ 1024; 8 * 1024 ] ())
        ~total_units:1024;
      C.Extent_alloc.create
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit ~range_means_bytes:[ 8 * 1024 ] ())
        ~total_units:1024 ~rng:(Rng.create ~seed:3);
      C.Fixed_block.create
        (C.Fixed_block.config ~block_bytes:4096 ())
        ~total_units:1024 ~rng:(Rng.create ~seed:12);
    ]
  in
  List.iter
    (fun (p : Policy.t) ->
      check_int (p.Policy.name ^ " starts at zero") 0 (p.Policy.churn_stats ()).Policy.cs_user_units;
      p.Policy.create_file ~file:1 ~hint:16;
      ok_or_fail (p.Policy.ensure ~file:1 ~target:64);
      p.Policy.shrink_to ~file:1 ~target:16;
      ok_or_fail (p.Policy.ensure ~file:1 ~target:32);
      let cs = p.Policy.churn_stats () in
      check_bool (p.Policy.name ^ " counts user units") true (cs.Policy.cs_user_units >= 64);
      check_int (p.Policy.name ^ " never moves data") 0 cs.Policy.cs_moved_units;
      check_int (p.Policy.name ^ " never cleans") 0 cs.Policy.cs_cleaner_passes;
      check_exact_float (p.Policy.name ^ " write cost 1") 1. (Policy.write_cost cs))
    policies

let test_write_cost_empty () =
  check_exact_float "no user writes reads as cost 1" 1.
    (Policy.write_cost { Policy.cs_user_units = 0; cs_moved_units = 0; cs_cleaner_passes = 0 })

(* ------------------------------------------------------------------ *)
(* Cleaner termination at 100% occupancy                               *)
(* ------------------------------------------------------------------ *)

let test_lfs_cleaner_terminates_at_full () =
  let lfs () =
    C.Log_structured.create
      (C.Log_structured.config ~unit_bytes:1024 ~segment_bytes:(64 * 1024) ~clean_threshold:2
         ~clean_target:4 ())
      ~total_units:1024
  in
  (* All live: no victim exists, ensure must answer Disk_full, not spin. *)
  let p = lfs () in
  p.Policy.create_file ~file:1 ~hint:64;
  ok_or_fail (p.Policy.ensure ~file:1 ~target:1024);
  check_int "volume fully allocated" 0 (p.Policy.free_units ());
  expect_full (p.Policy.ensure ~file:1 ~target:1025);
  (* Garbage exists but below the quarter-segment victim threshold:
     still no victim, still a finite refusal. *)
  let p = lfs () in
  for f = 1 to 64 do
    p.Policy.create_file ~file:f ~hint:16;
    ok_or_fail (p.Policy.ensure ~file:f ~target:16)
  done;
  check_int "full again" 0 (p.Policy.free_units ());
  p.Policy.shrink_to ~file:1 ~target:8;
  (* 8 dead units in segment 0: 8 * 4 < 64, not worth cleaning *)
  p.Policy.create_file ~file:100 ~hint:16;
  expect_full (p.Policy.ensure ~file:100 ~target:16)

(* ------------------------------------------------------------------ *)
(* free_hist degenerate states, all five allocators                    *)
(* ------------------------------------------------------------------ *)

(* The histogram contract at any state: sizes strictly ascending,
   counts positive, total exactly the policy's free space, and the
   empty histogram exactly when no space is free. *)
let check_hist_invariants name (p : Policy.t) =
  let hist = p.Policy.free_hist () in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  check_bool (name ^ ": sizes strictly ascending") true (ascending hist);
  check_bool (name ^ ": counts positive") true (List.for_all (fun (_, c) -> c > 0) hist);
  check_bool (name ^ ": sizes positive") true (List.for_all (fun (s, _) -> s > 0) hist);
  check_int
    (name ^ ": histogram total = free_units")
    (p.Policy.free_units ())
    (List.fold_left (fun acc (s, c) -> acc + (s * c)) 0 hist);
  check_bool (name ^ ": empty iff nothing free") (p.Policy.free_units () = 0) (hist = [])

(* Each maker yields (policy, grain): grain is a unit count one whole
   allocation step occupies, so "fill completely, then free exactly one
   grain" is expressible for every policy. *)
let hist_policies () =
  [
    ( "buddy",
      C.Buddy.create { C.Buddy.unit_bytes = 1024; max_extent_bytes = 64 * 1024 }
        ~total_units:1024,
      64 );
    ( "restricted",
      C.Restricted_buddy.create
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:false ~region_bytes:(256 * 1024)
           ~block_sizes_bytes:[ 1024 ] ())
        ~total_units:1024,
      1 );
    ( "fixed",
      C.Fixed_block.create (C.Fixed_block.config ~block_bytes:4096 ()) ~total_units:1024
        ~rng:(Rng.create ~seed:12),
      4 );
    ( "lfs",
      C.Log_structured.create
        (C.Log_structured.config ~unit_bytes:1024 ~segment_bytes:(64 * 1024)
           ~clean_threshold:2 ~clean_target:4 ())
        ~total_units:1024,
      64 );
  ]

let test_free_hist_degenerate_states () =
  (* Empty volume: everything free, histogram covers it all. *)
  List.iter
    (fun (name, p, _) ->
      check_int (name ^ " empty: all free") 1024 (p.Policy.free_units ());
      check_hist_invariants (name ^ " empty") p)
    (hist_policies ());
  (* Fully allocated, then a single freed grain.  Three files with the
     middle one deleted: the hole must sit below the last allocation,
     because the log-structured policy can never reclaim its own head
     segment. *)
  List.iter
    (fun (name, p, grain) ->
      p.Policy.create_file ~file:1 ~hint:grain;
      ok_or_fail (p.Policy.ensure ~file:1 ~target:(1024 - (2 * grain)));
      p.Policy.create_file ~file:2 ~hint:grain;
      ok_or_fail (p.Policy.ensure ~file:2 ~target:grain);
      p.Policy.create_file ~file:3 ~hint:grain;
      ok_or_fail (p.Policy.ensure ~file:3 ~target:grain);
      check_int (name ^ " full: nothing free") 0 (p.Policy.free_units ());
      check_hist_invariants (name ^ " full") p;
      check_bool (name ^ " full: histogram empty") true (p.Policy.free_hist () = []);
      p.Policy.delete ~file:2;
      check_int (name ^ " single hole: one grain free") grain (p.Policy.free_units ());
      check_hist_invariants (name ^ " single hole") p;
      check_int (name ^ " single hole: one bucket") 1 (List.length (p.Policy.free_hist ()));
      check_bool (name ^ " single hole: bucket is the grain") true
        (List.exists (fun (s, c) -> s = grain && c = 1) (p.Policy.free_hist ())))
    (hist_policies ());
  (* The extent allocator draws extent sizes from an RNG, so drive it
     by invariant rather than exact grain: empty, driven to disk-full,
     and after one deletion the histogram must still balance. *)
  let p =
    C.Extent_alloc.create
      (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit ~range_means_bytes:[ 8 * 1024 ] ())
      ~total_units:1024 ~rng:(Rng.create ~seed:3)
  in
  check_int "extent empty: all free" 1024 (p.Policy.free_units ());
  check_hist_invariants "extent empty" p;
  let full = ref false in
  let f = ref 0 in
  while not !full do
    incr f;
    p.Policy.create_file ~file:!f ~hint:8;
    match p.Policy.ensure ~file:!f ~target:64 with
    | Ok () -> ()
    | Error `Disk_full -> full := true
  done;
  check_hist_invariants "extent at disk-full" p;
  p.Policy.delete ~file:1;
  check_bool "extent hole: histogram non-empty" true (p.Policy.free_hist () <> []);
  check_hist_invariants "extent after delete" p

(* ------------------------------------------------------------------ *)
(* Aging driver: pure decision function                                *)
(* ------------------------------------------------------------------ *)

let aging_ft delete_pct =
  {
    File_type.name = "churn";
    count = 10;
    users = 2;
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
    delete_pct_of_deallocs = delete_pct;
    pattern = File_type.Whole_file;
  }

let prop_below_target_always_grows =
  QCheck.Test.make ~name:"aging below target always grows" ~count:200
    QCheck.(triple (int_range 0 1000) (int_range 0 100) int)
    (fun (per_mille, delete_pct, seed) ->
      let utilization = float_of_int per_mille /. 1000. in
      let target = utilization +. 0.001 in
      Aging.pick ~utilization ~target (Rng.create ~seed) (aging_ft delete_pct) = Aging.Grow)

let prop_decision_stream_deterministic =
  QCheck.Test.make ~name:"aging decisions are a pure function of the rng" ~count:50
    QCheck.(pair int (int_range 0 100))
    (fun (seed, delete_pct) ->
      let stream seed =
        let rng = Rng.create ~seed in
        List.init 100 (fun i ->
            let utilization = if i mod 3 = 0 then 0.3 else 0.95 in
            Aging.pick ~utilization ~target:0.9 rng (aging_ft delete_pct))
      in
      stream seed = stream seed)

let test_at_target_mixes_deallocations () =
  (* At or above target with delete_pct 100 / 0 the dealloc choice is
     forced; in between both appear over a long stream. *)
  let picks delete_pct =
    let rng = Rng.create ~seed:7 in
    List.init 200 (fun _ -> Aging.pick ~utilization:0.95 ~target:0.9 rng (aging_ft delete_pct))
  in
  check_bool "pct=100 deletes only" true (List.for_all (( = ) Aging.Delete) (picks 100));
  check_bool "pct=0 truncates only" true (List.for_all (( = ) Aging.Truncate) (picks 0));
  let mixed = picks 50 in
  check_bool "pct=50 deletes some" true (List.exists (( = ) Aging.Delete) mixed);
  check_bool "pct=50 truncates some" true (List.exists (( = ) Aging.Truncate) mixed)

let test_validate_rejects_nonsense () =
  Aging.validate ~age_ms:0. ~occupancy:0.5;
  Aging.validate ~age_ms:1e9 ~occupancy:0.999;
  check_bool "negative age" true
    (raises_invalid (fun () -> Aging.validate ~age_ms:(-1.) ~occupancy:0.5));
  check_bool "nan age" true
    (raises_invalid (fun () -> Aging.validate ~age_ms:Float.nan ~occupancy:0.5));
  check_bool "zero occupancy" true
    (raises_invalid (fun () -> Aging.validate ~age_ms:0. ~occupancy:0.));
  check_bool "full occupancy" true
    (raises_invalid (fun () -> Aging.validate ~age_ms:0. ~occupancy:1.));
  check_bool "overfull occupancy" true
    (raises_invalid (fun () -> Aging.validate ~age_ms:0. ~occupancy:1.5));
  check_bool "engine rejects bad age_ms" true
    (raises_invalid (fun () ->
         Engine.validate_config { Engine.default_config with Engine.age_ms = Float.infinity }));
  check_bool "engine rejects bad occupancy" true
    (raises_invalid (fun () ->
         Engine.validate_config { Engine.default_config with Engine.age_occupancy = 1.2 }));
  check_bool "engine rejects bad think scale" true
    (raises_invalid (fun () ->
         Engine.validate_config { Engine.default_config with Engine.age_think_scale = 0.5 }))

(* ------------------------------------------------------------------ *)
(* Aged engine runs: mini workload + short horizons                    *)
(* ------------------------------------------------------------------ *)

let mini_ts =
  {
    Workload.name = "MINI-TS";
    description = "scaled timesharing workload";
    types =
      [
        { (aging_ft 70) with File_type.name = "small"; count = 200; users = 6 };
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

(* Same small-and-fast shape as test_speed.ml / test_ckpt.ml, plus the
   aging phase: fill stops at 0.25, aging then churns the volume up to
   and around its 0.50 target for 20 simulated seconds. *)
let aged_config =
  {
    Engine.default_config with
    disks = 4;
    lower_bound = 0.25;
    upper_bound = 0.75;
    interval_ms = 5_000.;
    max_measure_ms = 15_000.;
    warmup_checkpoints = 1;
    max_alloc_ops = 200_000;
    age_ms = 20_000.;
    age_occupancy = 0.50;
  }

let k = 1024
let m = 1024 * 1024

let spec_of = function
  | "extent" ->
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
           ~range_means_bytes:[ 96 * k; m; 4 * m ]
           ())
  | "lfs" -> C.Experiment.Log_structured (C.Log_structured.config ())
  | other -> invalid_arg other

let prop_aging_holds_target_occupancy =
  (* The 20 s horizon used elsewhere is deliberately mid-climb; holding
     the target needs a horizon long enough to converge (~45 simulated
     seconds from the 0.25 fill level on this mini array). *)
  QCheck.Test.make ~name:"aging holds the target occupancy, per seed" ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      let config = { aged_config with Engine.seed; age_ms = 120_000. } in
      let engine = Experiment.make_engine ~config (spec_of "extent") mini_ts in
      Engine.fill_to_lower_bound engine;
      Engine.run_aging engine;
      let u = C.Volume.utilization (Engine.volume engine) in
      (* bang-bang around 0.50: each churn op moves occupancy by at
         most one file's worth, so the converged band is tight *)
      u > 0.48 && u < 0.52)

let test_aging_seed_deterministic () =
  let run () =
    let engine = Experiment.make_engine ~config:aged_config (spec_of "lfs") mini_ts in
    Engine.fill_to_lower_bound engine;
    Engine.run_aging engine;
    (C.Volume.utilization (Engine.volume engine), Engine.churn_stats engine)
  in
  let u1, c1 = run () and u2, c2 = run () in
  check_exact_float "same utilization" u1 u2;
  check_bool "same churn counters" true (c1 = c2);
  check_bool "aging produced churn" true (c1.Policy.cs_user_units > 0)

(* ------------------------------------------------------------------ *)
(* Aged sharded runs: bit-identical at every shard width               *)
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

let check_churn_equal name (a : Policy.churn_stats) (b : Policy.churn_stats) =
  check_int (name ^ " user units") a.Policy.cs_user_units b.Policy.cs_user_units;
  check_int (name ^ " moved units") a.Policy.cs_moved_units b.Policy.cs_moved_units;
  check_int (name ^ " cleaner passes") a.Policy.cs_cleaner_passes b.Policy.cs_cleaner_passes

let timeline_json (r : Experiment.sharded_report) =
  match r.Experiment.s_timeline with
  | None -> Alcotest.fail "expected a merged timeline"
  | Some tl -> C.Obs.Json.to_string (C.Timeline.to_json tl)

let test_aged_sharded_invariance () =
  List.iter
    (fun pname ->
      let spec = spec_of pname in
      let run shards =
        Experiment.run_sharded ~config:aged_config ~shards ~timeline_every_ms:2_000. spec
          mini_ts
      in
      let base = run 1 in
      check_bool (pname ^ " aged run produced churn") true
        (base.Experiment.s_churn.Policy.cs_user_units > 0);
      List.iter
        (fun shards ->
          let r = run shards in
          let name = Printf.sprintf "aged %s shards=%d" pname shards in
          check_tp_equal (name ^ " app") base.Experiment.s_application r.Experiment.s_application;
          check_tp_equal (name ^ " seq") base.Experiment.s_sequential r.Experiment.s_sequential;
          check_churn_equal (name ^ " churn") base.Experiment.s_churn r.Experiment.s_churn;
          check_bool (name ^ " timeline JSON identical") true
            (String.equal (timeline_json base) (timeline_json r)))
        [ 2; 4; 8 ])
    [ "extent"; "lfs" ]

(* ------------------------------------------------------------------ *)
(* Armed cadences across the aging jump                                *)
(* ------------------------------------------------------------------ *)

let every_ms = 2_000.

(* Run the full aged protocol with periodic checkpointing armed,
   keeping a bounded sample of snapshots (same stride-doubling scheme
   as test_ckpt.ml) plus the total tick count. *)
let run_armed_sampled ?(cap = 6) spec w =
  let engine = Experiment.make_engine ~config:aged_config spec w in
  let snaps = ref [] in
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
  Engine.run_aging engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  (app, seq, Engine.churn_stats engine, List.rev !snaps, !n)

let resume_from spec w sections =
  let engine = Experiment.make_engine ~config:aged_config spec w in
  Engine.restore engine sections;
  Engine.fill_to_lower_bound engine;
  Engine.run_aging engine;
  let app = Engine.run_application_test engine in
  let seq = Engine.run_sequential_test engine in
  (app, seq, Engine.churn_stats engine)

let test_armed_resume_across_aging () =
  let spec = spec_of "lfs" in
  let app, seq, churn, snaps, ticks = run_armed_sampled spec mini_ts in
  (* the 20-second aging jump alone spans 10 tick periods: cadences
     keep firing inside it rather than being skipped *)
  check_bool "ticks fired inside the aging jump" true
    (ticks >= int_of_float (aged_config.Engine.age_ms /. every_ms));
  check_bool "snapshots sampled" true (List.length snaps >= 3);
  List.iter
    (fun (i, sections) ->
      let name = Printf.sprintf "resume from tick %d" i in
      let app', seq', churn' = resume_from spec mini_ts sections in
      check_tp_equal (name ^ " app") app app';
      check_tp_equal (name ^ " seq") seq seq';
      check_churn_equal (name ^ " churn") churn churn')
    snaps

(* The aged protocol snapshotted before the fill, after each of fill /
   aging / application / sequential, and at sampled ticks tagged with
   the phase they fired in: each snapshot resumed into a fresh engine
   must finish with the uninterrupted run's reports and churn counters
   bit for bit, so a snapshot taken after the fill still ages to the
   original horizon. *)
let test_resume_from_every_boundary () =
  let spec = spec_of "lfs" in
  let engine = Experiment.make_engine ~config:aged_config spec mini_ts in
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
  let churn = Engine.churn_stats engine in
  let ticked p = List.exists (fun (name, _) -> String.ends_with ~suffix:("(" ^ p ^ ")") name) !snaps in
  List.iter
    (fun p -> check_bool ("a tick snapshot inside the " ^ p) true (ticked p))
    [ "aging"; "application"; "sequential" ];
  List.iter
    (fun (name, sections) ->
      let app', seq', churn' = resume_from spec mini_ts sections in
      let name = "resume from " ^ name in
      check_tp_equal (name ^ ": app") app app';
      check_tp_equal (name ^ ": seq") seq seq';
      check_churn_equal (name ^ ": churn") churn churn')
    (List.rev !snaps)

let test_age_fingerprint_refused () =
  (* a snapshot from an aged run must not resume a fresh-config engine
     (and vice versa): the aging horizon is part of the fingerprint *)
  let aged = Experiment.make_engine ~config:aged_config (spec_of "lfs") mini_ts in
  let fresh_config = { aged_config with Engine.age_ms = 0. } in
  let fresh = Experiment.make_engine ~config:fresh_config (spec_of "lfs") mini_ts in
  check_bool "fingerprints differ" true
    (not (String.equal (Engine.fingerprint aged) (Engine.fingerprint fresh)));
  let snap = Engine.checkpoint aged in
  check_bool "aged snapshot refused by fresh config" true
    (raises_invalid (fun () -> Engine.restore fresh snap))

(* ------------------------------------------------------------------ *)

let capture_goldens () =
  let p = lfs_churned () in
  let cs = p.Policy.churn_stats () in
  Printf.printf "let lfs_user_units_golden = %d\n" cs.Policy.cs_user_units;
  Printf.printf "let lfs_moved_units_golden = %d\n" cs.Policy.cs_moved_units;
  Printf.printf "let lfs_cleaner_passes_golden = %d\n" cs.Policy.cs_cleaner_passes

let () =
  if Sys.getenv_opt "ROFS_GOLDEN_CAPTURE" <> None then capture_goldens ()
  else
    let quick name f = Alcotest.test_case name `Quick f in
    let slow name f = Alcotest.test_case name `Slow f in
    Alcotest.run "rofs_aging"
      [
        ( "lfs cleaner",
          [
            quick "accounting pinned on a known churn sequence" test_lfs_cleaner_accounting;
            quick "update-in-place allocators never move data"
              test_update_in_place_allocators_never_move_data;
            quick "write cost of an idle volume" test_write_cost_empty;
            quick "cleaner terminates at 100% occupancy" test_lfs_cleaner_terminates_at_full;
          ] );
        ( "free_hist",
          [ quick "degenerate states across all allocators" test_free_hist_degenerate_states ] );
        ( "aging driver",
          [
            QCheck_alcotest.to_alcotest prop_below_target_always_grows;
            QCheck_alcotest.to_alcotest prop_decision_stream_deterministic;
            quick "dealloc mix follows delete_pct" test_at_target_mixes_deallocations;
            quick "validation refuses nonsense" test_validate_rejects_nonsense;
          ] );
        ( "aged runs",
          [
            QCheck_alcotest.to_alcotest prop_aging_holds_target_occupancy;
            slow "aging is seed-deterministic" test_aging_seed_deterministic;
            slow "aged sharded runs bit-identical at shards 1/2/4/8"
              test_aged_sharded_invariance;
          ] );
        ( "armed cadences",
          [
            slow "resume from any snapshot across the aging jump" test_armed_resume_across_aging;
            slow "resume from every phase boundary and mid-phase" test_resume_from_every_boundary;
            quick "aging horizon is fingerprinted" test_age_fingerprint_refused;
          ] );
      ]
