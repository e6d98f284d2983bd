(* Fault-injection subsystem tests, four layers deep:

   - plan level: [Plan.none] is inert, validation rejects nonsense,
     scripted events pop in time order, exponential streams are
     deterministic and alternate fail / repair per drive;
   - array level: degraded-mode mapping for every redundant layout
     (mirror failover and write-skip, RAID-5 / parity-striped
     reconstruction fan-out, Striped data loss), media-error retry and
     remap arithmetic, the online rebuild sweep, and the
     double-complete diagnostic;
   - engine level: scripted failures counted as data loss, degraded and
     rebuilding mirrored runs that still deliver throughput, media
     errors surfacing in the fault report;
   - goldens: with [faults = Plan.none] every layout x scheduler
     combination reproduces, to the last bit, throughput numbers frozen
     from the implementation as it stood before lib/fault existed.
     Exact float equality here is the guarantee that the fault
     subsystem is free when disabled. *)

module C = Core
module Plan = C.Fault_plan
module Fault = C.Fault
module Policy = C.Sched_policy
module Geometry = C.Geometry
module Drive = C.Drive
module Array_model = C.Array_model
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* [f] must raise [Invalid_argument] whose message mentions [substr]. *)
let expect_invalid name ~substr f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%s: %S mentions %S" name msg substr) true (contains msg substr)

let su = 24 * 1024

(* One synchronous operation; its completion time. *)
let access a ~now ~kind ~extents =
  Array_model.serve_extents a ~now ~kind ~extents;
  Array_model.last_finished a
let drive_capacity = Geometry.capacity_bytes Geometry.cdc_wren_iv

(* ------------------------------------------------------------------ *)
(* Plan level                                                         *)
(* ------------------------------------------------------------------ *)

let test_none_is_inert () =
  check_bool "no drive faults" false (Plan.drive_faults Plan.none);
  check_bool "no media faults" false (Plan.media_faults Plan.none);
  check_bool "disabled" false (Plan.enabled Plan.none);
  check_bool "no events" true (Plan.pop (Plan.create Plan.none ~drives:8) = None)

let test_validate_rejects_bad_plans () =
  let cases =
    [
      ("negative mttf", { Plan.none with mttf_ms = -1. }, "mttf_ms");
      ("mttf without mttr", { Plan.none with mttf_ms = 10.; mttr_ms = 0. }, "mttr_ms");
      ("media rate above 1", { Plan.none with media_error_rate = 1.5 }, "media_error_rate");
      ("negative media rate", { Plan.none with media_error_rate = -0.1 }, "media_error_rate");
      ("retry prob above 1", { Plan.none with retry_fail_prob = 2. }, "retry_fail_prob");
      ("negative retries", { Plan.none with max_retries = -1 }, "max_retries");
      ("negative remap penalty", { Plan.none with remap_penalty_ms = -1. }, "remap_penalty_ms");
      ("zero rebuild chunk", { Plan.none with rebuild_chunk_bytes = 0 }, "rebuild_chunk_bytes");
      ("negative rebuild rate", { Plan.none with rebuild_rate_bytes_per_ms = -1. }, "rebuild_rate");
      ( "scripted event in the past",
        { Plan.none with script = [ (-5., Plan.Fail 0) ] },
        "non-negative" );
      ("nan mttf", { Plan.none with mttf_ms = Float.nan }, "mttf_ms");
      ("infinite mttf", { Plan.none with mttf_ms = Float.infinity }, "mttf_ms");
      ("nan mttr", { Plan.none with mttf_ms = 10.; mttr_ms = Float.nan }, "mttr_ms");
      ("infinite mttr", { Plan.none with mttf_ms = 10.; mttr_ms = Float.infinity }, "mttr_ms");
      ("nan media rate", { Plan.none with media_error_rate = Float.nan }, "media_error_rate");
      ("nan retry prob", { Plan.none with retry_fail_prob = Float.nan }, "retry_fail_prob");
      ("nan remap penalty", { Plan.none with remap_penalty_ms = Float.nan }, "remap_penalty_ms");
      ( "infinite remap penalty",
        { Plan.none with remap_penalty_ms = Float.infinity },
        "remap_penalty_ms" );
      ("nan rebuild rate", { Plan.none with rebuild_rate_bytes_per_ms = Float.nan }, "rebuild_rate");
      ( "infinite rebuild rate",
        { Plan.none with rebuild_rate_bytes_per_ms = Float.infinity },
        "rebuild_rate" );
      ( "scripted event at nan",
        { Plan.none with script = [ (Float.nan, Plan.Fail 0) ] },
        "non-negative" );
    ]
  in
  List.iter
    (fun (name, config, substr) ->
      expect_invalid name ~substr (fun () -> Plan.validate config);
      (* [create] must apply the same validation. *)
      expect_invalid (name ^ " via create") ~substr (fun () -> Plan.create config ~drives:8))
    cases;
  expect_invalid "scripted drive out of range" ~substr:"drive 9" (fun () ->
      Plan.create { Plan.none with script = [ (0., Plan.Fail 9) ] } ~drives:8)

let test_scripted_events_pop_in_time_order () =
  let script = [ (50., Plan.Fail 1); (10., Plan.Fail 0); (30., Plan.Repair 0) ] in
  let plan = Plan.create { Plan.none with script } ~drives:4 in
  let drain plan =
    let rec go acc = match Plan.pop plan with None -> List.rev acc | Some ev -> go (ev :: acc) in
    go []
  in
  Alcotest.(check (list (pair (float 0.) bool)))
    "sorted by time"
    [ (10., true); (30., false); (50., true) ]
    (List.map (fun (at, a) -> (at, match a with Plan.Fail _ -> true | Plan.Repair _ -> false))
       (drain plan))

let test_exponential_stream_deterministic () =
  let config = { Plan.none with seed = 7; mttf_ms = 10_000.; mttr_ms = 1_000. } in
  let take n plan = List.init n (fun _ -> Option.get (Plan.pop plan)) in
  let a = take 32 (Plan.create config ~drives:4) in
  let b = take 32 (Plan.create config ~drives:4) in
  check_bool "same config, same stream" true (a = b);
  (* Time order globally; per drive, failures and repairs alternate. *)
  let rec sorted = function
    | (x, _) :: ((y, _) :: _ as rest) -> x <= y && sorted rest
    | _ -> true
  in
  check_bool "events in time order" true (sorted a);
  for d = 0 to 3 do
    let mine =
      List.filter (fun (_, act) -> (match act with Plan.Fail k | Plan.Repair k -> k) = d) a
    in
    let rec alternating expect_fail = function
      | [] -> true
      | (_, Plan.Fail _) :: rest -> expect_fail && alternating false rest
      | (_, Plan.Repair _) :: rest -> (not expect_fail) && alternating true rest
    in
    check_bool (Printf.sprintf "drive %d alternates fail/repair" d) true (alternating true mine)
  done

(* ------------------------------------------------------------------ *)
(* Engine config validation                                           *)
(* ------------------------------------------------------------------ *)

let test_engine_config_validation () =
  Engine.validate_config Engine.default_config;
  let d = Engine.default_config in
  let cases =
    [
      ("zero disks", { d with Engine.disks = 0 }, "disks");
      ("zero stripe unit", { d with Engine.stripe_unit_bytes = 0 }, "stripe_unit_bytes");
      ("zero lower bound", { d with Engine.lower_bound = 0. }, "lower_bound");
      ("upper bound above 1", { d with Engine.upper_bound = 1.5 }, "upper_bound");
      ( "bounds out of order",
        { d with Engine.lower_bound = 0.6; upper_bound = 0.5 },
        "strictly below" );
      ("zero interval", { d with Engine.interval_ms = 0. }, "interval_ms");
      ("zero stable windows", { d with Engine.stable_windows = 0 }, "stable_windows");
      ("negative tolerance", { d with Engine.tolerance_pct = -1. }, "tolerance_pct");
      ("zero measure cap", { d with Engine.max_measure_ms = 0. }, "max_measure_ms");
      ("zero alloc cap", { d with Engine.max_alloc_ops = 0 }, "max_alloc_ops");
      ("readahead below 1", { d with Engine.readahead_factor = 0 }, "readahead_factor");
      ("negative warmup", { d with Engine.warmup_checkpoints = -1 }, "warmup_checkpoints");
      ( "invalid fault plan",
        { d with Engine.faults = { Plan.none with media_error_rate = 2. } },
        "media_error_rate" );
      ("nan interval", { d with Engine.interval_ms = Float.nan }, "interval_ms");
      ("infinite interval", { d with Engine.interval_ms = Float.infinity }, "interval_ms");
      ("nan tolerance", { d with Engine.tolerance_pct = Float.nan }, "tolerance_pct");
      ("infinite tolerance", { d with Engine.tolerance_pct = Float.infinity }, "tolerance_pct");
      ("nan measure cap", { d with Engine.max_measure_ms = Float.nan }, "max_measure_ms");
      ("infinite measure cap", { d with Engine.max_measure_ms = Float.infinity }, "max_measure_ms");
      ( "nan fault plan",
        { d with Engine.faults = { Plan.none with mttf_ms = Float.nan } },
        "mttf_ms" );
    ]
  in
  List.iter
    (fun (name, config, substr) ->
      expect_invalid name ~substr (fun () -> Engine.validate_config config))
    cases

(* ------------------------------------------------------------------ *)
(* Array level: degraded mapping                                      *)
(* ------------------------------------------------------------------ *)

let requests array d = (Array_model.drive_stats array).(d).Drive.requests
let busy array d = (Array_model.drive_stats array).(d).Drive.busy_ms

let expect_data_loss name ~drive f =
  match f () with
  | (_ : float) -> Alcotest.failf "%s: expected Data_loss" name
  | exception Fault.Data_loss l -> check_int (name ^ ": lost drive") drive l.drive

let test_striped_dead_drive_is_data_loss () =
  let array = Array_model.create ~disks:4 (Array_model.Striped { stripe_unit = su }) in
  Array_model.fail_drive array ~drive:0;
  (* Offset 0 maps to drive 0; no redundancy covers it. *)
  expect_data_loss "striped read" ~drive:0 (fun () ->
      access array ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ]);
  expect_data_loss "striped write" ~drive:0 (fun () ->
      access array ~now:0. ~kind:Array_model.Write ~extents:[ (0, 4096) ]);
  (* The neighbouring unit lives on drive 1 and still serves. *)
  check_bool "survivors still serve" true
    (access array ~now:0. ~kind:Array_model.Read ~extents:[ (su, 4096) ] > 0.)

(* Mirror failover: with one arm of a pair dead, reads of any offset
   never touch it — pair-0 traffic fails over to drive 1, pair-1
   traffic never involved drives 0/1 in the first place. *)
let prop_mirror_failover_avoids_dead_arm =
  QCheck.Test.make ~name:"mirrored reads never touch a failed arm" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 99_999))
    (fun blocks ->
      let array = Array_model.create ~disks:4 (Array_model.Mirrored { stripe_unit = su }) in
      Array_model.fail_drive array ~drive:0;
      List.iter
        (fun b ->
          ignore
            (access array ~now:0. ~kind:Array_model.Read
               ~extents:[ (b * 4096, 4096) ]))
        blocks;
      requests array 0 = 0)

let test_mirror_degraded_write_skips_dead_arm () =
  let array = Array_model.create ~disks:4 (Array_model.Mirrored { stripe_unit = su }) in
  Array_model.fail_drive array ~drive:0;
  (* Offset 0 is pair 0 (drives 0/1): the write lands on the surviving
     arm only and the miss is logged for the rebuild sweep. *)
  ignore (access array ~now:0. ~kind:Array_model.Write ~extents:[ (0, 8192) ]);
  check_int "dead arm untouched" 0 (requests array 0);
  check_int "surviving arm wrote" 1 (requests array 1);
  let fs = Array_model.fault_state array in
  check_int "dirty bytes logged" 8192 (Fault.dirty_bytes fs);
  check_int "degraded write counted" 1 (Fault.counters fs).Fault.degraded_writes;
  (* A degraded read of the same unit fails over to the same arm. *)
  ignore (access array ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ]);
  check_int "failover read counted" 1 (Fault.counters fs).Fault.reconstructed_reads;
  check_int "dead arm still untouched" 0 (requests array 0)

(* Degraded RAID-5 read: a unit on the dead drive is reconstructed by
   reading the row's N-1 surviving units in parallel, so the operation
   finishes when the slowest survivor does and the dead drive is never
   asked for anything. *)
let prop_raid5_degraded_read_fans_out =
  QCheck.Test.make ~name:"RAID-5 degraded read = max over N-1 surviving reads" ~count:60
    QCheck.(triple (int_bound 3) (int_bound 9_999) (int_bound (su - 1)))
    (fun (dead, idx, within) ->
      let n = 4 in
      let array = Array_model.create ~disks:n (Array_model.Raid5 { stripe_unit = su }) in
      Array_model.fail_drive array ~drive:dead;
      (* Replicate the rotating-parity mapping to predict the chunk's
         home drive. *)
      let row = idx / (n - 1) and pos = idx mod (n - 1) in
      let parity_disk = row mod n in
      let home = if pos < parity_disk then pos else pos + 1 in
      let addr = (idx * su) + within in
      let bytes = min 4096 (su - within) in
      let finished = access array ~now:0. ~kind:Array_model.Read ~extents:[ (addr, bytes) ] in
      let total = List.init n (requests array) |> List.fold_left ( + ) 0 in
      if home <> dead then total = 1 && requests array home = 1
      else
        let slowest =
          List.init n (fun d -> if d = dead then 0. else busy array d)
          |> List.fold_left Float.max 0.
        in
        requests array dead = 0
        && total = n - 1
        && Float.equal finished slowest
        && (Fault.counters (Array_model.fault_state array)).Fault.reconstructed_reads = 1)

let test_raid5_double_failure_is_data_loss () =
  let array = Array_model.create ~disks:4 (Array_model.Raid5 { stripe_unit = su }) in
  (* Unit 0 lives on drive 1 (row 0 puts parity on drive 0).  With
     drive 1 dead its reconstruction needs every other drive, so a
     second failure in the group is unrecoverable. *)
  Array_model.fail_drive array ~drive:1;
  Array_model.fail_drive array ~drive:2;
  expect_data_loss "raid5 two dead drives" ~drive:1 (fun () ->
      access array ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ])

let test_parity_striped_degraded_read_reconstructs () =
  let array = Array_model.create ~disks:4 Array_model.Parity_striped in
  Array_model.fail_drive array ~drive:0;
  (* Offset 0 is drive 0's data region (drives are concatenated). *)
  ignore (access array ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ]);
  check_int "dead drive untouched" 0 (requests array 0);
  for d = 1 to 3 do
    check_int (Printf.sprintf "survivor %d read once" d) 1 (requests array d)
  done;
  check_int "reconstruction counted" 1
    (Fault.counters (Array_model.fault_state array)).Fault.reconstructed_reads

let test_double_complete_names_drive_and_depth () =
  let array =
    Array_model.create ~scheduler:Policy.Sstf ~disks:4 (Array_model.Striped { stripe_unit = su })
  in
  expect_invalid "complete on idle drive" ~substr:"drive 2" (fun () ->
      Array_model.complete_flat array ~drive:2);
  expect_invalid "complete on idle drive" ~substr:"queue depth 0" (fun () ->
      Array_model.complete_flat array ~drive:2);
  expect_invalid "complete on idle drive" ~substr:"complete_flat" (fun () ->
      Array_model.complete_flat array ~drive:2);
  (* The real regression: retiring the same request twice. *)
  ignore (Array_model.submit_flat array ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ]);
  check_int "one dispatch" 1 (Array_model.dispatched_len array);
  let d = Array_model.dispatched_drive array 0 in
  let op = Array_model.complete_flat array ~drive:d in
  check_bool "op retired" true (Array_model.op_done op);
  check_bool "queue drained" true (Array_model.dispatched_len array = 0);
  expect_invalid "second complete" ~substr:(Printf.sprintf "drive %d" d) (fun () ->
      Array_model.complete_flat array ~drive:d)

(* ------------------------------------------------------------------ *)
(* Media errors: retry, remap, relocation penalty                     *)
(* ------------------------------------------------------------------ *)

let test_media_extra_is_deterministic_arithmetic () =
  (* Certain error, certain retry failure, two retries allowed: every
     access errs, burns 2 revolutions and remaps — all probabilities
     pinned to 1 so the charge is exact arithmetic. *)
  let config =
    {
      Plan.none with
      media_error_rate = 1.0;
      retry_fail_prob = 1.0;
      max_retries = 2;
      remap_penalty_ms = 20.;
    }
  in
  let fs = Fault.create config ~drives:1 in
  let extra () =
    Fault.media_extra_ms fs ~drive:0 ~rotation_ms:16. ~sector_bytes:512 ~offset:0 ~bytes:4096
  in
  check_exact_float "first access: 2 revolutions + remap" (2. *. 16. +. 20.) (extra ());
  let c = Fault.counters fs in
  check_int "one media error" 1 c.Fault.media_errors;
  check_int "two retries" 2 c.Fault.retries;
  check_int "one remap" 1 c.Fault.remaps;
  check_int "no remap hits yet" 0 c.Fault.remap_hits;
  (* Second access over the same range pays the relocation penalty for
     the remapped sector, then errs and remaps again. *)
  check_exact_float "second access: hit + 2 revolutions + remap"
    (20. +. (2. *. 16.) +. 20.)
    (extra ());
  let c = Fault.counters fs in
  check_int "two media errors" 2 c.Fault.media_errors;
  check_int "four retries" 4 c.Fault.retries;
  check_int "two remaps" 2 c.Fault.remaps;
  check_int "one remap hit" 1 c.Fault.remap_hits

let test_media_disabled_costs_nothing () =
  let fs = Fault.create Plan.none ~drives:2 in
  check_exact_float "no charge" 0.
    (Fault.media_extra_ms fs ~drive:0 ~rotation_ms:16.67 ~sector_bytes:512 ~offset:0 ~bytes:65536);
  let c = Fault.counters fs in
  check_int "no errors" 0 c.Fault.media_errors;
  check_int "no retries" 0 c.Fault.retries

let test_media_error_stalls_the_drive () =
  (* Certain error whose first retry succeeds (retry_fail_prob = 0):
     the faulty array's access takes exactly one extra revolution over
     the fault-free twin driven from the same seed. *)
  let config = Array_model.Striped { stripe_unit = su } in
  let clean = Array_model.create ~seed:3 ~disks:2 config in
  let faulty =
    Array_model.create ~seed:3 ~disks:2
      ~faults:{ Plan.none with media_error_rate = 1.0; retry_fail_prob = 0. }
      config
  in
  let t_clean = access clean ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ] in
  let t_faulty = access faulty ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4096) ] in
  check_exact_float "one revolution slower"
    (t_clean +. Geometry.cdc_wren_iv.Geometry.rotation_ms)
    t_faulty;
  let c = Fault.counters (Array_model.fault_state faulty) in
  check_int "one media error" 1 c.Fault.media_errors;
  check_int "one retry" 1 c.Fault.retries;
  check_int "no remap" 0 c.Fault.remaps

(* ------------------------------------------------------------------ *)
(* Online rebuild                                                     *)
(* ------------------------------------------------------------------ *)

let test_mirror_rebuild_sweep_completes () =
  let array = Array_model.create ~disks:2 (Array_model.Mirrored { stripe_unit = su }) in
  Array_model.fail_drive array ~drive:0;
  check_bool "failed" true (Array_model.drive_state array ~drive:0 = `Failed);
  Array_model.repair_drive array ~drive:0;
  check_bool "rebuild starts at 0" true (Array_model.drive_state array ~drive:0 = `Rebuilding 0.);
  let steps = ref 0 and now = ref 0. in
  let rec sweep () =
    match Array_model.rebuild_step array ~now:!now ~drive:0 with
    | Array_model.Rebuild_sync finished ->
        incr steps;
        now := finished;
        if !steps > 5_000 then Alcotest.fail "rebuild did not terminate";
        (match Array_model.drive_state array ~drive:0 with
        | `Rebuilding f -> check_bool "fraction grows" true (f > 0. && f <= 1.)
        | _ -> Alcotest.fail "still rebuilding mid-sweep");
        sweep ()
    | Array_model.Rebuild_done -> ()
    | _ -> Alcotest.fail "unexpected rebuild step"
  in
  sweep ();
  let expected =
    let chunk = Plan.none.Plan.rebuild_chunk_bytes in
    (drive_capacity + chunk - 1) / chunk
  in
  check_int "one chunk per cylinder sweep" expected !steps;
  check_bool "healthy again" true (Array_model.drive_state array ~drive:0 = `Healthy);
  (* Every step read the mirror partner and wrote the target. *)
  check_int "partner read once per chunk" expected (requests array 1);
  check_int "target written once per chunk" expected (requests array 0);
  check_int "rebuild traffic is not data" 0 (Array_model.bytes_moved array)

let test_striped_repair_goes_straight_healthy () =
  let array = Array_model.create ~disks:4 (Array_model.Striped { stripe_unit = su }) in
  Array_model.fail_drive array ~drive:2;
  Array_model.repair_drive array ~drive:2;
  check_bool "no rebuild phase" true (Array_model.drive_state array ~drive:2 = `Healthy);
  check_bool "nothing to sweep" true
    (Array_model.rebuild_step array ~now:0. ~drive:2 = Array_model.Rebuild_idle)

let test_rebuild_blocks_without_sources () =
  (* RAID-5 reconstruction needs every other drive; with a second drive
     down the sweep parks and reports blocked instead of failing. *)
  let array = Array_model.create ~disks:4 (Array_model.Raid5 { stripe_unit = su }) in
  Array_model.fail_drive array ~drive:0;
  Array_model.fail_drive array ~drive:1;
  Array_model.repair_drive array ~drive:0;
  check_bool "blocked on dead source" true
    (Array_model.rebuild_step array ~now:0. ~drive:0 = Array_model.Rebuild_blocked)

(* ------------------------------------------------------------------ *)
(* Engine level                                                       *)
(* ------------------------------------------------------------------ *)

(* The mini workload and measurement protocol of test_sched's goldens,
   shortened to one minute of simulated measurement. *)
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

let engine_config ?(faults = Plan.none) ~array_config ~scheduler () =
  {
    Engine.default_config with
    lower_bound = 0.50;
    upper_bound = 0.60;
    max_measure_ms = 60_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 4_000_000;
    array_config;
    scheduler;
    faults;
  }

let mirrored su = Array_model.Mirrored { stripe_unit = su }
let striped su = Array_model.Striped { stripe_unit = su }

let run_app ?faults ~array_config ~scheduler ~prepare () =
  let config = engine_config ?faults ~array_config ~scheduler () in
  let engine = Experiment.make_engine ~config buddy mini_tp in
  Engine.fill_to_lower_bound engine;
  prepare engine;
  let app = Engine.run_application_test engine in
  (app, Engine.fault_report engine)

let test_scripted_striped_failure_counts_data_loss () =
  let faults = { Plan.none with script = [ (1_000., Plan.Fail 0) ] } in
  let app, fr =
    run_app ~faults ~array_config:striped ~scheduler:Policy.Fcfs ~prepare:ignore ()
  in
  check_bool "drive 0 reported failed" true (fr.Engine.drive_states.(0) = `Failed);
  check_bool "operations lost" true (fr.Engine.data_loss > 0);
  check_bool "survivors keep the system up" true (app.Engine.pct_of_max > 0.);
  check_bool "no degraded service on striping" true (fr.Engine.reconstructed_reads = 0)

let test_degraded_mirror_keeps_serving () =
  let app, fr =
    run_app ~array_config:mirrored ~scheduler:Policy.Fcfs
      ~prepare:(fun e -> Engine.fail_drive e ~drive:0)
      ()
  in
  check_bool "drive 0 reported failed" true (fr.Engine.drive_states.(0) = `Failed);
  check_bool "nothing lost" true (fr.Engine.data_loss = 0);
  check_bool "failover reads happened" true (fr.Engine.reconstructed_reads > 0);
  check_bool "degraded writes happened" true (fr.Engine.degraded_writes > 0);
  check_bool "dirty regions logged" true (fr.Engine.dirty_bytes > 0);
  check_bool "still delivers throughput" true (app.Engine.pct_of_max > 0.)

let test_rebuilding_mirror_issues_background_io () =
  let app, fr =
    run_app ~array_config:mirrored ~scheduler:Policy.Fcfs
      ~prepare:(fun e ->
        Engine.fail_drive e ~drive:0;
        Engine.repair_drive e ~drive:0)
      ()
  in
  check_bool "rebuild I/O issued" true (fr.Engine.rebuild_ios > 0);
  check_bool "rebuild made progress" true
    (match fr.Engine.drive_states.(0) with
    | `Rebuilding f -> f > 0.
    | `Healthy -> true
    | `Failed -> false);
  check_bool "nothing lost" true (fr.Engine.data_loss = 0);
  check_bool "foreground still delivers" true (app.Engine.pct_of_max > 0.)

let test_media_errors_surface_in_report () =
  let faults = { Plan.none with media_error_rate = 0.001 } in
  let app, fr =
    run_app ~faults ~array_config:striped ~scheduler:Policy.Fcfs ~prepare:ignore ()
  in
  check_bool "media errors observed" true (fr.Engine.media_errors > 0);
  check_bool "retries charged" true (fr.Engine.retries >= fr.Engine.media_errors);
  check_bool "no data lost to media errors" true (fr.Engine.data_loss = 0);
  check_bool "still delivers throughput" true (app.Engine.pct_of_max > 0.)

(* ------------------------------------------------------------------ *)
(* Goldens: faults=none is byte-identical for every layout/scheduler  *)
(* ------------------------------------------------------------------ *)

(* Captured from the implementation immediately before lib/fault was
   introduced (same protocol: fill to the lower bound, then the
   application test).  Exact equality proves a disabled fault plan
   changes nothing — no RNG draw, no event, no float — for every
   layout x scheduler combination. *)
let goldens =
  [
    ("striped", Policy.Fcfs, (12.17699789351555, 1385.382679652462, 60028.651772065787, 6, 4781));
    ("striped", Policy.Sstf, (14.004676518604464, 1593.318521746806, 60004.618860849529, 6, 5498));
    ("striped", Policy.Scan, (13.95190384998439, 1587.3145508416108, 60002.54440843701, 6, 5476));
    ("striped", Policy.Clook, (12.982872244106447, 1477.0673770670301, 60005.247254198417, 6, 5096));
    ("mirrored", Policy.Fcfs, (12.323041210998229, 1401.9980953968657, 60002.987819399226, 6, 4838));
    ("mirrored", Policy.Sstf, (13.857321147905072, 1576.5538331013875, 60002.502515673223, 6, 5439));
    ("mirrored", Policy.Scan, (13.764724022950633, 1566.0190153885742, 60005.964896028097, 6, 5402));
    ("mirrored", Policy.Clook, (12.81528464041206, 1458.0008579206071, 60002.061877047039, 6, 5031));
    ("raid5", Policy.Fcfs, (9.7960160510607146, 975.18511539025826, 60015.975384136691, 6, 3367));
    ("raid5", Policy.Sstf, (11.237519172089057, 1118.6855323034411, 60006.034026771355, 6, 3861));
    ("raid5", Policy.Scan, (11.143676142599995, 1109.3435380617152, 60000.450312015011, 6, 3828));
    ("raid5", Policy.Clook, (10.424097018435424, 1037.7100446524364, 60000.736053642031, 6, 3581));
    ("parity", Policy.Fcfs, (10.109906427181123, 1006.4326369399731, 60020.724457137316, 6, 3476));
    ("parity", Policy.Sstf, (11.752693861481944, 1169.9707370543401, 60006.066852339929, 6, 4039));
    ("parity", Policy.Scan, (11.750367642681532, 1169.7391639395678, 60003.282206603479, 6, 4037));
    ("parity", Policy.Clook, (10.967836015475557, 1091.8388020786097, 60023.474044539609, 6, 3772));
  ]

let layout_of_name = function
  | "striped" -> fun stripe_unit -> Array_model.Striped { stripe_unit }
  | "mirrored" -> fun stripe_unit -> Array_model.Mirrored { stripe_unit }
  | "raid5" -> fun stripe_unit -> Array_model.Raid5 { stripe_unit }
  | "parity" -> fun _ -> Array_model.Parity_striped
  | other -> Alcotest.failf "unknown layout %s" other

let test_disabled_faults_reproduce_goldens () =
  List.iter
    (fun (lname, scheduler, (g_pct, g_bpm, g_measured, g_checkpoints, g_ios)) ->
      let name = Printf.sprintf "%s/%s" lname (Policy.name scheduler) in
      let app, fr =
        run_app ~array_config:(layout_of_name lname) ~scheduler ~prepare:ignore ()
      in
      check_exact_float (name ^ " pct_of_max") g_pct app.Engine.pct_of_max;
      check_exact_float (name ^ " bytes_per_ms") g_bpm app.Engine.bytes_per_ms;
      check_exact_float (name ^ " measured_ms") g_measured app.Engine.measured_ms;
      check_int (name ^ " checkpoints") g_checkpoints app.Engine.checkpoints;
      check_int (name ^ " io_ops") g_ios app.Engine.io_ops;
      check_bool (name ^ " all drives healthy") true
        (Array.for_all (fun s -> s = `Healthy) fr.Engine.drive_states);
      List.iter
        (fun (label, v) -> check_int (name ^ " " ^ label) 0 v)
        [
          ("data loss", fr.Engine.data_loss);
          ("media errors", fr.Engine.media_errors);
          ("reconstructed reads", fr.Engine.reconstructed_reads);
          ("degraded writes", fr.Engine.degraded_writes);
          ("rebuild ios", fr.Engine.rebuild_ios);
        ])
    goldens

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "rofs_fault"
    [
      ( "plan",
        [
          quick "none is inert" test_none_is_inert;
          quick "validation rejects bad plans" test_validate_rejects_bad_plans;
          quick "scripted events pop in time order" test_scripted_events_pop_in_time_order;
          quick "exponential stream deterministic" test_exponential_stream_deterministic;
          quick "engine config validation" test_engine_config_validation;
        ] );
      ( "degraded array",
        [
          quick "striped dead drive loses data" test_striped_dead_drive_is_data_loss;
          QCheck_alcotest.to_alcotest prop_mirror_failover_avoids_dead_arm;
          quick "mirror degraded write skips dead arm" test_mirror_degraded_write_skips_dead_arm;
          QCheck_alcotest.to_alcotest prop_raid5_degraded_read_fans_out;
          quick "raid5 double failure loses data" test_raid5_double_failure_is_data_loss;
          quick "parity striping reconstructs" test_parity_striped_degraded_read_reconstructs;
          quick "double complete names drive and depth" test_double_complete_names_drive_and_depth;
        ] );
      ( "media",
        [
          quick "retry and remap arithmetic" test_media_extra_is_deterministic_arithmetic;
          quick "disabled model is free" test_media_disabled_costs_nothing;
          quick "media error stalls the drive" test_media_error_stalls_the_drive;
        ] );
      ( "rebuild",
        [
          quick "mirror sweep completes" test_mirror_rebuild_sweep_completes;
          quick "striped repair skips rebuild" test_striped_repair_goes_straight_healthy;
          quick "rebuild blocks without sources" test_rebuild_blocks_without_sources;
        ] );
      ( "engine",
        [
          slow "scripted striped failure counts data loss" test_scripted_striped_failure_counts_data_loss;
          slow "degraded mirror keeps serving" test_degraded_mirror_keeps_serving;
          slow "rebuilding mirror issues background io" test_rebuilding_mirror_issues_background_io;
          slow "media errors surface in report" test_media_errors_surface_in_report;
          slow "disabled faults reproduce goldens" test_disabled_faults_reproduce_goldens;
        ] );
    ]
