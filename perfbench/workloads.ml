(* The benchmark's workloads and how one cell of them runs.

   Rationale, per workload (later performance changes cite this note
   when they name the metric and workload their claim is about):

   ts-alloc-aged — TS on a quarter of the paper's array (two disks, a
     quarter of its files and of its 24 users), closed loop, FCFS, no
     cache, no sink.  The quarter scale keeps an iteration near three
     seconds, so a run repeats it several times.  Each of the five
     allocators (buddy, restricted buddy, extent first fit, fixed 4K,
     log structured) is created, filled to N = 0.90, aged for four simulated days of churn
     (think times stretched 4032x, as in the aging bench; four days
     leave extents' free list in thousands of pieces at this scale) and
     measured with the paper-stabilized application and sequential
     tests.  Loads: the allocator (most of the host time), through
     both a grow-heavy fill on a clean free list and a
     delete/truncate-heavy aging phase on a shattered one, so a gain for
     one can show as a cost for the other.  Bypasses: the disk,
     scheduler, cache and observability layers are nearly idle
     (application + sequential are about 5% of the time).  Predicted
     no-change: disk.* and the sync path on this workload; cache, ckpt,
     obs and replay do not run.

   tp-io-sync — TP at paper scale with restricted buddy on the default
     FCFS synchronous disk path, no cache, no sink.  It fills, runs a
     one-hour fixed-horizon application test (stabilization disabled,
     so the simulated horizon sets the length) and the sequential test,
     then decodes and replays, open loop at trace times, a two-minute TP
     trace synthesized from the seed before timing starts.  Loads: the event
     loop, [Volume.slice_bytes] and the synchronous [Array_model] /
     [Drive] path on small random I/O, driven both closed loop (users)
     and open loop (replay).  Allocator calls are short (slice
     dominates).  Bypasses: the queued dispatch path, cache, faults,
     checkpoints and observability.  Predicted no-change: alloc.* other
     than slice; cache, ckpt and obs metrics.

   sc-queued-full — SC at paper scale with restricted buddy under SSTF,
     so every request takes the queued [submit_flat] / [complete_flat]
     path, plus a 64 MiB write-back LRU cache (the 2.1 GB working set
     far exceeds it) and a 1e-3 media-error rate.  A sink with a
     bounded event trace, a 10 s timeline and periodic in-memory
     checkpoints (captured and encoded, round trip checked) are all
     attached; after a ten-minute fixed-horizon application test the report,
     timeline and Chrome trace are exported as JSON.  The sequential
     test is left out: its few whole-file transfers make host time
     swing with the seed more than the rest of the cell together.
     Loads: scheduler, queued array, cache, fault, obs and checkpoint
     layers on large multi-chunk transfers.
     Bypasses: the synchronous disk path never runs and the allocator
     is nearly idle.  Predicted no-change: alloc.* and disk.sync.*.

   Horizons are kept short so that a run repeats every workload many
   times: the benchmark reports each chunk of work at its fastest
   repetition, which needs several repetitions per run.

   Every workload runs on one domain.  Sharded execution is left out:
   on a small shared host it would measure the OS scheduler. *)

module C = Core

type cell = {
  label : string;  (** policy name, as used in per-layer metric names *)
  spec : C.Experiment.policy_spec;
  workload : C.Workload.t;
  config : C.Engine.config;
  observed : bool;  (** sink, timeline, checkpoints and exports attached *)
  sequential : bool;  (** run the sequential test after the application test *)
  replay : string option;  (** encoded trace decoded and replayed after seq *)
}

type t = {
  name : string;
  setup_reps : int;  (** set-up repetitions per cell and iteration *)
  iteration_s : float;
      (** nominal host seconds of one iteration on the reference machine;
          a run of [s] seconds makes [round (s / iteration_s)] iterations
          (at least one), so the work done never depends on host speed *)
  cells : seed:int -> reduced:bool -> cell list;
}

let day_ms = 86_400_000.
let hour_ms = 3_600_000.

let rbuddy =
  C.Experiment.Restricted
    (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
       ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
       ())

(* Measurement runs to the simulated horizon: the stabilization rule
   never fires because its warm-up never ends. *)
let fixed_horizon cfg ms = { cfg with C.Engine.warmup_checkpoints = 1_000_000; max_measure_ms = ms }

(* TS on a quarter of the paper's array: two of its eight disks, a
   quarter of its files and of its users, so the initial population
   still fills about 80% of the volume. *)
let quarter_ts =
  C.Workload.map_types C.Workload.ts ~f:(fun ft ->
      { ft with C.File_type.count = ft.C.File_type.count / 4; users = max 1 (ft.C.File_type.users / 4) })

let ts_cells ~seed ~reduced =
  let workload, disks =
    if reduced then (C.Workload.scaled C.Workload.ts ~factor:0.125, 1) else (quarter_ts, 2)
  in
  let config =
    {
      C.Engine.default_config with
      seed;
      disks;
      age_ms = (if reduced then hour_ms else 4. *. day_ms);
      age_think_scale = 4032.;
    }
  in
  List.map
    (fun (label, spec) ->
      { label; spec; workload; config; observed = false; sequential = true; replay = None })
    [
      ("buddy", C.Experiment.Buddy C.Buddy.default_config);
      ("restricted", rbuddy);
      ( "extent",
        C.Experiment.Extent
          (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
             ~range_means_bytes:(C.Workload.extent_ranges C.Workload.ts 3)
             ()) );
      ("fixed", C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:(4 * 1024) ()));
      ("lfs", C.Experiment.Log_structured (C.Log_structured.config ()));
    ]

let tp_cells ~seed ~reduced =
  let horizon = if reduced then 60_000. else hour_ms in
  let trace_ms = if reduced then 30_000. else 2. *. 60_000. in
  let config = fixed_horizon { C.Engine.default_config with seed } horizon in
  let trace =
    C.Trace.synthesize ~workload:C.Workload.tp ~duration_ms:trace_ms ~seed:(seed + 0x7ace)
  in
  [
    {
      label = "restricted";
      spec = rbuddy;
      workload = C.Workload.tp;
      config;
      observed = false;
      sequential = true;
      replay = Some (C.Trace_codec.encode trace);
    };
  ]

let sc_cells ~seed ~reduced =
  let horizon = if reduced then 60_000. else 10. *. 60_000. in
  let config =
    fixed_horizon
      {
        C.Engine.default_config with
        seed;
        scheduler = C.Sched_policy.Sstf;
        cache = Some (C.Cache.config ~write_mode:C.Cache.Write_back ~mb:64 ());
        faults = { C.Fault_plan.none with seed = seed + 0xfa17; media_error_rate = 1e-3 };
      }
      horizon
  in
  [
    {
      label = "restricted";
      spec = rbuddy;
      workload = C.Workload.sc;
      config;
      observed = true;
      sequential = false;
      replay = None;
    };
  ]

let all =
  [
    { name = "ts-alloc-aged"; setup_reps = 2; iteration_s = 3.5; cells = ts_cells };
    { name = "tp-io-sync"; setup_reps = 25; iteration_s = 1.5; cells = tp_cells };
    { name = "sc-queued-full"; setup_reps = 25; iteration_s = 1.25; cells = sc_cells };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
