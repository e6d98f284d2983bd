(* Command-line driver: run the paper's fragmentation and throughput
   tests for one allocation policy on one workload.

     rofs_sim --policy restricted --sizes 5 --grow 1 --workload sc
     rofs_sim --policy extent --fit best --ranges 3 --workload tp --test alloc
     rofs_sim --policy fixed --block 16384 --workload sc --test throughput
*)

module C = Core
open Cmdliner

type which_test = All | Alloc | Throughput

let build_spec ~policy ~sizes ~grow ~clustered ~fit ~ranges ~block ~workload =
  match policy with
  | "buddy" -> C.Experiment.Buddy C.Buddy.default_config
  | "restricted" ->
      C.Experiment.Restricted
        (C.Restricted_buddy.config ~grow_factor:grow ~clustered
           ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes sizes)
           ())
  | "extent" ->
      let fit = if fit = "best" then C.Extent_alloc.Best_fit else C.Extent_alloc.First_fit in
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit
           ~range_means_bytes:(C.Workload.extent_ranges workload ranges)
           ())
  | "fixed" -> C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:block ())
  | "lfs" -> C.Experiment.Log_structured (C.Log_structured.config ())
  | other -> invalid_arg (Printf.sprintf "unknown policy %S" other)

(* Atomic (temp file + rename): a crash mid-write never leaves a torn
   JSON document where a previous good one (or nothing) used to be. *)
let write_json_file path doc =
  C.Ckpt.atomic_write path (fun oc ->
      C.Obs.Json.to_channel oc doc;
      output_char oc '\n')

let write_trace_file path sink =
  match C.Sink.trace_ref sink with
  | Some trace -> write_json_file path (C.Obs.Trace.chrome_json trace)
  | None -> ()

(* A timeline exports twice: the full rofs-timeline-v1 JSON document at
   FILE and a flat spreadsheet-ready CSV at FILE.csv. *)
let write_timeline_files path tl =
  write_json_file path (C.Timeline.to_json tl);
  C.Ckpt.atomic_write (path ^ ".csv") (fun oc -> output_string oc (C.Timeline.to_csv tl))

let stats_json stats =
  let v = function Some x -> x | None -> 0. in
  C.Obs.Json.Obj
    [
      ("mean", C.Obs.Json.Float (C.Stats.mean stats));
      ("stddev", C.Obs.Json.Float (C.Stats.stddev stats));
      ("min", C.Obs.Json.Float (v (C.Stats.min_value stats)));
      ("max", C.Obs.Json.Float (v (C.Stats.max_value stats)));
      ("n", C.Obs.Json.Int (C.Stats.count stats));
    ]

(* --seeds sweep mode: replicate the throughput pair across seeds on the
   Domain pool and report mean +- stddev (and the sample range).  The
   per-seed cells are isolated simulations; the per-worker accumulators
   are singleton Stats merged in fixed seed order (Chan et al. via
   Stats.merge), so the printed summary does not depend on --jobs —
   and neither do the merged latency histograms (integer bucket counts,
   fixed fold order). *)
let run_sweep ~config ~jobs ~seeds ~policy ~json ~metrics_file ~trace_file spec
    (workload : C.Workload.t) =
  (* In --json mode stdout carries exactly one JSON document; the human
     narration moves to stderr. *)
  let ch = if json then stderr else stdout in
  if trace_file <> "" then
    prerr_endline "rofs_sim: --trace is ignored with --seeds (traces do not merge across seeds)";
  Printf.fprintf ch "sweep: %d seeds [%s] jobs=%d scheduler=%s\n%!" (List.length seeds)
    (String.concat "," (List.map string_of_int seeds))
    jobs
    (C.Sched_policy.name config.C.Engine.scheduler);
  let runs =
    C.Experiment.run_seeds ~config ~jobs ~instrument:(json || metrics_file <> "") ~seeds spec
      workload
  in
  let sink =
    Array.fold_left
      (fun acc r ->
        match (acc, r.C.Experiment.s_sink) with
        | Some a, Some s -> Some (C.Sink.merge a s)
        | acc, None -> acc
        | None, s -> s)
      None runs
  in
  let merged pick =
    Array.fold_left
      (fun acc r ->
        let s = C.Stats.create () in
        C.Stats.add s (pick r).C.Engine.pct_of_max;
        C.Stats.merge acc s)
      (C.Stats.create ()) runs
  in
  let line label stats =
    let bound v = match v with Some x -> Printf.sprintf "%.1f" x | None -> "-" in
    Printf.fprintf ch "%-12s %6.1f +- %4.1f %% of max   (min %s, max %s, n=%d)\n" label
      (C.Stats.mean stats) (C.Stats.stddev stats)
      (bound (C.Stats.min_value stats))
      (bound (C.Stats.max_value stats))
      (C.Stats.count stats)
  in
  let app_stats = merged (fun r -> r.C.Experiment.s_application) in
  let seq_stats = merged (fun r -> r.C.Experiment.s_sequential) in
  Printf.fprintf ch "%s / %s\n" workload.C.Workload.name policy;
  line "application" app_stats;
  line "sequential" seq_stats;
  Option.iter
    (fun sink ->
      if metrics_file <> "" then write_json_file metrics_file (C.Sink.to_json sink);
      if json then
        print_endline
          (C.Obs.Json.to_string
             (C.Obs.Json.Obj
                [
                  ("schema", C.Obs.Json.Str "rofs-sweep-v1");
                  ("policy", C.Obs.Json.Str policy);
                  ("workload", C.Obs.Json.Str workload.C.Workload.name);
                  ("seeds", C.Obs.Json.Arr (List.map (fun s -> C.Obs.Json.Int s) seeds));
                  ("application_pct", stats_json app_stats);
                  ("sequential_pct", stats_json seq_stats);
                  ("metrics", C.Sink.to_json sink);
                ])))
    sink

(* Single-run mode: the allocation test and/or the throughput protocol,
   driven by Experiment.run_sharded.  Without --shards the run is one
   slice — the serial simulation itself.  With --shards N it is
   config.shard_slices slices (disks and workload partitioned
   deterministically) executed on N domains and merged in fixed slice
   order, so the report is byte-identical at every N (pinned by
   test/test_speed.ml; the CI speed-smoke job cmps the --json output
   across shard counts). *)
let run_single ~config ~shards ~policy ~test ~json ~metrics_file ~trace_file ~record_file
    ~timeline_file ~timeline_every ~ckpt_every ~ckpt_file ~resume_file spec
    (workload : C.Workload.t) =
  let ch = if json then stderr else stdout in
  let config =
    match shards with None -> { config with C.Engine.shard_slices = 1 } | Some _ -> config
  in
  let slices = config.C.Engine.shard_slices in
  let scheduler = C.Sched_policy.name config.C.Engine.scheduler in
  let throughput = test = All || test = Throughput in
  (match shards with
  | None -> Printf.fprintf ch "seed=%d scheduler=%s\n%!" config.C.Engine.seed scheduler
  | Some n ->
      if record_file <> "" then
        prerr_endline "rofs_sim: --record is ignored with --shards (sharded runs record no trace)";
      Printf.fprintf ch "sharded: slices=%d shards=%d scheduler=%s\n%!" slices n scheduler);
  let recorder =
    if record_file = "" || shards <> None then None
    else if not throughput then begin
      prerr_endline "rofs_sim: --record needs the throughput test; nothing recorded";
      None
    end
    else Some (C.Trace_recorder.create ~name:workload.C.Workload.name)
  in
  let alloc =
    if test = All || test = Alloc then Some (C.Experiment.run_allocation ~config spec workload)
    else None
  in
  (* One snapshot file per slice: FILE for a one-slice run, FILE.i for
     slice i otherwise (a slice is a complete serial engine, so each
     resumes independently). *)
  let snapshot base slice = if slices = 1 then base else Printf.sprintf "%s.%d" base slice in
  let ckpt_save =
    if ckpt_file = "" then None
    else Some (fun ~slice sections -> C.Ckpt.save_file (snapshot ckpt_file slice) sections)
  in
  let ckpt_resume =
    if resume_file = "" then None
    else
      Some
        (fun ~slice ->
          let path = snapshot resume_file slice in
          match C.Ckpt.load_file path with
          | Ok sections -> Some sections
          | Error msg -> invalid_arg (Printf.sprintf "%s: %s" path msg))
  in
  let instrumented = json || metrics_file <> "" || trace_file <> "" in
  let run =
    if not throughput then None
    else
      Some
        (C.Experiment.run_sharded ~config ?shards ~instrument:instrumented
           ~trace:(trace_file <> "")
           ?recorder:(Option.map C.Trace_recorder.hook recorder)
           ?timeline_every_ms:(if timeline_file <> "" then Some timeline_every else None)
           ?ckpt_every_ms:(if ckpt_every > 0. then Some ckpt_every else None)
           ?ckpt_save ?ckpt_resume spec workload)
  in
  let field f = Option.map f run in
  let application = field (fun r -> r.C.Experiment.s_application) in
  let sequential = field (fun r -> r.C.Experiment.s_sequential) in
  let faults =
    if C.Fault_plan.enabled config.C.Engine.faults then field (fun r -> r.C.Experiment.s_fault)
    else None
  in
  let cache = Option.bind run (fun r -> r.C.Experiment.s_cache) in
  let drives = field (fun r -> r.C.Experiment.s_drives) in
  let churn = field (fun r -> r.C.Experiment.s_churn) in
  let sink =
    match Option.bind run (fun r -> r.C.Experiment.s_sink) with
    | Some s -> Some s
    | None -> if instrumented then Some (C.Sink.create ~trace:(trace_file <> "") ()) else None
  in
  output_string ch
    (C.Report.summary ?faults ?cache ?drives ?churn ~workload:workload.C.Workload.name ~policy
       ~alloc ~application ~sequential ());
  flush ch;
  if timeline_file <> "" then begin
    match Option.bind run (fun r -> r.C.Experiment.s_timeline) with
    | Some tl -> write_timeline_files timeline_file tl
    | None -> prerr_endline "rofs_sim: --timeline needs the throughput test; nothing written"
  end;
  Option.iter
    (fun r ->
      C.Trace_codec.save_file record_file (C.Trace_recorder.trace r);
      Printf.fprintf ch "recorded %d events to %s\n%!" (C.Trace_recorder.event_count r)
        record_file)
    recorder;
  Option.iter
    (fun sink ->
      if metrics_file <> "" then write_json_file metrics_file (C.Sink.to_json sink);
      if trace_file <> "" then write_trace_file trace_file sink;
      if json then
        print_endline
          (C.Obs.Json.to_string
             (C.Report.to_json ?alloc ?application ?sequential ?faults ?cache ?drives
                ~metrics:sink ?churn ~workload:workload.C.Workload.name ~policy ())))
    sink

(* --replay mode: drive a trace (text or binary, sniffed) through the
   full stack configured by the ordinary CLI flags; --record writes the
   replay back out as executed (the normalization fixed point). *)
let run_replay ~config ~workload ~policy ~json ~metrics_file ~replay_file ~record_file spec =
  match C.Trace_codec.load_file replay_file with
  | Error msg ->
      Printf.eprintf "rofs_sim: %s: %s\n" replay_file msg;
      exit 2
  | Ok trace ->
      let ch = if json then stderr else stdout in
      let instrumented = json || metrics_file <> "" in
      let sink = if instrumented then Some (C.Sink.create ()) else None in
      Printf.fprintf ch "replay: %s (%d files, %d events) seed=%d scheduler=%s\n%!"
        trace.C.Trace.name
        (List.length trace.C.Trace.initial)
        (C.Trace.event_count trace) config.C.Engine.seed
        (C.Sched_policy.name config.C.Engine.scheduler);
      let o =
        C.Trace_replay.run ~config ~workload ?sink ~record:(record_file <> "") spec trace
      in
      let r = o.C.Trace_replay.report in
      Printf.fprintf ch
        "  replay       %.1f%% of max (%.2f MB/s, %d I/Os, %d alloc failures, %d stale \
         skipped)\n"
        r.C.Trace_replay.pct_of_max
        (C.Report.mb_per_s r.C.Trace_replay.bytes_per_ms)
        r.C.Trace_replay.io_ops r.C.Trace_replay.alloc_failures r.C.Trace_replay.skipped_stale;
      Option.iter
        (fun cr -> Printf.fprintf ch "  cache        %s\n" (C.Report.cache_to_string cr))
        (C.Engine.cache_report o.C.Trace_replay.engine);
      flush ch;
      (match (o.C.Trace_replay.recorded, record_file) with
      | Some t, f when f <> "" -> C.Trace_codec.save_file f t
      | _ -> ());
      Option.iter
        (fun sink ->
          if metrics_file <> "" then write_json_file metrics_file (C.Sink.to_json sink);
          if json then
            print_endline
              (C.Obs.Json.to_string (C.Trace_replay.to_json ~metrics:sink o ~policy)))
        sink

let run policy sizes grow unclustered fit ranges block workload_name test seed seeds jobs
    shards readahead scheduler layout scale cache_mb cache_policy cache_write mttf mttr
    media_error_rate rebuild_rate measure_ms age_ms age_occupancy_pct json trace_file
    metrics_file replay_file record_file timeline_file timeline_every ckpt_every ckpt_file
    resume_file =
  let seeds =
    match seeds with
    | Some [] -> invalid_arg "--seeds names no seed (expected e.g. --seeds 41,42,43)"
    | Some seeds -> seeds
    | None -> []
  in
  match C.Workload.by_name workload_name with
  | None ->
      Printf.eprintf "unknown workload %S (expected ts, tp or sc)\n" workload_name;
      exit 2
  | Some workload ->
      let workload =
        if scale = 1.0 then workload else C.Workload.scaled workload ~factor:scale
      in
      let spec =
        build_spec ~policy ~sizes ~grow ~clustered:(not unclustered) ~fit ~ranges ~block
          ~workload
      in
      let faults =
        {
          C.Fault_plan.none with
          C.Fault_plan.seed;
          mttf_ms = mttf;
          mttr_ms = mttr;
          media_error_rate;
          rebuild_rate_bytes_per_ms = rebuild_rate;
        }
      in
      let array_config stripe_unit =
        match layout with
        | `Striped -> C.Array_model.Striped { stripe_unit }
        | `Mirrored -> C.Array_model.Mirrored { stripe_unit }
        | `Raid5 -> C.Array_model.Raid5 { stripe_unit }
        | `Parity -> C.Array_model.Parity_striped
      in
      let cache =
        if cache_mb <= 0 then None
        else
          Some
            (C.Cache.config ~mb:cache_mb ~policy:cache_policy ~write_mode:cache_write ())
      in
      (* --age-occupancy is a percentage on the command line, a fraction
         inside the engine; validate with the percent-phrased message
         before the conversion can turn nonsense into a plausible
         fraction. *)
      let age_occupancy = age_occupancy_pct /. 100. in
      C.Aging.validate ~age_ms ~occupancy:age_occupancy;
      let config =
        {
          C.Engine.default_config with
          C.Engine.seed;
          readahead_factor = readahead;
          scheduler;
          array_config;
          faults;
          cache;
          max_measure_ms = measure_ms;
          age_ms;
          age_occupancy;
        }
      in
      C.Engine.validate_config ?shards config;
      (* Checkpointing composes with the stochastic throughput protocol
         only: replay and recording engines hold closures a snapshot
         cannot capture, a --seeds sweep is many runs, and the
         allocation test is a single unresumable sweep.  Conflicts are
         refused up front on the one-line exit-2 path. *)
      let checkpointing = ckpt_every <> 0. || ckpt_file <> "" || resume_file <> "" in
      if checkpointing then begin
        if not (Float.is_finite ckpt_every && ckpt_every >= 0.) then
          invalid_arg "--checkpoint-every needs a finite positive number of ms";
        if ckpt_every > 0. && ckpt_file = "" then
          invalid_arg "--checkpoint-every needs --checkpoint FILE";
        if replay_file <> "" then
          invalid_arg "--replay cannot be combined with checkpoint/resume flags";
        if record_file <> "" then
          invalid_arg "--record cannot be combined with checkpoint/resume flags";
        if seeds <> [] then
          invalid_arg "--seeds cannot be combined with checkpoint/resume flags";
        if test = Alloc then
          invalid_arg "--test alloc is not resumable (checkpointing covers the throughput protocol)"
      end;
      (* The timeline flags pair: a window width without a destination
         (or vice versa) is a config mistake, refused up front. *)
      if timeline_file <> "" && not (Float.is_finite timeline_every && timeline_every > 0.) then
        invalid_arg "--timeline needs --timeline-every MS (a finite positive window width)";
      if timeline_every <> 0. && timeline_file = "" then
        invalid_arg "--timeline-every needs --timeline FILE";
      if replay_file <> "" then begin
        if seeds <> [] then
          prerr_endline "rofs_sim: --seeds is ignored with --replay (one trace, one run)";
        if age_ms > 0. then
          prerr_endline
            "rofs_sim: --age-ms is ignored with --replay (the trace already encodes the \
             volume's history)";
        if timeline_file <> "" then
          prerr_endline
            "rofs_sim: --timeline is ignored with --replay (timelines cover the \
             stochastic throughput protocol)";
        if shards <> None then
          prerr_endline
            "rofs_sim: --shards is ignored with --replay (a trace replays as one serial \
             timeline)";
        run_replay ~config ~workload ~policy ~json ~metrics_file ~replay_file ~record_file
          spec
      end
      else if seeds <> [] then begin
        if record_file <> "" then
          prerr_endline "rofs_sim: --record is ignored with --seeds (traces do not merge)";
        if timeline_file <> "" then
          prerr_endline
            "rofs_sim: --timeline is ignored with --seeds (timelines do not merge across \
             seeds)";
        if shards <> None then
          prerr_endline
            "rofs_sim: --shards is ignored with --seeds (per-seed cells already run on \
             --jobs domains)";
        run_sweep ~config ~jobs ~seeds ~policy ~json ~metrics_file ~trace_file spec workload
      end
      else
        run_single ~config ~shards ~policy ~test ~json ~metrics_file ~trace_file ~record_file
          ~timeline_file ~timeline_every ~ckpt_every ~ckpt_file ~resume_file spec workload

let policy_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("buddy", "buddy"); ("restricted", "restricted"); ("extent", "extent");
             ("fixed", "fixed"); ("lfs", "lfs") ])
        "restricted"
    & info [ "p"; "policy" ] ~doc:"Allocation policy: buddy | restricted | extent | fixed | lfs.")

let sizes_arg =
  Arg.(value & opt int 5 & info [ "sizes" ] ~doc:"Restricted buddy: number of block sizes (2-5).")

let grow_arg =
  Arg.(value & opt int 1 & info [ "grow" ] ~doc:"Restricted buddy: grow factor (1 or 2).")

let unclustered_arg =
  Arg.(value & flag & info [ "unclustered" ] ~doc:"Restricted buddy: disable region clustering.")

let fit_arg =
  Arg.(
    value
    & opt (enum [ ("first", "first"); ("best", "best") ]) "first"
    & info [ "fit" ] ~doc:"Extent policy: first | best fit.")

let ranges_arg =
  Arg.(value & opt int 3 & info [ "ranges" ] ~doc:"Extent policy: number of extent ranges (1-5).")

let block_arg =
  Arg.(value & opt int 4096 & info [ "block" ] ~doc:"Fixed policy: block size in bytes.")

let workload_arg =
  Arg.(value & opt string "ts" & info [ "w"; "workload" ] ~doc:"Workload: ts | tp | sc.")

let test_arg =
  Arg.(
    value
    & opt (enum [ ("all", All); ("alloc", Alloc); ("throughput", Throughput) ]) All
    & info [ "t"; "test" ] ~doc:"Which test to run: all | alloc | throughput.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let seeds_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "seeds" ]
      ~doc:
        "Comma-separated seed list, e.g. 41,42,43: replicate the throughput pair once per \
         seed and print mean +- stddev instead of a single-run report.  Runs \
         $(b,--jobs) cells in parallel; the summary is identical at every job count.")

let jobs_arg =
  Arg.(
    value
    & opt int (C.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
      ~doc:
        "Number of worker domains for $(b,--seeds) sweeps (default: ROFS_JOBS, or 1).")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
      ~doc:
        "Run the throughput test sharded: the system is decomposed into a fixed number \
         of independent slices (disks and workload partitioned deterministically; see \
         shard_slices in the engine config) executed on $(docv) worker domains and \
         merged in fixed order.  The report is byte-identical at every shard count, so \
         $(docv) changes only the wall clock.  Ignored with $(b,--seeds) and \
         $(b,--replay).")

let readahead_arg =
  Arg.(value & opt int 4 & info [ "readahead" ] ~doc:"Read-ahead factor for sequential scans.")

let scheduler_arg =
  let sched_conv =
    Arg.conv
      ( (fun s ->
          match C.Sched_policy.of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))),
        C.Sched_policy.pp )
  in
  Arg.(
    value
    & opt sched_conv C.Sched_policy.Fcfs
    & info [ "scheduler" ] ~doc:"Per-drive request scheduler: fcfs | sstf | scan | clook.")

let layout_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("striped", `Striped); ("mirrored", `Mirrored); ("raid5", `Raid5);
             ("parity", `Parity) ])
        `Striped
    & info [ "layout" ] ~doc:"Array layout: striped | mirrored | raid5 | parity.")

let scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ]
      ~doc:
        "Scale the workload's file counts by this factor (mirrored arrays halve the data \
         capacity; e.g. $(b,--scale 0.4) makes the standard workloads fit).")

let cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-mb" ]
      ~doc:
        "Shared block buffer cache size in MiB; 0 (the default) disables the cache and \
         keeps the engine byte-identical to the uncached simulator.")

let cache_policy_arg =
  let cache_policy_conv =
    Arg.conv
      ( (fun s ->
          match C.Cache_policy.of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg (Printf.sprintf "unknown cache policy %S" s))),
        C.Cache_policy.pp )
  in
  Arg.(
    value
    & opt cache_policy_conv C.Cache_policy.Lru
    & info [ "cache-policy" ] ~doc:"Cache replacement policy: lru | clock | 2q.")

let cache_write_arg =
  Arg.(
    value
    & opt (enum [ ("through", C.Cache.Write_through); ("back", C.Cache.Write_back) ])
        C.Cache.Write_through
    & info [ "cache-write" ]
      ~doc:
        "Cache write mode: $(b,through) pays every write to disk; $(b,back) absorbs \
         writes in memory and flushes dirty pages on eviction or a periodic tick.")

let mttf_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "mttf" ]
      ~doc:
        "Mean time to failure per drive in simulated ms (exponential); 0 disables drive \
         failures.")

let mttr_arg =
  Arg.(
    value
    & opt float 60_000.
    & info [ "mttr" ] ~doc:"Mean time to repair a failed drive in simulated ms (exponential).")

let media_error_rate_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "media-error-rate" ]
      ~doc:"Probability that one physical chunk request suffers a transient media error.")

let rebuild_rate_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "rebuild-rate" ]
      ~doc:"Pacing cap on online-rebuild traffic in bytes/ms; 0 rebuilds flat-out.")

let measure_ms_arg =
  Arg.(
    value
    & opt float 900_000.
    & info [ "measure-ms" ]
      ~doc:"Cap on measured simulated time per throughput test, in ms.")

let age_ms_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "age-ms" ] ~docv:"MS"
      ~doc:
        "Fast-forward aging: run $(docv) of simulated create/grow/delete churn between \
         the fill phase and the measured tests, fragmenting the free list the way weeks \
         of production churn would.  Aging epochs are allocator-only (no per-op disk \
         events), so simulating a month costs minutes.  0 (the default) disables aging \
         and leaves every result byte-identical to a simulator without it.  A \
         reference: one simulated week is 604800000, one month 2592000000.")

let age_occupancy_arg =
  Arg.(
    value
    & opt float 90.
    & info [ "age-occupancy" ] ~docv:"PCT"
      ~doc:
        "Target volume occupancy the aging churn oscillates around, in percent \
         (strictly between 0 and 100, default 90): below it users grow files, at or \
         above it they delete or truncate per their file type's deallocation mix.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
      ~doc:
        "Emit the report as a single JSON document on stdout (the human-readable summary \
         moves to stderr).  Attaches the instrumentation sink, so the document includes \
         latency percentiles and per-drive metrics; simulated results are unchanged.")

let trace_arg =
  Arg.(
    value & opt string ""
    & info [ "trace" ] ~docv:"FILE"
      ~doc:
        "Write a Chrome trace-event file (loadable in Perfetto or chrome://tracing) of \
         request arrivals, per-drive service windows, faults and rebuild progress.  The \
         trace ring is bounded (newest events win).  Ignored with $(b,--seeds).")

let metrics_arg =
  Arg.(
    value & opt string ""
    & info [ "metrics" ] ~docv:"FILE"
      ~doc:
        "Write the instrumentation sink (latency/seek/rotation/transfer histograms and \
         per-drive counters) as a JSON document to $(docv).")

let replay_arg =
  Arg.(
    value & opt string ""
    & info [ "replay" ] ~docv:"FILE"
      ~doc:
        "Replay an operation trace (text or binary, sniffed by content) through the full \
         stack — cache, per-drive scheduler, array and faults — instead of running the \
         stochastic workload.  The usual flags configure the replayed system; \
         $(b,--json) emits a rofs-replay-v1 document.")

let record_arg =
  Arg.(
    value & opt string ""
    & info [ "record" ] ~docv:"FILE"
      ~doc:
        "Write the operations the run actually executed as a trace to $(docv) \
         ($(b,.bin)/$(b,.rtb) extensions select the binary codec, anything else the text \
         format).  With the stochastic driver this records initialization, fill and the \
         application test; with $(b,--replay) it writes the trace back out as executed, \
         a normalized copy that replays bit-identically.")

let timeline_arg =
  Arg.(
    value & opt string ""
    & info [ "timeline" ] ~docv:"FILE"
      ~doc:
        "Write windowed time-series telemetry as a rofs-timeline-v1 JSON document to \
         $(docv) and a flat CSV to $(docv).csv: per-window throughput and latency \
         percentiles, per-drive utilization and queue depth, cache hit rates, fault and \
         rebuild state, and allocator free-space gauges, sampled at absolute simulated \
         times.  Needs $(b,--timeline-every).  The timeline is byte-identical at every \
         $(b,--shards) count and across checkpoint/resume.  Ignored with $(b,--seeds) \
         and $(b,--replay).")

let timeline_every_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "timeline-every" ] ~docv:"MS"
      ~doc:
        "Window width for $(b,--timeline) in simulated ms; windows are aligned to \
         absolute multiples of $(docv) from time 0.")

let ckpt_every_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "checkpoint-every" ] ~docv:"MS"
      ~doc:
        "Write a crash-safe snapshot to the $(b,--checkpoint) file every $(docv) of \
         simulated time.  Snapshots are written atomically (temp file + rename), so a \
         crash mid-write leaves the previous good snapshot intact.  A resumed run is \
         bit-identical to the same run left uninterrupted at the same cadence.")

let ckpt_file_arg =
  Arg.(
    value & opt string ""
    & info [ "checkpoint" ] ~docv:"FILE"
      ~doc:
        "Snapshot destination for $(b,--checkpoint-every); without it, write a single \
         snapshot when the run completes.  With $(b,--shards), slice $(i,i) lands at \
         $(docv).$(i,i).  Incompatible with $(b,--replay), $(b,--record), $(b,--seeds) \
         and $(b,--test alloc).")

let resume_arg =
  Arg.(
    value & opt string ""
    & info [ "resume" ] ~docv:"FILE"
      ~doc:
        "Resume from a snapshot written by $(b,--checkpoint).  The command line must \
         rebuild the same configuration (seed, policy, workload, array, cache, faults); \
         a mismatched or corrupt snapshot is refused with a one-line error, exit 2.  \
         With $(b,--shards), slice $(i,i) resumes from $(docv).$(i,i).")

let cmd =
  let doc = "simulate read-optimized file system allocation policies (Seltzer & Stonebraker 1991)" in
  Cmd.v
    (Cmd.info "rofs_sim" ~version:C.version ~doc)
    Term.(
      const run $ policy_arg $ sizes_arg $ grow_arg $ unclustered_arg $ fit_arg $ ranges_arg
      $ block_arg $ workload_arg $ test_arg $ seed_arg $ seeds_arg $ jobs_arg $ shards_arg
      $ readahead_arg $ scheduler_arg $ layout_arg $ scale_arg $ cache_mb_arg $ cache_policy_arg
      $ cache_write_arg $ mttf_arg $ mttr_arg $ media_error_rate_arg $ rebuild_rate_arg
      $ measure_ms_arg $ age_ms_arg $ age_occupancy_arg $ json_arg $ trace_arg $ metrics_arg
      $ replay_arg $ record_arg $ timeline_arg $ timeline_every_arg $ ckpt_every_arg
      $ ckpt_file_arg $ resume_arg)

let usage_hint =
  "usage: rofs_sim [--policy P] [-w ts|tp|sc] [--layout L] [--scheduler S] [--test T] \
   [--shards N] [--age-ms MS] [--age-occupancy PCT] [--cache-mb N] [--cache-policy P] \
   [--cache-write M] [--mttf MS] [--mttr MS] [--media-error-rate P] [--rebuild-rate B] \
   [--replay FILE] [--record FILE] -- see 'rofs_sim --help'"

(* Exit 2 with a one-line hint on bad input — a config mistake is the
   user's problem, not a crash: no OCaml backtrace, no multi-page
   cmdliner usage dump. *)
let () =
  let errbuf = Buffer.create 256 in
  let errfmt = Format.formatter_of_buffer errbuf in
  match Cmd.eval ~catch:false ~err:errfmt cmd with
  | code when code = Cmd.Exit.cli_error ->
      Format.pp_print_flush errfmt ();
      (match String.split_on_char '\n' (String.trim (Buffer.contents errbuf)) with
      | first :: _ when first <> "" -> Printf.eprintf "%s\n" first
      | _ -> prerr_endline "rofs_sim: invalid command line");
      prerr_endline usage_hint;
      exit 2
  | code ->
      Format.pp_print_flush errfmt ();
      prerr_string (Buffer.contents errbuf);
      exit code
  | exception (Invalid_argument msg | Failure msg) ->
      Printf.eprintf "rofs_sim: %s\n%s\n" msg usage_hint;
      exit 2
