module Alloc = Rofs_alloc
module Array_model = Rofs_disk.Array_model
module Fault_plan = Rofs_fault.Plan
module Rng = Rofs_util.Rng
module Sink = Rofs_obs.Sink
module Timeline = Rofs_obs.Timeline
module File_type = Rofs_workload.File_type
module Workload = Rofs_workload.Workload

type policy_spec =
  | Buddy of Alloc.Buddy.config
  | Restricted of Alloc.Restricted_buddy.config
  | Extent of Alloc.Extent_alloc.config
  | Fixed of Alloc.Fixed_block.config
  | Log_structured of Alloc.Log_structured.config

let spec_unit_bytes = function
  | Buddy c -> c.Alloc.Buddy.unit_bytes
  | Restricted c -> c.Alloc.Restricted_buddy.unit_bytes
  | Extent c -> c.Alloc.Extent_alloc.unit_bytes
  | Fixed c -> c.Alloc.Fixed_block.unit_bytes
  | Log_structured c -> c.Alloc.Log_structured.unit_bytes

let capacity_units (config : Engine.config) ~unit_bytes =
  let array =
    Array_model.create ~disks:config.Engine.disks
      (config.Engine.array_config config.Engine.stripe_unit_bytes)
  in
  Array_model.capacity_bytes array / unit_bytes

let build_policy spec ~total_units ~rng =
  match spec with
  | Buddy c -> Alloc.Buddy.create c ~total_units
  | Restricted c -> Alloc.Restricted_buddy.create c ~total_units
  | Extent c -> Alloc.Extent_alloc.create c ~total_units ~rng
  | Fixed c -> Alloc.Fixed_block.create c ~total_units ~rng
  | Log_structured c -> Alloc.Log_structured.create c ~total_units

let make_engine ?recorder ?(config = Engine.default_config) spec workload =
  let unit_bytes = spec_unit_bytes spec in
  let total_units = capacity_units config ~unit_bytes in
  (* A seed distinct from the engine's keeps policy-internal draws
     (extent sizes, free-list aging) decoupled from event scheduling. *)
  let rng = Rng.create ~seed:(config.Engine.seed + 0x5eed) in
  let policy = build_policy spec ~total_units ~rng in
  Engine.create ?recorder config ~policy ~workload

let run_allocation ?config spec workload =
  let engine = make_engine ?config spec workload in
  Engine.run_allocation_test engine

(* ------------------------------------------------------------------ *)
(* The throughput driver                                               *)

type sharded_report = {
  s_application : Engine.throughput_report;
  s_sequential : Engine.throughput_report;
  s_cache : Engine.cache_report option;
  s_fault : Engine.fault_report;
  s_churn : Alloc.Policy.churn_stats;
  s_drives : Engine.drive_report array;
  s_sink : Sink.t option;
  s_timeline : Timeline.t option;
  s_slices : int;
  s_shards : int;
}

(* One slice's unmerged report, plus the weights its reports merge
   under. *)
type slice_result = {
  report : sharded_report;
  max_bw : float;
  capacity : float;
  files : int;
  disks : int;
}

(* The decomposition is a pure function of the config alone: slice [i]
   gets [disks/slices] drives (+1 for the first [disks mod slices]
   slices) and an engine / fault seed derived from [(seed, i)] — never
   from the execution width, so every [--shards] count simulates the
   identical set of slices. *)
let slice_configs (cfg : Engine.config) =
  let slices = cfg.Engine.shard_slices in
  Array.init slices (fun i ->
      let disks = (cfg.Engine.disks / slices) + if i < cfg.Engine.disks mod slices then 1 else 0 in
      let seed = Rng.derive_seed ~seed:cfg.Engine.seed ~stream:i in
      let faults =
        {
          cfg.Engine.faults with
          Fault_plan.seed = Rng.derive_seed ~seed:cfg.Engine.faults.Fault_plan.seed ~stream:i;
        }
      in
      { cfg with Engine.seed; disks; faults; shard_slices = 1 })

let sum results f = Array.fold_left (fun acc sl -> acc + f sl) 0 results

(* Fold the per-slice reports in fixed slice order: additive counters
   sum, rates sum (the slices ran side by side), the percentage is the
   summed rate against the summed bandwidth, durations take the max, and
   the dimensionless ratios merge under their natural weights (capacity
   for utilization, file count for extents per file). *)
let merge_throughput pick results =
  let rate = ref 0. and max_bw = ref 0. and measured = ref 0. and stabilized = ref true in
  let util_w = ref 0. and cap = ref 0. and mepf_w = ref 0. and files = ref 0. in
  Array.iter
    (fun sl ->
      let (r : Engine.throughput_report) = pick sl.report in
      rate := !rate +. r.Engine.bytes_per_ms;
      max_bw := !max_bw +. sl.max_bw;
      measured := Float.max !measured r.Engine.measured_ms;
      stabilized := !stabilized && r.Engine.stabilized;
      util_w := !util_w +. (r.Engine.utilization *. sl.capacity);
      cap := !cap +. sl.capacity;
      mepf_w := !mepf_w +. (r.Engine.mean_extents_per_file *. float_of_int sl.files);
      files := !files +. float_of_int sl.files)
    results;
  let count f = sum results (fun sl -> f (pick sl.report)) in
  {
    Engine.pct_of_max = (if !max_bw > 0. then 100. *. !rate /. !max_bw else 0.);
    bytes_per_ms = !rate;
    measured_ms = !measured;
    checkpoints =
      Array.fold_left (fun acc sl -> max acc (pick sl.report).Engine.checkpoints) 0 results;
    stabilized = !stabilized;
    io_ops = count (fun r -> r.Engine.io_ops);
    disk_fulls = count (fun r -> r.Engine.disk_fulls);
    utilization = (if !cap > 0. then !util_w /. !cap else 0.);
    mean_extents_per_file = (if !files > 0. then !mepf_w /. !files else 0.);
    meta_bytes = count (fun r -> r.Engine.meta_bytes);
  }

(* Cache counters sum; the per-type rows merge by type name in one pass,
   first-seen slice order (a slice only lists the types its partition
   gave it). *)
let merge_cache results =
  if Array.exists (fun sl -> sl.report.s_cache = None) results then None
  else begin
    let caches = Array.map (fun sl -> Option.get sl.report.s_cache) results in
    let sum f = Array.fold_left (fun acc (c : Engine.cache_report) -> acc + f c) 0 caches in
    let per_type = Hashtbl.create 8 and order = ref [] in
    Array.iter
      (fun (c : Engine.cache_report) ->
        Array.iter
          (fun (name, h, m) ->
            match Hashtbl.find_opt per_type name with
            | Some (h0, m0) -> Hashtbl.replace per_type name (h0 + h, m0 + m)
            | None ->
                Hashtbl.add per_type name (h, m);
                order := name :: !order)
          c.Engine.cr_per_type)
      caches;
    let lookups = sum (fun c -> c.Engine.cr_lookups) and hits = sum (fun c -> c.Engine.cr_hits) in
    Some
      {
        (caches.(0)) with
        Engine.cr_lookups = lookups;
        cr_hits = hits;
        cr_misses = sum (fun c -> c.Engine.cr_misses);
        cr_hit_rate = (if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.);
        cr_hit_bytes = sum (fun c -> c.Engine.cr_hit_bytes);
        cr_insertions = sum (fun c -> c.Engine.cr_insertions);
        cr_evictions = sum (fun c -> c.Engine.cr_evictions);
        cr_dirty_evictions = sum (fun c -> c.Engine.cr_dirty_evictions);
        cr_flushes = sum (fun c -> c.Engine.cr_flushes);
        cr_writeback_bytes = sum (fun c -> c.Engine.cr_writeback_bytes);
        cr_prefetched_pages = sum (fun c -> c.Engine.cr_prefetched_pages);
        cr_invalidations = sum (fun c -> c.Engine.cr_invalidations);
        cr_per_type =
          Array.of_list
            (List.rev_map
               (fun name ->
                 let h, m = Hashtbl.find per_type name in
                 (name, h, m))
               !order);
      }
  end

(* Drive states concatenate in slice order (slice 0's drives first);
   every counter sums. *)
let merge_fault results =
  let sum f = sum results (fun sl -> f sl.report.s_fault) in
  {
    Engine.drive_states =
      Array.concat
        (Array.to_list (Array.map (fun sl -> sl.report.s_fault.Engine.drive_states) results));
    data_loss = sum (fun f -> f.Engine.data_loss);
    media_errors = sum (fun f -> f.Engine.media_errors);
    retries = sum (fun f -> f.Engine.retries);
    remaps = sum (fun f -> f.Engine.remaps);
    remap_hits = sum (fun f -> f.Engine.remap_hits);
    reconstructed_reads = sum (fun f -> f.Engine.reconstructed_reads);
    degraded_writes = sum (fun f -> f.Engine.degraded_writes);
    dirty_bytes = sum (fun f -> f.Engine.dirty_bytes);
    rebuild_ios = sum (fun f -> f.Engine.rebuild_ios);
  }

let merge_churn results =
  let sum f = sum results (fun sl -> f sl.report.s_churn) in
  {
    Alloc.Policy.cs_user_units = sum (fun c -> c.Alloc.Policy.cs_user_units);
    cs_moved_units = sum (fun c -> c.Alloc.Policy.cs_moved_units);
    cs_cleaner_passes = sum (fun c -> c.Alloc.Policy.cs_cleaner_passes);
  }

(* Per-drive results concatenate in slice order under array-wide drive
   numbers, the rule [drive_states] follows: slice [i]'s local drive [d]
   is drive [offsets.(i) + d]. *)
let merge_drives results offsets =
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i sl ->
            Array.map
              (fun (d : Engine.drive_report) ->
                { d with Engine.dr_drive = offsets.(i) + d.Engine.dr_drive })
              sl.report.s_drives)
          results))

(* The optional observers fold in fixed slice order, so the result is
   byte-identical at every [--shards] width: [merge acc ~offset x] adds
   slice [x], whose first drive is array-wide drive [offset]. *)
let merge_observers pick merge results offsets =
  let acc = ref None in
  Array.iteri
    (fun i sl ->
      acc :=
        match (!acc, pick sl.report) with
        | Some a, Some x -> Some (merge a ~offset:offsets.(i) x)
        | a, None -> a
        | None, x -> x)
    results;
  !acc

let run_sharded ?(config = Engine.default_config) ?(shards = 1) ?(instrument = false)
    ?(trace = false) ?recorder ?timeline_every_ms ?ckpt_every_ms ?ckpt_save ?ckpt_resume spec
    workload =
  Engine.validate_config ~shards config;
  Workload.validate workload;
  let slices = config.Engine.shard_slices in
  if slices > config.Engine.disks then
    invalid_arg "Engine.config: shard_slices must not exceed disks";
  if recorder <> None && slices > 1 then
    invalid_arg "Experiment.run_sharded: a recorder needs shard_slices = 1";
  (* [shard_slices = 1] short-circuits the decomposition entirely: the
     one slice reuses the base config and workload verbatim, so its run
     — and, below, its unmerged reports — are the serial path's. *)
  let cfgs = if slices = 1 then [| config |] else slice_configs config in
  let parts = Workload.partition workload ~weights:(Array.map (fun c -> c.Engine.disks) cfgs) in
  let run_slice i =
    let w = parts.(i) in
    let engine = make_engine ?recorder ~config:cfgs.(i) spec w in
    let sink = if instrument then Some (Sink.create ~trace ()) else None in
    Option.iter (Engine.attach_obs engine) sink;
    (* Arm before restoring: [restore] replaces the heap wholesale, so
       the initial ticks [attach_timeline] / [set_checkpoint] post are
       superseded by the snapshot's own tick chains on resume. *)
    Option.iter (fun every -> Engine.attach_timeline engine ~every_ms:every) timeline_every_ms;
    (match (ckpt_every_ms, ckpt_save) with
    | Some every, Some save ->
        Engine.set_checkpoint engine ~every_ms:every (fun () ->
            save ~slice:i (Engine.checkpoint engine))
    | _ -> ());
    Option.iter (fun load -> Option.iter (Engine.restore engine) (load ~slice:i)) ckpt_resume;
    Engine.fill_to_lower_bound engine;
    Engine.run_aging engine;
    let app = Engine.run_application_test engine in
    (* The recorded trace covers initialization, fill, aging and the
       application test — the window trace replay verifies against; the
       sequential test only re-reads whole files. *)
    Engine.set_recorder engine None;
    let seq = Engine.run_sequential_test engine in
    (* Final snapshot: a slice that already finished resumes instantly
       from its stored reports instead of re-simulating. *)
    Option.iter (fun save -> save ~slice:i (Engine.checkpoint engine)) ckpt_save;
    {
      report =
        {
          s_application = app;
          s_sequential = seq;
          s_cache = Engine.cache_report engine;
          s_fault = Engine.fault_report engine;
          s_churn = Engine.churn_stats engine;
          s_drives = Engine.drive_reports engine;
          s_sink = sink;
          s_timeline = Engine.timeline engine;
          s_slices = 1;
          s_shards = shards;
        };
      max_bw = Engine.max_bandwidth_pct_base engine;
      capacity = float_of_int (Array_model.capacity_bytes (Engine.array_model engine));
      files = List.fold_left (fun acc ft -> acc + ft.File_type.count) 0 w.Workload.types;
      disks = cfgs.(i).Engine.disks;
    }
  in
  let results = Rofs_par.Pool.map ~jobs:shards run_slice (Array.init slices Fun.id) in
  if slices = 1 then results.(0).report
  else begin
    let offsets = Array.make slices 0 in
    for i = 1 to slices - 1 do
      offsets.(i) <- offsets.(i - 1) + results.(i - 1).disks
    done;
    {
      s_application = merge_throughput (fun r -> r.s_application) results;
      s_sequential = merge_throughput (fun r -> r.s_sequential) results;
      s_cache = merge_cache results;
      s_fault = merge_fault results;
      s_churn = merge_churn results;
      s_drives = merge_drives results offsets;
      s_sink =
        merge_observers
          (fun r -> r.s_sink)
          (fun a ~offset x -> Sink.merge ~drive_offset:offset a x)
          results offsets;
      s_timeline =
        merge_observers
          (fun r -> r.s_timeline)
          (fun a ~offset:_ x -> Timeline.merge a x)
          results offsets;
      s_slices = slices;
      s_shards = shards;
    }
  end

(* The serial protocol is the one-slice driver run. *)
let run_throughput ?(config = Engine.default_config) spec workload =
  let r = run_sharded ~config:{ config with Engine.shard_slices = 1 } spec workload in
  (r.s_application, r.s_sequential)

let no_seeds fn = invalid_arg (Printf.sprintf "Experiment.%s: no seeds" fn)

(* Each seed is an isolated one-slice driver run; [Pool.map] returns
   them in seed order whatever the job count. *)
let run_seeds ?(config = Engine.default_config) ?jobs ?instrument ~seeds spec workload =
  if seeds = [] then no_seeds "run_seeds";
  Rofs_par.Pool.map ?jobs
    (fun seed ->
      run_sharded ~config:{ config with Engine.seed; shard_slices = 1 } ?instrument spec workload)
    (Array.of_list seeds)

type summary = { mean : float; stddev : float; runs : int }

let summarize stats =
  {
    mean = Rofs_util.Stats.mean stats;
    stddev = Rofs_util.Stats.stddev stats;
    runs = Rofs_util.Stats.count stats;
  }

(* Fold the per-seed reports with [Stats.add] in seed order.  Each cell
   is computed in full isolation, so this fold sees exactly the sample
   sequence the pre-pool serial loop produced — summaries are
   byte-identical at every job count. *)
let summarize_pairs pairs =
  let app_stats = Rofs_util.Stats.create () and seq_stats = Rofs_util.Stats.create () in
  Array.iter
    (fun ((app : Engine.throughput_report), (seq : Engine.throughput_report)) ->
      Rofs_util.Stats.add app_stats app.Engine.pct_of_max;
      Rofs_util.Stats.add seq_stats seq.Engine.pct_of_max)
    pairs;
  (summarize app_stats, summarize seq_stats)

let run_throughput_seeds ?config ?jobs ~seeds spec workload =
  if seeds = [] then no_seeds "run_throughput_seeds";
  summarize_pairs
    (Array.map
       (fun r -> (r.s_application, r.s_sequential))
       (run_seeds ?config ?jobs ~seeds spec workload))

type matrix_cell = {
  m_policy : string;
  m_workload : string;
  m_application : summary;
  m_sequential : summary;
}

let run_matrix ?(config = Engine.default_config) ?jobs ~seeds ~policies workloads =
  if seeds = [] then no_seeds "run_matrix";
  if policies = [] then invalid_arg "Experiment.run_matrix: no policies";
  if workloads = [] then invalid_arg "Experiment.run_matrix: no workloads";
  (* One flat task list over the whole grid so short and long cells
     load-balance across the pool; cells are generated (and summarized)
     in policy-major, workload-minor, seed order, so the output is
     independent of scheduling. *)
  let cells =
    List.concat_map
      (fun (pname, spec_of) ->
        List.concat_map
          (fun (w : Workload.t) ->
            let spec = spec_of w in
            List.map (fun seed -> (pname, spec, w, seed)) seeds)
          workloads)
      policies
  in
  let results =
    Rofs_par.Pool.map ?jobs
      (fun (_, spec, w, seed) -> run_throughput ~config:{ config with Engine.seed } spec w)
      (Array.of_list cells)
  in
  let nseeds = List.length seeds and nworkloads = List.length workloads in
  List.concat
    (List.mapi
       (fun pi (pname, _) ->
         List.mapi
           (fun wi (w : Workload.t) ->
             let block = Array.sub results (((pi * nworkloads) + wi) * nseeds) nseeds in
             let app, seq = summarize_pairs block in
             {
               m_policy = pname;
               m_workload = w.Workload.name;
               m_application = app;
               m_sequential = seq;
             })
           workloads)
       policies)
