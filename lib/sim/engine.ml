module Rng = Rofs_util.Rng
module Dist = Rofs_util.Dist
module Heap = Rofs_util.Heap
module Stats = Rofs_util.Stats
module Sched_policy = Rofs_sched.Policy
module Fault_plan = Rofs_fault.Plan
module Fault = Rofs_fault.State
module Array_model = Rofs_disk.Array_model
module Drive = Rofs_disk.Drive
module Sink = Rofs_obs.Sink
module Trc = Rofs_obs.Trace
module Timeline = Rofs_obs.Timeline
module Cache = Rofs_cache.Cache
module File_type = Rofs_workload.File_type
module Workload = Rofs_workload.Workload
module Aging_driver = Rofs_workload.Aging

type config = {
  seed : int;
  disks : int;
  stripe_unit_bytes : int;
  array_config : int -> Array_model.config;
  scheduler : Sched_policy.t;
  lower_bound : float;
  upper_bound : float;
  interval_ms : float;
  stable_windows : int;
  tolerance_pct : float;
  max_measure_ms : float;
  max_alloc_ops : int;
  readahead_factor : int;
  warmup_checkpoints : int;
  metadata_io : bool;
  faults : Fault_plan.config;
  cache : Cache.config option;
  shard_slices : int;
  age_ms : float;
  age_occupancy : float;
  age_think_scale : float;
}

let default_config =
  {
    seed = 42;
    disks = 8;
    stripe_unit_bytes = 24 * 1024;
    array_config = (fun stripe_unit -> Array_model.Striped { stripe_unit });
    scheduler = Sched_policy.Fcfs;
    lower_bound = 0.90;
    upper_bound = 0.95;
    interval_ms = 10_000.;
    stable_windows = 3;
    tolerance_pct = 0.1;
    max_measure_ms = 900_000.;
    max_alloc_ops = 5_000_000;
    readahead_factor = 4;
    warmup_checkpoints = 5;
    metadata_io = false;
    faults = Fault_plan.none;
    cache = None;
    shard_slices = 4;
    age_ms = 0.;
    age_occupancy = 0.90;
    age_think_scale = 1.;
  }

let validate_config ?shards cfg =
  let fail msg = invalid_arg ("Engine.config: " ^ msg) in
  (match shards with
  | Some n when n < 1 -> fail "shards must be positive"
  | Some _ | None -> ());
  if cfg.disks <= 0 then fail "disks must be positive";
  if cfg.shard_slices < 1 then fail "shard_slices must be positive";
  if cfg.stripe_unit_bytes <= 0 then fail "stripe_unit_bytes must be positive";
  if not (cfg.lower_bound > 0. && cfg.lower_bound <= 1.) then
    fail "lower_bound must lie in (0, 1]";
  if not (cfg.upper_bound > 0. && cfg.upper_bound <= 1.) then
    fail "upper_bound must lie in (0, 1]";
  if cfg.lower_bound >= cfg.upper_bound then
    fail "lower_bound must be strictly below upper_bound";
  let finite_pos v = Float.is_finite v && v > 0. in
  if not (finite_pos cfg.interval_ms) then fail "interval_ms must be a finite positive number";
  if cfg.stable_windows <= 0 then fail "stable_windows must be positive";
  if not (finite_pos cfg.tolerance_pct) then fail "tolerance_pct must be a finite positive number";
  if not (finite_pos cfg.max_measure_ms) then
    fail "max_measure_ms must be a finite positive number";
  if cfg.max_alloc_ops <= 0 then fail "max_alloc_ops must be positive";
  if cfg.readahead_factor < 1 then fail "readahead_factor must be >= 1";
  if cfg.warmup_checkpoints < 0 then fail "warmup_checkpoints must be >= 0";
  if not (Float.is_finite cfg.age_ms) || cfg.age_ms < 0. then
    fail "age_ms must be a finite number of ms >= 0";
  if not (Float.is_finite cfg.age_occupancy)
     || cfg.age_occupancy <= 0.
     || cfg.age_occupancy >= 1.
  then fail "age_occupancy must lie strictly between 0 and 1";
  if not (Float.is_finite cfg.age_think_scale) || cfg.age_think_scale < 1. then
    fail "age_think_scale must be >= 1";
  Option.iter Cache.validate cfg.cache;
  Fault_plan.validate cfg.faults

type alloc_report = {
  internal_frag : float;
  external_frag : float;
  alloc_ops : int;
  utilization_at_end : float;
  failed : bool;
}

type throughput_report = {
  pct_of_max : float;
  bytes_per_ms : float;
  measured_ms : float;
  checkpoints : int;
  stabilized : bool;
  io_ops : int;
  disk_fulls : int;
  utilization : float;
  mean_extents_per_file : float;
  meta_bytes : int;
}

type cache_report = {
  cr_policy : string;
  cr_write_mode : string;
  cr_pages : int;
  cr_page_bytes : int;
  cr_lookups : int;
  cr_hits : int;
  cr_misses : int;
  cr_hit_rate : float;
  cr_hit_bytes : int;
  cr_insertions : int;
  cr_evictions : int;
  cr_dirty_evictions : int;
  cr_flushes : int;
  cr_writeback_bytes : int;
  cr_prefetched_pages : int;
  cr_invalidations : int;
  cr_per_type : (string * int * int) array;
}

type fault_report = {
  drive_states : [ `Healthy | `Failed | `Rebuilding of float ] array;
  data_loss : int;
  media_errors : int;
  retries : int;
  remaps : int;
  remap_hits : int;
  reconstructed_reads : int;
  degraded_writes : int;
  dirty_bytes : int;
  rebuild_ios : int;
}

(* [user], [event] and [waiter] are mutually recursive so each user can
   own its [Wake] event and [User_waiter] cell: both are allocated once
   at engine construction and pushed by reference afterwards, keeping
   the per-operation hot path free of event-record allocation. *)
type user = {
  type_idx : int;
  ft : File_type.t;
  rng : Rng.t;
  mutable file : int;  (** current target; -1 forces a fresh pick *)
  mutable seq_offset : int;  (** scan position for Sequential types, bytes *)
  mutable read_ahead_until : int;  (** bytes of [file] already staged in memory *)
  mutable write_behind_until : int;  (** bytes of [file] covered by the last coalesced write *)
  mutable wake_ev : event;  (** this user's pooled [Wake] event *)
  mutable park : waiter;  (** this user's pooled [User_waiter] cell *)
}

(* The event heap holds seven event kinds: a user whose think time
   expired (perform its next operation); on the dispatch-queue path, a
   drive whose in-service request finishes at the event's time; the next
   scripted or drawn drive fail/repair from the fault plan; the next
   background rebuild I/O of a resynchronising drive; the buffer
   cache's periodic dirty-page flush (write-back mode only); on a
   replay engine, the arrival of the next trace event; when
   checkpointing is armed, the periodic snapshot tick; and, when a
   timeline is attached, the periodic telemetry sampling tick. *)
and event =
  | Wake of user
  | Drive_done of int
  | Fault_tick
  | Rebuild_tick of int
  | Flush_tick
  | Replay_tick
  | Ckpt_tick
  | Stat_tick

(* What a queued-path operation completion unblocks: a user's think
   time, the next chunk of a drive's rebuild sweep (not before
   [next_ok], the pacing limit), or the replay session's outstanding
   counter. *)
and waiter =
  | User_waiter of user
  | Rebuild_waiter of { drive : int; next_ok : float }
  | Replay_waiter

(* How operations are selected and executed, per test (Section 3). *)
type mode =
  | Alloc_only of { governed : bool }
      (** extend/truncate/delete only, no disk timing; [governed] caps
          utilization at the upper bound (fill phase) while the
          allocation test runs ungoverned until it fails *)
  | Full_mix  (** the application-performance test *)
  | Whole_file_rw  (** the sequential-performance test *)
  | Aging
      (** fast-forward churn: allocator-only ops (no disk events) driven
          by the bang-bang occupancy controller in {!Rofs_workload.Aging},
          with think times stretched by [age_think_scale] *)

(* ------------------------------------------------------------------ *)
(* Trace recording and replay surface                                  *)

(* What the recorder sees: the operations the engine actually executed,
   at the level where the stack below the drivers begins.  Uncached
   reads and writes are post-window (the staged transfer, not the
   logical burst the read-ahead window absorbed); cached ones are the
   pre-cache logical operation, so replaying through an identical cache
   reproduces its hit pattern exactly.  [R_grow] is allocation without
   a transfer (initial population, fill-phase churn); [R_extend] is
   grow-then-write.  Creates carry no size — growth always arrives as
   separate [R_grow]/[R_extend] steps, preserving the interleaved
   allocation order that shapes the layout. *)
type recorded_op =
  | R_read of { off : int; len : int }
  | R_write of { off : int; len : int }
  | R_extend of int
  | R_grow of int
  | R_truncate of int
  | R_delete
  | R_create of { hint : int; ty : int }

type recorded = { rec_time_ms : float; rec_file : int; rec_op : recorded_op }

(* One physical transfer a replay driver wants issued.  [rio_cached]
   routes through the shared cache when one is configured (trace reads
   and writes); extends bypass it, exactly as [do_extend] does. *)
type replay_io = {
  rio_kind : Array_model.kind;
  rio_file : int;
  rio_off : int;
  rio_len : int;
  rio_type_idx : int;
  rio_cached : bool;
}

type replay_session = {
  rs_next : unit -> (float * (unit -> replay_io list)) option;
  mutable rs_pending : (unit -> replay_io list) option;
  mutable rs_outstanding : int;  (** queued-path operations in flight *)
  mutable rs_last_completion : float;
}

type replay_outcome = {
  rp_pct_of_max : float;
  rp_bytes_per_ms : float;
  rp_bytes_moved : int;
  rp_elapsed_ms : float;
  rp_first_ms : float;
  rp_last_ms : float;
  rp_io_ops : int;
}

(* Loop state of the fill and measurement phases, held in the phase
   itself so a checkpoint captures it and a restored engine re-enters
   the phase mid-loop. *)
type fill_state = {
  fs_ops_at_start : int;
  mutable fs_best_used : int;
  mutable fs_fails : int;  (** failed allocations since the last net growth *)
}

type meas_state = {
  ms_start : float;
  ms_io_at_start : int;
  ms_fulls_at_start : int;
  ms_meta_at_start : int;
  ms_series : Stats.Series.t;
  mutable ms_next_checkpoint : float;
  mutable ms_checkpoints : int;
}

(* The Section 3 protocol plus aging.  Each transition sets the next
   phase up in the step that writes it, so a snapshot taken anywhere
   names exactly what comes next. *)
type phase =
  | Filling of fill_state
  | Aging_until of float
      (** absolute end time of the churn, so a resumed run stops at the
          original horizon *)
  | Application of meas_state
  | Sequential of { app : throughput_report; meas : meas_state }
  | Finished of { app : throughput_report; seq : throughput_report }

(* Everything a snapshot carries, in one closure-free record: the
   engine section of a checkpoint is [Marshal.to_string t.s []] and a
   restore swaps a decoded record in.  Marshal keeps the sharing inside
   one value, so a restored heap's [Wake u] events and the waiter
   table's [User_waiter u] cells still point at the very [users]
   records, and the heap's [Drive_done d] / [Rebuild_tick d] at the
   pooled ones.  A field added here is checkpointed by construction,
   and changes the section's layout: bump the version in [fingerprint]. *)
type state = {
  rng : Rng.t;
  heap : event Heap.t;
  users : user array;
  waiters : (int, waiter) Hashtbl.t;
      (** queued path: op id -> whoever is blocked on that operation *)
  mutable pending_fault : (float * Fault_plan.action) option;
      (** the popped-but-unapplied next fault event; its [Fault_tick]
          sits in the heap (re-posted after heap clears) *)
  rebuild_live : bool array;
      (** drive -> a rebuild continuation (heap tick or waiter) is
          outstanding; guards against duplicate tick chains *)
  drive_done_evs : event array;  (** pooled [Drive_done d], one per drive *)
  rebuild_evs : event array;  (** pooled [Rebuild_tick d], one per drive *)
  (* In-flight I/Os not yet fully credited, as flat parallel arrays —
     (issue, completion, bytes) per entry — stored in reverse of the
     list the seed kept (index [fl_len - 1] is the most recent push), so
     iterating [fl_len - 1 .. 0] visits entries in the seed's list order
     and the checkpoint float sums are bit-identical.  [fl2_*] is the
     spare buffer the checkpoint sweep compacts survivors into. *)
  mutable fl_issue : float array;
  mutable fl_finish : float array;
  mutable fl_bytes : int array;
  mutable fl_len : int;
  mutable fl2_issue : float array;
  mutable fl2_finish : float array;
  mutable fl2_bytes : int array;
  mutable now : float;
  mutable disk_fulls : int;
  mutable io_ops : int;
  mutable alloc_ops : int;
  mutable bytes_completed : int;
  mutable meta_bytes : int;
  mutable rebuild_ios : int;
  mutable data_loss : int;
  mutable phase : phase;
  (* Snapshot and telemetry cadences: [<= 0] means disarmed; the next
     tick times live outside the heap because [seed_events] clears it. *)
  mutable ckpt_every_ms : float;
  mutable ckpt_next : float;
  mutable tl_every_ms : float;
  mutable tl_next : float;
}

(* The wiring around the state: fixed at construction, or (the sink,
   recorder, hook, timeline) attached by the caller, which keeps the
   same [t] across a restore. *)
type t = {
  cfg : config;
  workload : Workload.t;
  types : File_type.t array;
  volume : Volume.t;
  array : Array_model.t;
  fault_plan : Fault_plan.t option;  (** drive fail/repair generator, if any *)
  cache : Cache.t option;
      (** the shared buffer cache; [None] (the default) keeps the
          uncached paths byte-identical to the seed *)
  mutable obs : Sink.t option;
      (** instrumentation sink; [None] (the default) means no recording
          and no extra allocation anywhere in the engine or the array *)
  mutable recorder : (recorded -> unit) option;
      (** trace recorder; [None] (the default) records nothing and, like
          the sink, never changes simulated results *)
  mutable replay : replay_session option;
      (** the active replay session on a [create_replay] engine *)
  mutable ckpt_hook : (unit -> unit) option;
  mutable timeline : Timeline.t option;
  mutable s : state;
}

type drive_report = {
  dr_drive : int;
  dr_requests : int;
  dr_bytes : int;
  dr_seeks : int;
  dr_busy_ms : float;
  dr_utilization : float;
  dr_seek_ms : float;
  dr_rotation_ms : float;
  dr_transfer_ms : float;
  dr_queue_mean : float;
  dr_queue_max : int;
}

(* Two service paths, chosen by the array from its scheduler.  FCFS keeps
   the seed's synchronous path: each operation is served whole on
   submission against each drive's busy clock, byte-exact with the seed
   implementation.  Any other policy must defer: which request a drive
   serves next depends on what else has arrived by the time its arm
   falls idle, so the engine posts per-drive completion events and the
   array dispatches from real queues.

   The queued path run FCFS is NOT equivalent to the synchronous one at
   engine level, although the array serves every chunk of both through
   one routine:
   - throughput is credited per operation (first chunk start to last
     chunk finish) on the synchronous path, per request on the queued
     path;
   - the shared service RNG is drawn in chunk-generation order on the
     synchronous path, in dispatch order on the queued one, so the chunks
     of overlapping operations draw in different orders;
   - a mirrored read picks its arm by queue load on the queued path, by
     the drives' busy clocks on the synchronous one.
   The synchronous path also stays because it is far cheaper to
   simulate: routing FCFS through the queues costs the TP benchmark
   workload 3.3x the host time and 4.6x the peak heap (DESIGN.md). *)
let queued t = not (Array_model.synchronous t.array)

(* Credit one I/O's bytes over its service window.  Append-only into the
   flat arrays; growth doubles all three (plus the spare buffer, so the
   checkpoint sweep never reallocates mid-run). *)
let fl_push t ~issue ~finish bytes =
  let n = t.s.fl_len in
  if n = Array.length t.s.fl_bytes then begin
    let cap = 2 * n in
    let gi = Array.make cap 0. and gf = Array.make cap 0. and gb = Array.make cap 0 in
    Array.blit t.s.fl_issue 0 gi 0 n;
    Array.blit t.s.fl_finish 0 gf 0 n;
    Array.blit t.s.fl_bytes 0 gb 0 n;
    t.s.fl_issue <- gi;
    t.s.fl_finish <- gf;
    t.s.fl_bytes <- gb;
    t.s.fl2_issue <- Array.make cap 0.;
    t.s.fl2_finish <- Array.make cap 0.;
    t.s.fl2_bytes <- Array.make cap 0
  end;
  t.s.fl_issue.(n) <- issue;
  t.s.fl_finish.(n) <- finish;
  t.s.fl_bytes.(n) <- bytes;
  t.s.fl_len <- n + 1

let volume t = t.volume
let array_model t = t.array
let max_bandwidth_pct_base t = Array_model.max_bandwidth_bytes_per_ms t.array

let attach_obs t sink =
  t.obs <- Some sink;
  Array_model.attach_obs t.array sink

let obs t = t.obs

let drive_reports t =
  Array.mapi
    (fun i (s : Drive.stats) ->
      let dr_queue_mean, dr_queue_max =
        match t.obs with Some sink -> Sink.drive_queue_depth sink i | None -> (0., 0)
      in
      {
        dr_drive = i;
        dr_requests = s.Drive.requests;
        dr_bytes = s.Drive.bytes_moved;
        dr_seeks = s.Drive.seeks;
        dr_busy_ms = s.Drive.busy_ms;
        dr_utilization =
          (* The sync path serves whole operations eagerly, so a drive's
             busy clock can outrun [t.s.now]; measure busy time against
             the drive's own horizon, not the engine clock. *)
          (let horizon = Float.max t.s.now (Array_model.drive_busy_until t.array ~drive:i) in
           if horizon > 0. then s.Drive.busy_ms /. horizon else 0.);
        dr_seek_ms = s.Drive.seek_ms;
        dr_rotation_ms = s.Drive.rotation_ms;
        dr_transfer_ms = s.Drive.transfer_ms;
        dr_queue_mean;
        dr_queue_max;
      })
    (Array_model.drive_stats t.array)

(* Instantaneous trace mark (fault transitions, rebuild progress). *)
let mark t ~kind ~drive =
  match t.obs with
  | None -> ()
  | Some sink ->
      if Sink.tracing sink then
        Sink.event sink
          { Trc.at_ms = t.s.now; dur_ms = 0.; kind; drive; op_id = -1; bytes = 0 }

(* Trace-recording hook: a no-op unless a recorder is attached, so the
   recorded engine's simulated results are untouched (no RNG draws, no
   float arithmetic — the frozen goldens still pin the uncorded paths). *)
let record t ~file op =
  match t.recorder with
  | None -> ()
  | Some f -> f { rec_time_ms = t.s.now; rec_file = file; rec_op = op }

let set_recorder t recorder = t.recorder <- recorder

(* Arm periodic checkpointing: every [every_ms] of simulated time a
   [Ckpt_tick] fires and [hook] runs (typically writing
   [checkpoint t] somewhere durable).  The tick chain keeps exactly one
   event outstanding, like the fault and flush chains.  Arming may
   reorder heap ties against an unarmed run (the extra element perturbs
   the binary heap's layout), so the determinism guarantee is between
   armed runs: an armed run resumed from any of its snapshots is
   byte-identical to the same armed run left uninterrupted. *)
let set_checkpoint t ~every_ms hook =
  if not (Float.is_finite every_ms && every_ms > 0.) then
    invalid_arg "Engine.set_checkpoint: every_ms must be a finite positive number";
  t.s.ckpt_every_ms <- every_ms;
  t.ckpt_hook <- Some hook;
  t.s.ckpt_next <- t.s.now +. every_ms;
  Heap.push t.s.heap ~prio:t.s.ckpt_next Ckpt_tick

(* One telemetry observation: the engine's cumulative counters plus the
   instantaneous gauges of every subsystem.  Pure reads — no RNG draws,
   no state changes — so sampling never perturbs the simulation. *)
let timeline_sample t =
  let ndisks = Array_model.disks t.array in
  let stats = Array_model.drive_stats t.array in
  let bytes = ref 0 in
  Array.iter (fun (s : Drive.stats) -> bytes := !bytes + s.Drive.bytes_moved) stats;
  let failed = ref 0 and rebuilding = ref 0 in
  for d = 0 to ndisks - 1 do
    match Array_model.drive_state t.array ~drive:d with
    | `Failed -> incr failed
    | `Rebuilding _ -> incr rebuilding
    | `Healthy -> ()
  done;
  let cache_lookups, cache_hits, cache_misses, cache_wb, cache_pf =
    match t.cache with
    | None -> (0, 0, 0, 0, 0)
    | Some cache ->
        let s = Cache.stats cache in
        ( s.Cache.lookups,
          s.Cache.hits,
          s.Cache.misses,
          s.Cache.writeback_bytes,
          s.Cache.prefetched_pages )
  in
  let p = Volume.policy t.volume in
  let total = p.Rofs_alloc.Policy.total_units in
  let free = p.Rofs_alloc.Policy.free_units () in
  let cs = p.Rofs_alloc.Policy.churn_stats () in
  {
    Timeline.s_io_ops = t.s.io_ops;
    s_alloc_ops = t.s.alloc_ops;
    s_bytes_moved = !bytes;
    s_disk_fulls = t.s.disk_fulls;
    s_data_loss = t.s.data_loss;
    s_rebuild_ios = t.s.rebuild_ios;
    s_cache_lookups = cache_lookups;
    s_cache_hits = cache_hits;
    s_cache_misses = cache_misses;
    s_cache_writeback_bytes = cache_wb;
    s_cache_prefetched = cache_pf;
    s_drive_busy_ms = Array.map (fun (s : Drive.stats) -> s.Drive.busy_ms) stats;
    s_queue_depths = Array.init ndisks (fun d -> Array_model.pending t.array ~drive:d);
    s_failed_drives = !failed;
    s_rebuilding_drives = !rebuilding;
    s_used_units = total - free;
    s_total_units = total;
    s_free_units = free;
    s_largest_free = p.Rofs_alloc.Policy.largest_free ();
    s_free_hist = p.Rofs_alloc.Policy.free_hist ();
    s_user_units = cs.Rofs_alloc.Policy.cs_user_units;
    s_moved_units = cs.Rofs_alloc.Policy.cs_moved_units;
    s_cleaner_passes = cs.Rofs_alloc.Policy.cs_cleaner_passes;
  }

(* Arm windowed telemetry: every [every_ms] of simulated time a
   [Stat_tick] fires and closes the next timeline window.  Must be
   armed before the run starts (windows are aligned to absolute
   simulated time from 0).  Like [set_checkpoint], arming perturbs heap
   ties against an unarmed run, so the determinism contract is between
   armed runs; runs without a timeline stay bit-exact against the
   frozen goldens. *)
let attach_timeline t ~every_ms =
  if not (Float.is_finite every_ms && every_ms > 0.) then
    invalid_arg "Engine.attach_timeline: every_ms must be a finite positive number";
  if t.timeline <> None then invalid_arg "Engine.attach_timeline: a timeline is already attached";
  t.timeline <- Some (Timeline.create ~every_ms ~baseline:(timeline_sample t));
  t.s.tl_every_ms <- every_ms;
  t.s.tl_next <- t.s.now +. every_ms;
  Heap.push t.s.heap ~prio:t.s.tl_next Stat_tick

let timeline t = t.timeline

(* Phase 2 of initialization: create every file at a size drawn uniform
   on (initial mean +- deviation); allocation requests are issued until
   the allocated length covers it.  As many files grow concurrently as
   the workload has users, round-robin, in write-behind-sized steps —
   the way a population accretes on a live system.  Policies whose
   blocks are small therefore end up with layouts interleaved between
   the concurrent writers, while large-block policies stay contiguous;
   this is the layout difference behind the paper's Figure 2 block-size
   spread. *)
let populate t =
  let waiting = Queue.create () in
  Array.iteri
    (fun type_idx ft ->
      for _ = 1 to ft.File_type.count do
        let file =
          Volume.create_file t.volume ~type_idx ~hint_bytes:ft.File_type.alloc_hint_bytes
        in
        record t ~file (R_create { hint = ft.File_type.alloc_hint_bytes; ty = type_idx });
        let size = File_type.draw_initial_bytes ft t.s.rng in
        if size > 0 then Queue.add (ft, file, size) waiting
      done)
    t.types;
  let window = max 1 (Workload.total_users t.workload) in
  let active = Queue.create () in
  let refill () =
    while Queue.length active < window && not (Queue.is_empty waiting) do
      Queue.add (Queue.take waiting) active
    done
  in
  refill ();
  while not (Queue.is_empty active) do
    let ft, file, remaining = Queue.take active in
    (* Write-behind batches requests, so growth lands in readahead-sized
       chunks rather than single bursts. *)
    let step =
      min remaining (max 1 (t.cfg.readahead_factor * File_type.draw_rw_bytes ft t.s.rng))
    in
    record t ~file (R_grow step);
    match Volume.grow t.volume ~file ~bytes:step with
    | Ok () ->
        if remaining > step then Queue.add (ft, file, remaining - step) active else refill ()
    | Error `Disk_full ->
        failwith
          (Printf.sprintf "Engine: initial population of %s does not fit (utilization %.1f%%)"
             ft.File_type.name
             (100. *. Volume.utilization t.volume))
  done

(* Phase 1 of initialization (and re-seeding between tests): each user
   event gets a start time uniform on [now, now + users * hit_freq].
   On the queued path, requests left on the dispatch queues by the
   previous test keep draining: their completion events are re-posted
   (the clear dropped them) and their orphaned operations — whose users
   just got fresh start times — are forgotten by the waiter table.  On
   the synchronous path the waiter table is empty and nothing is ever
   in service, so this is a no-op there. *)
let seed_events t =
  Heap.clear t.s.heap;
  Array.iter
    (fun user ->
      let spread = float_of_int user.ft.File_type.users *. user.ft.File_type.hit_freq_ms in
      let start = t.s.now +. Dist.uniform t.s.rng ~lo:0. ~hi:(Float.max spread 1.) in
      Heap.push t.s.heap ~prio:start user.wake_ev)
    t.s.users;
  Hashtbl.reset t.s.waiters;
  for d = 0 to Array_model.disks t.array - 1 do
    match Array_model.in_service_finish t.array ~drive:d with
    | Some finish -> Heap.push t.s.heap ~prio:finish t.s.drive_done_evs.(d)
    | None -> ()
  done;
  (* The clear also dropped the fault tick and any rebuild ticks (and the
     waiter reset dropped rebuild continuations): re-post the pending
     fault event and re-kick the sweep of every drive still
     resynchronising. *)
  (match t.s.pending_fault with
  | Some (at, _) -> Heap.push t.s.heap ~prio:(Float.max at t.s.now) Fault_tick
  | None -> ());
  (* The clear also dropped the cache's flush tick: restart the chain
     (one tick outstanding at a time, like the fault tick). *)
  (match t.cache with
  | Some cache when Cache.write_back cache ->
      Heap.push t.s.heap ~prio:(t.s.now +. Cache.flush_interval_ms cache) Flush_tick
  | Some _ | None -> ());
  Array.iteri
    (fun d _ ->
      let live =
        match Array_model.drive_state t.array ~drive:d with
        | `Rebuilding _ ->
            Heap.push t.s.heap ~prio:t.s.now t.s.rebuild_evs.(d);
            true
        | `Healthy | `Failed -> false
      in
      t.s.rebuild_live.(d) <- live)
    t.s.rebuild_live;
  (* The clear also dropped the armed checkpoint tick: re-post it at its
     scheduled time, keeping the snapshot cadence independent of phase
     boundaries. *)
  if t.s.ckpt_every_ms > 0. then Heap.push t.s.heap ~prio:t.s.ckpt_next Ckpt_tick;
  (* Same for the telemetry tick: windows stay aligned to absolute
     simulated time across phase boundaries. *)
  if t.s.tl_every_ms > 0. then Heap.push t.s.heap ~prio:t.s.tl_next Stat_tick

let make cfg ~policy ~workload ~with_users =
  validate_config cfg;
  Workload.validate workload;
  let array =
    Array_model.create ~seed:cfg.seed ~scheduler:cfg.scheduler ~faults:cfg.faults
      ~disks:cfg.disks
      (cfg.array_config cfg.stripe_unit_bytes)
  in
  let policy_bytes = policy.Rofs_alloc.Policy.total_units * policy.Rofs_alloc.Policy.unit_bytes in
  if policy_bytes > Array_model.capacity_bytes array then
    invalid_arg "Engine.create: policy address space exceeds the array capacity";
  let types = Array.of_list workload.Workload.types in
  let rng = Rng.create ~seed:cfg.seed in
  let users =
    if not with_users then [||]
    else
      Array.of_list
        (List.concat
           (List.mapi
              (fun type_idx ft ->
                List.init ft.File_type.users (fun _ ->
                    let u =
                      {
                        type_idx;
                        ft;
                        rng = Rng.split rng;
                        file = -1;
                        seq_offset = 0;
                        read_ahead_until = 0;
                        write_behind_until = 0;
                        wake_ev = Fault_tick;
                        park = Replay_waiter;
                      }
                    in
                    u.wake_ev <- Wake u;
                    u.park <- User_waiter u;
                    u))
              workload.Workload.types))
  in
  let s =
    {
      rng;
      heap = Heap.create ();
      users;
      waiters = Hashtbl.create 64;
      pending_fault = None;
      rebuild_live = Array.make cfg.disks false;
      drive_done_evs = Array.init cfg.disks (fun d -> Drive_done d);
      rebuild_evs = Array.init cfg.disks (fun d -> Rebuild_tick d);
      fl_issue = Array.make 64 0.;
      fl_finish = Array.make 64 0.;
      fl_bytes = Array.make 64 0;
      fl_len = 0;
      fl2_issue = Array.make 64 0.;
      fl2_finish = Array.make 64 0.;
      fl2_bytes = Array.make 64 0;
      now = 0.;
      disk_fulls = 0;
      io_ops = 0;
      alloc_ops = 0;
      bytes_completed = 0;
      meta_bytes = 0;
      rebuild_ios = 0;
      data_loss = 0;
      phase = Filling { fs_ops_at_start = 0; fs_best_used = 0; fs_fails = 0 };
      ckpt_every_ms = 0.;
      ckpt_next = 0.;
      tl_every_ms = 0.;
      tl_next = 0.;
    }
  in
  let fault_plan =
    if Fault_plan.drive_faults cfg.faults then Some (Fault_plan.create cfg.faults ~drives:cfg.disks)
    else None
  in
  Option.iter (fun plan -> s.pending_fault <- Fault_plan.pop plan) fault_plan;
  {
    cfg;
    workload;
    types;
    volume = Volume.create policy ~ntypes:(Array.length types);
    array;
    fault_plan;
    cache = Option.map (fun c -> Cache.create ~ntypes:(Array.length types) c) cfg.cache;
    obs = None;
    recorder = None;
    replay = None;
    ckpt_hook = None;
    timeline = None;
    s;
  }

let create ?recorder cfg ~policy ~workload =
  let t = make cfg ~policy ~workload ~with_users:true in
  t.recorder <- recorder;
  populate t;
  seed_events t;
  t.s.phase <-
    Filling { fs_ops_at_start = t.s.alloc_ops; fs_best_used = Volume.used_bytes t.volume; fs_fails = 0 };
  t

(* A replay engine owns the same array / volume / cache / fault stack
   but no stochastic users: the file population and every operation
   come from the trace, fed through {!run_replay}.  [workload] supplies
   only the file-type table (names for per-type cache counters, and the
   type count sizing the volume). *)
let create_replay cfg ~policy ~workload =
  let t = make cfg ~policy ~workload ~with_users:false in
  seed_events t;
  t

(* ------------------------------------------------------------------ *)
(* Operation execution                                                 *)

let pick_file t user =
  match user.ft.File_type.pattern with
  | File_type.Whole_file | File_type.Random_access ->
      Volume.random_file t.volume user.rng ~type_idx:user.type_idx
  | File_type.Sequential ->
      if user.file >= 0 && Volume.file_exists t.volume ~file:user.file then Some user.file
      else begin
        match Volume.random_file t.volume user.rng ~type_idx:user.type_idx with
        | Some file ->
            user.file <- file;
            user.seq_offset <- 0;
            user.read_ahead_until <- 0;
            user.write_behind_until <- 0;
            Some file
        | None -> None
      end

(* Result of performing one operation: either its completion time is
   known now (no I/O, or the FCFS fast path), or the user must wait for
   the dispatch queues to finish the operation. *)
type outcome = Done of float | Wait of Array_model.op

(* Push the completion event for every request a drive just started,
   and — for operations that count toward throughput — credit each
   request's bytes over its own service window (the queued-path
   refinement of the seed's per-operation crediting).  Reads the
   array's flat dispatch buffer (everything started by the last
   [submit_flat] / [complete_flat] / [rebuild_step]), in the same order
   the list-returning calls produced. *)
let post_dispatched t ~credit =
  let a = t.array in
  for i = 0 to Array_model.dispatched_len a - 1 do
    let finish = Array_model.dispatched_finished a i in
    Heap.push t.s.heap ~prio:finish t.s.drive_done_evs.(Array_model.dispatched_drive a i);
    if credit && not (Array_model.dispatched_parity a i) then
      fl_push t ~issue:(Array_model.dispatched_started a i) ~finish
        (Array_model.dispatched_bytes a i)
  done

(* Instrumentation for one completed operation the application waited
   on, on either path: latency and queue wait from [submitted], the
   service breakdown, and its trace marks.  [op] is [None] for a
   synchronous operation, whose breakdown the array keeps until the next
   one and whose arrival is marked here; a queued operation's arrival
   was marked at submission. *)
let observe_op t ~op ~bytes ~submitted ~began ~finished =
  (match t.obs with
  | None -> ()
  | Some sink ->
      let seek, rotation, transfer =
        match op with
        | None ->
            let s, r, x, _penalty = Array_model.last_breakdown t.array in
            (s, r, x)
        | Some op -> (
            match Array_model.op_breakdown op with
            | Some (s, r, x, _penalty) -> (s, r, x)
            | None -> (0., 0., 0.))
      in
      Sink.record_op sink
        ~latency:(finished -. submitted)
        ~queue_wait:(began -. submitted)
        ~seek ~rotation ~transfer;
      if Sink.tracing sink then begin
        let op_id =
          match op with
          | None ->
              Sink.event sink
                { Trc.at_ms = submitted; dur_ms = 0.; kind = Trc.Arrival; drive = -1; op_id = -1; bytes };
              -1
          | Some op -> Array_model.op_id op
        in
        Sink.event sink
          { Trc.at_ms = finished; dur_ms = 0.; kind = Trc.Completion; drive = -1; op_id; bytes }
      end);
  match t.timeline with
  | None -> ()
  | Some tl -> Timeline.record_latency tl ~at:finished (finished -. submitted)

let observe_queued t op ~finished =
  observe_op t ~op:(Some op) ~bytes:(Array_model.op_bytes op)
    ~submitted:(Array_model.op_submitted op) ~began:(Array_model.op_began op) ~finished

(* Issue the physical transfer for a logical byte range; bytes are
   credited to the throughput accounting per service window.  An
   operation that needs data no surviving drive can provide is counted
   as lost and completes immediately — the simulated application gets an
   I/O error, not the simulator. *)
let do_io_raw t ~kind ~file ~off ~len =
  let extents = Volume.slice_bytes t.volume ~file ~off ~len in
  if extents = [] then Done t.s.now
  else if not (queued t) then begin
    let physical = List.fold_left (fun acc (_, l) -> acc + l) 0 extents in
    Array_model.serve_extents t.array ~now:t.s.now ~kind ~extents;
    let began = Array_model.last_began t.array in
    let finished = Array_model.last_finished t.array in
    t.s.io_ops <- t.s.io_ops + 1;
    observe_op t ~op:None ~bytes:physical ~submitted:t.s.now ~began ~finished;
    (* Credit bytes over the service window, not the queue wait. *)
    fl_push t ~issue:began ~finish:finished physical;
    Done finished
  end
  else begin
    let op = Array_model.submit_flat t.array ~now:t.s.now ~kind ~extents in
    t.s.io_ops <- t.s.io_ops + 1;
    post_dispatched t ~credit:true;
    if Array_model.op_done op then Done (Array_model.op_finished op) else Wait op
  end

let do_io t ~kind ~file ~off ~len =
  try do_io_raw t ~kind ~file ~off ~len
  with Fault.Data_loss _ ->
    t.s.data_loss <- t.s.data_loss + 1;
    Done t.s.now

(* Instantaneous cache trace mark (hits, fetches, write-back bursts). *)
let cache_mark t ~kind ~bytes =
  match t.obs with
  | None -> ()
  | Some sink ->
      if Sink.tracing sink then
        Sink.event sink { Trc.at_ms = t.s.now; dur_ms = 0.; kind; drive = -1; op_id = -1; bytes }

let record_cache_outcome t (o : Cache.outcome) =
  match t.obs with
  | None -> ()
  | Some sink ->
      Sink.record_cache_op sink ~hits:o.Cache.o_page_hits ~misses:o.Cache.o_page_misses
        ~evictions:o.Cache.o_evictions ~prefetched:o.Cache.o_prefetched

(* Background I/O — cache write-back, descriptor write-back, rebuild
   sweeps: nobody waits on it and it never counts as data throughput,
   but it occupies the drives.  [background t op] posts the completion
   events of a queued background operation's started requests,
   uncredited, and returns its outcome. *)
let background t op =
  post_dispatched t ~credit:false;
  if Array_model.op_done op then Done (Array_model.op_finished op) else Wait op

(* Write [extents] in the background, on the array's path. *)
let write_background t ~extents =
  try
    if queued t then
      ignore
        (background t (Array_model.submit_flat t.array ~now:t.s.now ~kind:Array_model.Write ~extents)
          : outcome)
    else Array_model.serve_extents t.array ~now:t.s.now ~kind:Array_model.Write ~extents
  with Fault.Data_loss _ -> t.s.data_loss <- t.s.data_loss + 1

(* Push one coalesced dirty-page run to disk, in the background: its
   bytes were already credited when the application's write was
   absorbed. *)
let submit_writeback t (run : Cache.run) =
  if Volume.file_exists t.volume ~file:run.Cache.r_file then begin
    let extents =
      Volume.slice_bytes t.volume ~file:run.Cache.r_file ~off:run.Cache.r_off
        ~len:run.Cache.r_len
    in
    if extents <> [] then write_background t ~extents
  end

let submit_writebacks t ~kind runs =
  if runs <> [] then begin
    List.iter (submit_writeback t) runs;
    cache_mark t ~kind
      ~bytes:(List.fold_left (fun acc (r : Cache.run) -> acc + r.Cache.r_len) 0 runs)
  end

(* The shared-cache data path.  Reads serve resident pages from memory
   and fault the missing pages in as one coalesced page-aligned fetch,
   widened by the prefetcher on a detected sequential scan; the user
   waits on that fetch alone.  Hit bytes are NOT credited to throughput
   — they were credited once when fetched from disk, exactly as the
   read-ahead window credits its staged bytes at staging time and
   serves later bursts for free; hits pay off as time saved, not as a
   second credit.  Write-through updates the cache and pays the disk
   write as before; write-back absorbs the write in memory (credited
   now — the eventual flush is uncredited) and completes immediately,
   with dirty pages reaching disk on eviction or at the periodic
   flush. *)
let do_cached_io t cache ~type_idx ~kind ~file ~off ~len ~logical =
  match kind with
  | Array_model.Read ->
      let o = Cache.read cache ~type_idx ~file ~off ~len ~logical in
      record_cache_outcome t o;
      submit_writebacks t ~kind:Trc.Cache_evict o.Cache.o_writebacks;
      if o.Cache.o_hit_bytes > 0 then
        cache_mark t ~kind:Trc.Cache_hit ~bytes:o.Cache.o_hit_bytes;
      (match o.Cache.o_fetch with
      | None -> Done t.s.now
      | Some (foff, flen) ->
          cache_mark t ~kind:Trc.Cache_miss ~bytes:flen;
          do_io t ~kind ~file ~off:foff ~len:flen)
  | Array_model.Write ->
      let o = Cache.write cache ~type_idx ~file ~off ~len in
      record_cache_outcome t o;
      submit_writebacks t ~kind:Trc.Cache_evict o.Cache.o_writebacks;
      if Cache.write_back cache then begin
        fl_push t ~issue:t.s.now ~finish:t.s.now len;
        cache_mark t ~kind:Trc.Cache_hit ~bytes:len;
        Done t.s.now
      end
      else do_io t ~kind ~file ~off ~len

(* Replay driver entry point: issue one recorded transfer.  Cached
   transfers route through the shared cache when one is configured —
   matching what the source run did by construction, since recording
   captures the pre-cache logical op on cached engines and the
   post-window staged transfer on uncached ones. *)
let replay_issue t rs (io : replay_io) =
  let outcome =
    match t.cache with
    | Some cache when io.rio_cached ->
        let logical = Volume.logical_bytes t.volume ~file:io.rio_file in
        do_cached_io t cache ~type_idx:io.rio_type_idx ~kind:io.rio_kind ~file:io.rio_file
          ~off:io.rio_off ~len:io.rio_len ~logical
    | Some _ | None ->
        do_io t ~kind:io.rio_kind ~file:io.rio_file ~off:io.rio_off ~len:io.rio_len
  in
  match outcome with
  | Done finished -> rs.rs_last_completion <- Float.max rs.rs_last_completion finished
  | Wait op ->
      rs.rs_outstanding <- rs.rs_outstanding + 1;
      Hashtbl.replace t.s.waiters (Array_model.op_id op) Replay_waiter

(* Cache-coherence notifications for the replay driver, mirroring what
   [do_truncate] and [do_delete] do on the stochastic path. *)
let cache_note_truncate t ~file =
  Option.iter
    (fun cache -> Cache.truncate_file cache ~file ~logical:(Volume.logical_bytes t.volume ~file))
    t.cache

let cache_note_delete t ~file =
  Option.iter (fun cache -> Cache.invalidate_file cache ~file) t.cache

(* Recorded reads/writes: guard on the recorder before building the
   variant so the disabled path allocates nothing. *)
let record_rw t ~kind ~file ~off ~len =
  match t.recorder with
  | None -> ()
  | Some _ ->
      record t ~file
        (match kind with
        | Array_model.Read -> R_read { off; len }
        | Array_model.Write -> R_write { off; len })

let do_read_write t user ~kind ~whole =
  match pick_file t user with
  | None -> Done t.s.now
  | Some file ->
      let logical = Volume.logical_bytes t.volume ~file in
      if logical = 0 then Done t.s.now
      else begin
        let off, len =
          if whole then (0, logical)
          else begin
            match user.ft.File_type.pattern with
            | File_type.Whole_file -> (0, logical)
            | File_type.Random_access ->
                let len = min (File_type.draw_rw_bytes user.ft user.rng) logical in
                let span = logical - len in
                let off = if span = 0 then 0 else Rng.int user.rng (span + 1) in
                (off, len)
            | File_type.Sequential ->
                let off = if user.seq_offset >= logical then 0 else user.seq_offset in
                let len = min (File_type.draw_rw_bytes user.ft user.rng) (logical - off) in
                user.seq_offset <- off + len;
                if user.seq_offset >= logical then begin
                  (* Wrapped: move to another file for the next burst. *)
                  user.file <- -1;
                  user.seq_offset <- 0
                end;
                (off, len)
          end
        in
        match t.cache with
        | Some cache when not whole ->
            (* The shared cache subsumes the per-user read-ahead /
               write-behind windows below: prefetch detection is
               per-file and the staged pages are visible to every
               user, with real eviction under memory pressure.
               Whole-file test transfers still always hit the disk. *)
            record_rw t ~kind ~file ~off ~len;
            do_cached_io t cache ~type_idx:user.type_idx ~kind ~file ~off ~len ~logical
        | Some _ | None ->
        (* Read-ahead / write-behind: on a sequential scan, stage
           [readahead_factor] bursts per disk visit; bursts already
           inside the staged window complete from memory.  Whole-file
           test transfers always hit the disk. *)
        if
          (not whole)
          && user.ft.File_type.pattern = File_type.Sequential
          && t.cfg.readahead_factor > 1
        then begin
          let window_end =
            match kind with
            | Array_model.Read -> user.read_ahead_until
            | Array_model.Write -> user.write_behind_until
          in
          if off + len <= window_end then Done t.s.now
          else begin
            let staged = min logical (off + (t.cfg.readahead_factor * max len 1)) in
            (match kind with
            | Array_model.Read -> user.read_ahead_until <- staged
            | Array_model.Write -> user.write_behind_until <- staged);
            (* Record the staged transfer, not the logical burst: window
               hits cost nothing and are not recorded, so the trace is
               exactly what reached the stack below the windows. *)
            record_rw t ~kind ~file ~off ~len:(staged - off);
            do_io t ~kind ~file ~off ~len:(staged - off)
          end
        end
        else begin
          record_rw t ~kind ~file ~off ~len;
          do_io t ~kind ~file ~off ~len
        end
      end

(* When metadata accounting is on, every extent the allocator creates
   costs descriptor traffic: extent records are packed 64 to a unit
   (inode + indirect blocks), and the blocks holding the new records are
   written back at the file's descriptor location (a stable hash of the
   file id — a stand-in for inode placement).  Policies that shatter
   files into many pieces pay proportionally more. *)
let records_per_meta_unit = 64

let charge_metadata t ~file ~new_extents =
  if t.cfg.metadata_io && new_extents > 0 then begin
    let unit = (Volume.policy t.volume).Rofs_alloc.Policy.unit_bytes in
    let capacity = Array_model.capacity_bytes t.array in
    let meta_units = ((new_extents - 1) / records_per_meta_unit) + 1 in
    let slot = (file * 2654435761) land max_int mod ((capacity / unit) - meta_units) in
    write_background t ~extents:[ (slot * unit, meta_units * unit) ];
    t.s.meta_bytes <- t.s.meta_bytes + (meta_units * unit)
  end

let do_extend t user ~with_io =
  t.s.alloc_ops <- t.s.alloc_ops + 1;
  match pick_file t user with
  | None -> (Done t.s.now, false)
  | Some file ->
      let bytes = File_type.draw_rw_bytes user.ft user.rng in
      let old_logical = Volume.logical_bytes t.volume ~file in
      let extents_before = Volume.extent_count t.volume ~file in
      (* Recorded before the attempt so a failed allocation replays as
         the same failed attempt. *)
      record t ~file (if with_io then R_extend bytes else R_grow bytes);
      (match Volume.grow t.volume ~file ~bytes with
      | Ok () ->
          if with_io then begin
            charge_metadata t ~file
              ~new_extents:(Volume.extent_count t.volume ~file - extents_before);
            (do_io t ~kind:Array_model.Write ~file ~off:old_logical ~len:bytes, false)
          end
          else (Done t.s.now, false)
      | Error `Disk_full ->
          t.s.disk_fulls <- t.s.disk_fulls + 1;
          (Done t.s.now, true))

let do_truncate t user =
  t.s.alloc_ops <- t.s.alloc_ops + 1;
  (match pick_file t user with
  | None -> ()
  | Some file ->
      record t ~file (R_truncate user.ft.File_type.truncate_bytes);
      Volume.truncate t.volume ~file ~bytes:user.ft.File_type.truncate_bytes;
      (* Pages past the new end of file are stale; drop them. *)
      Option.iter
        (fun cache ->
          Cache.truncate_file cache ~file ~logical:(Volume.logical_bytes t.volume ~file))
        t.cache);
  (Done t.s.now, false)

(* Delete removes the file and immediately recreates it at the size it
   had — the paper's periodically deleted and recreated files.  The
   rebuilt file lands wherever the allocator now places it, so deletion
   churn relocates data (and ages the free lists) without deflating the
   population back toward its initial size. *)
let do_delete t user =
  t.s.alloc_ops <- t.s.alloc_ops + 1;
  match pick_file t user with
  | None -> (Done t.s.now, false)
  | Some file ->
      let size = Volume.logical_bytes t.volume ~file in
      record t ~file R_delete;
      Volume.delete t.volume ~file;
      (* Deleted data has nowhere to go: its dirty pages die with it. *)
      Option.iter (fun cache -> Cache.invalidate_file cache ~file) t.cache;
      Array.iter (fun u -> if u.file = file then u.file <- -1) t.s.users;
      let fresh =
        Volume.create_file t.volume ~type_idx:user.type_idx
          ~hint_bytes:user.ft.File_type.alloc_hint_bytes
      in
      record t ~file:fresh
        (R_create { hint = user.ft.File_type.alloc_hint_bytes; ty = user.type_idx });
      record t ~file:fresh (R_grow size);
      (match Volume.grow t.volume ~file:fresh ~bytes:size with
      | Ok () -> (Done t.s.now, false)
      | Error `Disk_full ->
          t.s.disk_fulls <- t.s.disk_fulls + 1;
          (Done t.s.now, true))

(* Perform one operation for [user]; returns (outcome, whether an
   allocation failed). *)
let perform t ~mode user =
  match mode with
  | Whole_file_rw ->
      let reads = user.ft.File_type.read_pct and writes = user.ft.File_type.write_pct in
      let kind =
        if reads + writes = 0 then Array_model.Read
        else if Rng.int user.rng (reads + writes) < reads then Array_model.Read
        else Array_model.Write
      in
      (do_read_write t user ~kind ~whole:true, false)
  | Alloc_only { governed } -> begin
      match File_type.pick_alloc_op user.ft user.rng with
      | File_type.Extend ->
          if governed && Volume.utilization t.volume >= t.cfg.upper_bound then
            do_truncate t user
          else do_extend t user ~with_io:false
      | File_type.Truncate -> do_truncate t user
      | File_type.Delete -> do_delete t user
      | File_type.Read | File_type.Write -> assert false
    end
  | Full_mix -> begin
      match File_type.pick_op user.ft user.rng with
      | File_type.Read -> (do_read_write t user ~kind:Array_model.Read ~whole:false, false)
      | File_type.Write -> (do_read_write t user ~kind:Array_model.Write ~whole:false, false)
      | File_type.Extend ->
          if Volume.utilization t.volume >= t.cfg.upper_bound then do_truncate t user
          else do_extend t user ~with_io:true
      | File_type.Truncate -> do_truncate t user
      | File_type.Delete -> do_delete t user
    end
  | Aging -> begin
      (* Bang-bang occupancy control: below the target every user grows;
         at or above it users deallocate, splitting delete vs. truncate
         by their file type's [delete_pct_of_deallocs].  Pure allocator
         bookkeeping — no disk events — so weeks of churn run at wall
         speed. *)
      match
        Aging_driver.pick ~utilization:(Volume.utilization t.volume)
          ~target:t.cfg.age_occupancy user.rng user.ft
      with
      | Aging_driver.Grow -> do_extend t user ~with_io:false
      | Aging_driver.Truncate -> do_truncate t user
      | Aging_driver.Delete -> do_delete t user
    end

(* ------------------------------------------------------------------ *)
(* Fault and rebuild events                                            *)

(* Pacing gap between successive rebuild I/Os; [0.] rebuilds flat-out
   (the next chunk issues at the previous one's completion). *)
let rebuild_gap_ms t =
  let c = t.cfg.faults in
  if c.Fault_plan.rebuild_rate_bytes_per_ms > 0. then
    float_of_int c.Fault_plan.rebuild_chunk_bytes /. c.Fault_plan.rebuild_rate_bytes_per_ms
  else 0.

(* Retry interval when a rebuild is blocked on a failed source drive. *)
let rebuild_retry_ms = 1_000.

(* Start a drive's rebuild tick chain unless one is already running
   (a heap tick or a queued-path continuation in [waiters]). *)
let kick_rebuild t ~drive ~at =
  if not t.s.rebuild_live.(drive) then begin
    t.s.rebuild_live.(drive) <- true;
    Heap.push t.s.heap ~prio:at t.s.rebuild_evs.(drive)
  end

(* Count a rebuild I/O and re-arm the drive's sweep: the next chunk
   issues once this one completes and the pacing gap has passed. *)
let rebuild_issued t ~drive outcome =
  t.s.rebuild_ios <- t.s.rebuild_ios + 1;
  mark t ~kind:Trc.Rebuild ~drive;
  let next_ok = t.s.now +. rebuild_gap_ms t in
  match outcome with
  | Done finish -> Heap.push t.s.heap ~prio:(Float.max finish next_ok) t.s.rebuild_evs.(drive)
  | Wait op -> Hashtbl.replace t.s.waiters (Array_model.op_id op) (Rebuild_waiter { drive; next_ok })

let apply_fault t = function
  | Fault_plan.Fail d ->
      Array_model.fail_drive t.array ~drive:d;
      mark t ~kind:Trc.Fault_fail ~drive:d
  | Fault_plan.Repair d -> begin
      Array_model.repair_drive t.array ~drive:d;
      mark t ~kind:Trc.Fault_repair ~drive:d;
      match Array_model.drive_state t.array ~drive:d with
      | `Rebuilding _ -> kick_rebuild t ~drive:d ~at:t.s.now
      | `Healthy | `Failed -> ()
    end

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

(* [stop ~failed] is consulted after every event.  A [Wake] performs the
   user's next operation; on the FCFS fast path its completion time is
   known immediately and the user's next wake is scheduled right away
   (byte-identical to the seed's loop — [Drive_done] events never occur
   there).  On the queued path the user parks in [waiters] until the
   dispatch queues finish the operation; a [Drive_done d] retires drive
   [d]'s in-service request at its completion time, starts the drive's
   next queued request per the scheduler, and wakes the blocked user
   when the whole operation is done. *)
let run_events t ~mode ~stop =
  (* Aging stretches think times so a simulated month stays tractable;
     [*. 1.] is exact, so every other mode's draws are bit-identical to
     the pre-aging engine. *)
  let think_scale = match mode with Aging -> t.cfg.age_think_scale | _ -> 1. in
  let wake_after t (user : user) ~completion =
    let think =
      Dist.exponential user.rng ~mean:(user.ft.File_type.process_time_ms *. think_scale)
    in
    Heap.push t.s.heap ~prio:(completion +. think) user.wake_ev
  in
  let rec loop () =
    if Heap.is_empty t.s.heap then ()
    else begin
      let time = Heap.min_prio t.s.heap in
      match Heap.take_min t.s.heap with
      | Wake user ->
        t.s.now <- Float.max t.s.now time;
        let outcome, failed = perform t ~mode user in
        (match outcome with
        | Done completion -> wake_after t user ~completion
        | Wait op -> Hashtbl.replace t.s.waiters (Array_model.op_id op) user.park);
        if not (stop ~failed) then loop ()
      | Drive_done d ->
        t.s.now <- Float.max t.s.now time;
        let op = Array_model.complete_flat t.array ~drive:d in
        (* Credit the newly dispatched request only if its operation
           still counts: metadata write-back, rebuild traffic and
           operations orphaned by a test-phase change carry no user
           waiter (rebuild chunks are parity and never credit). *)
        if Array_model.dispatched_len t.array > 0 then
          post_dispatched t
            ~credit:(Hashtbl.mem t.s.waiters (Array_model.dispatched_op_id t.array 0));
        (if Array_model.op_done op then begin
           let id = Array_model.op_id op in
           let finished = Array_model.op_finished op in
           match Hashtbl.find_opt t.s.waiters id with
           | Some (User_waiter user) ->
               Hashtbl.remove t.s.waiters id;
               observe_queued t op ~finished;
               wake_after t user ~completion:finished
           | Some Replay_waiter ->
               Hashtbl.remove t.s.waiters id;
               observe_queued t op ~finished;
               (match t.replay with
               | Some rs ->
                   rs.rs_outstanding <- rs.rs_outstanding - 1;
                   rs.rs_last_completion <- Float.max rs.rs_last_completion finished
               | None -> ())
           | Some (Rebuild_waiter { drive; next_ok }) ->
               Hashtbl.remove t.s.waiters id;
               Heap.push t.s.heap ~prio:(Float.max finished next_ok) t.s.rebuild_evs.(drive)
           | None -> ()
         end);
        if not (stop ~failed:false) then loop ()
      | Fault_tick ->
        t.s.now <- Float.max t.s.now time;
        (match t.s.pending_fault with
        | None -> ()
        | Some (_, action) ->
            apply_fault t action;
            t.s.pending_fault <-
              (match t.fault_plan with Some plan -> Fault_plan.pop plan | None -> None);
            (match t.s.pending_fault with
            | Some (at, _) -> Heap.push t.s.heap ~prio:(Float.max at t.s.now) Fault_tick
            | None -> ()));
        if not (stop ~failed:false) then loop ()
      | Rebuild_tick d ->
        t.s.now <- Float.max t.s.now time;
        (match Array_model.rebuild_step t.array ~now:t.s.now ~drive:d with
        | Array_model.Rebuild_idle | Array_model.Rebuild_done -> t.s.rebuild_live.(d) <- false
        | Array_model.Rebuild_blocked ->
            Heap.push t.s.heap ~prio:(t.s.now +. rebuild_retry_ms) t.s.rebuild_evs.(d)
        | Array_model.Rebuild_sync finish -> rebuild_issued t ~drive:d (Done finish)
        | Array_model.Rebuild_queued op -> rebuild_issued t ~drive:d (background t op));
        if not (stop ~failed:false) then loop ()
      | Flush_tick ->
        t.s.now <- Float.max t.s.now time;
        (match t.cache with
        | Some cache ->
            let runs = Cache.flush cache in
            List.iter (submit_writeback t) runs;
            (match t.obs with
            | Some sink when runs <> [] ->
                let bytes =
                  List.fold_left (fun acc (r : Cache.run) -> acc + r.Cache.r_len) 0 runs
                in
                Sink.record_cache_flush sink ~bytes;
                cache_mark t ~kind:Trc.Cache_flush ~bytes
            | Some _ | None -> ());
            Heap.push t.s.heap ~prio:(t.s.now +. Cache.flush_interval_ms cache) Flush_tick
        | None -> ());
        if not (stop ~failed:false) then loop ()
      | Replay_tick ->
        t.s.now <- Float.max t.s.now time;
        (match t.replay with
        | None -> ()
        | Some rs -> (
            match rs.rs_pending with
            | None -> ()
            | Some thunk ->
                rs.rs_pending <- None;
                List.iter (replay_issue t rs) (thunk ());
                (* One arrival tick outstanding at a time, like the fault
                   and flush chains. *)
                (match rs.rs_next () with
                | Some (at, next_thunk) ->
                    rs.rs_pending <- Some next_thunk;
                    Heap.push t.s.heap ~prio:(Float.max at t.s.now) Replay_tick
                | None -> ())));
        if not (stop ~failed:false) then loop ()
      | Ckpt_tick ->
        (* Never touches [t.s.now] and never consults [stop]: a snapshot
           tick must not change what the simulation computes.  The next
           tick is pushed before the hook runs, so the snapshot the hook
           writes already carries the live tick chain and a resumed run
           keeps the exact same cadence. *)
        (if t.s.ckpt_every_ms > 0. then begin
           t.s.ckpt_next <- time +. t.s.ckpt_every_ms;
           Heap.push t.s.heap ~prio:t.s.ckpt_next Ckpt_tick;
           match t.ckpt_hook with Some hook -> hook () | None -> ()
         end);
        loop ()
      | Stat_tick ->
        (* Like [Ckpt_tick]: never touches [t.s.now], never consults
           [stop], and pushes the next tick before sampling so a
           checkpoint taken by a later hook already carries the live
           chain. *)
        (if t.s.tl_every_ms > 0. then begin
           t.s.tl_next <- time +. t.s.tl_every_ms;
           Heap.push t.s.heap ~prio:t.s.tl_next Stat_tick;
           match t.timeline with
           | Some tl -> Timeline.tick tl (timeline_sample t)
           | None -> ()
         end);
        loop ()
    end
  in
  loop ()

let run_allocation_test t =
  let ops_at_start = t.s.alloc_ops in
  let failed_once = ref false in
  let stop ~failed =
    if failed then failed_once := true;
    failed || t.s.alloc_ops - ops_at_start > t.cfg.max_alloc_ops
  in
  run_events t ~mode:(Alloc_only { governed = false }) ~stop;
  {
    internal_frag = Volume.internal_fragmentation t.volume;
    external_frag = Volume.external_fragmentation t.volume;
    alloc_ops = t.s.alloc_ops - ops_at_start;
    utilization_at_end = Volume.utilization t.volume;
    failed = !failed_once;
  }

(* Bytes transferred by time [upto]: fully finished I/Os are folded into
   [bytes_completed]; I/Os still in service are credited linearly over
   their service interval, so long whole-file transfers contribute to the
   checkpoints they span rather than arriving as a lump at completion. *)
let bytes_transferred_by t ~upto =
  (* The seed iterated its in-flight list newest-first and rebuilt it by
     prepending survivors; on the flat arrays that is a descending scan
     compacted ascending into the spare buffer, then a buffer swap —
     the same visit order, so the partial-credit float sum is
     bit-identical. *)
  let partial = ref 0. in
  let kept = ref 0 in
  for i = t.s.fl_len - 1 downto 0 do
    let finish = t.s.fl_finish.(i) in
    if finish <= upto then t.s.bytes_completed <- t.s.bytes_completed + t.s.fl_bytes.(i)
    else begin
      let issue = t.s.fl_issue.(i) in
      let j = !kept in
      t.s.fl2_issue.(j) <- issue;
      t.s.fl2_finish.(j) <- finish;
      t.s.fl2_bytes.(j) <- t.s.fl_bytes.(i);
      kept := j + 1;
      if issue < upto && finish > issue then
        partial :=
          !partial +. (float_of_int t.s.fl_bytes.(i) *. (upto -. issue) /. (finish -. issue))
    end
  done;
  let si = t.s.fl_issue and sf = t.s.fl_finish and sb = t.s.fl_bytes in
  t.s.fl_issue <- t.s.fl2_issue;
  t.s.fl_finish <- t.s.fl2_finish;
  t.s.fl_bytes <- t.s.fl2_bytes;
  t.s.fl2_issue <- si;
  t.s.fl2_finish <- sf;
  t.s.fl2_bytes <- sb;
  t.s.fl_len <- !kept;
  float_of_int t.s.bytes_completed +. !partial

(* Drive a replay session to exhaustion.  [next] yields the arrival
   time of the next trace event together with a thunk that executes its
   semantics (volume mutation, cache notifications) and returns the
   physical transfers to issue; the engine paces arrivals through the
   heap so completions, queue waits, faults, rebuilds and cache flushes
   interleave exactly as they do under the stochastic drivers.
   Throughput is measured open-loop over [first arrival, last
   completion] with the same single-credit accounting as
   [run_measured]. *)
let run_replay t ~next =
  let rs =
    { rs_next = next; rs_pending = None; rs_outstanding = 0; rs_last_completion = t.s.now }
  in
  t.replay <- Some rs;
  t.s.bytes_completed <- 0;
  t.s.fl_len <- 0;
  let io_at_start = t.s.io_ops in
  let first = ref None in
  (match next () with
  | Some (at, thunk) ->
      first := Some at;
      rs.rs_pending <- Some thunk;
      Heap.push t.s.heap ~prio:(Float.max at t.s.now) Replay_tick
  | None -> ());
  let stop ~failed:_ = rs.rs_pending = None && rs.rs_outstanding = 0 in
  if not (stop ~failed:false) then run_events t ~mode:Full_mix ~stop;
  t.replay <- None;
  let first_ms = match !first with Some v -> v | None -> t.s.now in
  let last_ms = Float.max rs.rs_last_completion first_ms in
  let credited = bytes_transferred_by t ~upto:(Float.max last_ms t.s.now) in
  let elapsed = Float.max (last_ms -. first_ms) 1. in
  let rate = credited /. elapsed in
  {
    rp_pct_of_max = 100. *. rate /. max_bandwidth_pct_base t;
    rp_bytes_per_ms = rate;
    rp_bytes_moved = t.s.bytes_completed;
    rp_elapsed_ms = elapsed;
    rp_first_ms = first_ms;
    rp_last_ms = last_ms;
    rp_io_ops = t.s.io_ops - io_at_start;
  }

(* A measurement starts at [t.s.now]: counters are read relative to
   it and only bytes moved from here on are credited. *)
let start_measurement t =
  t.s.bytes_completed <- 0;
  t.s.fl_len <- 0;
  {
    ms_start = t.s.now;
    ms_io_at_start = t.s.io_ops;
    ms_fulls_at_start = t.s.disk_fulls;
    ms_meta_at_start = t.s.meta_bytes;
    ms_series = Stats.Series.create ~window:t.cfg.stable_windows ~tolerance:t.cfg.tolerance_pct;
    ms_next_checkpoint = t.s.now +. t.cfg.interval_ms;
    ms_checkpoints = 0;
  }

let run_measured t ~mode ms =
  let max_bw = max_bandwidth_pct_base t in
  let stop ~failed:_ =
    while t.s.now >= ms.ms_next_checkpoint do
      let transferred = bytes_transferred_by t ~upto:ms.ms_next_checkpoint in
      let elapsed = ms.ms_next_checkpoint -. ms.ms_start in
      let pct = 100. *. transferred /. elapsed /. max_bw in
      Stats.Series.add ms.ms_series pct;
      ms.ms_checkpoints <- ms.ms_checkpoints + 1;
      ms.ms_next_checkpoint <- ms.ms_next_checkpoint +. t.cfg.interval_ms
    done;
    (ms.ms_checkpoints > t.cfg.warmup_checkpoints + t.cfg.stable_windows
    && Stats.Series.is_stable ms.ms_series)
    || t.s.now -. ms.ms_start >= t.cfg.max_measure_ms
  in
  run_events t ~mode ~stop;
  let transferred = bytes_transferred_by t ~upto:t.s.now in
  let measured = Float.max (t.s.now -. ms.ms_start) 1. in
  let rate = transferred /. measured in
  {
    pct_of_max = 100. *. rate /. max_bw;
    bytes_per_ms = rate;
    measured_ms = measured;
    checkpoints = ms.ms_checkpoints;
    stabilized =
      ms.ms_checkpoints > t.cfg.warmup_checkpoints + t.cfg.stable_windows
      && Stats.Series.is_stable ms.ms_series;
    io_ops = t.s.io_ops - ms.ms_io_at_start;
    disk_fulls = t.s.disk_fulls - ms.ms_fulls_at_start;
    utilization = Volume.utilization t.volume;
    mean_extents_per_file = Volume.mean_extents_per_file t.volume;
    meta_bytes = t.s.meta_bytes - ms.ms_meta_at_start;
  }

(* Run the phase [t.s] holds to its end, then set the next one up and
   write it.  The fill is allocation-only churn until utilization
   reaches N; policies whose fragmentation prevents that plateau out (a
   run of failed allocations with no net growth) and measurement starts
   where they stalled.  Aging churns with [Aging]-mode events up to its
   horizon; the [Ckpt_tick] / [Stat_tick] chains keep firing inside the
   jump.  With aging off the fill hands straight over to the
   application test, with no extra events, RNG draws or [seed_events],
   so the frozen goldens stay byte-identical. *)
let advance t =
  match t.s.phase with
  | Filling fs ->
      let stop ~failed =
        if failed then fs.fs_fails <- fs.fs_fails + 1;
        let used = Volume.used_bytes t.volume in
        if used > fs.fs_best_used then begin
          fs.fs_best_used <- used;
          fs.fs_fails <- 0
        end;
        Volume.utilization t.volume >= t.cfg.lower_bound
        || fs.fs_fails > 500
        || t.s.alloc_ops - fs.fs_ops_at_start > t.cfg.max_alloc_ops
      in
      run_events t ~mode:(Alloc_only { governed = true }) ~stop;
      seed_events t;
      t.s.phase <-
        (if t.cfg.age_ms > 0. then Aging_until (t.s.now +. t.cfg.age_ms)
         else Application (start_measurement t))
  | Aging_until until ->
      run_events t ~mode:Aging ~stop:(fun ~failed:_ -> t.s.now >= until);
      seed_events t;
      t.s.phase <- Application (start_measurement t)
  | Application meas ->
      let app = run_measured t ~mode:Full_mix meas in
      seed_events t;
      t.s.phase <- Sequential { app; meas = start_measurement t }
  | Sequential { app; meas } ->
      t.s.phase <- Finished { app; seq = run_measured t ~mode:Whole_file_rw meas }
  | Finished _ -> ()

(* The phase runners advance the machine up to the end of their phase
   from wherever it is, so after a [restore] the same calls skip what
   the snapshot had finished and re-enter what it had not. *)
let fill_to_lower_bound t = match t.s.phase with Filling _ -> advance t | _ -> ()

let rec run_aging t =
  match t.s.phase with
  | Filling _ | Aging_until _ ->
      advance t;
      run_aging t
  | Application _ | Sequential _ | Finished _ -> ()

let rec run_application_test t =
  match t.s.phase with
  | Sequential { app; _ } | Finished { app; _ } -> app
  | Filling _ | Aging_until _ | Application _ ->
      advance t;
      run_application_test t

let rec run_sequential_test t =
  match t.s.phase with
  | Finished { seq; _ } -> seq
  | Filling _ | Aging_until _ | Application _ | Sequential _ ->
      advance t;
      run_sequential_test t

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)

(* The engine snapshot is a list of named opaque sections; the CLI
   wraps them in the checksummed [Rofs_ckpt.Ckpt] container.  One rule
   for every section that can follow it: the owner's checkpointed data
   is one closure-free record behind one mutable slot, saved with one
   [Marshal] and restored by swapping the decoded record in.  The
   engine's own section is [t.s]; the policy section is the allocator's
   [Policy.state]; the volume section is its [s]; the array section
   carries the fault state; the sink and cache sections are their [m] /
   [st] records (the cache's replacement order lives in its [st]).  The
   fault plan keeps hand-written save/load: its per-drive RNG streams
   restore in place. *)
(* Everything the simulated results depend on that is fixed at engine
   construction: resuming under a different configuration, policy or
   workload would silently compute garbage, so [restore] refuses when
   the digests differ.  [array_config] is a closure and enters through
   the printed description of the layout it builds. *)
let fingerprint t =
  let c = t.cfg in
  let p = Volume.policy t.volume in
  let array_desc =
    Format.asprintf "%a" Array_model.pp_config (c.array_config c.stripe_unit_bytes)
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( 10 (* fingerprint layout version *),
            (c.seed, c.disks, c.stripe_unit_bytes, array_desc, c.scheduler),
            ( c.lower_bound,
              c.upper_bound,
              c.interval_ms,
              c.stable_windows,
              c.tolerance_pct,
              c.max_measure_ms,
              c.max_alloc_ops,
              c.readahead_factor,
              c.warmup_checkpoints,
              c.metadata_io,
              c.shard_slices ),
            (c.age_ms, c.age_occupancy, c.age_think_scale),
            (c.faults, c.cache),
            ( p.Rofs_alloc.Policy.name,
              p.Rofs_alloc.Policy.unit_bytes,
              p.Rofs_alloc.Policy.total_units ),
            t.workload )
          []))

let sections t =
  [
    ("fingerprint", fingerprint t);
    ("engine", Marshal.to_string t.s []);
    ("policy", (Volume.policy t.volume).Rofs_alloc.Policy.ckpt_save ());
    ("volume", Volume.ckpt_save t.volume);
    ("array", Array_model.ckpt_save t.array);
    ("fault_plan", Marshal.to_string (Option.map Fault_plan.ckpt_save t.fault_plan) []);
    ("cache", Marshal.to_string (Option.map Cache.ckpt_save t.cache) []);
    ("obs", Marshal.to_string (Option.map Sink.ckpt_save t.obs) []);
    ("timeline", Marshal.to_string (Option.map Timeline.ckpt_save t.timeline) []);
  ]

let checkpoint t =
  if t.replay <> None then
    invalid_arg "Engine.checkpoint: a replay session cannot be checkpointed";
  if t.recorder <> None then
    invalid_arg "Engine.checkpoint: a recording engine cannot be checkpointed";
  sections t

(* Swap the snapshot's sections in one at a time, each checked as it
   loads; [restore] rolls back whatever a refusal left swapped in. *)
let load t sections =
  let sec name =
    match List.assoc_opt name sections with
    | Some payload -> payload
    | None -> invalid_arg (Printf.sprintf "snapshot: missing %S section" name)
  in
  if not (String.equal (sec "fingerprint") (fingerprint t)) then
    invalid_arg
      "snapshot: configuration fingerprint mismatch (resume must use the original run's \
       configuration, policy and workload)";
  let s = (Marshal.from_string (sec "engine") 0 : state) in
  if Array.length s.users <> Array.length t.s.users then
    invalid_arg "snapshot: user population mismatch";
  (Volume.policy t.volume).Rofs_alloc.Policy.ckpt_load (sec "policy");
  Volume.ckpt_load t.volume (sec "volume");
  Array_model.ckpt_load t.array (sec "array");
  (match (t.fault_plan, (Marshal.from_string (sec "fault_plan") 0 : string option)) with
  | Some plan, Some blob -> Fault_plan.ckpt_load plan blob
  | None, None -> ()
  | Some _, None | None, Some _ -> invalid_arg "snapshot: fault-plan configuration mismatch");
  (match (t.cache, (Marshal.from_string (sec "cache") 0 : string option)) with
  | Some cache, Some blob -> Cache.ckpt_load cache blob
  | None, None -> ()
  | Some _, None | None, Some _ -> invalid_arg "snapshot: cache configuration mismatch");
  (match (t.obs, (Marshal.from_string (sec "obs") 0 : string option)) with
  | Some sink, Some blob -> Sink.ckpt_load sink blob
  | None, None -> ()
  | Some _, None -> invalid_arg "snapshot: the original run had no metrics sink attached"
  | None, Some _ -> invalid_arg "snapshot: the original run had a metrics sink attached");
  (match (t.timeline, (Marshal.from_string (sec "timeline") 0 : string option)) with
  | Some tl, Some blob -> Timeline.ckpt_load tl blob
  | None, None -> ()
  | Some _, None -> invalid_arg "snapshot: the original run had no timeline attached"
  | None, Some _ -> invalid_arg "snapshot: the original run had a timeline attached");
  (* The snapshot's cadence wins: the tick chain in the restored heap
     was scheduled under it, and keeping it preserves bit-identity with
     the uninterrupted armed run even if the caller re-armed with a
     different interval (or none — the chain then continues with a
     no-op hook, keeping heap tie-breaking identical).  Only a snapshot
     that never armed one takes the caller's, and only when the caller
     armed one: copying an unarmed caller's 0. over the snapshot's
     changes nothing but the record's sharing, which would make a
     re-taken engine section differ from the one restored.  The
     telemetry cadence needs no such rule: timeline presence must match
     (checked above), so the snapshot always carries one. *)
  if s.ckpt_every_ms <= 0. && t.s.ckpt_every_ms > 0. then s.ckpt_every_ms <- t.s.ckpt_every_ms;
  t.s <- s

let restore t snapshot =
  if t.replay <> None then invalid_arg "Engine.restore: replay engines cannot be restored";
  let before = sections t in
  try load t snapshot
  with e ->
    load t before;
    raise e

(* ------------------------------------------------------------------ *)
(* Explicit fault control (benchmarks, tests)                          *)

let fail_drive t ~drive =
  Array_model.fail_drive t.array ~drive;
  mark t ~kind:Trc.Fault_fail ~drive

let repair_drive t ~drive =
  Array_model.repair_drive t.array ~drive;
  mark t ~kind:Trc.Fault_repair ~drive;
  match Array_model.drive_state t.array ~drive with
  | `Rebuilding _ -> kick_rebuild t ~drive ~at:t.s.now
  | `Healthy | `Failed -> ()

let cache_report t =
  Option.map
    (fun cache ->
      let s = Cache.stats cache in
      let cfg = match t.cfg.cache with Some c -> c | None -> assert false in
      {
        cr_policy = Rofs_cache.Policy.name cfg.Cache.policy;
        cr_write_mode = Cache.write_mode_name cfg.Cache.write_mode;
        cr_pages = cfg.Cache.pages;
        cr_page_bytes = cfg.Cache.page_bytes;
        cr_lookups = s.Cache.lookups;
        cr_hits = s.Cache.hits;
        cr_misses = s.Cache.misses;
        cr_hit_rate =
          (if s.Cache.lookups > 0 then
             float_of_int s.Cache.hits /. float_of_int s.Cache.lookups
           else 0.);
        cr_hit_bytes = s.Cache.hit_bytes;
        cr_insertions = s.Cache.insertions;
        cr_evictions = s.Cache.evictions;
        cr_dirty_evictions = s.Cache.dirty_evictions;
        cr_flushes = s.Cache.flushes;
        cr_writeback_bytes = s.Cache.writeback_bytes;
        cr_prefetched_pages = s.Cache.prefetched_pages;
        cr_invalidations = s.Cache.invalidations;
        cr_per_type =
          Array.mapi
            (fun i (hits, misses) -> (t.types.(i).File_type.name, hits, misses))
            (Cache.per_type cache);
      })
    t.cache

let fault_report t =
  let st = Array_model.fault_state t.array in
  let c = Fault.counters st in
  {
    drive_states =
      Array.init (Array_model.disks t.array) (fun d -> Array_model.drive_state t.array ~drive:d);
    data_loss = t.s.data_loss;
    media_errors = c.Fault.media_errors;
    retries = c.Fault.retries;
    remaps = c.Fault.remaps;
    remap_hits = c.Fault.remap_hits;
    reconstructed_reads = c.Fault.reconstructed_reads;
    degraded_writes = c.Fault.degraded_writes;
    dirty_bytes = Fault.dirty_bytes st;
    rebuild_ios = t.s.rebuild_ios;
  }

(* Allocator-internal write accounting, straight from the policy. *)
let churn_stats t = (Volume.policy t.volume).Rofs_alloc.Policy.churn_stats ()
