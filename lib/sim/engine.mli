(** The event-driven stochastic workload simulator (Section 2).

    One engine owns a disk array, a volume (allocation policy) and a
    workload.  Events — one per simulated user — live in a heap keyed on
    scheduled time; processing an event selects an operation from its
    file type's read/write/extend/deallocate mix, performs it against the
    allocator and the disk system, and reschedules the event at the
    operation's completion plus an exponentially distributed think time
    (Table 2's process time).

    Tests, mirroring Section 3:
    {ul
    {- {!run_allocation_test}: only extend / truncate / delete (with
       re-creation) operations, no disk timing; ends at the first
       allocation failure and reports internal / external fragmentation.}
    {- {!fill_to_lower_bound}: the same allocation-only churn, with the
       utilization governor active, until the disk reaches the lower
       utilization bound N (or allocation failures show it cannot get
       closer — high-fragmentation policies plateau below N, in which
       case measurement simply starts at the plateau).}
    {- {!run_application_test}: the full operation mix with disk timing;
       extends above the upper bound M convert to truncates; runs until
       the cumulative throughput at three consecutive 10-second
       checkpoints agrees within 0.1 percentage points, or the time cap.}
    {- {!run_sequential_test}: whole-file reads and writes only, in the
       type's read:write proportion.}}

    The last three, with {!run_aging} between fill and application,
    run once each, in that order: each advances the engine to the end of
    its phase from wherever it is (running earlier phases first) and
    returns at once, with the stored report, when the phase is over.
    So the same calls finish a fresh run and a {!restore}d one.

    Throughput is reported as a percentage of the array's maximum
    sequential bandwidth, the paper's metric. *)

type config = {
  seed : int;
  disks : int;
  stripe_unit_bytes : int;
  array_config : int -> Rofs_disk.Array_model.config;
      (** array layout from the stripe unit; default builds [Striped] *)
  scheduler : Rofs_sched.Policy.t;
      (** per-drive request scheduler (default [Fcfs]).  [Fcfs] keeps
          the seed semantics — completion times computed at submission
          against each drive's busy clock, byte-identical with the
          original implementation (not the same results as FCFS
          dispatch queues: crediting, RNG draw order and mirrored arm
          choice differ).  [Sstf] / [Scan] / [Clook] switch
          the engine to the dispatch-queue model: every drive owns a
          pending-request queue, the engine posts per-drive completion
          events into its event heap, and the policy reorders queued
          requests whenever an arm falls idle. *)
  lower_bound : float;  (** N: utilization reached before measuring (0.90) *)
  upper_bound : float;  (** M: utilization cap during measurement (0.95) *)
  interval_ms : float;  (** throughput checkpoint spacing (10 s) *)
  stable_windows : int;  (** checkpoints that must agree (3) *)
  tolerance_pct : float;  (** agreement tolerance, percentage points (0.1) *)
  max_measure_ms : float;  (** cap on measured simulated time per test *)
  max_alloc_ops : int;  (** safety cap for allocation-only phases *)
  readahead_factor : int;
      (** read-ahead / write-behind multiplier for sequentially scanned
          files: the engine transfers this many bursts per disk visit and
          serves the intervening bursts from memory — the paper's
          "read ahead and write behind are used to achieve full stripe
          reads and writes" (via [STON89]).  1 disables it. *)
  warmup_checkpoints : int;
      (** checkpoints discarded before the stabilization rule may fire,
          so a lucky early coincidence does not end a test *)
  metadata_io : bool;
      (** charge a one-unit metadata write (to the file's descriptor
          location) for every extent the allocator creates — the paper's
          introduction criticizes fixed-block systems for "excessive
          amounts of meta data", and this makes that bandwidth visible.
          Off by default: the paper's own evaluation excludes it. *)
  faults : Rofs_fault.Plan.config;
      (** fault-injection plan: whole-drive failures and repairs
          (scripted or exponential MTTF/MTTR), transient media errors
          with retry / sector-remap, and online-rebuild pacing.  The
          default {!Rofs_fault.Plan.none} disables everything and keeps
          the engine byte-identical to one without a fault subsystem. *)
  cache : Rofs_cache.Cache.config option;
      (** shared block buffer cache.  When set, application-test reads
          and writes go through it: resident pages complete from
          memory, misses fault in as one coalesced page-aligned fetch,
          sequential scans trigger shared prefetch (subsuming the
          per-user [readahead_factor] windows, which only apply
          uncached), and write-back mode absorbs writes with dirty
          pages flushed on eviction or a periodic tick.  The default
          [None] keeps every code path byte-identical to the seed —
          the frozen goldens pin this. *)
  shard_slices : int;
      (** fixed decomposition width of [Experiment.run_sharded]
          (default 4): the
          run is always split into exactly this many independent slices
          regardless of [--shards] (which only sets how many domains
          execute them), so sharded results are byte-identical at every
          shard count.  Ignored by the serial entry points ({!create},
          {!run_application_test}, ...), which always simulate the whole
          configured system. *)
  age_ms : float;
      (** fast-forward aging: simulated milliseconds of create / grow /
          delete churn run between the fill phase and the application
          test, fragmenting the free list the way weeks of production
          churn would.  Aging epochs are allocator-only (no per-op disk
          events), so simulating a month costs minutes.  0 (the
          default) disables the phase entirely and keeps every code
          path byte-identical to an engine without it — the frozen
          goldens pin this. *)
  age_occupancy : float;
      (** target volume occupancy the aging churn oscillates around
          (fraction in (0, 1), default 0.90): below it users grow
          files, at or above it they delete / truncate per their file
          type's [delete_pct_of_deallocs] (see {!Rofs_workload.Aging}). *)
  age_think_scale : float;
      (** divisor-free multiplier (>= 1, default 1) applied to think
          times during aging only, letting one simulated aging hour
          stand for [age_think_scale] hours of real churn without
          changing the per-op RNG stream shape.  1 is IEEE-exact
          ([x *. 1. = x]), so non-aging runs are unaffected. *)
}

val default_config : config
(** Paper defaults: 8 disks, 24K (one-track) stripe unit, N=0.90,
    M=0.95, 10-second checkpoints, 3 windows at 0.1, 15-minute simulated
    cap, 5M-op allocation cap, 4-burst read-ahead, no faults. *)

val validate_config : ?shards:int -> config -> unit
(** Raises [Invalid_argument] with a one-line message on the first
    nonsensical field (bounds out of order or outside (0, 1],
    non-positive or non-finite interval / tolerance / caps, non-positive
    windows, a read-ahead factor below 1, a non-positive
    [shard_slices], or an invalid fault plan).  [shards]
    — an [Experiment.run_sharded] execution width to validate alongside the config
    (CLI front ends pass the [--shards] value here) — must be positive
    when given.  {!create} calls this. *)

type alloc_report = {
  internal_frag : float;  (** fraction of allocated space unused *)
  external_frag : float;  (** fraction of total space free at failure *)
  alloc_ops : int;
  utilization_at_end : float;
  failed : bool;  (** false if the op cap was hit before any failure *)
}

type throughput_report = {
  pct_of_max : float;  (** cumulative throughput, % of max bandwidth *)
  bytes_per_ms : float;
  measured_ms : float;
  checkpoints : int;
  stabilized : bool;
  io_ops : int;
  disk_fulls : int;
  utilization : float;
  mean_extents_per_file : float;
  meta_bytes : int;  (** metadata traffic charged (0 unless [metadata_io]) *)
}

type cache_report = {
  cr_policy : string;  (** replacement policy name ("lru" / "clock" / "2q") *)
  cr_write_mode : string;  (** "through" / "back" *)
  cr_pages : int;
  cr_page_bytes : int;
  cr_lookups : int;  (** pages examined — [cr_hits + cr_misses] *)
  cr_hits : int;
  cr_misses : int;
  cr_hit_rate : float;  (** [hits / lookups], 0 when nothing was looked up *)
  cr_hit_bytes : int;  (** requested bytes served from memory *)
  cr_insertions : int;
  cr_evictions : int;
  cr_dirty_evictions : int;
  cr_flushes : int;  (** periodic flush cycles that found dirty pages *)
  cr_writeback_bytes : int;  (** dirty bytes pushed out (evictions + flushes) *)
  cr_prefetched_pages : int;
  cr_invalidations : int;  (** pages dropped by delete / truncate *)
  cr_per_type : (string * int * int) array;
      (** per file type: (name, hits, misses) *)
}

type fault_report = {
  drive_states : [ `Healthy | `Failed | `Rebuilding of float ] array;
      (** per drive; [`Rebuilding f] carries the resynchronised fraction *)
  data_loss : int;
      (** operations that needed data no surviving drive could provide *)
  media_errors : int;  (** chunk requests that suffered a transient error *)
  retries : int;  (** re-read attempts (one revolution each) *)
  remaps : int;  (** sectors relocated to the spare region *)
  remap_hits : int;  (** later accesses touching a remapped sector *)
  reconstructed_reads : int;  (** degraded reads (failover or reconstruction) *)
  degraded_writes : int;  (** writes that skipped a dead arm *)
  dirty_bytes : int;  (** bytes degraded writes could not put on dead drives *)
  rebuild_ios : int;  (** background rebuild I/Os issued *)
}

type drive_report = {
  dr_drive : int;
  dr_requests : int;
  dr_bytes : int;  (** bytes this drive moved (including redundancy traffic) *)
  dr_seeks : int;
  dr_busy_ms : float;
  dr_utilization : float;  (** busy fraction of simulated time so far *)
  dr_seek_ms : float;
  dr_rotation_ms : float;
  dr_transfer_ms : float;
  dr_queue_mean : float;  (** mean sampled dispatch-queue depth (0 without a sink) *)
  dr_queue_max : int;  (** max sampled dispatch-queue depth (0 without a sink) *)
}
(** Per-drive activity: request/byte counters and the busy-time
    decomposition come from the drives themselves (always maintained);
    the queue-depth columns come from the attached sink and read 0 when
    no sink is attached. *)

type t

(** {1 Trace recording}

    A recorder observes the operations the engine actually executes, at
    the level where the stateless-per-op stack begins: uncached reads
    and writes are recorded post-window (the staged transfer, not the
    logical burst a read-ahead window absorbed — window hits are not
    recorded at all), cached ones pre-cache (so replaying through an
    identical cache reproduces its hit pattern).  [R_grow] is
    allocation without a transfer — initial population and fill churn;
    [R_extend] is grow-then-write.  Attaching a recorder never changes
    simulated results: no RNG draws, no float arithmetic. *)

type recorded_op =
  | R_read of { off : int; len : int }
  | R_write of { off : int; len : int }
  | R_extend of int  (** bytes appended and written *)
  | R_grow of int  (** bytes allocated, no transfer *)
  | R_truncate of int
  | R_delete
  | R_create of { hint : int; ty : int }
      (** created empty; growth arrives as separate [R_grow]/[R_extend]
          steps, preserving the interleaved allocation order *)

type recorded = { rec_time_ms : float; rec_file : int; rec_op : recorded_op }

val create :
  ?recorder:(recorded -> unit) ->
  config ->
  policy:Rofs_alloc.Policy.t ->
  workload:Rofs_workload.Workload.t ->
  t
(** Builds the array, volume and user events, and runs the two-phase
    initialization: events get start times uniform on
    [0, users * hit_frequency]; files are created at their drawn initial
    sizes.  Raises [Failure] if the initial population does not fit.
    [recorder] is attached before the population is built, so the
    resulting trace reproduces the initial layout too. *)

val set_recorder : t -> (recorded -> unit) option -> unit
(** Attach or detach the recorder mid-run (e.g. record the application
    test only). *)

(** {1 Trace replay}

    A replay engine owns the same array / volume / cache / fault stack
    but no stochastic users: the population and every operation come
    from a trace, paced through the event heap, so completions, queue
    waits, degraded reads and cache hits behave exactly as under the
    stochastic drivers. *)

(** One physical transfer a replay driver wants issued.  [rio_cached]
    routes it through the shared cache when one is configured (trace
    reads and writes); extend-writes bypass it, as [do_extend] does. *)
type replay_io = {
  rio_kind : Rofs_disk.Array_model.kind;
  rio_file : int;  (** volume file id *)
  rio_off : int;
  rio_len : int;
  rio_type_idx : int;
  rio_cached : bool;
}

type replay_outcome = {
  rp_pct_of_max : float;  (** credited bytes over [elapsed], % of max bandwidth *)
  rp_bytes_per_ms : float;
  rp_bytes_moved : int;
  rp_elapsed_ms : float;  (** last completion - first arrival, >= 1 *)
  rp_first_ms : float;
  rp_last_ms : float;
  rp_io_ops : int;
}

val create_replay :
  config -> policy:Rofs_alloc.Policy.t -> workload:Rofs_workload.Workload.t -> t
(** An engine with an empty volume and no users; [workload] supplies
    only the file-type table (per-type cache counter names and the type
    count sizing the volume). *)

val run_replay : t -> next:(unit -> (float * (unit -> replay_io list)) option) -> replay_outcome
(** Drive a replay to exhaustion.  [next] yields the next trace event's
    arrival time and a thunk executing its semantics (volume mutation,
    cache notifications) and returning the transfers to issue; arrivals
    are paced open-loop through the event heap, one outstanding arrival
    tick at a time.  Throughput uses the same single-credit accounting
    as the measured tests: cache hits and window hits are never credited
    twice. *)

val cache_note_truncate : t -> file:int -> unit
(** Drop cached pages past the (already truncated) end of [file] —
    what the stochastic truncate path does. *)

val cache_note_delete : t -> file:int -> unit
(** Drop every cached page of a deleted [file]. *)

val volume : t -> Volume.t
val array_model : t -> Rofs_disk.Array_model.t
val max_bandwidth_pct_base : t -> float
(** Bytes/ms corresponding to 100%. *)

val run_allocation_test : t -> alloc_report
val fill_to_lower_bound : t -> unit

val run_aging : t -> unit
(** Fast-forward aging phase: [config.age_ms] of allocator-only churn
    driven by {!Rofs_workload.Aging.pick} between
    {!fill_to_lower_bound} and {!run_application_test}.  A no-op when
    [age_ms = 0].  The churn runs through the normal event heap, so
    armed checkpoint / timeline cadences keep firing inside the jump
    and a mid-aging snapshot resumes bit-identically. *)

val run_application_test : t -> throughput_report
val run_sequential_test : t -> throughput_report

val churn_stats : t -> Rofs_alloc.Policy.churn_stats
(** Allocator-internal data-movement accounting so far (user units
    written, units relocated by the LFS cleaner, cleaner passes) —
    feeds the write-cost-per-user-byte metric. *)

(** {1 Checkpoint / restore}

    A checkpoint captures the {e complete} simulation state — engine
    clock and counters, every RNG stream, the event heap, the waiter
    table, per-user state, allocator and volume state, the array's
    drives / dispatch queues / in-service requests, fault-plan cursors
    and drive health, cache contents and dirty tracking, and the
    attached metrics sink — as a list of named opaque sections (wrap
    them in [Rofs_ckpt.Ckpt] for a checksummed, atomically written
    file).  A restored run continues {e byte-identically}: reports,
    fault counters, cache counters and serialized sinks all match an
    uninterrupted run of the same engine bit for bit.

    Arming periodic checkpoints inserts [Ckpt_tick] events into the
    heap, which can re-order simultaneous events relative to an unarmed
    run; the determinism guarantee is therefore between armed runs
    (resumed vs. uninterrupted, at the same [every_ms]).  Replay and
    recording engines hold closures and cannot be checkpointed. *)

val checkpoint : t -> (string * string) list
(** Snapshot the full simulation state as named sections.  Callable at
    any point: before, between or after the phases, or from a
    {!set_checkpoint} hook mid-phase; the snapshot names exactly what
    comes next.  Taken
    right after {!restore}, it reproduces the restored snapshot byte
    for byte, section by section.
    @raise Invalid_argument on a replay or recording engine. *)

val restore : t -> (string * string) list -> unit
(** Load a {!checkpoint} into a freshly created engine of the {e same}
    configuration, policy and workload.  The engine takes the
    snapshot's phase, so the phase runners skip what it had finished
    and re-enter the phase it was in, mid-loop.  [t] stays the value the caller holds, so
    hook closures capturing it and the attached sink and timeline keep
    working; what they hold inside is replaced by the snapshot's (the
    engine's state record, the sink's histograms and trace ring, the
    cache contents, the array's fault state), so values read from them
    before the restore are stale.
    @raise Invalid_argument with a one-line message when a section is
    missing or the snapshot's configuration fingerprint, cache /
    fault-plan / sink / timeline presence, trace ring or user
    population does not match [t].  A refused restore changes nothing:
    [t] reloads the snapshot it took of itself on entry, so every
    section is as it was (values read from inside it are stale). *)

val set_checkpoint : t -> every_ms:float -> (unit -> unit) -> unit
(** Arm periodic checkpointing: every [every_ms] of simulated time the
    hook runs (typically writing [checkpoint t] to a file).  The next
    tick is already in the heap when the hook fires, so snapshots carry
    the live tick chain and resumed runs keep the exact cadence.  Call
    {e before} {!restore} when resuming: the restore supersedes the
    initial tick with the snapshot's own chain.
    @raise Invalid_argument unless [every_ms] is finite and positive. *)

val fingerprint : t -> string
(** Digest of everything fixed at construction that simulated results
    depend on (config scalars, array layout, scheduler, fault plan,
    cache config, policy identity and geometry, workload).  {!restore}
    refuses a snapshot whose fingerprint differs. *)

val fail_drive : t -> drive:int -> unit
(** Fail a drive explicitly (benchmarks; the fault plan does this by
    itself for scripted / exponential failures).  Operations mapped
    afterwards route around the dead arm or are counted as data loss. *)

val repair_drive : t -> drive:int -> unit
(** Return a failed drive to service and, on redundant layouts, start
    the online rebuild: background reconstruction I/Os issued through
    the normal dispatch path, competing with foreground work, paced by
    [faults.rebuild_rate_bytes_per_ms]. *)

val fault_report : t -> fault_report
(** Everything the fault subsystem did so far. *)

val cache_report : t -> cache_report option
(** Buffer-cache counters so far; [None] when [config.cache] is
    [None]. *)

(** {1 Instrumentation}

    Pay-for-what-you-use: with no sink attached the engine records
    nothing and allocates nothing extra, and attaching one never changes
    simulated results (RNG draws, event order and float arithmetic are
    untouched — the frozen goldens pin this). *)

val attach_obs : t -> Rofs_obs.Sink.t -> unit
(** Attach [sink] to the engine and its disk array.  Per-operation
    latencies (end-to-end, with queue-wait / seek / rotation / transfer
    breakdown), per-drive seek-distance and queue-depth samples, fault
    penalties, and — when the sink traces — arrival / dispatch /
    completion / fault / rebuild events all flow into it.  Attach before
    running a test; attaching mid-run simply starts recording from that
    point. *)

val obs : t -> Rofs_obs.Sink.t option

val attach_timeline : t -> every_ms:float -> unit
(** Arm windowed time-series telemetry: every [every_ms] of simulated
    time a sampling tick closes the next {!Rofs_obs.Timeline} window
    (per-window op / byte / cache counters, a per-window latency
    histogram, per-drive busy and queue-depth columns, fault state and
    allocator free-space gauges).  Attach before running — windows are
    aligned to absolute simulated time from 0.  Like {!set_checkpoint},
    arming inserts tick events that can re-order simultaneous events
    against an unarmed run, so the determinism contract is between
    armed runs (the frozen goldens for runs {e without} a timeline are
    untouched); when resuming, call this before {!restore} with the
    original cadence — the snapshot's own tick chain supersedes the
    initial tick.
    @raise Invalid_argument if [every_ms] is not finite and positive
    or a timeline is already attached. *)

val timeline : t -> Rofs_obs.Timeline.t option
(** The attached timeline, for export after the run. *)

val drive_reports : t -> drive_report array
(** One report per drive, reflecting activity up to the current
    simulated time.  Available with or without a sink (queue-depth
    columns need one). *)
