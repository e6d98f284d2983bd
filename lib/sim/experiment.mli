(** Ready-made experiment plumbing: build a policy, size it to the
    array, and run the paper's three tests. *)

type policy_spec =
  | Buddy of Rofs_alloc.Buddy.config
  | Restricted of Rofs_alloc.Restricted_buddy.config
  | Extent of Rofs_alloc.Extent_alloc.config
  | Fixed of Rofs_alloc.Fixed_block.config
  | Log_structured of Rofs_alloc.Log_structured.config
      (** the Section 6 extension; see {!Rofs_alloc.Log_structured} *)

val spec_unit_bytes : policy_spec -> int

val capacity_units : Engine.config -> unit_bytes:int -> int
(** Data capacity of the array the engine config describes, in units. *)

val build_policy :
  policy_spec -> total_units:int -> rng:Rofs_util.Rng.t -> Rofs_alloc.Policy.t

val make_engine :
  ?recorder:(Engine.recorded -> unit) ->
  ?config:Engine.config ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  Engine.t
(** Build array + policy + engine and run initialization; [recorder]
    (attached before initialization) captures the run as a trace. *)

val run_allocation :
  ?config:Engine.config -> policy_spec -> Rofs_workload.Workload.t -> Engine.alloc_report
(** The fragmentation (allocation) test of Section 3. *)

(** {1 The throughput driver}

    {!run_sharded} is the one code path that runs Section 3's
    stochastic throughput protocol end to end: fill to the lower
    utilization bound, age ([config.age_ms]), run the application test
    to stabilization, then the sequential test on the same aged system.
    A serial run is the one-slice case ([config.shard_slices = 1]);
    {!run_throughput}, {!run_seeds} and the CLI are projections of it.

    With [shard_slices = k > 1] the run splits into [k] independent
    sub-simulations: the drives are partitioned into contiguous index
    ranges (sizes as equal as integer division allows), the workload
    with {!Rofs_workload.Workload.partition} (weighted by each slice's
    disk count), and each slice runs the whole protocol on its own
    engine, with an RNG stream derived from [(config.seed, slice)].
    The decomposition is a pure function of the config — [shards] only
    sets how many domains execute the slices — and the per-slice
    results fold in fixed slice order, so the merged report is
    {e byte-identical at every shard count}. *)

type sharded_report = {
  s_application : Engine.throughput_report;  (** merged application-test report *)
  s_sequential : Engine.throughput_report;  (** merged sequential-test report *)
  s_cache : Engine.cache_report option;
      (** summed cache counters; [None] when the config has no cache *)
  s_fault : Engine.fault_report;
      (** summed fault counters; [drive_states] concatenates the slices'
          drives in slice order *)
  s_churn : Rofs_alloc.Policy.churn_stats;  (** summed allocator churn counters *)
  s_drives : Engine.drive_report array;
      (** one report per drive of the whole array: the slices' reports
          concatenated in slice order, renumbered array-wide (slice [i]'s
          local drive [d] is drive [d] plus the drive count of slices
          [0 .. i-1]) *)
  s_sink : Rofs_obs.Sink.t option;
      (** per-slice sinks folded in slice order by [Sink.merge
          ~drive_offset]: histograms merge, per-drive statistics and
          trace-event drive ids follow the [s_drives] numbering; [None]
          unless [instrument] *)
  s_timeline : Rofs_obs.Timeline.t option;
      (** per-slice timelines folded with [Timeline.merge] in slice
          order (per-drive columns concatenate like [s_drives]); [None]
          unless [timeline_every_ms] *)
  s_slices : int;  (** the decomposition width ([config.shard_slices]) *)
  s_shards : int;  (** the execution width actually used *)
}
(** A one-slice run's report is that engine's own, unmerged.  Merge
    rules otherwise: additive counters sum; rates sum (slices run side
    by side) and [pct_of_max] is the summed rate against the summed
    per-slice bandwidth; [measured_ms] / [checkpoints] take the max;
    [stabilized] holds iff every slice stabilized; [utilization] is
    capacity-weighted and [mean_extents_per_file] file-count-weighted. *)

val run_sharded :
  ?config:Engine.config ->
  ?shards:int ->
  ?instrument:bool ->
  ?trace:bool ->
  ?recorder:(Engine.recorded -> unit) ->
  ?timeline_every_ms:float ->
  ?ckpt_every_ms:float ->
  ?ckpt_save:(slice:int -> (string * string) list -> unit) ->
  ?ckpt_resume:(slice:int -> (string * string) list option) ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  sharded_report
(** Run the throughput protocol as [config.shard_slices] slices on
    [shards] domains (default 1).  Each slice's engine is built by
    {!make_engine} from the slice's config and sub-workload.

    - [instrument] attaches a sink to every slice ([trace] also records
      its bounded event trace); attaching never changes simulated
      results.
    - [recorder] (one-slice runs only) is attached before
      initialization and detached before the sequential test, so the
      recorded trace covers initialization, fill, aging and the
      application test.
    - [timeline_every_ms] attaches a {!Rofs_obs.Timeline} to every
      slice.
    - Checkpointing is per slice: with [ckpt_every_ms] and [ckpt_save],
      each slice arms {!Engine.set_checkpoint} with a hook calling
      [ckpt_save ~slice:i] on its {!Engine.checkpoint} sections;
      [ckpt_save] alone writes one final snapshot per slice after the
      sequential test, so a finished slice resumes instantly.
      [ckpt_resume ~slice:i] is consulted once per slice before the run;
      [Some sections] restores them, [None] starts the slice fresh.
    @raise Invalid_argument if [shards < 1], [config] is invalid,
    [shard_slices] exceeds [disks], a [recorder] is given for more than
    one slice, or the workload is too small to give every slice at
    least one file and user. *)

val run_throughput :
  ?config:Engine.config ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  Engine.throughput_report * Engine.throughput_report
(** Fill to N, age, then (application report, sequential report): the
    one-slice {!run_sharded} run of [config] (its [shard_slices] is
    ignored). *)

val run_seeds :
  ?config:Engine.config ->
  ?jobs:int ->
  ?instrument:bool ->
  seeds:int list ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  sharded_report array
(** One one-slice {!run_sharded} report per seed, in seed order.  Each
    seed's run builds its own RNG, policy and engine (and sink, with
    [instrument]), so runs are fully independent; with [jobs > 1] they
    run concurrently on a {!Rofs_par.Pool} and each report is identical
    to a serial run's.  Folding the sinks with [Sink.merge] in array
    order gives histograms bit-identical at every [jobs] count.
    @raise Invalid_argument on an empty seed list. *)

type summary = { mean : float; stddev : float; runs : int }
(** Aggregate of one metric over repeated runs. *)

val run_throughput_seeds :
  ?config:Engine.config ->
  ?jobs:int ->
  seeds:int list ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  summary * summary
(** Repeat the throughput pair once per seed and summarize the
    application and sequential percentages — mean and (unbiased) sample
    deviation.  Useful for stating how sensitive a configuration's
    numbers are to the stochastic draws.

    [jobs] (default {!Rofs_par.Pool.default_jobs}, i.e. [ROFS_JOBS] or
    1) fans the per-seed simulations across that many domains.  The
    per-seed samples are folded in seed order regardless of job count,
    so the result is {e byte-identical} to the serial path — [~jobs:4]
    and [~jobs:1] agree bit for bit (enforced by [test/test_par.ml]'s
    frozen goldens).  Raises [Invalid_argument] on an empty seed list. *)

type matrix_cell = {
  m_policy : string;
  m_workload : string;
  m_application : summary;
  m_sequential : summary;
}
(** One (policy, workload) cell of a replicated grid. *)

val run_matrix :
  ?config:Engine.config ->
  ?jobs:int ->
  seeds:int list ->
  policies:(string * (Rofs_workload.Workload.t -> policy_spec)) list ->
  Rofs_workload.Workload.t list ->
  matrix_cell list
(** Run every (policy, workload, seed) cell of the grid — policies may
    depend on the workload, as the paper's extent ranges and fixed block
    sizes do — and summarize each (policy, workload) pair over its
    seeds.  The whole grid is one flat task list on the pool, so cells
    load-balance across domains; output order (policy-major,
    workload-minor) and every value are independent of [jobs].  Raises
    [Invalid_argument] if any of the three axes is empty. *)
