(** A logical disk built from several drives.

    Section 2.1: the disk system may be configured as a plain striped
    array (the configuration used for all of the paper's results), a set
    of mirrored disks, a RAID (rotating block parity), or Gray's parity
    striping where files live on single disks but parity is spread.

    The array exposes a flat byte address space of its {e data} capacity
    and maps an operation on a list of logical extents to chunk requests
    on individual drives (drives work in parallel; each drive serialises
    its own requests).  It serves them on one of two paths, chosen by its
    scheduler ({!synchronous}): FCFS arrays serve each operation whole on
    submission ({!serve_extents}); the others queue its chunks per drive
    ({!submit_flat} / {!complete_flat}).  Both paths issue every chunk
    through one per-chunk service routine. *)

type config =
  | Striped of { stripe_unit : int }
      (** RAID-0: [stripe_unit] bytes per disk, round-robin. *)
  | Mirrored of { stripe_unit : int }
      (** Adjacent drive pairs hold identical data; data is striped
          across the pairs.  Reads pick the less busy arm, writes pay
          both. *)
  | Raid5 of { stripe_unit : int }
      (** N-1 data units plus one parity unit per stripe row, parity
          rotating across drives.  Writes pay a read-modify-write on the
          data drive and on the parity drive. *)
  | Parity_striped
      (** Gray's parity striping: drives are concatenated (no striping),
          so a file's blocks live on one drive; writes also update a
          parity region on a rotating partner drive. *)

type kind = Read | Write

type t

val create :
  ?geometry:Geometry.t ->
  ?seed:int ->
  ?scheduler:Rofs_sched.Policy.t ->
  ?faults:Rofs_fault.Plan.config ->
  disks:int ->
  config ->
  t
(** [create ~disks config] builds an array of [disks] identical drives
    (default {!Geometry.cdc_wren_iv}).  [seed] (default 0) drives the
    rotational-latency draws.  [scheduler] (default [Fcfs]) selects the
    per-drive dispatch policy used by the queued path ({!submit_flat} /
    {!complete_flat}); the synchronous {!serve_extents} path is FCFS by
    construction.  [faults] (default {!Rofs_fault.Plan.none}) configures
    the media-error model and rebuild pacing; with the default, the
    array behaves byte-identically to one without a fault subsystem. *)

val create_mixed :
  ?seed:int ->
  ?scheduler:Rofs_sched.Policy.t ->
  ?faults:Rofs_fault.Plan.config ->
  geometries:Geometry.t list ->
  config ->
  t
(** Heterogeneous array (Section 2.1 allows "multiple heterogeneous
    devices").  Addressing is uniform, so each drive contributes the
    capacity of the {e smallest} drive; each services its requests with
    its own seek/rotation parameters, so slow drives straggle striped
    transfers.  Requires at least one geometry. *)

val config : t -> config
val disks : t -> int

val synchronous : t -> bool
(** The array serves on the synchronous path: its scheduler is FCFS.
    Callers that drive an array (the engine) pick {!serve_extents} over
    {!submit_flat} by this; {!rebuild_step} does too. *)

val capacity_bytes : t -> int
(** Usable data capacity (excludes mirrors and parity). *)

val max_bandwidth_bytes_per_ms : t -> float
(** Sustained sequential {e data} bandwidth of the whole array — the
    denominator for the paper's "percent of maximum throughput" metric.
    For the default 8-drive striped Wren IV array this is the paper's
    10.8 M/s. *)

val serve_extents : t -> now:float -> kind:kind -> extents:(int * int) list -> unit
(** Synchronous path: perform one logical operation touching the given
    [(offset, bytes)] data extents (in order), each chunk as soon as its
    drive's busy clock allows.  Chunks destined to distinct drives
    proceed in parallel; chunks on one drive are serialised in extent
    order.  The operation's window is left in {!last_began} /
    {!last_finished} rather than returned. *)

val last_began : t -> float
(** When the last {!serve_extents} operation's first byte started moving
    (after any queueing behind earlier operations). *)

val last_finished : t -> float
(** When the last {!serve_extents} operation's last drive completed. *)

val time_of : t -> kind:kind -> extents:(int * int) list -> float
(** Duration {!serve_extents} would take on an otherwise idle,
    just-reset, {e fault-free} array; convenience for unit tests and
    analytic checks (no state change). *)

(** {1 Dispatch-queue path}

    The alternative to {!serve_extents} for engines that model per-drive
    queueing for real: {!submit_flat} splits an operation into per-drive
    chunk requests and leaves them on each drive's dispatch queue; the
    scheduler policy picks which pending request an idle arm serves
    next, so a later-arriving request can be reordered ahead of queued
    ones (SSTF / SCAN / C-LOOK).  The caller owns the clock: the requests
    a call started sit in an internal flat buffer read through the
    [dispatched_*] accessors (valid indices are
    [0 .. dispatched_len - 1], until the next [submit_flat] /
    [complete_flat] on this array); the caller must call
    {!complete_flat} on [dispatched_drive] when [dispatched_finished]
    arrives, and schedule whatever that call starts in turn.  Do not mix
    {!serve_extents} and {!submit_flat} on one array: both move the same
    arms. *)

type op
(** Handle on one submitted logical operation. *)

val op_id : op -> int
(** Unique, monotonically increasing per array. *)

val op_done : op -> bool
(** All chunk requests of the operation have completed. *)

val op_submitted : op -> float
(** Time the operation entered the dispatch queues. *)

val op_bytes : op -> int
(** Data (non-redundancy) bytes the operation moves. *)

val op_breakdown : op -> (float * float * float * float) option
(** [(seek, rotation, transfer, fault_penalty)] service-time totals of
    the operation's chunks, in ms.  [None] unless a sink was attached
    when the operation was submitted. *)

val submit_flat : t -> now:float -> kind:kind -> extents:(int * int) list -> op
(** Enqueue one logical operation's chunks on their drives' dispatch
    queues and start every idle drive that received work (at most one
    request per drive, in first-touch drive order, into the dispatch
    buffer). *)

val complete_flat : t -> drive:int -> op
(** Retire [drive]'s in-service request — the caller invokes this when
    the request's [dispatched_finished] time arrives — and start the
    drive's next pending request per the scheduler, if any, into the
    dispatch buffer.  Returns the operation the retired request belonged
    to (check {!op_done}).  Raises [Invalid_argument] naming the drive
    and its queue depth if the drive has nothing in service. *)

val dispatched_len : t -> int
val dispatched_op_id : t -> int -> int
val dispatched_drive : t -> int -> int
val dispatched_started : t -> int -> float

val dispatched_finished : t -> int -> float
(** When to call {!complete_flat} on the request's drive. *)

val dispatched_bytes : t -> int -> int

val dispatched_parity : t -> int -> bool
(** Redundancy traffic: excluded from data-byte accounting. *)

val op_began : op -> float
(** When the operation's first chunk started moving; its submission time
    if it has no chunks. *)

val op_finished : op -> float
(** When the operation's last chunk completed (valid once {!op_done});
    its submission time if it has no chunks. *)

val pending : t -> drive:int -> int
(** Requests on [drive]'s dispatch queue, including the one in
    service. *)

val in_service_finish : t -> drive:int -> float option
(** Completion time of [drive]'s in-service request, if one is moving —
    what a caller that lost its completion events (e.g. across an
    experiment phase change) must re-post. *)

(** {1 Drive failure, repair and online rebuild}

    Failures take effect at mapping time: operations mapped after
    {!fail_drive} route around the dead arm (or raise
    {!Rofs_fault.State.Data_loss} when the layout cannot cover the
    loss), while requests already queued or in service on that drive
    drain normally — the model's granularity is the logical operation,
    not the platter.  Degraded service pays real I/O: a mirrored read
    fails over to the surviving arm, a RAID-5 / parity-striped read of a
    dead unit reconstructs it from the row's surviving units (each read
    paying its own positioning and transfer), a degraded write skips the
    dead arm and logs the dirty region.  After {!repair_drive}, a
    redundant layout resynchronises the drive with a background sweep
    driven by {!rebuild_step}. *)

val fail_drive : t -> drive:int -> unit
(** Mark a drive failed.  Newly mapped operations no longer use it. *)

val repair_drive : t -> drive:int -> unit
(** Return a failed drive to service: redundant layouts enter the
    rebuild sweep (serve {!rebuild_step} until it reports done);
    [Striped] arrays — nothing to reconstruct from — return straight to
    healthy.  No-op unless the drive is failed. *)

val drive_state : t -> drive:int -> [ `Healthy | `Failed | `Rebuilding of float ]
(** Current health; [`Rebuilding f] carries the fraction of the drive
    already resynchronised. *)

val fault_state : t -> Rofs_fault.State.t
(** The array's fault state: per-drive status, media-error counters,
    dirty-region log.  Read-mostly for reporting; transitions go through
    {!fail_drive} / {!repair_drive}.  {!ckpt_load} replaces it with the
    snapshot's, so call this again after a restore rather than keeping
    the value. *)

type rebuild_step =
  | Rebuild_idle  (** the drive is not rebuilding *)
  | Rebuild_blocked  (** a reconstruction source is unavailable; retry later *)
  | Rebuild_done  (** sweep complete; the drive is healthy again *)
  | Rebuild_sync of float  (** synchronous path: the rebuild I/O's completion time *)
  | Rebuild_queued of op
      (** queued path: the rebuild I/O went through the dispatch queues;
          what it started is in the dispatch buffer *)

val rebuild_step : t -> now:float -> drive:int -> rebuild_step
(** Issue the next background rebuild I/O for [drive]: read the next
    [rebuild_chunk_bytes] region from every surviving redundancy-group
    member (the mirror partner, or all other drives for RAID-5 / parity
    striping) and write the reconstruction to [drive].  All of it is
    redundancy traffic — it never counts as data throughput, but it
    competes with foreground work for the arms.  The I/O takes the
    array's own path ({!synchronous}); the caller paces successive calls
    ([rebuild_rate_bytes_per_ms]). *)

val utilization : t -> now:float -> float
(** Fraction of elapsed time the drives spent busy, averaged over
    drives; [0.] at time zero. *)

val bytes_moved : t -> int
(** Total data bytes transferred (excludes mirror copies and parity
    traffic). *)

val ckpt_save : t -> string
(** Opaque snapshot of the array's mutable state: drive clocks and
    statistics, dispatch queues, in-service requests (with their shared
    operation records), the service RNG, the data-byte counter and the
    whole fault state. *)

val ckpt_load : t -> string -> unit
(** Restore a {!ckpt_save} snapshot into [t]: [t] itself stays the
    value callers hold, while its drives, queues and fault state are
    swapped for the snapshot's (see {!fault_state}).  [t] must have
    been built with the same geometry, disk count, scheduler, fault
    config and layout; the engine validates this with a config
    fingerprint. *)

val reset : t -> unit
(** Reset every drive's clock, arm and statistics. *)

val drive_stats : t -> Drive.stats array

val drive_busy_until : t -> drive:int -> float
(** The drive's private busy clock — how far its eagerly-simulated
    service timeline has advanced.  On the synchronous path this can run
    past the engine clock (whole operations are served on submission),
    so it is the honest denominator for a utilization figure. *)

(** {1 Instrumentation}

    Observability is strictly opt-in: with no sink attached (the
    default) the array performs no recording and no extra allocation,
    and attaching one never changes simulated results — the frozen
    goldens in the test suite pin both properties. *)

val attach_obs : t -> Rofs_obs.Sink.t -> unit
(** Route per-request instrumentation — service-time breakdown,
    seek-distance and queue-depth samples, fault penalties, and (when
    the sink traces) chunk-level events — into [sink]. *)

val last_breakdown : t -> float * float * float * float
(** [(seek, rotation, transfer, fault_penalty)] totals in ms of the most
    recent {!serve_extents} call.  Only meaningful immediately after that
    call and only while a sink is attached. *)

val pp_config : Format.formatter -> config -> unit
