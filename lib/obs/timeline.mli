(** Windowed time-series telemetry over absolute simulated time.

    A timeline splits the simulated clock into fixed windows of
    [every_ms]: window [k] covers [k * every_ms, (k+1) * every_ms).
    The engine drives it with two streams:

    {ul
    {- {!record_latency} per completed operation, attributed to the
       window containing the {e completion} timestamp (the synchronous
       fast path records operations at issue time with a completion
       several windows ahead — attribution stays exact);}
    {- {!tick} once per window boundary, carrying the {e cumulative}
       counters and the instantaneous gauges.}}

    A closed window is the difference of two samples plus the closing
    sample: its counters (and per-drive busy time) are the closing
    sample minus the previous tick's, and its gauges and cumulative
    churn totals are read from the closing sample itself.

    Because windows are aligned to absolute time and all per-window
    state is integer counters, exact-merging histograms ({!Hist}) or
    gauges with a documented combination rule, two timelines from
    disjoint shard slices merge {e elementwise per window} into a
    result that is byte-identical however the slices were executed.
    Merge rules: counters and byte deltas sum; latency histograms
    [Hist.merge]; free-space size distributions sum per size;
    per-drive arrays concatenate in argument order;
    used/total/free units and free-extent counts sum; [largest_free]
    takes the max; failed/rebuilding drive counts sum.  A timeline
    that closed fewer windows contributes zero deltas and its final
    gauge values for the missing windows.

    Only fully closed windows are exported; the trailing partial
    window is dropped. *)

type sample = {
  s_io_ops : int;  (** cumulative completed I/O operations *)
  s_alloc_ops : int;  (** cumulative allocation operations *)
  s_bytes_moved : int;  (** cumulative bytes moved across all drives *)
  s_disk_fulls : int;
  s_data_loss : int;
  s_rebuild_ios : int;
  s_cache_lookups : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_cache_writeback_bytes : int;
  s_cache_prefetched : int;
  s_drive_busy_ms : float array;  (** cumulative busy time per drive *)
  s_queue_depths : int array;  (** instantaneous dispatch-queue depth per drive *)
  s_failed_drives : int;  (** gauges below: instantaneous at the tick *)
  s_rebuilding_drives : int;
  s_used_units : int;
  s_total_units : int;
  s_free_units : int;
  s_largest_free : int;
  s_free_hist : (int * int) list;
      (** free-space size distribution, [(size_units, count)] ascending *)
  s_user_units : int;
      (** cumulative units allocated on behalf of user writes
          ({!Rofs_alloc.Policy.churn_stats}) *)
  s_moved_units : int;
      (** cumulative units relocated by allocator-internal data
          movement (LFS cleaner; 0 for update-in-place allocators) *)
  s_cleaner_passes : int;  (** cumulative successful cleaner passes *)
}
(** One observation of the engine: cumulative counters since engine
    creation plus instantaneous gauges.  The fields marked cumulative
    are differenced between consecutive ticks; gauge fields are stored
    as sampled. *)

type t

val create : every_ms:float -> baseline:sample -> t
(** A timeline with no closed windows.  [baseline] is the cumulative
    state at attach time (window 0's deltas are taken against it).
    Raises [Invalid_argument] unless [every_ms] is finite and positive. *)

val window_count : t -> int
(** Closed windows so far. *)

val record_latency : t -> at:float -> float -> unit
(** Record one operation latency (ms) into the window containing
    simulated time [at]. *)

val tick : t -> sample -> unit
(** Close the next window: its counters are the deltas of [sample]
    against the previous tick's (or the baseline), its gauges are
    [sample]'s.  The engine calls this at every absolute multiple of
    [every_ms]. *)

val merge : t -> t -> t
(** Elementwise per-window merge under the rules documented above.
    Neither argument is mutated; the result is read-only (feeding it to
    {!tick} or {!record_latency} is a programming error).  Raises
    [Invalid_argument] when the window widths differ. *)

val ckpt_save : t -> string
(** Opaque snapshot of all closed windows, the open window's latency
    histograms and the cumulative baseline. *)

val ckpt_load : t -> string -> unit
(** Restore a {!ckpt_save} snapshot in place.  Raises
    [Invalid_argument] when the snapshot's window width differs from
    [t]'s (resume must use the original cadence). *)

val to_json : t -> Json.t
(** The timeline as a [{schema; every_ms; windows}] document: one
    object per closed window with counters, a latency histogram
    summary, cache / fault / allocator sub-objects and a per-drive
    array. *)

val to_csv : t -> string
(** Flat CSV, one row per closed window, header first; per-drive
    values collapse to mean / max columns. *)
