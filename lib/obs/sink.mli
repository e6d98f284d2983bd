(** Aggregation point for instrumentation.

    A sink bundles the latency histograms, per-drive counters and the
    (optional) event trace for one simulation run.  The simulator holds
    [Sink.t option]; with [None] attached the instrumented code paths
    do no recording and no allocation — observability is strictly
    pay-for-what-you-use, and attaching a sink never changes simulated
    results (the goldens pin this).

    Sinks merge ({!merge}): all histograms combine bucket-wise and the
    per-drive counters add, so per-seed sinks from a parallel sweep can
    be folded in fixed seed order into totals that are bit-identical at
    every [--jobs] count. *)

type t

val create : ?trace:bool -> ?trace_capacity:int -> unit -> t
(** [trace] defaults to [false]: no ring is allocated and {!event} is a
    no-op.  [trace_capacity] bounds the ring (default 65536). *)

(** {1 Recording} *)

val record_op :
  t ->
  latency:float ->
  queue_wait:float ->
  seek:float ->
  rotation:float ->
  transfer:float ->
  unit
(** One completed logical operation with its service-time breakdown
    (all in simulated ms).  The breakdown components go to their own
    histograms; [latency] is end-to-end (includes queueing and any
    fault-retry penalty). *)

val record_fault_penalty : t -> float -> unit
(** Extra service time charged by a transient media fault (ms). *)

val record_cache_op : t -> hits:int -> misses:int -> evictions:int -> prefetched:int -> unit
(** One buffer-cache access: pages found resident / faulted in, frames
    recycled, and pages staged ahead of the access. *)

val record_cache_flush : t -> bytes:int -> unit
(** One periodic dirty-page flush that pushed [bytes] out. *)

val record_seek : t -> drive:int -> cylinders:int -> unit
(** Seek distance of one repositioning, in cylinders. *)

val record_queue_depth : t -> drive:int -> depth:int -> unit
(** Sample of a drive's queue depth, taken at chunk submission. *)

val tracing : t -> bool
(** [true] iff an event ring is attached — callers use this to skip
    building {!Trace.event} records entirely when tracing is off. *)

val event : t -> Trace.event -> unit
(** Record a trace event; no-op when [tracing t = false]. *)

(** {1 Reading} *)

val latency : t -> Hist.t
val queue_wait : t -> Hist.t
val seek : t -> Hist.t
val rotation : t -> Hist.t
val transfer : t -> Hist.t

val drive_queue_depth : t -> int -> float * int
(** [(mean, max)] sampled queue depth of one drive; [(0., 0)] if never
    sampled. *)

val trace_ref : t -> Trace.t option

val merge : ?drive_offset:int -> t -> t -> t
(** Fresh sink combining both; neither argument is mutated.  Traces
    merge when present on either side (capacity = max of the two).

    Without [drive_offset] both sinks observed the same drives (one
    seed each): per-drive counters merge index by index.  With
    [drive_offset] they observed disjoint drives (one shard slice
    each): [b]'s drive [i] becomes drive [drive_offset + i], after
    [a]'s drives padded with empty ones, and [b]'s trace events shift
    by the same offset.  Raises [Invalid_argument] if [a] has more than
    [drive_offset] drives. *)

val ckpt_save : t -> string
(** Opaque snapshot of every histogram, per-drive counter, cache
    counter and the trace ring, for checkpoint/restore. *)

val ckpt_load : t -> string -> unit
(** Restore a {!ckpt_save} snapshot into [t].  [t] stays the value its
    holders share, but its histograms and trace ring are replaced by
    the snapshot's: read them through [t] ({!latency}, {!trace_ref},
    ...) after a restore rather than keeping earlier results.  Raises
    [Invalid_argument], leaving [t] untouched, when one side traces and
    the other does not, or when the trace rings' capacities differ. *)

(** {1 Serialization} *)

val hist_json : Hist.t -> Json.t
(** Summary object: [count], [mean], [min], [max], [p50/p90/p99/p999]. *)

val to_json : t -> Json.t
(** Full metrics document: the six histograms plus a [drives] array;
    only when cache counters were recorded, a [cache] object with
    hit/miss/eviction counts and the hit rate; only when an event ring
    is attached, a [trace] object with held-event and dropped-event
    counts (so a truncated trace is visibly truncated). *)
