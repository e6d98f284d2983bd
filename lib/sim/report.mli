(** Rendering of experiment reports.

    Each report has one text rendering, a labelled line of {!summary},
    and one JSON rendering, a member of {!to_json}.  One place for the
    formatting used by the CLI, the examples and the bench harness:
    percentages of maximum throughput, MB/s conversions and compact
    one-line summaries. *)

val mb_per_s : float -> float
(** Convert the engine's bytes/ms to binary MB/s. *)

val cache_to_string : Engine.cache_report -> string
(** e.g. ["lru/back, 1024 x 8K pages: 912/1350 hits (67.6%), ..."]: the
    [cache] line of {!summary}. *)

val summary :
  ?faults:Engine.fault_report ->
  ?cache:Engine.cache_report ->
  ?drives:Engine.drive_report array ->
  ?churn:Rofs_alloc.Policy.churn_stats ->
  workload:string -> policy:string ->
  alloc:Engine.alloc_report option ->
  application:Engine.throughput_report option ->
  sequential:Engine.throughput_report option ->
  unit ->
  string
(** Multi-line block with one labelled line per available report; with
    [drives], one utilization / queue-depth line per drive. *)

val cache_json : Engine.cache_report -> Rofs_obs.Json.t
val fault_json : Engine.fault_report -> Rofs_obs.Json.t
val drive_json : Engine.drive_report -> Rofs_obs.Json.t
(** The per-report JSON encoders behind {!to_json}, exposed so other
    document schemas (the trace-replay report) can embed the same
    members byte-compatibly. *)

val to_json :
  ?alloc:Engine.alloc_report ->
  ?application:Engine.throughput_report ->
  ?sequential:Engine.throughput_report ->
  ?faults:Engine.fault_report ->
  ?cache:Engine.cache_report ->
  ?drives:Engine.drive_report array ->
  ?metrics:Rofs_obs.Sink.t ->
  ?churn:Rofs_alloc.Policy.churn_stats ->
  workload:string -> policy:string ->
  unit ->
  Rofs_obs.Json.t
(** The machine-readable counterpart of {!summary}: a
    ["rofs-report-v1"] document with one member per supplied report
    ([allocation] / [application] / [sequential] / [churn] / [cache] /
    [faults] / [drives]) plus the sink's latency histograms under
    [metrics]. *)
