(** Trace-driven workloads.

    The paper closes with "applying the allocation policies to genuine
    workloads will yield a much more convincing argument".  This module
    defines a portable operation-trace format so genuine (or synthetic)
    traces can be replayed against any allocation policy, plus a
    synthesizer that renders the stochastic workload model into a
    concrete trace.

    A trace is an initial file population and a time-ordered list of
    operations against those files.  The on-disk format is line-based
    and diff-friendly:

    {v
    # rofs-trace v2 <name>
    file <id> <bytes> <hint-bytes> <type>
    ev <time-ms> <file-id> <read|write|extend|grow|truncate|delete|create> <args...>
    v}

    [read]/[write] take [<bytes> <offset>]; [extend]/[grow]/[truncate]
    take [<bytes> -]; [create] takes [<bytes> <hint> <type>].  v1 files
    (no per-file type, six-token [create] lines) still load, with every
    file assigned type 0.  A compact binary encoding of the same data
    lives in [Rofs_trace_replay.Codec]. *)

type op =
  | Read of { off : int; bytes : int }
  | Write of { off : int; bytes : int }
  | Extend of int  (** bytes appended (and written) *)
  | Grow of int
      (** bytes allocated without any disk transfer — how recorded
          runs express initialization and fill-phase allocation churn *)
  | Truncate of int  (** bytes removed from the end *)
  | Delete
  | Create of { bytes : int; hint : int; ty : int }
      (** (re)create this file id at the given size and file type *)

type event = { time_ms : float; file : int; op : op }

type t = {
  name : string;
  initial : (int * int * int * int) list;
      (** (file id, bytes, allocation hint, file type) *)
  events : event list;  (** non-decreasing [time_ms] *)
}

type warnings = { stale_refs : int }
(** Non-fatal validation findings: [stale_refs] counts events that
    reference a file id never introduced by [initial] or a prior
    [Create] (or already deleted).  Such operations are legal — a
    replay skips them — but a genuine trace full of them usually means
    the importer dropped its creates. *)

val validate : t -> (warnings, string) result
(** Check finite, time-ordered event times, id sanity and non-negative
    sizes; on success report the stale-reference count. *)

val synthesize :
  workload:Workload.t -> duration_ms:float -> seed:int -> t
(** Render the stochastic model into a trace: the initial population of
    [workload] plus [duration_ms] of its users' operations (think
    times, op mix, sizes and access patterns all follow Table 2).
    Deterministic in [seed]. *)

val save : t -> string
(** Serialize to the textual format above. *)

val load : string -> (t, string) result
(** Parse the textual format (v1 or v2); returns a descriptive error
    with the offending line number on failure. *)

val event_count : t -> int
val duration_ms : t -> float
