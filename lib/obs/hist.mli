(** Log-bucketed histogram with fixed, deterministic bucket boundaries.

    HDR-style layout: values are scaled to integer milli-units (a 1/1000
    resolution floor), and each power-of-two octave is split into 32
    linear sub-buckets, giving a worst-case relative error of 1/32
    (~3.1%) at every magnitude.  The boundaries are a pure function of
    the bucket index — no per-instance state — so two histograms built
    anywhere always share the same buckets and {!merge} is plain
    counter addition: associative, commutative, and invariant under how
    a sample stream is partitioned.  That is the property that lets
    per-worker histograms from a {!Rofs_par.Pool} run be folded in fixed
    seed order into a result that is bit-identical at every job count.

    Count, minimum and maximum are exact; quantiles are resolved to the
    lower bound of the bucket holding the requested rank, so every
    quantile is [<=] the exact maximum and quantiles are monotone in the
    requested rank. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample.  Negative and non-finite values clamp to 0;
    values are unit-agnostic (latencies in ms, distances in cylinders —
    anything non-negative with 1/1000 resolution). *)

val add_n : t -> float -> int -> unit
(** [add_n t x k] records [k] copies of [x] in O(1) — one bucket
    update, [sum += x * k].  Bucket counts, [count], [min_value] and
    [max_value] are exactly those of [k] calls to {!add}; [total] sums
    [x *. k] in one step rather than [k] additions, so it can differ
    from the loop in the last float bit.  [k = 0] is a no-op; negative
    [k] raises [Invalid_argument]. *)

val count : t -> int
val is_empty : t -> bool
val total : t -> float
(** Exact sum of the samples (float accumulation order = add order). *)

val mean : t -> float
(** [total / count]; [0.] when empty. *)

val min_value : t -> float option
(** Exact smallest sample; [None] when empty. *)

val max_value : t -> float option
(** Exact largest sample; [None] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [[0, 1]]: the lower bound of the bucket
    containing the sample of rank [ceil (q * count)] (rank clamped to
    [[1, count]]).  [0.] when empty.  Monotone in [q] and always
    [<= max_value]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

val merge : t -> t -> t
(** Fresh histogram holding both sample sets.  Bucket counts, [count],
    [min_value] and [max_value] combine exactly; [total] is summed in
    argument order.  Neither argument is mutated.  Merging with an
    empty histogram copies the other. *)

val copy : t -> t

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lower, upper_exclusive, count)], ascending. *)

(** Bucket arithmetic, exposed for property tests. *)

val bucket_lower : int -> int
(** Inclusive lower bound (milli-units) of bucket [i]. *)

val bucket_count : int
(** Number of buckets (fixed; covers the full non-negative int range). *)
