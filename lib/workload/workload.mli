(** The paper's three simulated workloads (Section 2.2).

    {ul
    {- {b TS} — time sharing / software development: an abundance of
       small (8K) files that are created, read and deleted, receiving
       two-thirds of all requests, plus larger (96K) files that are
       usually read (60%) and occasionally written, extended or
       truncated (15/15/5/5).}
    {- {b TP} — transaction processing: ten 210M relations randomly read
       60% / written 30% / extended 7% / truncated 3%; five 5M
       application logs and one 10M transaction log that mostly extend
       (93–94%) with periodic reads and infrequent truncates.}
    {- {b SC} — supercomputing / complex query processing: one 500M
       file, fifteen 100M files and ten 10M files, read and written in
       large contiguous bursts (512K, or 32K for the small files) with
       60% reads / 30% writes; the small files are periodically deleted
       and recreated.}}

    The paper does not publish user counts, think times or the TP request
    size; the values here are this reproduction's documented choices
    (DESIGN.md) and are plain record fields, so experiments can override
    them. *)

type t = {
  name : string;
  description : string;
  types : File_type.t list;
}

val ts : t
val tp : t
val sc : t

val all : t list
(** [ts; tp; sc] — iteration order used by the benches. *)

val by_name : string -> t option
(** Case-insensitive lookup of "TS" / "TP" / "SC". *)

val initial_bytes : t -> int
(** Expected bytes occupied right after initialization (sum of count ×
    mean initial size) — used to size experiments. *)

val total_users : t -> int

val extent_ranges : t -> int -> int list
(** The paper's extent-size range means for this workload and a range
    count 1..5 (TS has its own table; TP and SC share one). *)

val map_types : t -> f:(File_type.t -> File_type.t) -> t
(** Per-type rewrite, e.g. to override a parameter for an ablation. *)

val scaled : t -> factor:float -> t
(** Multiply every type's file count by [factor] (at least 1 file per
    type) — a cheap way to shrink a workload for fast tests while
    keeping its shape.  Raises [Invalid_argument] unless [factor] is
    finite and positive. *)

val partition : t -> weights:int array -> t array
(** [partition t ~weights] splits [t] into [Array.length weights]
    sub-workloads whose per-type file and user counts sum back to [t]'s.
    Files are spread byte-greedily (largest types first, each file to
    the least-loaded slice normalized by its weight — in the sharded
    engine the weight is the slice's disk count), users follow their
    type's files by largest-remainder apportionment, and every emitted
    type keeps [File_type.validate]'s invariant that files and users
    appear together.  The split is a pure function of [(t, weights)],
    with all ties broken toward the lowest slice index; types appear in
    their original order within each slice.  [partition t
    ~weights:[| w |]] returns [t] itself, unchanged.
    @raise Invalid_argument if a weight is non-positive or [t] is too
    small to give every slice at least one (file, user) pair. *)

val validate : t -> unit
