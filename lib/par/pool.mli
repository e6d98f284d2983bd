(** Fixed-size Domain worker pool for independent simulation cells.

    Each task is an isolated unit of work — in this repo typically one
    [(seed, policy, workload)] simulation cell that builds its own
    {!Rofs_util.Rng} and engine — so tasks share no mutable state and
    may run on any domain in any order.  Results are always delivered
    in {e input order}, indexed by the task's position, so the output
    of [map ~jobs:n] is independent of worker scheduling: callers that
    fold the results in a fixed order get byte-identical aggregates at
    every job count.

    [jobs = 1] (the default when [ROFS_JOBS] is unset) runs every task
    in the calling domain with no pool at all — the serial path stays
    the default and is trivially identical to the pre-pool behavior. *)

val default_jobs : unit -> int
(** Worker count from the [ROFS_JOBS] environment variable; [1] when
    unset.  Raises [Invalid_argument] if set to anything but a positive
    integer. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every task, running up to [jobs]
    tasks concurrently ([jobs] defaults to {!default_jobs}; at most one
    domain per task is spawned).  [map] returns results in input order.
    Tasks are claimed from a shared counter, so long and short cells
    load-balance.  If any [f] raises, every worker still drains (no
    domain outlives the call) and the exception of the lowest-indexed
    failed task is re-raised with its backtrace. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)
