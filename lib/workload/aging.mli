(** Fast-forward aging churn driver.

    Ages a volume through a long create/grow/delete churn before the
    standard measurement phases, reproducing Sears & van Ingen's
    observation that fragmentation pathologies only emerge after weeks
    of churn.  The driver is a bang-bang occupancy controller: while
    the volume sits below the target occupancy users grow their files;
    at or above it they deallocate, splitting delete vs. truncate by
    the file type's [delete_pct_of_deallocs] (a deleted file is
    recreated at its birth size, which is what relocates data and ages
    the free list).

    The decision is a pure function of the per-user RNG, the user's
    file type and the volume's current utilization — no global state —
    so aging partitions exactly like the measurement workloads and
    [Experiment.run_sharded] stays byte-identical at every shard width. *)

type op = Grow | Truncate | Delete

val pick : utilization:float -> target:float -> Rofs_util.Rng.t -> File_type.t -> op
(** One churn decision.  [utilization] and [target] are fractions of
    the volume's total units ([Policy.utilization]); below target the
    answer is always [Grow], at or above it the per-user RNG draws
    delete-vs-truncate from the file type's [delete_pct_of_deallocs]. *)

val validate : age_ms:float -> occupancy:float -> unit
(** Raise [Invalid_argument] (one line, no stack trace expected by the
    CLI) unless [age_ms >= 0] and [0 < occupancy < 1].  [occupancy] is
    a fraction, not a percentage. *)
