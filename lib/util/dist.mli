(** Random deviates for the distributions the paper's workload model uses.

    Section 2.2 draws file sizes from uniform distributions, inter-request
    think times from exponential distributions, and extent sizes from normal
    distributions with a standard deviation of 10% of the mean. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform deviate in [\[lo, hi)].  Requires [lo <= hi]. *)

val uniform_mean_dev : Rng.t -> mean:float -> dev:float -> float
(** The paper's "mean and deviation" uniform draw: uniform on
    [\[mean - dev, mean + dev\]], clamped below at [0]. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential deviate with the given mean (used for process/think
    times).  Requires [mean > 0]. *)

val normal_positive : Rng.t -> mean:float -> std:float -> float
(** Normal deviate resampled until strictly positive — extent sizes and
    request sizes must be positive.  Requires [mean > 0]. *)
