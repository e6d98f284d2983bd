(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through a value of type
    {!t} so that every experiment is reproducible from its seed.  The
    generator is xoshiro256**, which is fast, has a 256-bit state and passes
    the usual statistical batteries; determinism across platforms matters
    more here than cryptographic quality. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is a pure function of
    [seed].  Two generators created with the same seed produce identical
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from [t]'s current
    state. *)

val derive_seed : seed:int -> stream:int -> int
(** [derive_seed ~seed ~stream] maps a (seed, stream-index) pair to a
    fresh positive seed, a pure function of both arguments.  Used by the
    sharded engine to give each shard its own decorrelated stream while
    the whole family remains a function of the run's single seed. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are (statistically) independent; used to give each
    file type its own stream so adding one file type does not perturb the
    draws seen by another. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)
