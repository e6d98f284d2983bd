(** Binary buddy allocation with size-doubling extents (Koch, TOCS 1987).

    Section 4.1 of the paper: a file is a list of extents whose sizes are
    powers of two (in disk units); each time a file needs another extent,
    the extent is sized to double the file's current allocation, up to a
    configurable cap (the paper observes 64M blocks for the largest
    files).  Free space is managed with the classic buddy discipline —
    splitting on allocation, eager buddy coalescing on free — by
    {!Buddy_space} over the sizes 1, 2, 4, … cap units.  The
    nightly reallocation process of Koch's DTSS system is deliberately
    {e not} modelled, matching the paper's simulation.

    Internal fragmentation is expected to be severe (Table 3: 43% for the
    supercomputer workload) because allocations run ahead of file sizes;
    the payoff is very few extents per file and hence near-sequential
    large-file bandwidth.

    An allocation request that cannot be satisfied with a block of the
    required size fails outright ([`Disk_full]); the policy never
    degrades to smaller blocks, which is what makes external
    fragmentation observable. *)

type config = {
  unit_bytes : int;  (** disk unit (and smallest block) size, bytes *)
  max_extent_bytes : int;  (** extent-doubling cap; must be a power-of-two multiple of [unit_bytes] *)
}

val default_config : config
(** 1K units, 1G cap — effectively uncapped for this disk system, so the
    doubling behaviour the paper measures (files over 100M carrying 64M
    and larger extents) is preserved. *)

val create : config -> total_units:int -> Policy.t
(** [create config ~total_units] manages an address space of
    [total_units] units.  The space need not be a power of two; it is
    seeded with its greedy power-of-two decomposition. *)
