(** Extent-based allocation (Section 4.3; the XPRS-style policy).

    Every file has an extent size associated with it, drawn when the file
    is created from the extent-size range whose mean is closest to the
    file's allocation-size hint: a normal distribution with a standard
    deviation of 10% of the range mean (so a 1M range yields mostly
    716K–1.3M extents, the paper's example).  Each time the file grows
    past its allocation another extent of that size is claimed.

    Extents may begin at any disk-unit address.  Free space is a single
    address-ordered collection of free extents; freed extents coalesce
    with free neighbours immediately.  Allocation picks either the
    lowest-addressed fit ({e first fit} — the paper's slight-clustering
    winner) or the smallest adequate extent, lowest address among ties
    ({e best fit} — slightly less fragmentation).

    No attempt is made to place logically sequential extents
    contiguously: the paper assumes high bandwidth comes from the extent
    size itself.  A request with no free extent large enough fails with
    [`Disk_full]. *)

type fit = First_fit | Best_fit

type config = {
  unit_bytes : int;
  fit : fit;
  range_means_bytes : int list;  (** the extent-size range means; non-empty *)
}

val config : ?unit_bytes:int -> ?fit:fit -> range_means_bytes:int list -> unit -> config
(** Defaults: 1K units, first fit.  The paper's per-workload range-mean
    tables live in [Rofs_workload.Workload.extent_ranges]. *)

val create : config -> total_units:int -> rng:Rofs_util.Rng.t -> Policy.t
(** [rng] drives the per-file extent-size draws.  Raises
    [Invalid_argument] when [total_units >= 2^30]: best fit packs an
    extent's length and address into one int. *)
