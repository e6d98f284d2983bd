(** The free space of a buddy allocator: a ladder of block sizes, each a
    multiple of the one below, with one {!Rofs_util.Bitset} per size
    tier.  Bit [i] of tier [k] is set when the block of [sizes.(k)]
    units at [i * sizes.(k)] is free.  Blocks are aligned to their own
    size, split on allocation and coalesced eagerly on free.

    Both of the paper's buddy policies sit on it.  Koch's buddy
    ({!Buddy}) is the power-of-two ladder 1, 2, 4, … cap; restricted
    buddy ({!Restricted_buddy}) is the paper's 2–5 sizes and adds
    region windows.  Addresses and sizes are in disk units; a search
    that finds nothing returns [-1].  The value holds no closure and
    marshals whole. *)

type t = private {
  total_units : int;
  sizes : int array;  (** block sizes in units, increasing; [sizes.(0) = 1] *)
  top : int;  (** index of the largest size *)
  free : Rofs_util.Bitset.t array;
  mutable free_units : int;
}

val create : sizes:int array -> total_units:int -> t
(** All of [\[0, total_units)] free, as its greedy aligned decomposition:
    from address 0 up, the largest block that is aligned there and
    fits. *)

val is_free : t -> int -> int -> bool
(** [is_free t k addr]: the tier-[k] block at [addr] is free.  False for
    an address outside the volume. *)

val sequential : t -> int -> File_extents.t -> int
(** The address just past the file's last extent when it is aligned to
    tier [k], else [-1]: where a tier-[k] block would continue the file
    contiguously. *)

val take : t -> int -> int -> unit
(** [take t k addr] removes the free tier-[k] block at [addr]. *)

val alloc_in_window : t -> int -> lo:int -> hi:int -> prefer:int -> int
(** One tier-[k] block that starts in [\[lo, hi)], taken from free
    space: the lowest free tier-[k] block at or after [prefer] (when
    [prefer] is inside the window), else the lowest in the window;
    failing that, the same search at each larger tier in turn, with the
    block found split down to tier [k] at its start.  [-1] when the
    window has none. *)

val alloc_anywhere : t -> int -> prefer:int -> int
(** {!alloc_in_window} over the whole volume. *)

val give : t -> int -> int -> unit
(** [give t k addr] frees the tier-[k] block at [addr], merging it with
    its siblings into the next tier up while they are all free. *)

val tier_of_size : t -> int -> int -> int
(** [tier_of_size t units k]: the tier whose size is [units], searched
    from tier [k] up. *)

val free_units : t -> int
val largest_free : t -> int
val free_hist : t -> (int * int) list
(** For {!Policy.make}: see {!Policy.t}. *)
