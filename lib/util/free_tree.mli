(** Address-ordered map of free extents with logarithmic first-fit.

    An AVL tree keyed on extent start address, carrying extent length,
    augmented with each subtree's maximum length.  The augmentation lets
    {!first_fit} (lowest-addressed extent at least a given size — the
    classic first-fit rule) prune whole subtrees, making it O(log n)
    where a scan over an address-ordered list would be O(n).

    The tree stores extents as given; callers wanting coalescing look up
    neighbours with {!pred}/{!length} and grow, move or insert extents
    with {!replace}/{!insert}.

    A [t] is a handle updated in place: {!insert} allocates one node,
    while {!remove}, {!replace}, the rebalancing rotations and every
    query allocate nothing.  Lookups follow the {!Bitset} convention and
    return [-1] (or a length of [0]) for "none".  A tree holds no
    closure, so it marshals whole; the decoded copy shares nothing with
    the original. *)

type t

val create : unit -> t
(** A new, empty tree. *)

val cardinal : t -> int

val total_len : t -> int
(** Sum of the lengths of all extents (maintained, O(1)). *)

val max_len : t -> int
(** Largest extent length, [0] when empty. *)

val length : t -> addr:int -> int
(** Length of the extent keyed at [addr], [0] when there is none. *)

val insert : t -> addr:int -> len:int -> unit
(** Requires [len > 0] and no extent already keyed at [addr] (raises
    [Invalid_argument] otherwise, leaving the tree unchanged).  Does not
    check for overlap — the allocator's coalescing discipline guarantees
    it. *)

val remove : t -> addr:int -> unit
(** Leaves the tree unchanged when [addr] is absent. *)

val replace : t -> addr:int -> new_addr:int -> len:int -> unit
(** [replace t ~addr ~new_addr ~len] swaps the extent keyed at [addr]
    for [(new_addr, len)] in place, with no rebalancing: carving the
    front off a free extent, growing one in place, or moving a key down
    over freed space.  Requires [len > 0], an extent at [addr], and no
    other key in the closed range between [addr] and [new_addr]; raises
    [Invalid_argument] otherwise, leaving the tree unchanged.  Like
    {!insert}, it does not check for overlap. *)

val pred : t -> addr:int -> int
(** Greatest start address strictly below [addr], or [-1]. *)

val first_fit : t -> want:int -> int
(** Start address of the lowest-addressed extent with length at least
    [want], or [-1]. *)

val fold : t -> init:'a -> f:('a -> addr:int -> len:int -> 'a) -> 'a
(** In increasing address order. *)

val to_list : t -> (int * int) list
(** [(addr, len)] pairs in address order. *)

val check_invariants : t -> (unit, string) result
(** Validate AVL balance, key order and augmentation; for tests. *)
