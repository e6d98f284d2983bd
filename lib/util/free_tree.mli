(** Address-ordered map of free extents with logarithmic first-fit.

    An AVL tree keyed on extent start address, carrying extent length,
    augmented with each subtree's maximum length.  The augmentation lets
    {!first_fit} (lowest-addressed extent at least a given size — the
    classic first-fit rule) prune whole subtrees, making it O(log n)
    where a scan over an address-ordered list would be O(n).

    The tree stores extents as given; callers wanting coalescing look up
    neighbours with {!pred}/{!succ} and grow, move or insert extents with
    {!replace}/{!insert}.  Persistent (immutable) structure. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int

val total_len : t -> int
(** Sum of the lengths of all extents (maintained, O(1)). *)

val max_len : t -> int
(** Largest extent length, [0] when empty. *)

val mem : t -> addr:int -> bool

val find : t -> addr:int -> int option
(** Length of the extent starting exactly at [addr]. *)

val insert : t -> addr:int -> len:int -> t
(** Requires [len > 0] and no extent already keyed at [addr] (raises
    [Invalid_argument] otherwise).  Does not check for overlap — the
    allocator's coalescing discipline guarantees it. *)

val remove : t -> addr:int -> t
(** Returns the tree unchanged when [addr] is absent. *)

val replace : t -> addr:int -> new_addr:int -> len:int -> t
(** [replace t ~addr ~new_addr ~len] swaps the extent keyed at [addr]
    for [(new_addr, len)] in one root-to-node path copy, with no
    rebalancing: carving the front off a free extent, growing one in
    place, or moving a key down over freed space.  Requires [len > 0],
    an extent at [addr], and no other key in the closed range between
    [addr] and [new_addr]; raises [Invalid_argument] otherwise.  Like
    {!insert}, it does not check for overlap. *)

val pred : t -> addr:int -> (int * int) option
(** Extent with the greatest start address strictly below [addr]. *)

val succ : t -> addr:int -> (int * int) option
(** Extent with the least start address strictly above [addr]. *)

val first_fit : t -> want:int -> (int * int) option
(** Lowest-addressed [(addr, len)] with [len >= want]. *)

val first_fit_from : t -> min_addr:int -> want:int -> (int * int) option
(** Lowest-addressed fit with [addr >= min_addr]. *)

val min_extent : t -> (int * int) option
(** Lowest-addressed extent. *)

val iter : t -> (addr:int -> len:int -> unit) -> unit
(** In increasing address order. *)

val fold : t -> init:'a -> f:('a -> addr:int -> len:int -> 'a) -> 'a

val to_list : t -> (int * int) list
(** [(addr, len)] pairs in address order. *)

val check_invariants : t -> (unit, string) result
(** Validate AVL balance, key order and augmentation; for tests. *)
