(** The ordered extent list of one file.

    Every allocator keeps, per file, the sequence of extents backing the
    file's logical address space in order.  The table is flat: one
    array of start addresses and one of cumulative lengths, so a file
    of any number of extents is three heap blocks and no extent is a
    block of its own.  The cumulative lengths make mapping a logical
    unit range to physical extents ({!slice}) a binary search — files
    under the fixed-block policy can have tens of thousands of blocks,
    and the workload issues millions of positioned reads. *)

type t

val create : unit -> t

val push : t -> addr:int -> len:int -> unit
(** Append the extent [addr .. addr+len) at the logical end of the
    file.  Requires [addr >= 0] and [len > 0]. *)

val count : t -> int

val addr : t -> int -> int
(** [addr t i] is the start address of the [i]-th extent in logical
    order (0-based).  Raises [Invalid_argument] unless
    [0 <= i < count t], as do {!len}, {!offset} and {!set_addr}. *)

val len : t -> int -> int
(** [len t i] is the length of the [i]-th extent. *)

val offset : t -> int -> int
(** [offset t i] is the logical offset of extent [i]: the units held by
    extents [0 .. i-1] (O(1)). *)

val set_addr : t -> int -> int -> unit
(** [set_addr t i a] moves extent [i] to start at [a]; its length and
    the logical order are unchanged.  Used by the log-structured
    policy's segment cleaner, which moves live extents without
    resizing them. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] extents (truncation frees whole
    trailing extents).  While [n] fills at most an eighth of the
    arrays' capacity they are halved, down to 4 slots, so a file that
    shrinks gives most of its spare slots back.  Raises
    [Invalid_argument] unless [0 <= n <= count t]. *)

val allocated_units : t -> int
(** Total units across all extents (O(1)). *)

val to_list : t -> Extent.t list
(** Every extent, in logical order. *)

val slice : t -> off:int -> len:int -> Extent.t list
(** Physical extents covering logical units [off .. off+len), in logical
    order, with the first and last clipped to the range.  The range is
    clamped to the allocated length; an empty list results when it lies
    entirely beyond it. *)
