(** The ordered extent list of one file.

    Every allocator keeps, per file, the sequence of extents backing the
    file's logical address space in order.  Alongside the extents a
    cumulative-length index is maintained so that mapping a logical unit
    range to physical extents ({!slice}) is a binary search — files under
    the fixed-block policy can have tens of thousands of blocks, and the
    workload issues millions of positioned reads. *)

type t

val create : unit -> t

val push : t -> Extent.t -> unit
(** Append an extent at the logical end of the file. *)

val count : t -> int

val get : t -> int -> Extent.t
(** [get t i] is the [i]-th extent in logical order (0-based); raises
    [Invalid_argument] when out of bounds. *)

val offset : t -> int -> int
(** [offset t i] is the logical offset of extent [i]: the units held by
    extents [0 .. i-1] (O(1)). *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] extents (truncation frees whole
    trailing extents).  Raises [Invalid_argument] unless
    [0 <= n <= count t]. *)

val allocated_units : t -> int
(** Total units across all extents (O(1)). *)

val to_list : t -> Extent.t list

val relocate : t -> (Extent.t -> int option) -> unit
(** [relocate t f] rewrites the {e address} of every extent for which
    [f] returns [Some addr]; lengths and order are untouched (so the
    cumulative index stays valid).  Used by the log-structured policy's
    segment cleaner, which moves live extents without resizing them. *)

val slice : t -> off:int -> len:int -> Extent.t list
(** Physical extents covering logical units [off .. off+len), in logical
    order, with the first and last clipped to the range.  The range is
    clamped to the allocated length; an empty list results when it lies
    entirely beyond it. *)
