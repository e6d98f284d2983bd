(** Binary min-heap keyed on a float priority.

    This is the event heap of the simulation model (Section 2.2 of the
    paper): events are kept "in a heap, sorted by their scheduled time".
    Elements with equal priority are returned in unspecified order. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> prio:float -> 'a -> unit
(** Insert an element with the given priority. *)

val push_batch : 'a t -> prios:float array -> values:'a array -> int -> unit
(** [push_batch t ~prios ~values len] inserts the first [len]
    ([prios.(i)], [values.(i)]) pairs, observationally equal to [len]
    individual {!push}es (equal-priority order may differ, which the
    interface leaves unspecified anyway).  Batches that dominate the
    heap are bulk-appended and re-heapified in O(n) instead of
    O(len log n); small batches cost the same as individual pushes but
    avoid per-call closure setup on the engine's completion path.
    @raise Invalid_argument if [len] exceeds either array's length. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, or [None] when
    empty. *)

val min_prio : 'a t -> float
(** Priority of the minimum element, without removing or boxing it.
    @raise Invalid_argument on an empty heap. *)

val take_min : 'a t -> 'a
(** Remove and return the minimum-priority element's value.  Paired
    with {!min_prio} this is the allocation-free equivalent of {!pop}.
    @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (float * 'a) option
(** The minimum-priority element without removing it. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive drain, in priority order; intended for tests and
    debugging (costs O(n log n)). *)
