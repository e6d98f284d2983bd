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

val clear : 'a t -> unit
