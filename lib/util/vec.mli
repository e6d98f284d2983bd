(** Growable array (OCaml 5.1 predates [Dynarray]).

    Used for per-file extent lists and other append/pop-heavy state in the
    allocators.  Indices are 0-based; [push]/[pop] operate on the end. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements.  Raises
    [Invalid_argument] unless [0 <= n <= length t]. *)
