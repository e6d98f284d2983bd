(** Growable array (OCaml 5.1 predates [Dynarray]).

    Used for the volume's per-type live-file lists.  Indices are
    0-based; [push] and [truncate] operate on the end. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements.  Raises
    [Invalid_argument] unless [0 <= n <= length t]. *)
