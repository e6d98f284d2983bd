(** A contiguous run of disk units.

    All allocators hand out space as extents.  Addresses and lengths are
    in {e disk units} (the minimum unit of transfer, Section 2.1), not
    bytes; the policy records its unit size and the simulation layer
    converts. *)

type t = { addr : int; len : int }

val make : addr:int -> len:int -> t
(** Requires [addr >= 0] and [len > 0]. *)

val end_ : t -> int
(** One past the last unit: [addr + len]. *)

val contains : t -> int -> bool
(** Whether a unit address falls inside the extent. *)

val sub : t -> off:int -> len:int -> t
(** [sub e ~off ~len] is the extent covering units [off .. off+len)
    {e relative to the start of [e]}.  Requires the range to lie within
    [e]. *)

val equal : t -> t -> bool
