(** Fixed-size bitset.

    The restricted buddy allocator records the free/used state of every
    maximum-sized block in a bitmap (Section 4.2: "a bit map is used to
    record the state of every maximum sized block in the system"), and
    keeps one such bitmap per block-size tier.  Bits are indexed from
    [0]; a set bit means {e free}.  Storage is 63 bits per machine word,
    in chunks of 64 words that are allocated when their first bit is set,
    so a sparse bitset is small; it holds no closure and marshals whole. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all clear. *)

val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val cardinal : t -> int
(** Number of set bits (maintained incrementally, O(1)). *)

val first_set_in : t -> lo:int -> hi:int -> int
(** Smallest set index in [\[lo, hi)], or [-1].  The window is clipped
    to [\[0, length)]; the scan skips an unallocated chunk, or a clear
    word, per step. *)

val first_set_from : t -> int -> int
(** [first_set_from t i] is [first_set_in t ~lo:i ~hi:(length t)]. *)

val iter_set : t -> (int -> unit) -> unit
(** Apply to every set index in increasing order. *)
