(** Byte-count constants and formatting.

    The paper quotes sizes in K / M / G meaning binary multiples (a 24K
    track, 8K blocks, a 2.8G array); all sizes in this code base are in
    bytes and use these helpers. *)

val kib : int
val mib : int

val pp_bytes : Format.formatter -> int -> unit
(** Render a byte count the way the paper writes it: [512], [8K], [1M],
    [2.8G] — using the shortest exact-or-one-decimal form. *)

val to_string : int -> string
(** [to_string n] is [Format.asprintf "%a" pp_bytes n]. *)
