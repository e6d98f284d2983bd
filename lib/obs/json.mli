(** Minimal JSON document: build, print, parse.

    Enough JSON for the observability layer to emit machine-readable
    summaries, metrics and traces, and for tests / CI to validate them
    back, without adding a dependency the container may not have.
    Printing is deterministic: object keys keep insertion order, floats
    follow the one rule of {!add_float}.  A producer that renders a
    large part of a document itself (the Chrome trace streams its
    event array straight from the trace ring) hands the text over as
    {!Raw}, so it still returns a [t]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string
      (** Already-rendered JSON text, printed verbatim.  The printer
          does not check it; {!parse} never returns it. *)

val add_float : Buffer.t -> float -> unit
(** The float rule every printed float follows: ["%.12g"], with [.0]
    appended when that renders as a bare integer (so integral floats
    stay recognizably float-typed), and [null] for a non-finite float,
    since JSON has no spelling for one. *)

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_channel : out_channel -> t -> unit
(** {!to_string}'s bytes, written from the rendering buffer without
    first copying them into a string. *)

val parse : string -> (t, string) result
(** Strict-enough recursive-descent parser for everything {!to_string}
    emits (and ordinary hand-written JSON): the error string carries a
    character offset.  Numbers without [.], [e] or [E] parse as [Int]. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing key or non-object. *)

val keys : t -> string list
(** Object keys in order; [[]] for non-objects. *)

val float_value : t -> float option
(** The number as a float, accepting both [Int] and [Float]. *)
