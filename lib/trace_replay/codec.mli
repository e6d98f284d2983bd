(** Compact binary encoding of operation traces.

    The text format ({!Rofs_workload.Trace}) is diff-friendly but a
    genuine trace runs to millions of events; this codec stores the same
    data length-prefixed and varint-packed, typically 2-3x smaller and
    parsed without any line splitting.

    Layout: the 4-byte magic ["ROFT"], one version byte, the trace name
    (varint length + bytes), the initial population (varint count, then
    id / bytes / hint / type varints per file), and the events (varint
    count, then per event: the time as 8 little-endian bytes of
    [Int64.bits_of_float] — floats round-trip exactly — a varint file
    id, a tag byte, and the op's varint arguments).  Integers are
    zigzag-LEB128 so the format is byte-cheap for the small
    non-negative values that dominate real traces.

    [encode]/[decode] are exact inverses on any valid trace; like
    {!Rofs_workload.Trace.load}, [decode] checks structure (magic,
    version, tags, truncation) and then runs
    {!Rofs_workload.Trace.validate}. *)

val encode : Rofs_workload.Trace.t -> string

val decode : string -> (Rofs_workload.Trace.t, string) result
(** Inverse of {!encode}; descriptive error on bad magic, unsupported
    version, unknown tag, truncated input or a trace that does not
    validate. *)

val save_file : string -> Rofs_workload.Trace.t -> unit
(** Write [trace] to a path: binary for a [.bin] / [.rtb] extension,
    the text format otherwise. *)

val load_file : string -> (Rofs_workload.Trace.t, string) result
(** Read a trace from a path, sniffing the magic to pick the decoder
    (the extension is not trusted on input); either decoder
    validates. *)
