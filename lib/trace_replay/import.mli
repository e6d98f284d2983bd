(** Importers mapping foreign text trace formats onto the file/offset
    model.

    Both importers synthesize the initial population the foreign format
    lacks: every distinct stream (SPC ASU, blktrace device) becomes one
    file sized to the largest byte offset it is ever asked for, so the
    resulting trace validates with zero stale references and replays
    with no out-of-range clipping.  File types all map to type 0 —
    foreign traces carry no equivalent of the workload type table.

    A record whose timestamp is not finite, or whose byte offset or
    end overflows an [int], is refused with a [line N:] error, as is a
    malformed one; a non-positive [sector_bytes] or [hint_bytes] is
    refused outright.  Neither importer raises. *)

val spc :
  ?name:string ->
  ?sector_bytes:int ->
  ?hint_bytes:int ->
  string ->
  (Rofs_workload.Trace.t, string) result
(** SPC-style CSV, one request per line: [asu,lba,size,opcode,timestamp]
    with [lba] in [sector_bytes] sectors (default 512), [size] in
    bytes, opcode [r]/[R] or [w]/[W], timestamp in seconds.  Blank
    lines and [#] comments are skipped. *)

val blktrace :
  ?name:string ->
  ?sector_bytes:int ->
  ?hint_bytes:int ->
  string ->
  (Rofs_workload.Trace.t, string) result
(** blkparse default-format output:
    [dev cpu seq time pid action rwbs sector + nsectors ...].  Only
    queue records (action [Q]) are taken — one logical request each;
    dispatch/completion records describe the traced machine's own
    scheduler, which the replay engine re-simulates.  [rwbs] containing
    [R] maps to a read, otherwise a write; sectors are [sector_bytes]
    (default 512).  Lines of any other shape (messages, summaries) are
    skipped. *)
