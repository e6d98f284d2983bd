(** Crash-safe snapshot container: versioned, checksummed, atomically
    committed.

    A snapshot is an ordered list of named binary sections.  The
    container carries a magic string, a format version and a CRC32 per
    section, so a partial or corrupted file — a crash mid-write, a
    flipped bit, a truncated copy — is detected and rejected with a
    one-line typed error rather than a wrong answer or a decode
    backtrace.  Writes go to a temporary file in the same directory and
    are committed with [Sys.rename], which is atomic on POSIX
    filesystems: at every instant the target path holds either the
    previous complete snapshot or the new complete snapshot, never a
    prefix of one.

    Layout (all integers little-endian):
    {v
    "ROFSCKPT"                     8-byte magic
    u32  format version            (currently 1)
    u32  section count
    per section:
      u16  name length   n
      n    name bytes
      u32  payload length  m
      u32  CRC32 of the name and payload bytes
      m    payload bytes
    v}

    The container does not interpret payloads; callers decide what each
    section holds (the engine stores [Marshal] blobs plus a plain-text
    fingerprint section). *)

val format_version : int
(** The container format version this build writes and accepts. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a string, as a
    non-negative int in [\[0, 2^32)]; [crc32 "123456789"] is
    [0xCBF43926].  Computed eight bytes per step (slicing-by-8) and
    allocation-free; the value is the classic bytewise one. *)

val encode : (string * string) list -> string
(** Serialize named sections into one container string, in order.
    @raise Invalid_argument if a section name exceeds 65535 bytes. *)

val decode : string -> ((string * string) list, string) result
(** Parse a container back into its sections, in order.  Every
    malformation — wrong magic, unsupported version, truncation at any
    byte offset, a CRC mismatch, trailing bytes — yields [Error] with a
    one-line ["snapshot: ..."] message.  Never raises. *)

val atomic_write : string -> (out_channel -> unit) -> unit
(** [atomic_write path f] runs [f] on a binary out-channel backed by
    [path ^ ".tmp"], then flushes, closes and renames the temporary file
    over [path].  On any exception the channel is closed and the
    temporary file removed, leaving whatever [path] previously held
    untouched.  Raises [Sys_error] on I/O failure. *)

val save_file : string -> (string * string) list -> unit
(** [encode] + {!atomic_write}. *)

val load_file : string -> ((string * string) list, string) result
(** Read and {!decode} a snapshot file.  An unreadable file (missing,
    permission) is an [Error] too, never an exception. *)

val section : (string * string) list -> string -> (string, string) result
(** Look up a section by name; [Error "snapshot: missing section '...'"]
    when absent. *)
