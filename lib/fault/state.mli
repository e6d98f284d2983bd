(** Runtime fault state of one disk array.

    Tracks each drive's health (healthy / failed / rebuilding, with the
    rebuild high-water mark), the set of sectors remapped to the spare
    region after unrecoverable media errors, the dirty regions written
    while a drive was down, and counters for everything that happened.
    The array model consults this state when mapping logical extents to
    physical chunks and when timing individual chunk requests; the
    engine drives status transitions from its fault plan.

    When the bound {!Plan.config} is {!Plan.none} and no drive has been
    failed explicitly, every query short-circuits: no RNG is consumed
    and no behavior changes, so fault-free runs stay byte-identical to
    the pre-fault implementation. *)

exception
  Data_loss of {
    drive : int;  (** the unreadable / unwritable drive *)
    offset : int;  (** physical byte offset of the lost chunk *)
    bytes : int;
  }
(** Raised by the array model when an operation needs data that no
    surviving component can provide — a read or write on a failed drive
    of a non-redundant layout, or a second failure inside one redundancy
    group.  A typed outcome for callers to catch and report, never an
    internal error. *)

type status =
  | Healthy
  | Failed
  | Rebuilding of { mutable pos : int }
      (** repaired and resynchronizing; data below [pos] has been
          reconstructed, data at or above it has not *)

type counters = {
  media_errors : int;  (** chunk requests that suffered a transient error *)
  retries : int;  (** re-read attempts (one revolution each) *)
  remaps : int;  (** sectors relocated to the spare region *)
  remap_hits : int;  (** later accesses that touched a remapped sector *)
  reconstructed_reads : int;  (** degraded reads served by reconstruction *)
  degraded_writes : int;  (** writes that skipped a dead arm *)
}

type t

val create : Plan.config -> drives:int -> t
val config : t -> Plan.config

val status : t -> drive:int -> status

val readable : t -> drive:int -> offset:int -> bytes:int -> bool
(** The drive can serve a read of that physical range: healthy, or
    rebuilding with the range already reconstructed. *)

val writable : t -> drive:int -> bool
(** The drive accepts writes: anything but [Failed] (a rebuilding drive
    absorbs writes normally; they land ahead of the rebuild sweep). *)

val fail : t -> drive:int -> unit
(** Mark the drive failed (from any state; a mid-rebuild failure
    restarts from scratch on the next repair). *)

val repair : t -> drive:int -> rebuild:bool -> unit
(** Return a failed drive to service: [rebuild:true] enters
    [Rebuilding] at position 0 and forgets the drive's dirty log (the
    sweep rewrites everything); [rebuild:false] — non-redundant layouts,
    nothing to reconstruct from — returns it straight to [Healthy].
    No-op unless the drive is [Failed]. *)

val rebuild_advance : t -> drive:int -> bytes:int -> unit
val finish_rebuild : t -> drive:int -> unit

val log_dirty : t -> drive:int -> offset:int -> bytes:int -> unit
(** Record a region a degraded write could not put on [drive]. *)

val dirty_bytes : t -> int
(** Total bytes across all drives' dirty logs. *)

val media_extra_ms :
  t -> drive:int -> rotation_ms:float -> sector_bytes:int -> offset:int -> bytes:int -> float
(** Extra service time the media-fault model charges one chunk request:
    relocation penalties for remapped sectors the request touches, plus
    — with probability [media_error_rate] — a transient error's bounded
    retries (one revolution each) and, when retries are exhausted, a
    sector remap with its relocation penalty.  [0.] (and no RNG draws)
    when media faults are disabled. *)

val note_reconstructed_read : t -> unit
val note_degraded_write : t -> unit

val counters : t -> counters
