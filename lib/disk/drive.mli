(** Mutable state of one spinning drive.

    A drive serialises its requests FCFS (its [busy_until] clock), tracks
    the arm's cylinder, and detects back-to-back sequential access: when a
    request begins exactly where the previous transfer on this drive
    ended, neither seek nor rotational latency is charged (the paper's
    policies lay blocks out "in a rotationally optimal fashion", so a
    contiguous continuation streams at media rate).  Transfers that cross
    cylinder boundaries pay one single-track seek per boundary. *)

type t

type stats = {
  requests : int;
  bytes_moved : int;
  seeks : int;  (** requests that paid a non-zero arm movement or latency *)
  busy_ms : float;  (** total time spent servicing requests *)
  seek_ms : float;  (** arm movement: full seeks plus cylinder crossings *)
  rotation_ms : float;  (** rotational latency plus rotation over skipped gaps *)
  transfer_ms : float;  (** media transfer time *)
}
(** [busy_ms = seek_ms + rotation_ms + transfer_ms + stall time]: the
    decomposition covers request service; {!stall} charges (media-error
    retries) count only in [busy_ms]. *)

val create : Geometry.t -> t

val geometry : t -> Geometry.t

val busy_until : t -> float
(** Time at which the drive next falls idle. *)

val head_cylinder : t -> int

val next_sequential : t -> int
(** Byte offset one past the previous transfer; [-1] before any. *)

val stall : t -> ms:float -> float
(** Extend the drive's current busy period by [ms] (media-error retries,
    sector-remap relocation) and return the new [busy_until].  Counts as
    busy time in the statistics; requires [ms >= 0]. *)

val serve : t -> start:float -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> passes:int -> float
(** Perform the transfer [passes] times back to back (2 for a
    read-modify-write), each pass one positioned transfer, beginning exactly at
    [start], and return the completion time.  Both of the array's
    service paths issue every chunk through this.  The caller guarantees
    the drive is idle at [start] ([busy_until t <= start]); raises
    [Invalid_argument] otherwise or if [passes < 1]. *)

val service_time_ms : t -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> float
(** The duration [access] would charge, without performing the request
    (no state change; the latency draw uses [rng]). *)

val stats : t -> stats

(** Cheap component accessors (no record allocation); the observability
    layer reads these before/after an access to attribute the delta to
    one request. *)

val seek_ms_total : t -> float
val rotation_ms_total : t -> float
val transfer_ms_total : t -> float

val last_seek_cylinders : t -> int
(** Cylinders the arm moved in the most recent full reposition computed
    by this drive; [0] if the last access was sequential or a short
    forward skip.  Only meaningful immediately after an access. *)

val reset : t -> unit
(** Zero the clock, statistics and sequential-detection state; the arm
    returns to cylinder 0.  Used between the fill phase and the measured
    phase of an experiment. *)
