(** Deterministic, seeded fault-injection plans.

    A plan describes {e when} components of the disk system misbehave:
    whole-drive failures and repairs (either scripted at fixed simulated
    times or drawn from exponential MTTF / MTTR distributions, one
    independent stream per drive), transient media errors with a
    per-request probability, the retry / sector-remap policy applied to
    them, and the pacing of the online rebuild that follows a repair.

    The plan is pure data plus a deterministic event generator: the same
    config always yields the same event sequence, independent of
    anything the simulation does with the events.  [none] disables every
    mechanism; a simulation driven with [none] must behave exactly as if
    the fault subsystem did not exist. *)

type action =
  | Fail of int  (** the drive stops servicing new requests *)
  | Repair of int  (** the drive returns (empty) and rebuild may begin *)

type config = {
  seed : int;  (** seeds the fault streams; independent of the engine seed *)
  mttf_ms : float;
      (** mean time to failure per drive, exponential; [0.] disables
          random drive failures *)
  mttr_ms : float;  (** mean time to repair a failed drive, exponential *)
  script : (float * action) list;
      (** explicit (time, event) list; when non-empty it replaces the
          exponential stream entirely *)
  media_error_rate : float;
      (** probability that one physical chunk request suffers a
          transient media error; [0.] disables media faults *)
  retry_fail_prob : float;
      (** probability that one retry of an erred request fails again *)
  max_retries : int;
      (** bounded retries (one platter revolution each) before the
          sector is remapped to the spare region *)
  remap_penalty_ms : float;
      (** relocation penalty paid when a sector is remapped and on every
          later access that touches a remapped sector *)
  rebuild_chunk_bytes : int;
      (** bytes reconstructed per background rebuild I/O *)
  rebuild_rate_bytes_per_ms : float;
      (** pacing cap on rebuild traffic; [0.] rebuilds flat-out (each
          chunk issued as soon as the previous one completes) *)
}

val none : config
(** Everything disabled: no drive faults, no media errors.  Simulations
    configured with [none] are byte-identical to the pre-fault code. *)

val drive_faults : config -> bool
(** The plan produces drive fail / repair events. *)

val media_faults : config -> bool
(** The plan produces per-request media errors. *)

val enabled : config -> bool
(** [drive_faults || media_faults]. *)

val validate : config -> unit
(** Raises [Invalid_argument] with a one-line message on the first
    nonsensical field (NaN or infinite floats, negative rates,
    probabilities outside [0, 1], non-positive rebuild chunk, scripted
    events at negative times...). *)

type t
(** A stateful event generator for one array. *)

val create : config -> drives:int -> t
(** Validates the config and binds it to an array of [drives] drives
    (scripted events must name drives within range).  Exponential plans
    seed one independent stream per drive from [config.seed]. *)

val pop : t -> (float * action) option
(** The next fault event in time order, consuming it.  Scripted plans
    drain their list; exponential plans draw the drive's next event
    (failures and repairs alternate per drive) as each is consumed, so
    the stream never ends.  [None] once a scripted plan is exhausted or
    when drive faults are disabled. *)

val ckpt_save : t -> string
(** Opaque snapshot of the generator's cursor (remaining script,
    per-drive RNG streams, upcoming per-drive events). *)

val ckpt_load : t -> string -> unit
(** Restore a snapshot taken by {!ckpt_save} into [t], in place.  [t]
    must have been built from the same config and drive count. *)
