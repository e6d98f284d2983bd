(** Physical description of one disk drive.

    Mirrors Table 1 of the paper: a drive is described by its layout
    (track size, cylinder count, platter count) and its performance
    characteristics (rotation time and the two seek parameters).  Time is
    in milliseconds, sizes in bytes throughout. *)

type t = {
  name : string;
  platters : int;  (** recording surfaces; one track each per cylinder *)
  cylinders : int;
  track_bytes : int;  (** bytes per track *)
  sector_bytes : int;  (** smallest addressable unit on the platter *)
  single_track_seek_ms : float;  (** [ST]: cost of a 1-track seek *)
  seek_incremental_ms : float;  (** [SI]: additional cost per track beyond the first *)
  rotation_ms : float;  (** time for one full revolution *)
}

val cdc_wren_iv : t
(** The CDC 5.25-inch Wren IV (94171-344) as simulated in the paper's
    Table 1: 9 platters, 1600 cylinders, 24K tracks, ST=5.5ms,
    SI=0.032ms, 16.67ms rotation. *)

val cylinder_bytes : t -> int
(** Bytes per cylinder ([platters * track_bytes]). *)

val capacity_bytes : t -> int
(** Total formatted capacity of one drive. *)

val seek_ms : t -> distance:int -> float
(** [seek_ms t ~distance] is the cost of moving the arm [distance]
    cylinders: [0] when [distance = 0], else [ST + distance * SI] as the
    paper specifies ("an N track seek takes ST + N*SI ms"). *)

val cylinder_of_offset : t -> int -> int
(** Cylinder containing a given byte offset on this drive. *)

val transfer_ms : t -> bytes:int -> float
(** Media transfer time for [bytes] contiguous bytes at full rotation
    speed, excluding seeks and rotational latency. *)

val sustained_bytes_per_ms : t -> float
(** Long-run sequential rate of one drive: a full cylinder per
    [platters] rotations plus one single-track seek.  For the Wren IV
    this works out to the paper's 10.8 M/s across eight drives. *)
