(** One file type of the workload characterization (Table 2).

    A file type defines the size characteristics, access pattern and
    growth behaviour of a set of files, plus the population of "users"
    (parallel events) that drive requests against files of the type.

    Operation mix: [read_pct + write_pct + extend_pct] must not exceed
    100; the remainder is the {e deallocate} share, of which
    [delete_pct_of_deallocs] are whole-file deletes (the file is then
    recreated, per the paper's periodically-deleted-and-recreated files)
    and the rest are truncations of [truncate_bytes]. *)

type pattern =
  | Random_access
      (** each read/write lands at a uniformly random offset (database
          relations) *)
  | Sequential
      (** each user scans the file in consecutive bursts, wrapping at
          end of file (supercomputer bursts) *)
  | Whole_file  (** every read/write covers the entire file (small files) *)

type t = {
  name : string;
  count : int;  (** Number of Files *)
  users : int;  (** Number of Users: parallel events on this type *)
  process_time_ms : float;
      (** mean of the exponential think time between successive requests
          of one user *)
  hit_freq_ms : float;
      (** spread of initial event start times: uniform on
          [0, users * hit_freq_ms] *)
  rw_mean_bytes : int;  (** Read/Write Size *)
  rw_dev_bytes : int;  (** RW Deviation *)
  alloc_hint_bytes : int;
      (** Allocation Size: mean extent size hint for extent policies *)
  truncate_bytes : int;  (** Truncate Size *)
  initial_mean_bytes : int;  (** Initial Size *)
  initial_dev_bytes : int;  (** Initial Deviation *)
  read_pct : int;
  write_pct : int;
  extend_pct : int;
  delete_pct_of_deallocs : int;
  pattern : pattern;
}

type op = Read | Write | Extend | Truncate | Delete

val validate : t -> unit
(** Raises [Invalid_argument] when percentages or sizes are out of
    range. *)

val pick_op : t -> Rofs_util.Rng.t -> op
(** Draw an operation according to the type's mix. *)

val pick_alloc_op : t -> Rofs_util.Rng.t -> op
(** Draw among extend / truncate / delete only, with their mix
    renormalized — the op selection of the paper's allocation test,
    which "performs only the extend, truncate, delete and create
    operations in the proportion expressed by the file type
    parameters". *)

val draw_rw_bytes : t -> Rofs_util.Rng.t -> int
(** Request size: uniform on mean ± deviation, at least 1 byte. *)

val draw_initial_bytes : t -> Rofs_util.Rng.t -> int
(** Initial file size: uniform on mean ± deviation, at least 0. *)
