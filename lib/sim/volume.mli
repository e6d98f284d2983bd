(** A mounted file system: an allocation policy plus per-file logical
    sizes.

    The policy tracks {e allocated} space; the volume layers the files'
    {e logical} sizes on top, which is exactly what the paper's
    fragmentation metrics compare: internal fragmentation is the share of
    allocated space not covered by logical bytes, external fragmentation
    the share of the disk still free when an allocation fails.

    Files carry the index of their workload file type so events can pick
    random victims per type. *)

type t

val create : Rofs_alloc.Policy.t -> ntypes:int -> t

val policy : t -> Rofs_alloc.Policy.t

val create_file : t -> type_idx:int -> hint_bytes:int -> int
(** Register a new empty file and return its id. *)

val grow : t -> file:int -> bytes:int -> (unit, [ `Disk_full ]) result
(** Extend the file's logical size by [bytes], allocating as needed.  On
    [`Disk_full] the logical size is unchanged (space allocated before
    the failure is kept, as the policies specify). *)

val truncate : t -> file:int -> bytes:int -> unit
(** Shrink the logical size by up to [bytes] (clamped at zero), freeing
    whole trailing extents the policy no longer needs. *)

val delete : t -> file:int -> unit

val file_exists : t -> file:int -> bool
val logical_bytes : t -> file:int -> int
val extent_count : t -> file:int -> int
val type_of_file : t -> file:int -> int

val random_file : t -> Rofs_util.Rng.t -> type_idx:int -> int option
(** A uniformly random live file of the given type. *)

val slice_bytes : t -> file:int -> off:int -> len:int -> (int * int) list
(** Physical [(byte_offset, byte_length)] runs backing the logical byte
    range [off .. off+len), unit-aligned (the disk moves whole units),
    clamped to the allocated length. *)

val used_bytes : t -> int
(** Bytes allocated to files (policy view). *)

val utilization : t -> float
(** Allocated / total. *)

val internal_fragmentation : t -> float
(** (allocated - logical) / allocated, in [0,1]; [0.] when nothing is
    allocated. *)

val external_fragmentation : t -> float
(** free / total, in [0,1] — meaningful at the moment an allocation
    fails. *)

val mean_extents_per_file : t -> float
(** Average extent count over live files (Table 4's metric). *)

val occupancy : t -> buckets:int -> float array
(** Allocation density map: the address space divided into [buckets]
    equal ranges, each cell the fraction of its units allocated to live
    files.  Costs a pass over every extent; intended for inspection and
    the examples' ASCII disk maps. *)

val ckpt_save : t -> string
(** Opaque serialization of the volume's own bookkeeping (file table,
    per-type live vectors, id counter, logical total) — {e not} the
    allocation policy underneath, which checkpoints itself through
    {!Rofs_alloc.Policy.t.ckpt_save}. *)

val ckpt_load : t -> string -> unit
(** Swap in the bookkeeping a {!ckpt_save} of a volume built over the
    same policy shape produced; saving again yields the same bytes. *)
