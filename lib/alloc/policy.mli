(** The common face of an allocation policy.

    Each policy (buddy, restricted buddy, extent-based, fixed-block,
    log-structured) exposes a value of this record type so the simulator
    can drive any of them through one interface.  All sizes are in the
    policy's disk units; {!val-units_of_bytes} / {!val-bytes_of_units}
    convert.  Every policy is built by {!make}: the per-file table and
    the grow/shrink/delete loops are written once here, and a policy
    module supplies only its free-space structure.

    Semantics shared by all policies:
    {ul
    {- [create_file] registers a file (with an allocation-size hint used
       by the extent policy and a descriptor-placement hook used by the
       clustered restricted buddy);}
    {- [ensure ~file ~target] grows the file's {e allocated} size until
       it is at least [target] units, in policy-sized pieces.  Policies
       may overshoot (that overshoot is the internal fragmentation the
       paper measures).  On [Error `Disk_full] the space allocated before
       the failure is kept;}
    {- [shrink_to ~file ~target] frees whole trailing extents while the
       allocation stays at or above [target];}
    {- [delete] frees everything and forgets the file.}} *)

type churn_stats = {
  cs_user_units : int;
      (** Units appended on behalf of user growth ([ensure]) since the
          policy was created (or its counters were last restored). *)
  cs_moved_units : int;
      (** Units of {e live} data the policy relocated internally —
          today only the log-structured cleaner moves data; every other
          policy reports 0. *)
  cs_cleaner_passes : int;
      (** Number of successful cleaner passes (segments reclaimed). *)
}

val write_cost : churn_stats -> float
(** Write cost per user byte:
    [(user + moved) / user], the classic LFS cleaner-overhead metric.
    [1.0] when no user data has been written yet. *)

type t = {
  name : string;
  unit_bytes : int;  (** bytes per disk unit *)
  total_units : int;  (** size of the managed address space *)
  create_file : file:int -> hint:int -> unit;
      (** [hint] is the file type's mean allocation size in units. *)
  file_exists : file:int -> bool;
  ensure : file:int -> target:int -> (unit, [ `Disk_full ]) result;
  shrink_to : file:int -> target:int -> unit;
  delete : file:int -> unit;
  allocated_units : file:int -> int;
  extent_count : file:int -> int;
  extents : file:int -> Extent.t list;
  slice : file:int -> off:int -> len:int -> Extent.t list;
      (** Physical extents backing logical units [off..off+len). *)
  free_units : unit -> int;
  largest_free : unit -> int;
      (** Largest contiguous piece the policy could hand out right now. *)
  free_hist : unit -> (int * int) list;
      (** Snapshot of the free-space size distribution as
          [(size_units, count)] pairs, strictly ascending in size, every
          count positive, with [sum (size * count) = free_units ()].
          Cheap — O(distinct sizes) for the list-structured policies,
          O(free extents) for the extent tree — so the telemetry layer
          can sample it every window. *)
  churn_stats : unit -> churn_stats;
      (** Cumulative allocator-internal write accounting (user-driven
          appends vs. data the policy moved on its own), feeding the
          write-cost-per-byte metric.  Counters survive checkpoints. *)
  ckpt_save : unit -> string;
      (** One [Marshal] of the policy's {!state} (file table, counters,
          free structure, internal RNG streams).  Saving again right
          after a {!ckpt_load} of the result yields the same bytes. *)
  ckpt_load : string -> unit;
      (** Swap in the state a [ckpt_save] of this policy shape produced;
          nothing is mutated in place, so every hash table keeps its
          bucket layout and fold order.  Feeding it a blob from a
          different policy or config is undefined (the engine guards
          against this with a config fingerprint before calling). *)
}

(** {1 Building a policy from its free-space half} *)

type 'f file = { fx : File_extents.t; data : 'f }
(** One file: its flat extent table (two [int] arrays, so a file is a
    fixed handful of heap blocks however many extents it has) and the
    policy's own per-file data (the extent size drawn at creation, tier
    totals, …). *)

type ('f, 's) state = {
  files : (int, 'f file) Hashtbl.t;
  mutable user_units : int;  (** units appended by [ensure] *)
  space : 's;  (** the policy's free-space structure *)
}
(** All of a policy's mutable state: one closure-free value, which is
    what [ckpt_save] marshals and [ckpt_load] swaps in. *)

val make :
  name:string ->
  unit_bytes:int ->
  total_units:int ->
  ?prepare:(('f, 's) state -> unit) ->
  ?moved:('s -> int * int) ->
  new_file:('s -> hint:int -> 'f) ->
  take:(('f, 's) state -> file:int -> 'f file -> target:int -> bool) ->
  give:('s -> 'f -> addr:int -> len:int -> unit) ->
  ?give_run:('s -> 'f -> addr:int -> len:int -> unit) ->
  free_units:('s -> int) ->
  largest_free:('s -> int) ->
  free_hist:('s -> (int * int) list) ->
  's ->
  t
(** [make … space] is a policy over the free-space structure [space].
    [make] owns the file table ([create_file], the lookups, [delete]),
    the [ensure] loop, the trailing-extent [shrink_to] loop, the
    [user_units] counter and the checkpoint.  The policy supplies:
    {ul
    {- [new_file space ~hint]: the per-file data for a new file;}
    {- [take st ~file f ~target]: append at least one extent to
       [f.fx] ([f] is still short of [target] units), already removed
       from free space, and return [true]; return [false] when none can
       be had ([`Disk_full]).  A policy may append several extents in
       one call (the extent policy carves a whole run from one free
       extent); [ensure] credits [user_units] with the growth of the
       file's allocation and calls [take] again while it is short;}
    {- [give space data ~addr ~len]: return one of the file's extents,
       units [addr .. addr+len), to free space (on shrink, trailing
       extents last first; on delete, every extent in logical order);}
    {- [give_run space data ~addr ~len] (default: none): return the
       units [addr .. addr+len) of several pieces at once, instead of
       through [give].
       When it is given, [delete] and [shrink_to] group the freed
       extents into maximal runs of address-contiguous pieces (each
       piece starting where the one before it in the file ends) and
       call it once per run, in logical order; [give] is then never
       called.  A policy passes it only when releasing a run leaves the
       same free space as releasing its pieces one at a time (the extent
       policy, which coalesces eagerly); a block-structured policy keeps
       its per-piece [give];}
    {- [free_units], [largest_free], [free_hist]: see {!t};}
    {- [prepare st] (default: nothing): run once per [ensure] before
       the first [take];}
    {- [moved space] (default [(0, 0)]): [(cs_moved_units,
       cs_cleaner_passes)] for {!churn_stats}.}}
    Unknown or duplicate files raise [Invalid_argument]. *)

val allocated_total : t -> files:int list -> int
(** Sum of [allocated_units] over [files]. *)

val used_units : t -> int
(** [total_units - free_units ()]. *)

val utilization : t -> float
(** Fraction of the address space currently allocated. *)

val units_of_bytes : t -> int -> int
(** Bytes rounded {e up} to whole units (at least 1 for positive
    sizes). *)

val bytes_of_units : t -> int -> int
