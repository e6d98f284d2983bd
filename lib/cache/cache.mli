(** Deterministic shared block buffer cache.

    One cache serves every simulated user: fixed frame count, pages
    keyed by (file, page index), replacement behind {!Replacement}
    (LRU / CLOCK / 2Q), write-through or write-back, and sequential
    prefetch.  It replaces the engine's per-user read-ahead /
    write-behind windows: those staged bytes privately per user and
    modelled no eviction, so nothing was ever shared and memory was
    effectively infinite.

    The cache itself does no I/O and holds no reference to the disk
    model.  {!read} / {!write} / {!flush} return what the engine must
    do — one coalesced page-aligned fetch, and coalesced write-back
    runs of evicted or flushed dirty pages — so all timing, crediting
    and fault handling stay in one place (the engine).  There is no RNG
    and no iteration over hash tables on any result path: identical op
    streams produce identical outcomes, byte for byte.

    A page's key packs (file, page) into one int, so file ids and page
    indexes must lie in \[0, 2{^31}).  The page index is intrusive hash
    chains over frame indices, and write-back runs are coalesced from
    packed keys sorted in one reused buffer: a lookup, insert or
    eviction allocates nothing, and an access allocates only its
    outcome. *)

type write_mode =
  | Write_through  (** every write also goes to disk synchronously *)
  | Write_back
      (** writes are absorbed in memory; dirty pages reach disk when
          evicted or at the periodic flush *)

val write_mode_name : write_mode -> string
(** ["through"] / ["back"]. *)

type config = {
  pages : int;  (** frame count — total capacity is [pages * page_bytes] *)
  page_bytes : int;  (** cache page size (default 8 KiB) *)
  policy : Policy.t;
  write_mode : write_mode;
  flush_interval_ms : float;
      (** period of the background dirty-page flush (write-back only) *)
  prefetch_pages : int;
      (** minimum pages staged beyond a detected sequential read;
          0 disables prefetch entirely *)
  prefetch_factor : int;
      (** the window also scales with the access: [factor - 1] extra
          accesses' worth of pages are staged ahead (factor 4 mirrors
          the engine's default read-ahead staging); 1 means the fixed
          [prefetch_pages] floor alone *)
}

val config :
  ?page_bytes:int ->
  ?policy:Policy.t ->
  ?write_mode:write_mode ->
  ?flush_interval_ms:float ->
  ?prefetch_pages:int ->
  ?prefetch_factor:int ->
  mb:int ->
  unit ->
  config
(** [config ~mb:8 ()] — an 8 MiB LRU write-through cache with 8 KiB
    pages, a 1-second flush period, an 8-page prefetch floor and
    prefetch factor 4. *)

val validate : config -> unit
(** Raises [Invalid_argument] on a config with no frames, a
    non-positive page size or flush interval, negative prefetch, or a
    prefetch factor below 1.  The engine calls this from its own
    [validate_config]. *)

type t

val create : ?ntypes:int -> config -> t
(** A cold cache.  [ntypes] sizes the per-file-type hit/miss counters
    (indexes outside [0, ntypes) are still accepted and fold into the
    totals only). *)

val write_back : t -> bool
val flush_interval_ms : t -> float

(** {1 Operations}

    Offsets and lengths are bytes within one file's logical extent;
    [logical] is the file's current logical size (so prefetch and fetch
    rounding never reach past end of file). *)

type run = { r_file : int; r_off : int; r_len : int }
(** One coalesced page-aligned write-back the engine must issue
    (uncredited background traffic, like metadata write-back). *)

type outcome = {
  o_fetch : (int * int) option;
      (** [(off, len)]: one page-aligned read covering every missing
          page of the access — and, on a detected sequential scan, the
          prefetch window — clamped to the file's logical size.  The
          requester waits on this I/O. *)
  o_writebacks : run list;
      (** dirty pages evicted to make room, coalesced into runs *)
  o_hit_bytes : int;
      (** requested bytes served from memory (0 for writes — the
          engine credits an absorbed write's own length) *)
  o_page_hits : int;  (** accessed pages found resident *)
  o_page_misses : int;  (** accessed pages faulted in *)
  o_prefetched : int;  (** extra pages staged beyond the access *)
  o_evictions : int;  (** frames recycled to serve this operation *)
}

val read : t -> type_idx:int -> file:int -> off:int -> len:int -> logical:int -> outcome
(** Look up pages [off, off+len); misses (plus prefetch on a sequential
    scan) coalesce into [o_fetch] and are inserted clean.  Raises
    [Invalid_argument], before changing anything, when [file] or a page
    the access or its prefetch window touches is outside \[0, 2{^31}). *)

val write : t -> type_idx:int -> file:int -> off:int -> len:int -> outcome
(** Update pages [off, off+len) (write-allocate).  Write-back marks
    them dirty ([o_fetch] is always [None] — the absorbed write needs
    no foreground I/O); write-through leaves them clean and the engine
    issues the write itself.  Raises [Invalid_argument] like {!read}. *)

val flush : t -> run list
(** Mark every dirty page clean and return the coalesced write-back
    runs; [[]] when nothing is dirty.  The engine calls this on the
    periodic flush tick. *)

val invalidate_file : t -> file:int -> unit
(** Drop every page of [file] (delete) — dirty ones included: the data
    is gone, there is nothing left to write back. *)

val truncate_file : t -> file:int -> logical:int -> unit
(** Drop pages wholly past the new [logical] size. *)

val ckpt_save : t -> string
(** Opaque snapshot of the cache's entire mutable state — frames, page
    index, replacement-policy ordering, dirty tracking and counters —
    for checkpoint/restore. *)

val ckpt_load : t -> string -> unit
(** Restore a {!ckpt_save} snapshot into [t]; [t] stays the value its
    holders share.  [t] must have
    been built from the same config (same frame count, page size,
    policy); the engine validates this with a config fingerprint. *)

(** {1 Statistics} *)

type stats = {
  lookups : int;  (** pages examined — [hits + misses] always *)
  hits : int;
  misses : int;
  hit_bytes : int;
  insertions : int;
  evictions : int;
  dirty_evictions : int;
  flushes : int;  (** periodic flush cycles that found dirty pages *)
  writeback_bytes : int;  (** dirty bytes pushed out (evict + flush) *)
  prefetched_pages : int;
  invalidations : int;  (** pages dropped by delete / truncate *)
}

val stats : t -> stats
val dirty_pages : t -> int
val resident_pages : t -> int

val per_type : t -> (int * int) array
(** Per-file-type [(hits, misses)], indexed like the workload's type
    list (length [ntypes]). *)
