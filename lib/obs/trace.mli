(** Bounded event-trace sink.

    A ring buffer of typed simulation events (request arrival, chunk
    dispatch, completion, fault activity, rebuild progress).  When the
    ring is full the oldest events are dropped — tracing a long run
    keeps the tail, which is usually the interesting part, and memory
    stays bounded no matter how long the simulation runs.

    The ring stores each event field in its own flat array (two float,
    four int), so it holds no pointer per event and a recorded event
    record is never promoted: a full ring is about 6 words per slot.
    The arrays are allocated on the first {!record} and double up to
    the capacity, so a ring that never records costs a few words.

    Two serializations, both written straight from the flat arrays
    into one buffer, in timestamp order (ties keep recording order),
    without building a record or a {!Json.t} per event:
    - {!to_jsonl}: one JSON object per line — greppable, streams well.
    - {!chrome_json}: Chrome trace-event format ([{"traceEvents":[…]}])
      loadable in Perfetto / [chrome://tracing].  Chunk-level events
      with a duration become ["ph":"X"] complete events on one track
      per drive; operation-level and instantaneous events land on a
      dedicated track. *)

type kind =
  | Arrival  (** a logical operation entered the system *)
  | Dispatch  (** a chunk was picked by the scheduler and started service *)
  | Completion  (** a chunk (drive >= 0) or whole op (drive = -1) finished *)
  | Fault_fail  (** a drive was marked failed *)
  | Fault_repair  (** a drive came back / rebuild finished *)
  | Rebuild  (** one rebuild chunk was copied *)
  | Media  (** a transient media error cost a retry *)
  | Cache_hit  (** bytes served (or a write absorbed) from the buffer cache *)
  | Cache_miss  (** a cache fetch was issued for missing pages *)
  | Cache_evict  (** dirty pages were written back to free frames *)
  | Cache_flush  (** the periodic flush pushed dirty pages out *)

val kind_name : kind -> string

type event = {
  at_ms : float;  (** simulated time the event (or its service) started *)
  dur_ms : float;  (** service duration; [0.] for instantaneous events *)
  kind : kind;
  drive : int;  (** drive index, or [-1] when not drive-specific *)
  op_id : int;  (** originating operation, or [-1] *)
  bytes : int;  (** payload size, or [0] *)
}

type t

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** Default capacity {!default_capacity}.  [capacity] clamps to [>= 1]. *)

val record : t -> event -> unit
(** Copy the event into the ring, evicting the oldest when it is full. *)

val length : t -> int
(** Events currently held (<= capacity). *)

val dropped : t -> int
(** Events evicted because the ring was full. *)

val events : t -> event list
(** Held events sorted by [at_ms] (ties keep insertion order): the
    order both serializations write. *)

val merge_into : ?drive_offset:int -> t -> t -> unit
(** [merge_into dst src] records all of [src]'s events into [dst], in
    {!events} order, and adds [src]'s dropped count to [dst]'s, so the
    merged trace reports the union's true truncation.  [drive_offset]
    (default 0) is added to every [src] event's drive index; [-1] stays
    [-1].  [merge_into t t] is allowed and behaves like merging an
    identical copy of [t]. *)

val capacity : t -> int
(** Most events the ring holds before it starts dropping the oldest. *)

val to_jsonl : t -> string
(** One compact JSON object per event, one per line, timestamp order,
    terminated by a summary footer line
    [{"trace_footer":true,"events":N,"dropped":D}] so a truncated trace
    is visibly truncated. *)

val chrome_json : t -> Json.t
(** The trace as a Chrome trace-event document, with a top-level
    ["dropped"] member ([Int]) counting ring-evicted events.  The
    ["traceEvents"] array is already rendered, as a {!Json.Raw}
    member: print the document with {!Json.to_string} or
    {!Json.to_channel}, or {!Json.parse} it to inspect the events. *)
