type kind =
  | Arrival
  | Dispatch
  | Completion
  | Fault_fail
  | Fault_repair
  | Rebuild
  | Media
  | Cache_hit
  | Cache_miss
  | Cache_evict
  | Cache_flush

let kind_name = function
  | Arrival -> "arrival"
  | Dispatch -> "dispatch"
  | Completion -> "completion"
  | Fault_fail -> "fault_fail"
  | Fault_repair -> "fault_repair"
  | Rebuild -> "rebuild"
  | Media -> "media"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Cache_evict -> "cache_evict"
  | Cache_flush -> "cache_flush"

type event = {
  at_ms : float;
  dur_ms : float;
  kind : kind;
  drive : int;
  op_id : int;
  bytes : int;
}

let kinds =
  [|
    Arrival;
    Dispatch;
    Completion;
    Fault_fail;
    Fault_repair;
    Rebuild;
    Media;
    Cache_hit;
    Cache_miss;
    Cache_evict;
    Cache_flush;
  |]

let kind_names = Array.map kind_name kinds

let kind_index = function
  | Arrival -> 0
  | Dispatch -> 1
  | Completion -> 2
  | Fault_fail -> 3
  | Fault_repair -> 4
  | Rebuild -> 5
  | Media -> 6
  | Cache_hit -> 7
  | Cache_miss -> 8
  | Cache_evict -> 9
  | Cache_flush -> 10

(* The ring is six parallel arrays, one per event field: a recorded
   event is copied into flat float and int slots, so the ring holds no
   pointer per event, the event record dies young, and a snapshot
   marshals six flat blocks.  The arrays are allocated on the first
   [record] and double until they reach [capacity]; while the ring is
   filling, [next = stored], so the slots in use are always a prefix
   of the arrays until the first wrap, and the ring never grows after
   it. *)
type t = {
  capacity : int;
  mutable r_at : float array;
  mutable r_dur : float array;
  mutable r_kind : int array;
  mutable r_drive : int array;
  mutable r_op : int array;
  mutable r_bytes : int array;
  mutable next : int; (* slot for the next write *)
  mutable stored : int;
  mutable dropped : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    r_at = [||];
    r_dur = [||];
    r_kind = [||];
    r_drive = [||];
    r_op = [||];
    r_bytes = [||];
    next = 0;
    stored = 0;
    dropped = 0;
  }

let grow t =
  let n = Array.length t.r_kind in
  let size = min t.capacity (max 1024 (2 * n)) in
  let widen a zero =
    let b = Array.make size zero in
    Array.blit a 0 b 0 n;
    b
  in
  t.r_at <- widen t.r_at 0.;
  t.r_dur <- widen t.r_dur 0.;
  t.r_kind <- widen t.r_kind 0;
  t.r_drive <- widen t.r_drive 0;
  t.r_op <- widen t.r_op 0;
  t.r_bytes <- widen t.r_bytes 0

(* Claim the slot for one new event, evicting the oldest when the ring
   is full; the caller fills the six fields. *)
let claim t =
  if t.stored = t.capacity then t.dropped <- t.dropped + 1 else t.stored <- t.stored + 1;
  let i = t.next in
  if i = Array.length t.r_kind then grow t;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  i

let record t (e : event) =
  let i = claim t in
  t.r_at.(i) <- e.at_ms;
  t.r_dur.(i) <- e.dur_ms;
  t.r_kind.(i) <- kind_index e.kind;
  t.r_drive.(i) <- e.drive;
  t.r_op.(i) <- e.op_id;
  t.r_bytes.(i) <- e.bytes

let length t = t.stored
let dropped t = t.dropped

let capacity t = t.capacity

(* The held slots in serialization order: oldest first, then a stable
   sort by timestamp, so serialized traces are non-decreasing in time
   even when events were recorded out of order (completion
   bookkeeping) and ties keep recording order. *)
let order t =
  let start = (t.next - t.stored + t.capacity) mod t.capacity in
  let slots = Array.init t.stored (fun k -> (start + k) mod t.capacity) in
  let at = t.r_at in
  Array.stable_sort (fun a b -> Float.compare at.(a) at.(b)) slots;
  slots

let slot t i =
  {
    at_ms = t.r_at.(i);
    dur_ms = t.r_dur.(i);
    kind = kinds.(t.r_kind.(i));
    drive = t.r_drive.(i);
    op_id = t.r_op.(i);
    bytes = t.r_bytes.(i);
  }

let events t = Array.fold_right (fun i acc -> slot t i :: acc) (order t) []

let copy t =
  {
    t with
    r_at = Array.copy t.r_at;
    r_dur = Array.copy t.r_dur;
    r_kind = Array.copy t.r_kind;
    r_drive = Array.copy t.r_drive;
    r_op = Array.copy t.r_op;
    r_bytes = Array.copy t.r_bytes;
  }

(* Events [src] already dropped stay dropped: carry the count across so
   a merged trace reports the union's true truncation, not just what
   overflowed [dst]'s ring during the merge itself.  Merging a ring
   into itself copies it first: the slot copy would otherwise read
   slots it has just overwritten, and the overflow it causes would be
   counted twice. *)
let merge_into ?(drive_offset = 0) dst src =
  let src = if src == dst then copy src else src in
  Array.iter
    (fun j ->
      let i = claim dst in
      let drive = src.r_drive.(j) in
      dst.r_at.(i) <- src.r_at.(j);
      dst.r_dur.(i) <- src.r_dur.(j);
      dst.r_kind.(i) <- src.r_kind.(j);
      dst.r_drive.(i) <- (if drive < 0 then drive else drive + drive_offset);
      dst.r_op.(i) <- src.r_op.(j);
      dst.r_bytes.(i) <- src.r_bytes.(j))
    (order src);
  dst.dropped <- dst.dropped + src.dropped

(* Both serializations write each event straight from the ring's flat
   arrays into one buffer: no event record, list or [Json.t] per event.
   Kind names need no escaping.  The buffer is sized for a typical
   event so it rarely grows. *)
let add_int buffer i = Buffer.add_string buffer (string_of_int i)

let to_jsonl t =
  let buffer = Buffer.create ((t.stored * 96) + 64) in
  Array.iter
    (fun i ->
      Buffer.add_string buffer "{\"at_ms\":";
      Json.add_float buffer t.r_at.(i);
      Buffer.add_string buffer ",\"dur_ms\":";
      Json.add_float buffer t.r_dur.(i);
      Buffer.add_string buffer ",\"kind\":\"";
      Buffer.add_string buffer kind_names.(t.r_kind.(i));
      Buffer.add_string buffer "\",\"drive\":";
      add_int buffer t.r_drive.(i);
      Buffer.add_string buffer ",\"op\":";
      add_int buffer t.r_op.(i);
      Buffer.add_string buffer ",\"bytes\":";
      add_int buffer t.r_bytes.(i);
      Buffer.add_string buffer "}\n")
    (order t);
  (* Footer: a summary line so a truncated trace is visibly truncated.
     Distinguished from event lines by its "trace_footer" key. *)
  Buffer.add_string buffer "{\"trace_footer\":true,\"events\":";
  add_int buffer t.stored;
  Buffer.add_string buffer ",\"dropped\":";
  add_int buffer t.dropped;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

(* Chrome trace-event format.  Timestamps are microseconds; the
   simulation clock is milliseconds, so scale by 1000.  Drive-level
   events get tid = drive index; operation-level / global events get a
   dedicated track.  The event array is rendered here and handed to
   [Json] as [Raw] text; the other members stay ordinary values. *)

let op_track_tid = 1000

let chrome_json t =
  let slots = order t in
  let max_drive = Array.fold_left (fun acc i -> max acc t.r_drive.(i)) (-1) slots in
  let buffer = Buffer.create ((t.stored + max_drive + 2) * 112) in
  let thread tid name =
    Buffer.add_string buffer "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    add_int buffer tid;
    Buffer.add_string buffer ",\"args\":{\"name\":\"";
    Buffer.add_string buffer name;
    Buffer.add_string buffer "\"}},"
  in
  Buffer.add_char buffer '[';
  for d = 0 to max_drive do
    thread d (Printf.sprintf "drive %d" d)
  done;
  thread op_track_tid "operations";
  Array.iter
    (fun i ->
      let drive = t.r_drive.(i) and dur = t.r_dur.(i) in
      Buffer.add_string buffer "{\"name\":\"";
      Buffer.add_string buffer kind_names.(t.r_kind.(i));
      if dur > 0. then begin
        Buffer.add_string buffer "\",\"ph\":\"X\",\"ts\":";
        Json.add_float buffer (t.r_at.(i) *. 1000.);
        Buffer.add_string buffer ",\"dur\":";
        Json.add_float buffer (dur *. 1000.)
      end
      else begin
        Buffer.add_string buffer "\",\"ph\":\"i\",\"ts\":";
        Json.add_float buffer (t.r_at.(i) *. 1000.);
        Buffer.add_string buffer ",\"s\":\"t\""
      end;
      Buffer.add_string buffer ",\"pid\":1,\"tid\":";
      add_int buffer (if drive >= 0 then drive else op_track_tid);
      Buffer.add_string buffer ",\"args\":{\"op\":";
      add_int buffer t.r_op.(i);
      Buffer.add_string buffer ",\"bytes\":";
      add_int buffer t.r_bytes.(i);
      Buffer.add_string buffer "}},")
    slots;
  (* every element above ends in a comma; the last one becomes the closing bracket *)
  Buffer.truncate buffer (Buffer.length buffer - 1);
  Buffer.add_char buffer ']';
  Json.Obj
    [
      ("traceEvents", Json.Raw (Buffer.contents buffer));
      ("displayTimeUnit", Json.Str "ms");
      ("dropped", Json.Int t.dropped);
    ]
