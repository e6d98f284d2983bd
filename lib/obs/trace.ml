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

let record t (e : event) =
  if t.stored = t.capacity then t.dropped <- t.dropped + 1 else t.stored <- t.stored + 1;
  let i = t.next in
  if i = Array.length t.r_kind then grow t;
  t.r_at.(i) <- e.at_ms;
  t.r_dur.(i) <- e.dur_ms;
  t.r_kind.(i) <- kind_index e.kind;
  t.r_drive.(i) <- e.drive;
  t.r_op.(i) <- e.op_id;
  t.r_bytes.(i) <- e.bytes;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1)

let length t = t.stored
let dropped t = t.dropped

let capacity t = t.capacity

let slot t i =
  {
    at_ms = t.r_at.(i);
    dur_ms = t.r_dur.(i);
    kind = kinds.(t.r_kind.(i));
    drive = t.r_drive.(i);
    op_id = t.r_op.(i);
    bytes = t.r_bytes.(i);
  }

let events t =
  (* Oldest-first read of the ring, then a stable sort by timestamp so
     serialized traces are non-decreasing in time even when events were
     recorded out of order (e.g. completion bookkeeping). *)
  let out = ref [] in
  let start = (t.next - t.stored + t.capacity) mod t.capacity in
  for i = t.stored - 1 downto 0 do
    out := slot t ((start + i) mod t.capacity) :: !out
  done;
  List.stable_sort (fun a b -> Float.compare a.at_ms b.at_ms) !out

(* Events [src] already dropped stay dropped: carry the count across so
   a merged trace reports the union's true truncation, not just what
   overflowed [dst]'s ring during the merge itself. *)
let merge_into ?(drive_offset = 0) dst src =
  List.iter
    (fun e ->
      record dst
        (if drive_offset = 0 || e.drive < 0 then e else { e with drive = e.drive + drive_offset }))
    (events src);
  dst.dropped <- dst.dropped + src.dropped

let event_json e =
  Json.Obj
    [
      ("at_ms", Json.Float e.at_ms);
      ("dur_ms", Json.Float e.dur_ms);
      ("kind", Json.Str (kind_name e.kind));
      ("drive", Json.Int e.drive);
      ("op", Json.Int e.op_id);
      ("bytes", Json.Int e.bytes);
    ]

let to_jsonl t =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buffer (Json.to_string (event_json e));
      Buffer.add_char buffer '\n')
    (events t);
  (* Footer: a summary line so a truncated trace is visibly truncated.
     Distinguished from event lines by its "trace_footer" key. *)
  Buffer.add_string buffer
    (Json.to_string
       (Json.Obj
          [
            ("trace_footer", Json.Bool true);
            ("events", Json.Int t.stored);
            ("dropped", Json.Int t.dropped);
          ]));
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

(* Chrome trace-event format.  Timestamps are microseconds; the
   simulation clock is milliseconds, so scale by 1000.  Drive-level
   events get tid = drive index; operation-level / global events get a
   dedicated track. *)

let op_track_tid = 1000

let chrome_json t =
  let us ms = ms *. 1000. in
  let evs = events t in
  let max_drive = List.fold_left (fun acc e -> max acc e.drive) (-1) evs in
  let meta =
    let thread tid name =
      Json.Obj
        [
          ("name", Json.Str "thread_name");
          ("ph", Json.Str "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("name", Json.Str name) ]);
        ]
    in
    let drives = List.init (max_drive + 1) (fun d -> thread d (Printf.sprintf "drive %d" d)) in
    drives @ [ thread op_track_tid "operations" ]
  in
  let body =
    List.map
      (fun e ->
        let tid = if e.drive >= 0 then e.drive else op_track_tid in
        let args =
          Json.Obj [ ("op", Json.Int e.op_id); ("bytes", Json.Int e.bytes) ]
        in
        if e.dur_ms > 0. then
          Json.Obj
            [
              ("name", Json.Str (kind_name e.kind));
              ("ph", Json.Str "X");
              ("ts", Json.Float (us e.at_ms));
              ("dur", Json.Float (us e.dur_ms));
              ("pid", Json.Int 1);
              ("tid", Json.Int tid);
              ("args", args);
            ]
        else
          Json.Obj
            [
              ("name", Json.Str (kind_name e.kind));
              ("ph", Json.Str "i");
              ("ts", Json.Float (us e.at_ms));
              ("s", Json.Str "t");
              ("pid", Json.Int 1);
              ("tid", Json.Int tid);
              ("args", args);
            ])
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (meta @ body));
      ("displayTimeUnit", Json.Str "ms");
      ("dropped", Json.Int t.dropped);
    ]
