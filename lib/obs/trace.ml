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

type t = {
  ring : event option array;
  capacity : int;
  mutable next : int; (* slot for the next write *)
  mutable stored : int;
  mutable dropped : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  { ring = Array.make capacity None; capacity; next = 0; stored = 0; dropped = 0 }

let record t e =
  if t.stored = t.capacity then t.dropped <- t.dropped + 1 else t.stored <- t.stored + 1;
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod t.capacity

let length t = t.stored
let dropped t = t.dropped

(* Checkpoint restore in place (the engine's recorder closures alias
   the ring).  Capacities must match — same trace config on resume. *)
let ckpt_restore ~dst ~src =
  if dst.capacity <> src.capacity then
    invalid_arg "Trace.ckpt_restore: capacity mismatch";
  Array.blit src.ring 0 dst.ring 0 dst.capacity;
  dst.next <- src.next;
  dst.stored <- src.stored;
  dst.dropped <- src.dropped

let events t =
  (* Oldest-first read of the ring, then a stable sort by timestamp so
     serialized traces are non-decreasing in time even when events were
     recorded out of order (e.g. completion bookkeeping). *)
  let out = ref [] in
  let start = (t.next - t.stored + t.capacity) mod t.capacity in
  for i = t.stored - 1 downto 0 do
    match t.ring.((start + i) mod t.capacity) with
    | Some e -> out := e :: !out
    | None -> ()
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
