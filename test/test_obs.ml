(* Observability layer tests, four layers deep:

   - histogram level: fixed bucket boundaries are monotone and bracket
     their values, quantiles are ordered and bounded by the recorded
     extrema, and [Hist.merge] is associative and partition-invariant —
     including when the partitions are built on a 4-domain pool, which
     is exactly how multi-seed sweeps merge per-seed sinks;
   - JSON level: print/parse round-trips, escapes survive, parse
     errors carry positions;
   - trace level: the ring drops oldest first, serialized events are
     time-ordered, and the Chrome document is valid JSON of the shape
     Perfetto loads;
   - streamed trace exports: the Chrome document, JSONL and merge
     match, byte for byte, a list-based reference model that keeps the
     tree-building code they replaced, and the Chrome export's minor
     words per event are budgeted;
   - trace/sink merge edge cases: empty-vs-nonempty merges, rings at
     every fill level, and dropped-count propagation through merges and
     into the JSONL footer / Chrome document / sink JSON;
   - timeline level: window deltas and completion-time attribution,
     the documented merge rules (including the short-timeline tail
     rule), checkpoint round-trips, and a QCheck property that merging
     a partition of the event stream reproduces the whole timeline
     byte-for-byte;
   - engine level: a schema golden pins the exact member names of the
     report document, an instrumented run reproduces, to the last
     bit, throughput goldens frozen before lib/obs existed — attaching
     a sink (even with tracing) changes nothing — and the engine's
     timeline is byte-identical at every shard width (digest golden)
     and across checkpoint/resume.

   Regenerate the timeline digest goldens after an intentional behavior
   change with:
     ROFS_GOLDEN_CAPTURE=1 dune exec test/test_obs.exe 2>/dev/null *)

module C = Core
module Hist = C.Hist
module Sink = C.Sink
module Timeline = C.Timeline
module Json = C.Obs.Json
module Trace = C.Obs.Trace
module Policy = C.Sched_policy
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type
module Array_model = C.Array_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Histogram buckets and quantiles                                     *)
(* ------------------------------------------------------------------ *)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"bucket index and bounds are monotone" ~count:500
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Hist.index_of lo <= Hist.index_of hi
      && Hist.bucket_lower (Hist.index_of lo) <= lo
      &&
      let i = Hist.index_of hi in
      i + 1 >= Hist.bucket_count || Hist.bucket_lower (i + 1) > hi)

let prop_quantiles_ordered =
  QCheck.Test.make ~name:"quantiles are ordered and bounded" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_inclusive 1e6))
    (fun values ->
      let h = Hist.create () in
      List.iter (Hist.add h) values;
      let p50 = Hist.p50 h and p90 = Hist.p90 h and p99 = Hist.p99 h in
      let p999 = Hist.p999 h in
      let max_v = match Hist.max_value h with Some m -> m | None -> 0. in
      p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max_v)

let hists_equal a b =
  Hist.count a = Hist.count b
  && Hist.buckets a = Hist.buckets b
  && Hist.min_value a = Hist.min_value b
  && Hist.max_value a = Hist.max_value b

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.add h) values;
  h

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    QCheck.(
      triple
        (list (float_bound_inclusive 1e5))
        (list (float_bound_inclusive 1e5))
        (list (float_bound_inclusive 1e5)))
    (fun (xs, ys, zs) ->
      let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
      let left = Hist.merge (Hist.merge (a ()) (b ())) (c ()) in
      let right = Hist.merge (a ()) (Hist.merge (b ()) (c ())) in
      hists_equal left right)

let prop_merge_partition_invariant =
  QCheck.Test.make ~name:"merge over any partition equals the whole" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (float_bound_inclusive 1e5))
        (int_range 1 8))
    (fun (values, parts) ->
      let chunks = Array.make parts [] in
      List.iteri (fun i v -> chunks.(i mod parts) <- v :: chunks.(i mod parts)) values;
      let merged =
        Array.fold_left (fun acc chunk -> Hist.merge acc (hist_of chunk)) (Hist.create ()) chunks
      in
      hists_equal merged (hist_of values))

(* The sweep scenario: per-partition histograms built on a 4-domain
   pool, folded in partition order.  Must equal the serial whole. *)
let test_merge_on_pool () =
  let rng = C.Rng.create ~seed:7 in
  let values = Array.init 5_000 (fun _ -> 20_000. *. C.Rng.float rng) in
  let parts = Array.init 8 (fun p ->
      Array.to_list (Array.sub values (p * 625) 625))
  in
  let pooled = C.Pool.map ~jobs:4 hist_of parts in
  let serial = Array.map hist_of parts in
  let fold hs = Array.fold_left Hist.merge (Hist.create ()) hs in
  let merged = fold pooled in
  (* Same partitions, same fold order: the pool changes nothing, down
     to the float sums. *)
  check_exact_float "pooled total is bit-identical to serial" (Hist.total (fold serial))
    (Hist.total merged);
  (* And bucket contents match the one-histogram whole exactly (float
     sums only agree to summation order, so [total] is excluded). *)
  check_bool "pooled merge equals serial histogram" true
    (hists_equal merged (hist_of (Array.to_list values)))

let test_hist_basics () =
  let h = Hist.create () in
  check_bool "fresh is empty" true (Hist.is_empty h);
  check_exact_float "empty quantile" 0. (Hist.p99 h);
  Hist.add h 5.;
  Hist.add h 5.;
  Hist.add h 500.;
  check_int "count" 3 (Hist.count h);
  check_exact_float "mean" (510. /. 3.) (Hist.mean h);
  check_bool "min" true (Hist.min_value h = Some 5.);
  check_bool "max" true (Hist.max_value h = Some 500.);
  (* Quantiles report the bucket's lower bound: within 1/32 below. *)
  let p50 = Hist.p50 h in
  check_bool "p50 hits the dominant bucket" true (p50 <= 5. && p50 >= 5. *. (1. -. (1. /. 32.)));
  Hist.add h (-3.);
  check_bool "negative clamps to zero bucket" true (Hist.min_value h = Some 0.)

let test_hist_empty_quantiles () =
  (* Audit of the n = 0 path: every quantile accessor — including the
     raw [quantile] at both extremes and out-of-range q — must return 0
     rather than walk the (empty) buckets, and the scalar summaries
     must stay well-defined. *)
  let h = Hist.create () in
  List.iter
    (fun (name, v) -> check_exact_float name 0. v)
    [
      ("p50", Hist.p50 h);
      ("p90", Hist.p90 h);
      ("p99", Hist.p99 h);
      ("p999", Hist.p999 h);
      ("quantile 0", Hist.quantile h 0.);
      ("quantile 1", Hist.quantile h 1.);
      ("quantile below range", Hist.quantile h (-1.));
      ("quantile above range", Hist.quantile h 2.);
      ("mean", Hist.mean h);
      ("total", Hist.total h);
    ];
  check_int "count" 0 (Hist.count h);
  check_bool "no min" true (Hist.min_value h = None);
  check_bool "no max" true (Hist.max_value h = None);
  (* merging two empties must stay empty, not fabricate samples *)
  check_bool "merge of empties is empty" true (Hist.is_empty (Hist.merge h (Hist.create ())))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        (* decimal floats round-trip exactly through %.12g *)
        map (fun i -> Json.Float (float_of_int i /. 64.)) (int_range (-100_000) 100_000);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 20));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n = 0 then scalar
          else
            frequency
              [
                (2, scalar);
                (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2))));
                ( 1,
                  map
                    (fun l -> Json.Obj l)
                    (list_size (int_range 0 4)
                       (pair (string_size ~gen:printable (int_range 0 8)) (self (n / 2)))) );
              ])
        (min n 16))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"print/parse/print is stable" ~count:300
    (QCheck.make json_gen) (fun doc ->
      let s = Json.to_string doc in
      match Json.parse s with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s on %s" e s
      | Ok reparsed -> Json.to_string reparsed = s)

let test_json_parse_basics () =
  (match Json.parse {| {"a": [1, 2.5, true, null], "b\n": "xé"} |} with
  | Ok doc ->
      check_bool "array member" true
        (Json.member "a" doc = Some (Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null ]));
      check_bool "escaped key" true (List.mem "b\n" (Json.keys doc))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "{\"a\": 1,}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted");
  match Json.parse "[1] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input accepted"

let test_json_non_finite () =
  check_string "nan renders as null" "null" (Json.to_string (Json.Float Float.nan));
  check_string "inf renders as null" "null" (Json.to_string (Json.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

let ev at kind drive =
  { Trace.at_ms = at; dur_ms = 0.; kind; drive; op_id = 0; bytes = 0 }

let test_trace_ring_drops_oldest () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record tr (ev (float_of_int i) Trace.Arrival 0)
  done;
  check_int "length capped" 4 (Trace.length tr);
  check_int "dropped count" 6 (Trace.dropped tr);
  match Trace.events tr with
  | [ a; b; c; d ] ->
      check_exact_float "oldest surviving" 6. a.Trace.at_ms;
      check_exact_float "then" 7. b.Trace.at_ms;
      check_exact_float "then" 8. c.Trace.at_ms;
      check_exact_float "newest" 9. d.Trace.at_ms
  | l -> Alcotest.failf "expected 4 events, got %d" (List.length l)

let all_kinds =
  Trace.
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

(* Event [i] of a synthetic stream: every field differs from its
   neighbours', and the kinds cycle through all of them. *)
let nth_event i =
  {
    Trace.at_ms = float_of_int i *. 0.25;
    dur_ms = float_of_int (i mod 7) *. 0.5;
    kind = all_kinds.(i mod Array.length all_kinds);
    drive = (i mod 9) - 1;
    op_id = i * 3;
    bytes = i * 512;
  }

let test_trace_ring_round_trips_fields () =
  (* 2500 events grow the ring past its first size; 7000 wrap it *)
  List.iter
    (fun (capacity, n) ->
      let tr = Trace.create ~capacity () in
      for i = 0 to n - 1 do
        Trace.record tr (nth_event i)
      done;
      let first = max 0 (n - capacity) in
      check_int "held" (n - first) (Trace.length tr);
      check_bool
        (Printf.sprintf "capacity %d after %d events holds the newest, field for field" capacity n)
        true
        (Trace.events tr = List.init (n - first) (fun i -> nth_event (first + i))))
    [ (3000, 2500); (3000, 7000); (1, 5) ]

(* The ring costs nothing until the first event, and at most 7 words
   per slot once full: six flat fields plus the array headers.  A ring
   of boxed event records costs about 15 words per event. *)
let test_trace_ring_footprint () =
  check_bool "an unused ring holds no slots" true
    (Obj.reachable_words (Obj.repr (Trace.create ())) < 32);
  let capacity = 5000 in
  let tr = Trace.create ~capacity () in
  for i = 0 to (2 * capacity) + 17 do
    Trace.record tr (nth_event i)
  done;
  let words = Obj.reachable_words (Obj.repr tr) in
  if words > (7 * capacity) + 64 then
    Alcotest.failf "a full ring of %d events holds %d words (budget %d)" capacity words
      ((7 * capacity) + 64)

let test_trace_events_time_ordered () =
  let tr = Trace.create ~capacity:16 () in
  List.iter (fun t -> Trace.record tr (ev t Trace.Completion 1)) [ 5.; 1.; 3.; 2.; 4. ];
  let times = List.map (fun e -> e.Trace.at_ms) (Trace.events tr) in
  check_bool "sorted by time" true (times = [ 1.; 2.; 3.; 4.; 5. ])

let test_chrome_json_loads () =
  let tr = Trace.create ~capacity:16 () in
  Trace.record tr { Trace.at_ms = 1.; dur_ms = 2.; kind = Trace.Dispatch; drive = 0; op_id = 7; bytes = 512 };
  Trace.record tr (ev 4. Trace.Fault_fail 1);
  let doc = Trace.chrome_json tr in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome doc is not valid JSON: %s" e
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr events) ->
          let phase e = match Json.member "ph" e with Some (Json.Str p) -> p | _ -> "?" in
          check_bool "has a complete event" true (List.exists (fun e -> phase e = "X") events);
          check_bool "has an instant event" true (List.exists (fun e -> phase e = "i") events);
          check_bool "has thread metadata" true (List.exists (fun e -> phase e = "M") events)
      | _ -> Alcotest.fail "missing traceEvents")

(* Merging: an empty ring contributes nothing, a partially filled ring
   contributes everything, an overfilled ring carries its dropped count
   across, and overflow during the merge itself is counted as dropped
   in the destination. *)
let test_trace_merge_fill_levels_and_dropped () =
  let dst = Trace.create ~capacity:4 () in
  Trace.merge_into dst (Trace.create ~capacity:4 ());
  check_int "empty src adds nothing" 0 (Trace.length dst);
  check_int "empty src adds no drops" 0 (Trace.dropped dst);
  let src = Trace.create ~capacity:4 () in
  List.iter (fun t -> Trace.record src (ev t Trace.Arrival 0)) [ 1.; 2. ];
  Trace.merge_into dst src;
  check_int "partial src merges whole" 2 (Trace.length dst);
  let src2 = Trace.create ~capacity:2 () in
  List.iter (fun t -> Trace.record src2 (ev t Trace.Dispatch 1)) [ 3.; 4.; 5.; 6.; 7. ];
  check_int "src2 overfilled" 3 (Trace.dropped src2);
  Trace.merge_into dst src2;
  check_int "dst holds the union" 4 (Trace.length dst);
  check_int "src drops propagate" 3 (Trace.dropped dst);
  let src3 = Trace.create ~capacity:4 () in
  List.iter (fun t -> Trace.record src3 (ev t Trace.Completion 0)) [ 8.; 9.; 10. ];
  Trace.merge_into dst src3;
  check_int "ring stays capped" 4 (Trace.length dst);
  check_int "merge overflow counts as dropped" 6 (Trace.dropped dst);
  (* merging a nonempty trace into an empty one keeps everything *)
  let fresh = Trace.create ~capacity:16 () in
  Trace.merge_into fresh dst;
  check_int "nonempty into empty keeps events" 4 (Trace.length fresh);
  check_int "nonempty into empty keeps drops" 6 (Trace.dropped fresh)

(* The truncation is visible in every serialization: the JSONL footer
   line, the Chrome document's top-level member and the sink JSON's
   trace block. *)
let test_trace_dropped_exported () =
  let tr = Trace.create ~capacity:2 () in
  List.iter (fun t -> Trace.record tr (ev t Trace.Arrival 0)) [ 1.; 2.; 3.; 4.; 5. ];
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl tr)) in
  (match List.rev lines with
  | footer :: _ -> (
      match Json.parse footer with
      | Ok doc ->
          check_bool "footer marker" true (Json.member "trace_footer" doc = Some (Json.Bool true));
          check_bool "footer events" true (Json.member "events" doc = Some (Json.Int 2));
          check_bool "footer dropped" true (Json.member "dropped" doc = Some (Json.Int 3))
      | Error e -> Alcotest.failf "footer is not JSON: %s" e)
  | [] -> Alcotest.fail "empty jsonl");
  check_bool "chrome dropped member" true
    (Json.member "dropped" (Trace.chrome_json tr) = Some (Json.Int 3))

(* ------------------------------------------------------------------ *)
(* Streamed exports against the tree-building reference                *)
(* ------------------------------------------------------------------ *)

(* The reference model: a ring kept as a plain list of the held events,
   and the exports as they were written before they streamed from the
   ring's flat arrays: one [Json.t] tree per event, printed by a copy of
   the old [Printf]-based printer, so neither the ring nor the printer
   under test takes part in the model. *)
module Ref = struct
  type ring = { cap : int; mutable held : Trace.event list; mutable dropped : int }

  let create cap = { cap = max 1 cap; held = []; dropped = 0 }

  let record r e =
    if List.length r.held = r.cap then begin
      r.held <- List.tl r.held;
      r.dropped <- r.dropped + 1
    end;
    r.held <- r.held @ [ e ]

  let events r = List.stable_sort (fun a b -> Float.compare a.Trace.at_ms b.Trace.at_ms) r.held

  let merge_into ?(drive_offset = 0) dst src =
    List.iter
      (fun (e : Trace.event) ->
        record dst
          (if drive_offset = 0 || e.drive < 0 then e else { e with drive = e.drive + drive_offset }))
      (events src);
    dst.dropped <- dst.dropped + src.dropped

  let escape buffer s =
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\r' -> Buffer.add_string buffer "\\r"
        | '\t' -> Buffer.add_string buffer "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"'

  let rec emit buffer = function
    | Json.Null -> Buffer.add_string buffer "null"
    | Json.Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buffer (string_of_int i)
    | Json.Float f ->
        if Float.is_finite f then begin
          let s = Printf.sprintf "%.12g" f in
          Buffer.add_string buffer s;
          if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
            Buffer.add_string buffer ".0"
        end
        else Buffer.add_string buffer "null"
    | Json.Str s -> escape buffer s
    | Json.Raw _ -> invalid_arg "reference printer: Raw"
    | Json.Arr items ->
        Buffer.add_char buffer '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buffer ',';
            emit buffer item)
          items;
        Buffer.add_char buffer ']'
    | Json.Obj fields ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buffer ',';
            escape buffer k;
            Buffer.add_char buffer ':';
            emit buffer v)
          fields;
        Buffer.add_char buffer '}'

  let to_string v =
    let buffer = Buffer.create 256 in
    emit buffer v;
    Buffer.contents buffer

  let event_json (e : Trace.event) =
    Json.Obj
      [
        ("at_ms", Json.Float e.at_ms);
        ("dur_ms", Json.Float e.dur_ms);
        ("kind", Json.Str (Trace.kind_name e.kind));
        ("drive", Json.Int e.drive);
        ("op", Json.Int e.op_id);
        ("bytes", Json.Int e.bytes);
      ]

  let to_jsonl r =
    let buffer = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string buffer (to_string (event_json e));
        Buffer.add_char buffer '\n')
      (events r);
    Buffer.add_string buffer
      (to_string
         (Json.Obj
            [
              ("trace_footer", Json.Bool true);
              ("events", Json.Int (List.length r.held));
              ("dropped", Json.Int r.dropped);
            ]));
    Buffer.add_char buffer '\n';
    Buffer.contents buffer

  let chrome_json r =
    let us ms = ms *. 1000. in
    let evs = events r in
    let max_drive = List.fold_left (fun acc (e : Trace.event) -> max acc e.drive) (-1) evs in
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
    let meta =
      List.init (max_drive + 1) (fun d -> thread d (Printf.sprintf "drive %d" d))
      @ [ thread 1000 "operations" ]
    in
    let body =
      List.map
        (fun (e : Trace.event) ->
          let tid = if e.drive >= 0 then e.drive else 1000 in
          let args = Json.Obj [ ("op", Json.Int e.op_id); ("bytes", Json.Int e.bytes) ] in
          let name = ("name", Json.Str (Trace.kind_name e.kind)) in
          if e.dur_ms > 0. then
            Json.Obj
              [
                name;
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
                name;
                ("ph", Json.Str "i");
                ("ts", Json.Float (us e.at_ms));
                ("s", Json.Str "t");
                ("pid", Json.Int 1);
                ("tid", Json.Int tid);
                ("args", args);
              ])
        evs
    in
    to_string
      (Json.Obj
         [
           ("traceEvents", Json.Arr (meta @ body));
           ("displayTimeUnit", Json.Str "ms");
           ("dropped", Json.Int r.dropped);
         ])
end

(* Timestamps and durations that stress both the sort and the float
   rule: a few repeated values (ties), integral values, 1e15-scale and
   subnormal-scale values, and the odd non-finite one. *)
let trace_float_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map float_of_int (int_range 0 20));
      (3, map (fun i -> float_of_int i /. 8.) (int_range (-40) 4000));
      (2, map (fun x -> x *. 1e15) (float_range 0. 9.));
      (2, map (fun x -> x *. 1e-300) (float_range 0. 10.));
      (1, oneofl [ 5e-324; 0.1; 1e12; 123456789012.5; -0.; 1e21 ]);
      (1, oneofl [ Float.infinity; Float.nan ]);
    ]

let trace_event_gen =
  let open QCheck.Gen in
  let* at_ms = trace_float_gen in
  let* dur_ms = frequency [ (2, return 0.); (3, trace_float_gen) ] in
  let* kind = oneofa all_kinds in
  let* drive = int_range (-1) 9 in
  let* op_id = frequency [ (1, return (-1)); (4, int_range 0 1_000_000) ] in
  let+ bytes = frequency [ (1, return 0); (4, int_range 0 (1 lsl 40)) ] in
  { Trace.at_ms; dur_ms; kind; drive; op_id; bytes }

(* A ring of capacity 1-64 and up to 200 events, so most rings wrap. *)
let trace_ring_gen =
  QCheck.Gen.(pair (int_range 1 64) (list_size (int_range 0 200) trace_event_gen))

let build_rings (capacity, events) =
  let tr = Trace.create ~capacity () and model = Ref.create capacity in
  List.iter
    (fun e ->
      Trace.record tr e;
      Ref.record model e)
    events;
  (tr, model)

let show_ring (capacity, events) =
  Printf.sprintf "capacity %d, %d events" capacity (List.length events)

let same_exports tr model =
  Json.to_string (Trace.chrome_json tr) = Ref.chrome_json model
  && Trace.to_jsonl tr = Ref.to_jsonl model
  (* [compare], not [=], so a NaN timestamp equals itself *)
  && compare (Trace.events tr) (Ref.events model) = 0
  && Trace.dropped tr = model.Ref.dropped

let prop_exports_match_reference =
  QCheck.Test.make ~name:"streamed chrome and jsonl match the tree-building reference" ~count:300
    (QCheck.make ~print:show_ring trace_ring_gen) (fun ring ->
      let tr, model = build_rings ring in
      same_exports tr model)

let prop_merge_matches_reference =
  QCheck.Test.make ~name:"slot-copy merge matches the list-based reference" ~count:300
    (QCheck.make
       ~print:(fun (a, b, off) -> Printf.sprintf "dst %s; src %s; offset %d" (show_ring a) (show_ring b) off)
       QCheck.Gen.(triple trace_ring_gen trace_ring_gen (int_range 0 12)))
    (fun (a, b, drive_offset) ->
      let dst, dst_model = build_rings a and src, src_model = build_rings b in
      Trace.merge_into ~drive_offset dst src;
      Ref.merge_into ~drive_offset dst_model src_model;
      same_exports dst dst_model && same_exports src src_model)

(* Merging a ring into itself behaves like merging an identical copy:
   the slots are read before any is overwritten, and [src]'s dropped
   count is the one it had before the merge. *)
let test_trace_merge_into_self () =
  List.iter
    (fun (capacity, n) ->
      let rings () = build_rings (capacity, List.init n nth_event) in
      let tr, _ = rings () and twin, model = rings () in
      Trace.merge_into ~drive_offset:3 tr tr;
      Trace.merge_into ~drive_offset:3 twin (fst (rings ()));
      Ref.merge_into ~drive_offset:3 model (snd (rings ()));
      check_string "self-merge equals merging a copy" (Trace.to_jsonl twin) (Trace.to_jsonl tr);
      check_bool "and the reference" true (same_exports tr model))
    [ (8, 5); (8, 8); (8, 21); (1, 3); (64, 40) ]

(* Minor words per event of the Chrome export of a full default ring.
   Streaming from the ring leaves each event its float and int strings
   and boxed floats: 27.8 measured, budget 10% above.  Building a
   [Json.t] tree per event, as the exports once did, read about 312. *)
let test_chrome_export_allocation_budget () =
  let tr = Trace.create () in
  let n = Trace.default_capacity in
  for i = 0 to n + 999 do
    Trace.record tr { (nth_event i) with at_ms = float_of_int (i / 3) *. 0.37 }
  done;
  ignore (Json.to_string (Trace.chrome_json tr));
  let before = Gc.minor_words () in
  let doc = Json.to_string (Trace.chrome_json tr) in
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  ignore (Sys.opaque_identity doc);
  if per_event > 30.5 then
    Alcotest.failf "chrome export allocates %.1f minor words per event (budget 30.5)" per_event

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let test_sink_merge_counts () =
  let a = Sink.create () and b = Sink.create () in
  Sink.record_op a ~latency:10. ~queue_wait:1. ~seek:2. ~rotation:3. ~transfer:4.;
  Sink.record_op b ~latency:20. ~queue_wait:2. ~seek:4. ~rotation:6. ~transfer:8.;
  Sink.record_op b ~latency:30. ~queue_wait:3. ~seek:6. ~rotation:9. ~transfer:12.;
  Sink.record_seek a ~drive:0 ~cylinders:100;
  Sink.record_seek b ~drive:2 ~cylinders:50;
  let m = Sink.merge a b in
  check_int "latency samples add" 3 (Hist.count (Sink.latency m));
  check_exact_float "latency mass adds" 60. (Hist.total (Sink.latency m));
  check_int "drive axis widens to the larger sink" 3 (Sink.drive_count m);
  check_int "drive 0 seeks survive" 1 (Hist.count (Sink.drive_seek_dist m 0));
  check_int "drive 2 seeks survive" 1 (Hist.count (Sink.drive_seek_dist m 2))

let test_sink_merge_empty_cases () =
  let both_empty = Sink.merge (Sink.create ()) (Sink.create ()) in
  check_int "empty + empty has no samples" 0 (Hist.count (Sink.latency both_empty));
  let b = Sink.create () in
  Sink.record_op b ~latency:5. ~queue_wait:1. ~seek:1. ~rotation:1. ~transfer:2.;
  Sink.record_seek b ~drive:1 ~cylinders:10;
  let left = Sink.merge (Sink.create ()) b and right = Sink.merge b (Sink.create ()) in
  List.iter
    (fun m ->
      check_int "empty side is the identity" 1 (Hist.count (Sink.latency m));
      check_exact_float "sample mass survives" 5. (Hist.total (Sink.latency m));
      check_int "drive axis survives" 2 (Sink.drive_count m))
    [ left; right ];
  (* trace presence: merged sink carries a ring when either side does,
     with both sides' events and drops *)
  let traced = Sink.create ~trace:true ~trace_capacity:2 () in
  List.iter
    (fun t -> Sink.event traced (ev t Trace.Arrival 0))
    [ 1.; 2.; 3. ];
  let m = Sink.merge (Sink.create ()) traced in
  (match Sink.trace_ref m with
  | Some ring ->
      check_int "merged ring holds the events" 2 (Trace.length ring);
      check_int "merged ring carries drops" 1 (Trace.dropped ring)
  | None -> Alcotest.fail "merge lost the trace ring");
  (* the sink document exposes the trace block only when tracing *)
  check_bool "traced doc has trace block" true
    (Json.member "trace" (Sink.to_json m) <> None);
  check_bool "untraced doc has no trace block" true
    (Json.member "trace" (Sink.to_json b) = None)

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let sample ?(io = 0) ?(alloc = 0) ?(bytes = 0) ?(lookups = 0) ?(hits = 0) ?(busy = [||])
    ?(qd = [||]) ?(used = 0) ?(total = 0) ?(free = 0) ?(largest = 0) ?(fh = [])
    ?(failed = 0) ?(user = 0) ?(moved = 0) ?(passes = 0) () =
  {
    Timeline.s_io_ops = io;
    s_alloc_ops = alloc;
    s_bytes_moved = bytes;
    s_disk_fulls = 0;
    s_data_loss = 0;
    s_rebuild_ios = 0;
    s_cache_lookups = lookups;
    s_cache_hits = hits;
    s_cache_misses = lookups - hits;
    s_cache_writeback_bytes = 0;
    s_cache_prefetched = 0;
    s_drive_busy_ms = busy;
    s_queue_depths = qd;
    s_failed_drives = failed;
    s_rebuilding_drives = 0;
    s_used_units = used;
    s_total_units = total;
    s_free_units = free;
    s_largest_free = largest;
    s_free_hist = fh;
    s_user_units = user;
    s_moved_units = moved;
    s_cleaner_passes = passes;
  }

let window i tl =
  match Json.member "windows" (Timeline.to_json tl) with
  | Some (Json.Arr ws) -> List.nth ws i
  | _ -> Alcotest.fail "timeline has no windows"

let wint w name =
  match Json.member name w with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "window lacks int %s" name

let wsub w outer name =
  match Json.member outer w with
  | Some o -> (
      match Json.member name o with
      | Some (Json.Int v) -> v
      | _ -> Alcotest.failf "window lacks %s.%s" outer name)
  | None -> Alcotest.failf "window lacks %s" outer

(* Counters are per-window deltas of the cumulative sample; a latency
   recorded with a completion timestamp past the open window lands in
   the window containing the completion, even when it is recorded
   before earlier windows close (the synchronous fast path). *)
let test_timeline_deltas_and_attribution () =
  let tl = Timeline.create ~every_ms:10. ~baseline:(sample ~io:5 ()) in
  Timeline.record_latency tl ~at:3. 1.5;
  Timeline.record_latency tl ~at:17. 2.5;
  (* window 1, two windows ahead *)
  Timeline.tick tl (sample ~io:8 ());
  Timeline.tick tl (sample ~io:20 ());
  check_int "two windows closed" 2 (Timeline.window_count tl);
  let w0 = window 0 tl and w1 = window 1 tl in
  check_int "window 0 delta vs baseline" 3 (wint w0 "io_ops");
  check_int "window 1 delta vs window 0" 12 (wint w1 "io_ops");
  check_int "latency attributed to window 0" 1 (wsub w0 "latency_ms" "count");
  check_int "future completion attributed to window 1" 1 (wsub w1 "latency_ms" "count");
  (* the CSV has a header plus one row per closed window *)
  let csv_lines = String.split_on_char '\n' (String.trim (Timeline.to_csv tl)) in
  check_int "csv rows" 3 (List.length csv_lines)

(* The documented merge rules, including the tail rule: the shorter
   timeline contributes zero deltas and its final gauges for the
   windows it never closed. *)
let test_timeline_merge_rules_and_tail () =
  let a = Timeline.create ~every_ms:10. ~baseline:(sample ~busy:[| 0. |] ~qd:[| 0 |] ()) in
  Timeline.tick a (sample ~io:1 ~used:10 ~largest:4 ~fh:[ (4, 1) ] ~busy:[| 2. |] ~qd:[| 1 |] ());
  Timeline.tick a (sample ~io:3 ~used:12 ~largest:8 ~fh:[ (4, 3) ] ~busy:[| 5. |] ~qd:[| 2 |] ());
  let b = Timeline.create ~every_ms:10. ~baseline:(sample ~busy:[| 0. |] ~qd:[| 0 |] ()) in
  Timeline.tick b
    (sample ~io:5 ~used:100 ~largest:16 ~fh:[ (4, 1); (16, 2) ] ~busy:[| 7. |] ~qd:[| 4 |]
       ~failed:1 ());
  let m = Timeline.merge a b in
  check_int "merged window count is the max" 2 (Timeline.window_count m);
  let w0 = window 0 m and w1 = window 1 m in
  check_int "counters sum" 6 (wint w0 "io_ops");
  check_int "gauges sum" 110 (wsub w0 "alloc" "used_units");
  check_int "largest_free is the max" 16 (wsub w0 "alloc" "largest_free_units");
  check_int "free extents sum" 4 (wsub w0 "alloc" "free_extents");
  check_int "failed drives sum" 1 (wsub w0 "fault" "failed_drives");
  (match Json.member "drives" w0 with
  | Some (Json.Arr ds) -> check_int "drive columns concatenate" 2 (List.length ds)
  | _ -> Alcotest.fail "merged window lacks drives");
  (* tail: b closed one window, so window 1 takes a's delta plus b's
     final gauges with zero deltas *)
  check_int "tail contributes zero deltas" 2 (wint w1 "io_ops");
  check_int "tail contributes final gauges" 112 (wsub w1 "alloc" "used_units");
  check_int "tail failed gauge persists" 1 (wsub w1 "fault" "failed_drives");
  (* width mismatch is refused *)
  let c = Timeline.create ~every_ms:20. ~baseline:(sample ()) in
  check_bool "merge refuses width mismatch" true
    (try
       ignore (Timeline.merge a c : Timeline.t);
       false
     with Invalid_argument _ -> true)

(* Snapshot mid-stream, continue on a restored copy: byte-identical
   JSON and CSV to the timeline that was never interrupted. *)
let test_timeline_ckpt_roundtrip () =
  let mk () = Timeline.create ~every_ms:10. ~baseline:(sample ()) in
  let first tl =
    Timeline.record_latency tl ~at:4. 1.;
    Timeline.record_latency tl ~at:23. 7.;
    Timeline.tick tl (sample ~io:4 ~used:5 ())
  in
  let second tl =
    Timeline.record_latency tl ~at:15. 2.;
    Timeline.tick tl (sample ~io:9 ~used:6 ());
    Timeline.tick tl (sample ~io:11 ~used:6 ())
  in
  let full = mk () in
  first full;
  second full;
  let head = mk () in
  first head;
  let blob = Timeline.ckpt_save head in
  let resumed = mk () in
  Timeline.ckpt_load resumed blob;
  second resumed;
  check_string "restored timeline continues byte-identically"
    (Json.to_string (Timeline.to_json full))
    (Json.to_string (Timeline.to_json resumed));
  check_string "csv identical too" (Timeline.to_csv full) (Timeline.to_csv resumed);
  (* cadence mismatch is refused *)
  let other = Timeline.create ~every_ms:20. ~baseline:(sample ()) in
  check_bool "load refuses width mismatch" true
    (try
       Timeline.ckpt_load other blob;
       false
     with Invalid_argument _ -> true)

(* Shard-exactness at the library level: split an event stream in two,
   build one timeline per half (each ticking its own cumulative
   counters at the same absolute boundaries), merge — byte-identical
   to the timeline built from the whole stream.  Window alignment to
   absolute time is what makes the elementwise merge correct. *)
let prop_timeline_partition_invariant =
  QCheck.Test.make ~name:"merging a partition reproduces the whole timeline" ~count:150
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 0 80)
           (pair (float_bound_inclusive 79.9) (float_bound_inclusive 50.))))
    (fun (nwin, events) ->
      let mk () = Timeline.create ~every_ms:10. ~baseline:(sample ()) in
      let full = mk () and a = mk () and b = mk () in
      List.iteri
        (fun i (at, v) ->
          Timeline.record_latency full ~at v;
          Timeline.record_latency (if i mod 2 = 0 then a else b) ~at v)
        events;
      let count p bound =
        List.length (List.filteri (fun i (at, _) -> p i && at < bound) events)
      in
      for k = 1 to nwin do
        let bound = float_of_int k *. 10. in
        Timeline.tick full (sample ~io:(count (fun _ -> true) bound) ());
        Timeline.tick a (sample ~io:(count (fun i -> i mod 2 = 0) bound) ());
        Timeline.tick b (sample ~io:(count (fun i -> i mod 2 = 1) bound) ())
      done;
      Json.to_string (Timeline.to_json (Timeline.merge a b))
      = Json.to_string (Timeline.to_json full))

(* ------------------------------------------------------------------ *)
(* Report document schema golden                                       *)
(* ------------------------------------------------------------------ *)

(* Pins the exact member names (and order) of the machine-readable
   report: rofs_sim --json consumers key on these. *)
let test_report_json_schema_golden () =
  let sink = Sink.create () in
  Sink.record_op sink ~latency:12. ~queue_wait:1. ~seek:4. ~rotation:3. ~transfer:4.;
  let doc = C.Report.to_json ~workload:"TP" ~policy:"extent" ~metrics:sink () in
  check_bool "top-level keys" true
    (Json.keys doc = [ "schema"; "policy"; "workload"; "metrics" ]);
  check_bool "schema tag" true (Json.member "schema" doc = Some (Json.Str "rofs-report-v1"));
  (match Json.member "metrics" doc with
  | Some metrics ->
      check_bool "metrics keys" true
        (Json.keys metrics
        = [
            "latency_ms";
            "queue_wait_ms";
            "seek_ms";
            "rotation_ms";
            "transfer_ms";
            "fault_penalty_ms";
            "drives";
          ]);
      (match Json.member "latency_ms" metrics with
      | Some h ->
          check_bool "histogram keys" true
            (Json.keys h = [ "count"; "mean"; "min"; "max"; "p50"; "p90"; "p99"; "p999" ])
      | None -> Alcotest.fail "missing latency_ms")
  | None -> Alcotest.fail "missing metrics");
  (* The document round-trips through the parser. *)
  match Json.parse (Json.to_string doc) with
  | Ok reparsed -> check_string "round trip" (Json.to_string doc) (Json.to_string reparsed)
  | Error e -> Alcotest.failf "report does not reparse: %s" e

(* ------------------------------------------------------------------ *)
(* Engine goldens: instrumentation is free                             *)
(* ------------------------------------------------------------------ *)

(* The mini workload and measurement protocol of test_fault's goldens. *)
let mini_tp =
  {
    Workload.name = "MINI-TP";
    description = "scaled transaction-processing workload";
    types =
      [
        {
          File_type.name = "relation";
          count = 20;
          users = 10;
          process_time_ms = 20.;
          hit_freq_ms = 30.;
          rw_mean_bytes = 16 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 40 * 1024 * 1024;
          initial_dev_bytes = 8 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 6;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
      ];
  }

let buddy = Experiment.Buddy C.Buddy.default_config

let engine_config ~scheduler =
  {
    Engine.default_config with
    lower_bound = 0.50;
    upper_bound = 0.60;
    max_measure_ms = 60_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 4_000_000;
    array_config = (fun stripe_unit -> Array_model.Striped { stripe_unit });
    scheduler;
  }

(* Frozen in test_fault.ml before lib/obs existed: striped FCFS (the
   synchronous fast path) and striped SSTF (the dispatch-queue path).
   Bit-identical results with a tracing sink attached prove the
   instrumentation never perturbs the simulation. *)
let obs_goldens =
  [
    (Policy.Fcfs, (12.17699789351555, 1385.382679652462, 60028.651772065787, 6, 4781));
    (Policy.Sstf, (14.004676518604464, 1593.318521746806, 60004.618860849529, 6, 5498));
  ]

let test_instrumented_run_matches_goldens () =
  List.iter
    (fun (scheduler, (g_pct, g_bpm, g_measured, g_checkpoints, g_ios)) ->
      let name = Printf.sprintf "striped/%s" (Policy.name scheduler) in
      let engine = Experiment.make_engine ~config:(engine_config ~scheduler) buddy mini_tp in
      let sink = Sink.create ~trace:true () in
      Engine.attach_obs engine sink;
      Engine.fill_to_lower_bound engine;
      let app = Engine.run_application_test engine in
      check_exact_float (name ^ " pct_of_max") g_pct app.Engine.pct_of_max;
      check_exact_float (name ^ " bytes_per_ms") g_bpm app.Engine.bytes_per_ms;
      check_exact_float (name ^ " measured_ms") g_measured app.Engine.measured_ms;
      check_int (name ^ " checkpoints") g_checkpoints app.Engine.checkpoints;
      check_int (name ^ " io_ops") g_ios app.Engine.io_ops;
      (* And the sink actually observed the run. *)
      check_bool (name ^ " latencies recorded") true (Hist.count (Sink.latency sink) > 0);
      check_bool (name ^ " trace captured") true
        (match Sink.trace_ref sink with Some tr -> Trace.length tr > 0 | None -> false);
      let reports = Engine.drive_reports engine in
      check_int (name ^ " one report per drive")
        (Array_model.disks (Engine.array_model engine))
        (Array.length reports);
      Array.iter
        (fun (r : Engine.drive_report) ->
          check_bool (name ^ " utilization sane") true
            (r.Engine.dr_utilization >= 0. && r.Engine.dr_utilization <= 1.))
        reports)
    obs_goldens

(* Multi-seed sweep: the merged sink is bit-identical at every job
   count (per-seed sinks are isolated; the fold order is the seed
   order). *)
let test_sweep_merge_job_invariant () =
  let config = { (engine_config ~scheduler:Policy.Fcfs) with Engine.max_measure_ms = 10_000. } in
  let seeds = [ 1; 2; 3 ] in
  let doc jobs =
    let runs = Experiment.run_seeds ~config ~jobs ~instrument:true ~seeds buddy mini_tp in
    let sinks = Array.map (fun r -> Option.get r.Experiment.s_sink) runs in
    let rest = Array.sub sinks 1 (Array.length sinks - 1) in
    Json.to_string (Sink.to_json (Array.fold_left Sink.merge sinks.(0) rest))
  in
  check_string "jobs=1 equals jobs=4" (doc 1) (doc 4)

(* ------------------------------------------------------------------ *)
(* Engine timeline: shard-exact and checkpoint-safe                    *)
(* ------------------------------------------------------------------ *)

(* The acceptance contract, frozen: one sharded run's merged timeline is
   byte-identical (JSON and CSV) at every --shards width, and its digest
   matches the golden below. *)
let timeline_digest_golden = "cba4945fd6db7ba9dc08bda332448888"

let timeline_config = { (engine_config ~scheduler:Policy.Fcfs) with Engine.max_measure_ms = 10_000. }

let sharded_timeline shards =
  let r = Experiment.run_sharded ~config:timeline_config ~shards ~timeline_every_ms:1000. buddy mini_tp in
  match r.Experiment.s_timeline with
  | Some tl -> (Json.to_string (Timeline.to_json tl), Timeline.to_csv tl)
  | None -> Alcotest.fail "sharded run produced no timeline"

let test_timeline_shard_width_invariant () =
  let j1, c1 = sharded_timeline 1 in
  List.iter
    (fun shards ->
      let j, c = sharded_timeline shards in
      check_string (Printf.sprintf "json identical at shards=%d" shards) j1 j;
      check_string (Printf.sprintf "csv identical at shards=%d" shards) c1 c)
    [ 2; 4; 8 ];
  check_string "digest matches frozen golden" timeline_digest_golden
    (Digest.to_hex (Digest.string (j1 ^ c1)))

(* The golden above runs FCFS buddy with no cache and no faults, so its
   cache, fault and churn columns are all zero.  This one turns every
   subsystem on: a write-back cache, SSTF, mirrored pairs under MTTF/MTTR
   drive faults and media errors, and LFS aged to 90% occupancy so the
   cleaner moves data.  Its two slices stabilize at different times and
   close different window counts, so the merge's tail rule runs too. *)
let rich_timeline_digest_golden = "7879ff409d0f8e273f68fadd2057373c"

let mini_ts =
  let ft name count users ~rw ~hint ~trunc ~size ~dev ~rwe:(read, write, extend) ~del =
    {
      File_type.name;
      count;
      users;
      process_time_ms = 20.;
      hit_freq_ms = 40.;
      rw_mean_bytes = rw;
      rw_dev_bytes = rw / 3;
      alloc_hint_bytes = hint;
      truncate_bytes = trunc;
      initial_mean_bytes = size;
      initial_dev_bytes = dev;
      read_pct = read;
      write_pct = write;
      extend_pct = extend;
      delete_pct_of_deallocs = del;
      pattern = File_type.Sequential;
    }
  in
  {
    Workload.name = "MINI-TS";
    description = "scaled timesharing workload";
    types =
      [
        ft "small" 200 6 ~rw:(12 * 1024) ~hint:(16 * 1024) ~trunc:(8 * 1024) ~size:(32 * 1024)
          ~dev:(8 * 1024) ~rwe:(40, 20, 30) ~del:70;
        ft "large" 100 3 ~rw:(24 * 1024) ~hint:(1024 * 1024) ~trunc:(96 * 1024)
          ~size:(2 * 1024 * 1024) ~dev:(256 * 1024) ~rwe:(60, 15, 15) ~del:20;
      ];
  }

let rich_timeline_config =
  {
    timeline_config with
    Engine.disks = 4;
    shard_slices = 2;
    lower_bound = 0.25;
    upper_bound = 0.95;
    interval_ms = 1_000.;
    tolerance_pct = 1.0;
    scheduler = Policy.Sstf;
    array_config = (fun stripe_unit -> Array_model.Mirrored { stripe_unit });
    faults =
      {
        C.Fault_plan.none with
        C.Fault_plan.seed = 42;
        mttf_ms = 60_000.;
        mttr_ms = 15_000.;
        media_error_rate = 0.001;
      };
    cache = Some (C.Cache.config ~mb:16 ~write_mode:C.Cache.Write_back ());
    age_ms = 60_000.;
    age_occupancy = 0.90;
  }

let rich_sharded_timeline shards =
  let r =
    Experiment.run_sharded ~config:rich_timeline_config ~shards ~timeline_every_ms:1000.
      (Experiment.Log_structured (C.Log_structured.config ()))
      mini_ts
  in
  match r.Experiment.s_timeline with
  | Some tl -> tl
  | None -> Alcotest.fail "sharded run produced no timeline"

let timeline_exports tl = (Json.to_string (Timeline.to_json tl), Timeline.to_csv tl)

let test_rich_timeline_golden () =
  let tl = rich_sharded_timeline 1 in
  let j1, c1 = timeline_exports tl in
  List.iter
    (fun shards ->
      let j, c = timeline_exports (rich_sharded_timeline shards) in
      check_string (Printf.sprintf "json identical at shards=%d" shards) j1 j;
      check_string (Printf.sprintf "csv identical at shards=%d" shards) c1 c)
    [ 2; 4 ];
  let ws = List.init (Timeline.window_count tl) (fun i -> window i tl) in
  let total f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  check_bool "cache hits" true (total (fun w -> wsub w "cache" "hits") > 0);
  check_bool "rebuilding drives" true (total (fun w -> wsub w "fault" "rebuilding_drives") > 0);
  check_bool "cleaner-moved units" true (total (fun w -> wsub w "churn" "moved_units") > 0);
  check_string "digest matches frozen golden" rich_timeline_digest_golden
    (Digest.to_hex (Digest.string (j1 ^ c1)))

(* Interrupted-and-resumed armed runs emit byte-identical timelines.
   The resume protocol is arm-before-restore: re-attach the timeline at
   the original cadence, then let the snapshot supersede the open-window
   state with its own (it also carries the live Stat_tick chain, so no
   set_checkpoint call is needed on the resumed engine). *)
let timeline_run ?resume () =
  let engine = Experiment.make_engine ~config:timeline_config buddy mini_tp in
  Engine.attach_timeline engine ~every_ms:1000.;
  let snap = ref None in
  (match resume with
  | Some sections -> Engine.restore engine sections
  | None ->
      Engine.set_checkpoint engine ~every_ms:2_000. (fun () ->
          if !snap = None then snap := Some (Engine.checkpoint engine)));
  Engine.fill_to_lower_bound engine;
  ignore (Engine.run_application_test engine : Engine.throughput_report);
  ignore (Engine.run_sequential_test engine : Engine.throughput_report);
  let tl =
    match Engine.timeline engine with
    | Some tl -> tl
    | None -> Alcotest.fail "armed engine lost its timeline"
  in
  (Json.to_string (Timeline.to_json tl) ^ "\n" ^ Timeline.to_csv tl, !snap)

let test_timeline_ckpt_resume_identity () =
  let full, snap = timeline_run () in
  let sections =
    match snap with Some s -> s | None -> Alcotest.fail "no snapshot captured"
  in
  let resumed, _ = timeline_run ~resume:sections () in
  check_string "resumed timeline byte-identical to uninterrupted" full resumed;
  (* a timeline-bearing snapshot does not restore into a plain engine *)
  let plain = Experiment.make_engine ~config:timeline_config buddy mini_tp in
  check_bool "timeline presence mismatch refused" true
    (try
       Engine.restore plain sections;
       false
     with Invalid_argument msg -> not (String.contains msg '\n'))

let test_attach_timeline_refusals () =
  let engine = Experiment.make_engine ~config:timeline_config buddy mini_tp in
  List.iter
    (fun (name, every_ms) ->
      check_bool (name ^ " cadence refused") true
        (try
           Engine.attach_timeline engine ~every_ms;
           false
         with Invalid_argument _ -> true);
      check_bool (name ^ " timeline width refused") true
        (try
           ignore (Timeline.create ~every_ms ~baseline:(sample ()) : Timeline.t);
           false
         with Invalid_argument _ -> true);
      check_bool (name ^ " checkpoint cadence refused") true
        (try
           Engine.set_checkpoint engine ~every_ms ignore;
           false
         with Invalid_argument _ -> true))
    [ ("non-positive", 0.); ("nan", Float.nan); ("infinite", Float.infinity) ];
  Engine.attach_timeline engine ~every_ms:1000.;
  check_bool "double attach refused" true
    (try
       Engine.attach_timeline engine ~every_ms:1000.;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let capture_goldens () =
  (* regenerate both timeline digest goldens (see header comment) *)
  let j1, c1 = sharded_timeline 1 in
  Printf.printf "let timeline_digest_golden = %S\n" (Digest.to_hex (Digest.string (j1 ^ c1)));
  let j, c = timeline_exports (rich_sharded_timeline 1) in
  Printf.printf "let rich_timeline_digest_golden = %S\n" (Digest.to_hex (Digest.string (j ^ c)))

let () =
  if Sys.getenv_opt "ROFS_GOLDEN_CAPTURE" <> None then capture_goldens ()
  else
    let quick name f = Alcotest.test_case name `Quick f in
    let slow name f = Alcotest.test_case name `Slow f in
    Alcotest.run "rofs_obs"
      [
        ( "hist",
          [
            quick "basics" test_hist_basics;
            quick "empty quantiles are zero" test_hist_empty_quantiles;
            quick "pool-built partitions merge to the whole" test_merge_on_pool;
            QCheck_alcotest.to_alcotest prop_bucket_monotone;
            QCheck_alcotest.to_alcotest prop_quantiles_ordered;
            QCheck_alcotest.to_alcotest prop_merge_associative;
            QCheck_alcotest.to_alcotest prop_merge_partition_invariant;
          ] );
        ( "json",
          [
            quick "parse basics" test_json_parse_basics;
            quick "non-finite floats" test_json_non_finite;
            QCheck_alcotest.to_alcotest prop_json_roundtrip;
          ] );
        ( "trace",
          [
            quick "ring drops oldest" test_trace_ring_drops_oldest;
            quick "events time-ordered" test_trace_events_time_ordered;
            quick "ring round-trips every field" test_trace_ring_round_trips_fields;
            quick "ring footprint bounded" test_trace_ring_footprint;
            quick "chrome document loads" test_chrome_json_loads;
            quick "merge across fill levels propagates drops"
              test_trace_merge_fill_levels_and_dropped;
            quick "dropped exported in footer and chrome metadata"
              test_trace_dropped_exported;
            quick "merging a ring into itself" test_trace_merge_into_self;
            quick "chrome export minor words per event bounded"
              test_chrome_export_allocation_budget;
            QCheck_alcotest.to_alcotest prop_exports_match_reference;
            QCheck_alcotest.to_alcotest prop_merge_matches_reference;
          ] );
        ( "sink",
          [
            quick "merge adds samples" test_sink_merge_counts;
            quick "merge with empty sides" test_sink_merge_empty_cases;
            quick "report schema golden" test_report_json_schema_golden;
          ] );
        ( "timeline",
          [
            quick "window deltas and latency attribution" test_timeline_deltas_and_attribution;
            quick "merge rules and tail" test_timeline_merge_rules_and_tail;
            quick "checkpoint roundtrip continues byte-identically"
              test_timeline_ckpt_roundtrip;
            quick "attach refusals" test_attach_timeline_refusals;
            QCheck_alcotest.to_alcotest prop_timeline_partition_invariant;
          ] );
        ( "engine",
          [
            slow "instrumented run matches frozen goldens" test_instrumented_run_matches_goldens;
            slow "sweep merge is job-count invariant" test_sweep_merge_job_invariant;
            slow "sharded timeline is shard-width invariant" test_timeline_shard_width_invariant;
            slow "rich sharded timeline matches its golden" test_rich_timeline_golden;
            slow "interrupted timeline resumes byte-identically"
              test_timeline_ckpt_resume_identity;
          ] );
      ]
