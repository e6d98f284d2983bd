(* Windowed time-series telemetry (see timeline.mli for the model).

   Windows are aligned to absolute simulated time: window [k] covers
   [k * every_ms, (k+1) * every_ms).  The engine feeds two streams:
   per-completion latencies (attributed to the window containing the
   completion timestamp, which the synchronous fast path can place
   beyond the currently open window) and one cumulative [sample] per
   tick, from which the closing window's counter deltas are taken.
   Everything is integer counters, per-window histograms or documented
   gauge rules, so merging slice timelines elementwise is exact. *)

type sample = {
  s_io_ops : int;
  s_alloc_ops : int;
  s_bytes_moved : int;
  s_disk_fulls : int;
  s_data_loss : int;
  s_rebuild_ios : int;
  s_cache_lookups : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_cache_writeback_bytes : int;
  s_cache_prefetched : int;
  s_drive_busy_ms : float array;
  s_queue_depths : int array;
  s_failed_drives : int;
  s_rebuilding_drives : int;
  s_used_units : int;
  s_total_units : int;
  s_free_units : int;
  s_largest_free : int;
  s_free_hist : (int * int) list;
  s_user_units : int;
  s_moved_units : int;
  s_cleaner_passes : int;
}

(* A closed window: the delta between its closing sample and the
   previous one, plus the closing sample itself.  Counters and busy time
   are read from [w_delta]; gauges and cumulative churn totals from
   [w_at] (the gauge fields of [w_delta] are [w_at]'s, unread). *)
type window = { w_index : int; w_delta : sample; w_at : sample; w_latency : Hist.t }

(* Everything a timeline checkpoints, in one closure-free record behind
   one mutable slot: a snapshot marshals it whole, and a restore swaps
   it in.  It carries its window width so that a restore can refuse a
   different cadence. *)
type state = {
  every_ms : float;
  mutable closed_rev : window list;
  mutable nclosed : int;
  mutable lat : Hist.t array;  (* per-window latency, indexed by window *)
  mutable prev : sample;  (* cumulative baseline of the open window *)
}

type t = { mutable st : state }

let create ~every_ms ~baseline =
  if not (Float.is_finite every_ms && every_ms > 0.) then
    invalid_arg "Timeline.create: every_ms must be a finite positive number";
  { st = { every_ms; closed_rev = []; nclosed = 0; lat = [||]; prev = baseline } }

let window_count t = t.st.nclosed

let lat_hist st idx =
  let len = Array.length st.lat in
  if idx >= len then begin
    let grown = Array.init (max (idx + 1) (max 8 (2 * len))) (fun _ -> Hist.create ()) in
    Array.blit st.lat 0 grown 0 len;
    st.lat <- grown
  end;
  st.lat.(idx)

let record_latency t ~at v =
  (* The synchronous fast path records an operation when it is issued,
     with a completion time possibly several windows ahead — attribute
     by the completion timestamp, not the call time.  [max nclosed]
     guards the (never expected) case of a timestamp behind the open
     window; a closed window cannot be amended. *)
  let st = t.st in
  let idx = max st.nclosed (int_of_float (at /. st.every_ms)) in
  Hist.add (lat_hist st idx) v

(* [a] minus [b] on the cumulative fields; gauges are [a]'s.  A drive
   [b] has not seen counts from zero. *)
let diff a b =
  let busy = b.s_drive_busy_ms in
  {
    a with
    s_io_ops = a.s_io_ops - b.s_io_ops;
    s_alloc_ops = a.s_alloc_ops - b.s_alloc_ops;
    s_bytes_moved = a.s_bytes_moved - b.s_bytes_moved;
    s_disk_fulls = a.s_disk_fulls - b.s_disk_fulls;
    s_data_loss = a.s_data_loss - b.s_data_loss;
    s_rebuild_ios = a.s_rebuild_ios - b.s_rebuild_ios;
    s_cache_lookups = a.s_cache_lookups - b.s_cache_lookups;
    s_cache_hits = a.s_cache_hits - b.s_cache_hits;
    s_cache_misses = a.s_cache_misses - b.s_cache_misses;
    s_cache_writeback_bytes = a.s_cache_writeback_bytes - b.s_cache_writeback_bytes;
    s_cache_prefetched = a.s_cache_prefetched - b.s_cache_prefetched;
    s_drive_busy_ms =
      Array.mapi
        (fun d v -> v -. if d < Array.length busy then busy.(d) else 0.)
        a.s_drive_busy_ms;
    s_user_units = a.s_user_units - b.s_user_units;
    s_moved_units = a.s_moved_units - b.s_moved_units;
    s_cleaner_passes = a.s_cleaner_passes - b.s_cleaner_passes;
  }

let tick t sample =
  let st = t.st in
  let idx = st.nclosed in
  let w_latency = if idx < Array.length st.lat then st.lat.(idx) else Hist.create () in
  let w = { w_index = idx; w_delta = diff sample st.prev; w_at = sample; w_latency } in
  st.closed_rev <- w :: st.closed_rev;
  st.nclosed <- idx + 1;
  st.prev <- sample

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* Merge rules (the documented contract, pinned by the shard goldens):
   counters and byte deltas sum; latency histograms merge bucket-wise;
   free-space distributions sum per size (the free-size histogram is
   built from the sum at export, which gives the bytes [Hist.merge]
   would: sizes and counts are integers); per-drive arrays concatenate
   in argument order (slice 0's drives first, matching the fault
   report's drive-state rule); used/total/free units and free-extent
   counts sum (the slices manage disjoint sub-volumes); [largest_free]
   takes the max; failed/rebuilding drive counts sum.  A timeline that
   closed fewer windows than its peer contributes, for each missing
   window, zero deltas, an empty latency histogram, and the gauge
   values of its final cumulative sample — a finished slice's free
   space no longer changes, so its last observation stands. *)

(* Sum two sorted (size, count) free-space distributions. *)
let rec merge_free_hists a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (sa, ca) :: ta, (sb, _) :: _ when sa < sb -> (sa, ca) :: merge_free_hists ta b
  | (sa, _) :: _, (sb, cb) :: tb when sb < sa -> (sb, cb) :: merge_free_hists a tb
  | (sa, ca) :: ta, (_, cb) :: tb -> (sa, ca + cb) :: merge_free_hists ta tb

let combine_samples a b =
  {
    s_io_ops = a.s_io_ops + b.s_io_ops;
    s_alloc_ops = a.s_alloc_ops + b.s_alloc_ops;
    s_bytes_moved = a.s_bytes_moved + b.s_bytes_moved;
    s_disk_fulls = a.s_disk_fulls + b.s_disk_fulls;
    s_data_loss = a.s_data_loss + b.s_data_loss;
    s_rebuild_ios = a.s_rebuild_ios + b.s_rebuild_ios;
    s_cache_lookups = a.s_cache_lookups + b.s_cache_lookups;
    s_cache_hits = a.s_cache_hits + b.s_cache_hits;
    s_cache_misses = a.s_cache_misses + b.s_cache_misses;
    s_cache_writeback_bytes = a.s_cache_writeback_bytes + b.s_cache_writeback_bytes;
    s_cache_prefetched = a.s_cache_prefetched + b.s_cache_prefetched;
    s_drive_busy_ms = Array.append a.s_drive_busy_ms b.s_drive_busy_ms;
    s_queue_depths = Array.append a.s_queue_depths b.s_queue_depths;
    s_failed_drives = a.s_failed_drives + b.s_failed_drives;
    s_rebuilding_drives = a.s_rebuilding_drives + b.s_rebuilding_drives;
    s_used_units = a.s_used_units + b.s_used_units;
    s_total_units = a.s_total_units + b.s_total_units;
    s_free_units = a.s_free_units + b.s_free_units;
    s_largest_free = max a.s_largest_free b.s_largest_free;
    s_free_hist = merge_free_hists a.s_free_hist b.s_free_hist;
    s_user_units = a.s_user_units + b.s_user_units;
    s_moved_units = a.s_moved_units + b.s_moved_units;
    s_cleaner_passes = a.s_cleaner_passes + b.s_cleaner_passes;
  }

let merge { st = a } { st = b } =
  if a.every_ms <> b.every_ms then invalid_arg "Timeline.merge: window width mismatch";
  let wa = Array.of_list (List.rev a.closed_rev) in
  let wb = Array.of_list (List.rev b.closed_rev) in
  let n = max (Array.length wa) (Array.length wb) in
  (* the stand-in for a window [t] never closed: zero deltas, final gauges *)
  let get t ws i =
    if i < Array.length ws then ws.(i)
    else { w_index = i; w_delta = diff t.prev t.prev; w_at = t.prev; w_latency = Hist.create () }
  in
  let closed_rev = ref [] in
  for i = 0 to n - 1 do
    let x = get a wa i and y = get b wb i in
    closed_rev :=
      {
        w_index = i;
        w_delta = combine_samples x.w_delta y.w_delta;
        w_at = combine_samples x.w_at y.w_at;
        w_latency = Hist.merge x.w_latency y.w_latency;
      }
      :: !closed_rev
  done;
  {
    st =
      {
        every_ms = a.every_ms;
        closed_rev = !closed_rev;
        nclosed = n;
        lat = [||];  (* a merged timeline is read-only: no open window *)
        prev = combine_samples a.prev b.prev;
      };
  }

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)

let ckpt_save t = Marshal.to_string t.st []

let ckpt_load t blob =
  let st = (Marshal.from_string blob 0 : state) in
  if st.every_ms <> t.st.every_ms then
    invalid_arg "Timeline.ckpt_load: window width mismatch (resume must use the original cadence)";
  t.st <- st

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let schema = "rofs-timeline-v1"

let utilization s =
  if s.s_total_units > 0 then float_of_int s.s_used_units /. float_of_int s.s_total_units
  else 0.

(* Cumulative (user + moved) / user units: 1 until the cleaner moves data. *)
let write_cost s =
  if s.s_user_units > 0 then
    float_of_int (s.s_user_units + s.s_moved_units) /. float_of_int s.s_user_units
  else 1.

let free_extents s = List.fold_left (fun acc (_, c) -> acc + c) 0 s.s_free_hist

let free_sizes s =
  let h = Hist.create () in
  List.iter (fun (size, count) -> Hist.add_n h (float_of_int size) count) s.s_free_hist;
  h

let t_start_ms t w = float_of_int w.w_index *. t.st.every_ms
let t_end_ms t w = float_of_int (w.w_index + 1) *. t.st.every_ms

let window_json t w =
  let d = w.w_delta and a = w.w_at in
  Json.Obj
    [
      ("index", Json.Int w.w_index);
      ("t_start_ms", Json.Float (t_start_ms t w));
      ("t_end_ms", Json.Float (t_end_ms t w));
      ("io_ops", Json.Int d.s_io_ops);
      ("alloc_ops", Json.Int d.s_alloc_ops);
      ("bytes", Json.Int d.s_bytes_moved);
      ("disk_fulls", Json.Int d.s_disk_fulls);
      ("latency_ms", Sink.hist_json w.w_latency);
      ( "cache",
        Json.Obj
          [
            ("lookups", Json.Int d.s_cache_lookups);
            ("hits", Json.Int d.s_cache_hits);
            ("misses", Json.Int d.s_cache_misses);
            ("writeback_bytes", Json.Int d.s_cache_writeback_bytes);
            ("prefetched_pages", Json.Int d.s_cache_prefetched);
          ] );
      ( "fault",
        Json.Obj
          [
            ("failed_drives", Json.Int a.s_failed_drives);
            ("rebuilding_drives", Json.Int a.s_rebuilding_drives);
            ("rebuild_ios", Json.Int d.s_rebuild_ios);
            ("data_loss", Json.Int d.s_data_loss);
          ] );
      ( "alloc",
        Json.Obj
          [
            ("used_units", Json.Int a.s_used_units);
            ("total_units", Json.Int a.s_total_units);
            ("utilization", Json.Float (utilization a));
            ("free_units", Json.Int a.s_free_units);
            ("largest_free_units", Json.Int a.s_largest_free);
            ("free_extents", Json.Int (free_extents a));
            ("free_size_units", Sink.hist_json (free_sizes a));
          ] );
      ( "churn",
        Json.Obj
          [
            ("user_units", Json.Int d.s_user_units);
            ("moved_units", Json.Int d.s_moved_units);
            ("cleaner_passes", Json.Int d.s_cleaner_passes);
            ("user_units_total", Json.Int a.s_user_units);
            ("moved_units_total", Json.Int a.s_moved_units);
            ("write_cost", Json.Float (write_cost a));
          ] );
      ( "drives",
        Json.Arr
          (Array.to_list
             (Array.mapi
                (fun i busy ->
                  Json.Obj
                    [
                      ("drive", Json.Int i);
                      ("busy_ms", Json.Float busy);
                      ( "queue_depth",
                        Json.Int
                          (if i < Array.length a.s_queue_depths then a.s_queue_depths.(i)
                           else 0) );
                    ])
                d.s_drive_busy_ms)) );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("every_ms", Json.Float t.st.every_ms);
      ("windows", Json.Arr (List.rev_map (window_json t) t.st.closed_rev));
    ]

(* Per-drive arrays collapse to mean / max (0 when empty), so the CSV's
   width is independent of the array shape. *)
let mean to_float arr =
  if arr = [||] then 0.
  else Array.fold_left (fun acc v -> acc +. to_float v) 0. arr /. float_of_int (Array.length arr)

let max_of zero arr = if arr = [||] then zero else Array.fold_left max arr.(0) arr

(* The CSV's columns, header and cell together: one row per window. *)
let csv_columns t =
  let d name f = (name, fun w -> string_of_int (f w)) in
  let g name f = (name, fun w -> Printf.sprintf "%g" (f w)) in
  [
    d "index" (fun w -> w.w_index);
    g "t_start_ms" (t_start_ms t);
    g "t_end_ms" (t_end_ms t);
    d "io_ops" (fun w -> w.w_delta.s_io_ops);
    d "alloc_ops" (fun w -> w.w_delta.s_alloc_ops);
    d "bytes" (fun w -> w.w_delta.s_bytes_moved);
    d "disk_fulls" (fun w -> w.w_delta.s_disk_fulls);
    d "lat_count" (fun w -> Hist.count w.w_latency);
    g "lat_mean_ms" (fun w -> Hist.mean w.w_latency);
    g "lat_p50_ms" (fun w -> Hist.p50 w.w_latency);
    g "lat_p99_ms" (fun w -> Hist.p99 w.w_latency);
    d "cache_lookups" (fun w -> w.w_delta.s_cache_lookups);
    d "cache_hits" (fun w -> w.w_delta.s_cache_hits);
    d "cache_misses" (fun w -> w.w_delta.s_cache_misses);
    d "cache_writeback_bytes" (fun w -> w.w_delta.s_cache_writeback_bytes);
    d "cache_prefetched_pages" (fun w -> w.w_delta.s_cache_prefetched);
    d "failed_drives" (fun w -> w.w_at.s_failed_drives);
    d "rebuilding_drives" (fun w -> w.w_at.s_rebuilding_drives);
    d "rebuild_ios" (fun w -> w.w_delta.s_rebuild_ios);
    d "data_loss" (fun w -> w.w_delta.s_data_loss);
    d "used_units" (fun w -> w.w_at.s_used_units);
    d "total_units" (fun w -> w.w_at.s_total_units);
    g "utilization" (fun w -> utilization w.w_at);
    d "free_units" (fun w -> w.w_at.s_free_units);
    d "largest_free_units" (fun w -> w.w_at.s_largest_free);
    d "free_extents" (fun w -> free_extents w.w_at);
    d "user_units" (fun w -> w.w_delta.s_user_units);
    d "moved_units" (fun w -> w.w_delta.s_moved_units);
    d "cleaner_passes" (fun w -> w.w_delta.s_cleaner_passes);
    g "write_cost" (fun w -> write_cost w.w_at);
    g "busy_ms_mean" (fun w -> mean Fun.id w.w_delta.s_drive_busy_ms);
    g "busy_ms_max" (fun w -> max_of 0. w.w_delta.s_drive_busy_ms);
    g "queue_depth_mean" (fun w -> mean float_of_int w.w_at.s_queue_depths);
    d "queue_depth_max" (fun w -> max_of 0 w.w_at.s_queue_depths);
  ]

let to_csv t =
  let columns = csv_columns t in
  let row cells = String.concat "," cells ^ "\n" in
  String.concat ""
    (row (List.map fst columns)
    :: List.rev_map (fun w -> row (List.map (fun (_, cell) -> cell w) columns)) t.st.closed_rev)
