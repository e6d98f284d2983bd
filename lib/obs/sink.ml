type drive_stats = {
  seek_dist : Hist.t;
  mutable qd_sum : int;
  mutable qd_n : int;
  mutable qd_max : int;
}

let fresh_drive () = { seek_dist = Hist.create (); qd_sum = 0; qd_n = 0; qd_max = 0 }

type cache_totals = {
  ct_lookups : int;
  ct_hits : int;
  ct_misses : int;
  ct_evictions : int;
  ct_prefetched : int;
  ct_flushes : int;
  ct_flushed_bytes : int;
}

type t = {
  latency : Hist.t;
  queue_wait : Hist.t;
  seek : Hist.t;
  rotation : Hist.t;
  transfer : Hist.t;
  fault_penalty : Hist.t;
  mutable drives : drive_stats array;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable cache_prefetched : int;
  mutable cache_flushes : int;
  mutable cache_flushed_bytes : int;
  trace : Trace.t option;
}

let create ?(trace = false) ?trace_capacity () =
  {
    latency = Hist.create ();
    queue_wait = Hist.create ();
    seek = Hist.create ();
    rotation = Hist.create ();
    transfer = Hist.create ();
    fault_penalty = Hist.create ();
    drives = [||];
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    cache_prefetched = 0;
    cache_flushes = 0;
    cache_flushed_bytes = 0;
    trace = (if trace then Some (Trace.create ?capacity:trace_capacity ()) else None);
  }

let record_op t ~latency ~queue_wait ~seek ~rotation ~transfer =
  Hist.add t.latency latency;
  Hist.add t.queue_wait queue_wait;
  Hist.add t.seek seek;
  Hist.add t.rotation rotation;
  Hist.add t.transfer transfer

let record_fault_penalty t ms = Hist.add t.fault_penalty ms

let record_cache_op t ~hits ~misses ~evictions ~prefetched =
  t.cache_hits <- t.cache_hits + hits;
  t.cache_misses <- t.cache_misses + misses;
  t.cache_evictions <- t.cache_evictions + evictions;
  t.cache_prefetched <- t.cache_prefetched + prefetched

let record_cache_flush t ~bytes =
  t.cache_flushes <- t.cache_flushes + 1;
  t.cache_flushed_bytes <- t.cache_flushed_bytes + bytes

let cache_totals t =
  {
    ct_lookups = t.cache_hits + t.cache_misses;
    ct_hits = t.cache_hits;
    ct_misses = t.cache_misses;
    ct_evictions = t.cache_evictions;
    ct_prefetched = t.cache_prefetched;
    ct_flushes = t.cache_flushes;
    ct_flushed_bytes = t.cache_flushed_bytes;
  }

let drive t d =
  let len = Array.length t.drives in
  if d >= len then begin
    let grown = Array.make (d + 1) (fresh_drive ()) in
    Array.blit t.drives 0 grown 0 len;
    for i = len to d do
      grown.(i) <- fresh_drive ()
    done;
    t.drives <- grown
  end;
  t.drives.(d)

let record_seek t ~drive:d ~cylinders =
  if d >= 0 then Hist.add (drive t d).seek_dist (float_of_int cylinders)

let record_queue_depth t ~drive:d ~depth =
  if d >= 0 then begin
    let ds = drive t d in
    ds.qd_sum <- ds.qd_sum + depth;
    ds.qd_n <- ds.qd_n + 1;
    if depth > ds.qd_max then ds.qd_max <- depth
  end

let tracing t = t.trace <> None
let event t e = match t.trace with None -> () | Some ring -> Trace.record ring e

let latency t = t.latency
let queue_wait t = t.queue_wait
let seek t = t.seek
let rotation t = t.rotation
let transfer t = t.transfer
let fault_penalty t = t.fault_penalty
let drive_count t = Array.length t.drives

let drive_seek_dist t d =
  if d >= 0 && d < Array.length t.drives then t.drives.(d).seek_dist else Hist.create ()

let drive_queue_depth t d =
  if d >= 0 && d < Array.length t.drives && t.drives.(d).qd_n > 0 then begin
    let ds = t.drives.(d) in
    (float_of_int ds.qd_sum /. float_of_int ds.qd_n, ds.qd_max)
  end
  else (0., 0)

let trace_ref t = t.trace

(* Checkpoint.  The engine's recorder closures and reporters alias the
   six histograms and the trace ring, so those restore in place; the
   drives array is only reached through [t] and swaps wholesale. *)
let ckpt_save t =
  Marshal.to_string
    ( t.latency,
      t.queue_wait,
      t.seek,
      t.rotation,
      t.transfer,
      t.fault_penalty,
      t.drives,
      ( t.cache_hits,
        t.cache_misses,
        t.cache_evictions,
        t.cache_prefetched,
        t.cache_flushes,
        t.cache_flushed_bytes ),
      t.trace )
    []

let ckpt_load t blob =
  let ( latency,
        queue_wait,
        seek,
        rotation,
        transfer,
        fault_penalty,
        drives,
        (cache_hits, cache_misses, cache_evictions, cache_prefetched, cache_flushes, cache_flushed_bytes),
        trace ) =
    (Marshal.from_string blob 0
      : Hist.t
        * Hist.t
        * Hist.t
        * Hist.t
        * Hist.t
        * Hist.t
        * drive_stats array
        * (int * int * int * int * int * int)
        * Trace.t option)
  in
  Hist.ckpt_restore ~dst:t.latency ~src:latency;
  Hist.ckpt_restore ~dst:t.queue_wait ~src:queue_wait;
  Hist.ckpt_restore ~dst:t.seek ~src:seek;
  Hist.ckpt_restore ~dst:t.rotation ~src:rotation;
  Hist.ckpt_restore ~dst:t.transfer ~src:transfer;
  Hist.ckpt_restore ~dst:t.fault_penalty ~src:fault_penalty;
  t.drives <- drives;
  t.cache_hits <- cache_hits;
  t.cache_misses <- cache_misses;
  t.cache_evictions <- cache_evictions;
  t.cache_prefetched <- cache_prefetched;
  t.cache_flushes <- cache_flushes;
  t.cache_flushed_bytes <- cache_flushed_bytes;
  match (t.trace, trace) with
  | None, None -> ()
  | Some dst, Some src -> Trace.ckpt_restore ~dst ~src
  | Some _, None | None, Some _ ->
      invalid_arg "Sink.ckpt_load: trace configuration mismatch"

let copy_drive x =
  { seek_dist = Hist.copy x.seek_dist; qd_sum = x.qd_sum; qd_n = x.qd_n; qd_max = x.qd_max }

let merge ?drive_offset a b =
  let na = Array.length a.drives and nb = Array.length b.drives in
  let drives =
    match drive_offset with
    | Some offset ->
        if na > offset then invalid_arg "Sink.merge: drive_offset is below the first sink's drives";
        Array.init (offset + nb) (fun i ->
            if i < na then copy_drive a.drives.(i)
            else if i < offset then fresh_drive ()
            else copy_drive b.drives.(i - offset))
    | None ->
        Array.init (max na nb) (fun i ->
            if i < na && i < nb then
              let x = a.drives.(i) and y = b.drives.(i) in
              {
                seek_dist = Hist.merge x.seek_dist y.seek_dist;
                qd_sum = x.qd_sum + y.qd_sum;
                qd_n = x.qd_n + y.qd_n;
                qd_max = max x.qd_max y.qd_max;
              }
            else copy_drive (if i < na then a.drives.(i) else b.drives.(i)))
  in
  let trace =
    match (a.trace, b.trace) with
    | None, None -> None
    | ta, tb ->
        let capacity =
          let cap = function None -> 0 | Some ring -> max (Trace.length ring) 1 in
          max Trace.(default_capacity) (max (cap ta) (cap tb))
        in
        let merged = Trace.create ~capacity () in
        Option.iter (fun ring -> Trace.merge_into merged ring) ta;
        Option.iter (fun ring -> Trace.merge_into ?drive_offset merged ring) tb;
        Some merged
  in
  {
    latency = Hist.merge a.latency b.latency;
    queue_wait = Hist.merge a.queue_wait b.queue_wait;
    seek = Hist.merge a.seek b.seek;
    rotation = Hist.merge a.rotation b.rotation;
    transfer = Hist.merge a.transfer b.transfer;
    fault_penalty = Hist.merge a.fault_penalty b.fault_penalty;
    drives;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    cache_evictions = a.cache_evictions + b.cache_evictions;
    cache_prefetched = a.cache_prefetched + b.cache_prefetched;
    cache_flushes = a.cache_flushes + b.cache_flushes;
    cache_flushed_bytes = a.cache_flushed_bytes + b.cache_flushed_bytes;
    trace;
  }

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Hist.count h));
      ("mean", Json.Float (Hist.mean h));
      ("min", Json.Float (Option.value ~default:0. (Hist.min_value h)));
      ("max", Json.Float (Option.value ~default:0. (Hist.max_value h)));
      ("p50", Json.Float (Hist.p50 h));
      ("p90", Json.Float (Hist.p90 h));
      ("p99", Json.Float (Hist.p99 h));
      ("p999", Json.Float (Hist.p999 h));
    ]

let to_json t =
  let drives =
    Array.to_list
      (Array.mapi
         (fun i ds ->
           let mean_qd, max_qd = drive_queue_depth t i in
           Json.Obj
             [
               ("drive", Json.Int i);
               ("seek_dist_cylinders", hist_json ds.seek_dist);
               ("queue_depth_mean", Json.Float mean_qd);
               ("queue_depth_max", Json.Int max_qd);
             ])
         t.drives)
  in
  (* The cache member only appears when a cache was active: the
     metrics document of an uncached run keeps its frozen key set. *)
  let cache =
    if t.cache_hits + t.cache_misses + t.cache_flushes = 0 then []
    else begin
      let c = cache_totals t in
      [
        ( "cache",
          Json.Obj
            [
              ("lookups", Json.Int c.ct_lookups);
              ("hits", Json.Int c.ct_hits);
              ("misses", Json.Int c.ct_misses);
              ( "hit_rate",
                Json.Float
                  (if c.ct_lookups > 0 then
                     float_of_int c.ct_hits /. float_of_int c.ct_lookups
                   else 0.) );
              ("evictions", Json.Int c.ct_evictions);
              ("prefetched_pages", Json.Int c.ct_prefetched);
              ("flushes", Json.Int c.ct_flushes);
              ("flushed_bytes", Json.Int c.ct_flushed_bytes);
            ] );
      ]
    end
  in
  (* Likewise the trace member: only traced runs carry it, so the
     frozen key set of untraced metrics documents is unchanged. *)
  let trace =
    match t.trace with
    | None -> []
    | Some ring ->
        [
          ( "trace",
            Json.Obj
              [
                ("events", Json.Int (Trace.length ring));
                ("dropped", Json.Int (Trace.dropped ring));
              ] );
        ]
  in
  Json.Obj
    ([
       ("latency_ms", hist_json t.latency);
       ("queue_wait_ms", hist_json t.queue_wait);
       ("seek_ms", hist_json t.seek);
       ("rotation_ms", hist_json t.rotation);
       ("transfer_ms", hist_json t.transfer);
       ("fault_penalty_ms", hist_json t.fault_penalty);
       ("drives", Json.Arr drives);
     ]
    @ cache @ trace)
