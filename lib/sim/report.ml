let mb_per_s bytes_per_ms = bytes_per_ms *. 1000. /. (1024. *. 1024.)

let alloc_to_string (r : Engine.alloc_report) =
  Printf.sprintf "internal %.1f%%, external %.1f%% (%d ops, util %.1f%%, %s)"
    (100. *. r.Engine.internal_frag)
    (100. *. r.Engine.external_frag)
    r.Engine.alloc_ops
    (100. *. r.Engine.utilization_at_end)
    (if r.Engine.failed then "failed as expected" else "op cap reached")

let throughput_to_string (r : Engine.throughput_report) =
  Printf.sprintf "%.1f%% of max (%.2f MB/s, %d I/Os, %s)" r.Engine.pct_of_max
    (mb_per_s r.Engine.bytes_per_ms)
    r.Engine.io_ops
    (if r.Engine.stabilized then "stabilized" else "time-capped")

let fault_to_string (r : Engine.fault_report) =
  let healthy, failed, rebuilding =
    Array.fold_left
      (fun (h, f, r) -> function
        | `Healthy -> (h + 1, f, r)
        | `Failed -> (h, f + 1, r)
        | `Rebuilding _ -> (h, f, r + 1))
      (0, 0, 0) r.Engine.drive_states
  in
  Printf.sprintf
    "%d healthy / %d failed / %d rebuilding; %d lost ops, %d media errors (%d retries, %d \
     remaps), %d degraded reads, %d degraded writes, %d rebuild I/Os"
    healthy failed rebuilding r.Engine.data_loss r.Engine.media_errors r.Engine.retries
    r.Engine.remaps r.Engine.reconstructed_reads r.Engine.degraded_writes r.Engine.rebuild_ios

let cache_to_string (r : Engine.cache_report) =
  Printf.sprintf
    "%s/%s, %d x %dK pages: %d/%d hits (%.1f%%), %d evictions (%d dirty), %d flushes, %s \
     written back"
    r.Engine.cr_policy r.Engine.cr_write_mode r.Engine.cr_pages
    (r.Engine.cr_page_bytes / 1024)
    r.Engine.cr_hits r.Engine.cr_lookups
    (100. *. r.Engine.cr_hit_rate)
    r.Engine.cr_evictions r.Engine.cr_dirty_evictions r.Engine.cr_flushes
    (Rofs_util.Units.to_string r.Engine.cr_writeback_bytes)

let churn_to_string (c : Rofs_alloc.Policy.churn_stats) =
  Printf.sprintf "write cost %.3fx (%d user units, %d cleaner-moved, %d passes)"
    (Rofs_alloc.Policy.write_cost c)
    c.Rofs_alloc.Policy.cs_user_units c.Rofs_alloc.Policy.cs_moved_units
    c.Rofs_alloc.Policy.cs_cleaner_passes

let drive_to_string (d : Engine.drive_report) =
  Printf.sprintf "util %5.1f%%, queue %.1f mean / %d max, %d reqs, %d seeks, %s"
    (100. *. d.Engine.dr_utilization)
    d.Engine.dr_queue_mean d.Engine.dr_queue_max d.Engine.dr_requests d.Engine.dr_seeks
    (Rofs_util.Units.to_string d.Engine.dr_bytes)

let summary ?faults ?cache ?drives ?churn ~workload ~policy ~alloc ~application ~sequential ()
    =
  let buffer = Buffer.create 128 in
  Buffer.add_string buffer (Printf.sprintf "%s on %s\n" policy workload);
  let line label value = Buffer.add_string buffer (Printf.sprintf "  %-12s %s\n" label value) in
  Option.iter (fun r -> line "allocation" (alloc_to_string r)) alloc;
  Option.iter (fun r -> line "application" (throughput_to_string r)) application;
  Option.iter (fun r -> line "sequential" (throughput_to_string r)) sequential;
  Option.iter (fun c -> line "churn" (churn_to_string c)) churn;
  Option.iter (fun r -> line "cache" (cache_to_string r)) cache;
  Option.iter (fun r -> line "faults" (fault_to_string r)) faults;
  Option.iter
    (fun (ds : Engine.drive_report array) ->
      Array.iter
        (fun d -> line (Printf.sprintf "drive %d" d.Engine.dr_drive) (drive_to_string d))
        ds)
    drives;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)

module Json = Rofs_obs.Json
module Sink = Rofs_obs.Sink

let alloc_json (r : Engine.alloc_report) =
  Json.Obj
    [
      ("internal_frag", Json.Float r.Engine.internal_frag);
      ("external_frag", Json.Float r.Engine.external_frag);
      ("alloc_ops", Json.Int r.Engine.alloc_ops);
      ("utilization_at_end", Json.Float r.Engine.utilization_at_end);
      ("failed", Json.Bool r.Engine.failed);
    ]

let throughput_json (r : Engine.throughput_report) =
  Json.Obj
    [
      ("pct_of_max", Json.Float r.Engine.pct_of_max);
      ("bytes_per_ms", Json.Float r.Engine.bytes_per_ms);
      ("mb_per_s", Json.Float (mb_per_s r.Engine.bytes_per_ms));
      ("measured_ms", Json.Float r.Engine.measured_ms);
      ("checkpoints", Json.Int r.Engine.checkpoints);
      ("stabilized", Json.Bool r.Engine.stabilized);
      ("io_ops", Json.Int r.Engine.io_ops);
      ("disk_fulls", Json.Int r.Engine.disk_fulls);
      ("utilization", Json.Float r.Engine.utilization);
      ("mean_extents_per_file", Json.Float r.Engine.mean_extents_per_file);
      ("meta_bytes", Json.Int r.Engine.meta_bytes);
    ]

let fault_json (r : Engine.fault_report) =
  let state = function
    | `Healthy -> Json.Str "healthy"
    | `Failed -> Json.Str "failed"
    | `Rebuilding f -> Json.Obj [ ("rebuilding", Json.Float f) ]
  in
  Json.Obj
    [
      ("drive_states", Json.Arr (Array.to_list (Array.map state r.Engine.drive_states)));
      ("data_loss", Json.Int r.Engine.data_loss);
      ("media_errors", Json.Int r.Engine.media_errors);
      ("retries", Json.Int r.Engine.retries);
      ("remaps", Json.Int r.Engine.remaps);
      ("remap_hits", Json.Int r.Engine.remap_hits);
      ("reconstructed_reads", Json.Int r.Engine.reconstructed_reads);
      ("degraded_writes", Json.Int r.Engine.degraded_writes);
      ("dirty_bytes", Json.Int r.Engine.dirty_bytes);
      ("rebuild_ios", Json.Int r.Engine.rebuild_ios);
    ]

let cache_json (r : Engine.cache_report) =
  let per_type =
    Array.to_list
      (Array.map
         (fun (name, hits, misses) ->
           Json.Obj
             [
               ("type", Json.Str name);
               ("hits", Json.Int hits);
               ("misses", Json.Int misses);
               ( "hit_rate",
                 Json.Float
                   (if hits + misses > 0 then
                      float_of_int hits /. float_of_int (hits + misses)
                    else 0.) );
             ])
         r.Engine.cr_per_type)
  in
  Json.Obj
    [
      ("policy", Json.Str r.Engine.cr_policy);
      ("write_mode", Json.Str r.Engine.cr_write_mode);
      ("pages", Json.Int r.Engine.cr_pages);
      ("page_bytes", Json.Int r.Engine.cr_page_bytes);
      ("lookups", Json.Int r.Engine.cr_lookups);
      ("hits", Json.Int r.Engine.cr_hits);
      ("misses", Json.Int r.Engine.cr_misses);
      ("hit_rate", Json.Float r.Engine.cr_hit_rate);
      ("hit_bytes", Json.Int r.Engine.cr_hit_bytes);
      ("insertions", Json.Int r.Engine.cr_insertions);
      ("evictions", Json.Int r.Engine.cr_evictions);
      ("dirty_evictions", Json.Int r.Engine.cr_dirty_evictions);
      ("flushes", Json.Int r.Engine.cr_flushes);
      ("writeback_bytes", Json.Int r.Engine.cr_writeback_bytes);
      ("prefetched_pages", Json.Int r.Engine.cr_prefetched_pages);
      ("invalidations", Json.Int r.Engine.cr_invalidations);
      ("per_type", Json.Arr per_type);
    ]

let drive_json (d : Engine.drive_report) =
  Json.Obj
    [
      ("drive", Json.Int d.Engine.dr_drive);
      ("requests", Json.Int d.Engine.dr_requests);
      ("bytes", Json.Int d.Engine.dr_bytes);
      ("seeks", Json.Int d.Engine.dr_seeks);
      ("busy_ms", Json.Float d.Engine.dr_busy_ms);
      ("utilization", Json.Float d.Engine.dr_utilization);
      ("seek_ms", Json.Float d.Engine.dr_seek_ms);
      ("rotation_ms", Json.Float d.Engine.dr_rotation_ms);
      ("transfer_ms", Json.Float d.Engine.dr_transfer_ms);
      ("queue_depth_mean", Json.Float d.Engine.dr_queue_mean);
      ("queue_depth_max", Json.Int d.Engine.dr_queue_max);
    ]

let churn_json (c : Rofs_alloc.Policy.churn_stats) =
  Json.Obj
    [
      ("user_units", Json.Int c.Rofs_alloc.Policy.cs_user_units);
      ("moved_units", Json.Int c.Rofs_alloc.Policy.cs_moved_units);
      ("cleaner_passes", Json.Int c.Rofs_alloc.Policy.cs_cleaner_passes);
      ("write_cost", Json.Float (Rofs_alloc.Policy.write_cost c));
    ]

let to_json ?alloc ?application ?sequential ?faults ?cache ?drives ?metrics ?churn ~workload
    ~policy () =
  let opt name enc v = Option.to_list (Option.map (fun x -> (name, enc x)) v) in
  Json.Obj
    ([ ("schema", Json.Str "rofs-report-v1"); ("policy", Json.Str policy);
       ("workload", Json.Str workload) ]
    @ opt "allocation" alloc_json alloc
    @ opt "application" throughput_json application
    @ opt "sequential" throughput_json sequential
    @ opt "churn" churn_json churn
    @ opt "cache" cache_json cache
    @ opt "faults" fault_json faults
    @ opt "drives"
        (fun ds -> Json.Arr (Array.to_list (Array.map drive_json ds)))
        drives
    @ opt "metrics" Sink.to_json metrics)
