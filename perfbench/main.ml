(* Host-time benchmark of the simulator.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test [BENCHMARK.json]

   Untraced (--trace 0) runs repeat the workload's cells as many times
   as fit the time budget on the reference machine (at least once; the
   count depends only on the budget) and report the end-to-end metrics:
   the run time with each chunk of work at its fastest, the median of
   each iteration's fastest set-up, peak heap and minor words per
   simulated operation.  Traced (--trace 1) runs do one untraced
   iteration, one traced iteration and the layer re-issue harness, and
   report the per-layer metrics; spans and the per-phase allocator
   breakdown are written to perfbench/out/.  Every run prints each metric with its
   unit, and the last line of standard output is one JSON object. *)

module C = Core
module L = Layers

let default_seed = 1

(* Metric catalogue: the single source of the names and units printed
   here and listed in BENCHMARK.json (the self-test compares the two). *)
let end_to_end =
  [ ("run_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB"); ("minor_words_per_op", "words/op") ]

let policy_labels = [ "buddy"; "restricted"; "extent"; "fixed"; "lfs" ]

let per_layer =
  List.map (fun n -> ("sim." ^ n, "s")) [ "fill_s"; "aging_s"; "app_s"; "seq_s" ]
  @ [
      ("sim.fill_ops_per_s", "1/s");
      ("sim.aging_ops_per_s", "1/s");
      ("sim.app_io_per_s", "1/s");
      ("sim.seq_io_per_s", "1/s");
      ("sim.self_s", "s");
      ("sim.trace_overhead", "ratio");
    ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun (n, u) -> (Printf.sprintf "alloc.%s.%s" p n, u))
          [
            ("share", "ratio");
            ("calls", "count");
            ("ensure.us_p50", "us");
            ("ensure.us_p99", "us");
            ("delete.us_p50", "us");
            ("delete.us_p99", "us");
            ("shrink_to.us_p50", "us");
            ("slice.us_p50", "us");
            ("slice.us_p99", "us");
            ("create_file.us_p50", "us");
            ("probe.us_p50", "us");
            ("free_extents", "count");
            ("write_cost", "ratio");
          ])
      policy_labels
  @ [
      ("disk.requests", "count");
      ("disk.seeks", "count");
      ("disk.chunks_per_op", "ratio");
      ("disk.sim_util", "ratio");
      ("disk.sync.us_p50", "us");
      ("disk.sync.us_p99", "us");
      ("disk.queued.us_p50", "us");
      ("disk.queued.us_p99", "us");
      ("cache.hit_rate", "ratio");
      ("cache.lookups", "count");
      ("cache.evictions", "count");
      ("cache.writeback_mb", "MB");
      ("cache.us_p50", "us");
      ("cache.us_p99", "us");
      ("fault.media_errors", "count");
      ("fault.retries", "count");
      ("ckpt.snapshots", "count");
      ("ckpt.capture_ms_p50", "ms");
      ("ckpt.encode_ms_p50", "ms");
      ("ckpt.mb", "MB");
      ("obs.export_s", "s");
      ("obs.export_mb", "MB");
      ("obs.timeline_windows", "count");
      ("obs.trace_dropped", "count");
      ("replay.decode_s", "s");
      ("replay.replay_s", "s");
      ("replay.events_per_s", "1/s");
      ("replay.trace_mb", "MB");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_op", "words/op");
    ]

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ratio a b = if b = 0. then 0. else a /. b
let mb bytes = float_of_int bytes /. 1e6

(* Reference digests of the committed default seed at full length:
   the simulated results every correct build must reproduce. *)
let reference =
  [
    ("ts-alloc-aged", "e795bd43fc07579386b3558a1548de66");
    ("tp-io-sync", "e4b58fb47a1c172abd2ac4a9a8dc5cd0");
    ("sc-queued-full", "0ee673e0426ebeaefeaee8dee7e2ddec");
  ]

type outcome = { attempted : int; failed : int; metrics : (string * float) list }

(* Run every cell of [w] once.  A cell that raises counts as failed. *)
let iteration ~traced ~setup_reps cells =
  List.map
    (fun cell ->
      match Cell.run ~traced ~setup_reps cell with
      | r -> Ok r
      | exception e -> Error (cell.Workloads.label ^ ": " ^ Printexc.to_string e))
    cells

let workload_digest results = Digest.to_hex (Digest.string (String.concat " " (List.map (fun r -> r.Cell.digest) results)))

let report_failures results =
  List.fold_left
    (fun acc -> function
      | Error msg ->
          Printf.printf "FAILED %s\n" msg;
          acc + 1
      | Ok r when r.Cell.failures <> [] ->
          List.iter (fun m -> Printf.printf "FAILED %s: %s\n" r.Cell.label m) r.Cell.failures;
          acc + 1
      | Ok _ -> acc)
    0 results

let oks results = List.filter_map (function Ok r -> Some r | Error _ -> None) results

let check_reference (w : Workloads.t) ~seed ~reduced digest =
  match List.assoc_opt w.Workloads.name reference with
  | Some expected when seed = default_seed && (not reduced) && expected <> digest ->
      Printf.printf "FAILED digest %s differs from the reference %s\n" digest expected;
      false
  | _ -> true

(* Host seconds of one iteration with every chunk of every cell's timed
   phases at its fastest repetition in the run.  Every iteration of one
   seed does the same work chunk by chunk, and contention on a shared
   host only ever adds time, coming and going within seconds, so
   per-chunk minima are the steadiest estimate of the program's own
   cost. *)
let fastest_chunks iterations =
  let chunks rs = Array.concat (List.map (fun r -> r.Cell.chunk_ns) (oks rs)) in
  match List.map chunks iterations with
  | [] -> 0.
  | first :: rest ->
      let fastest = Array.copy first in
      List.iter
        (fun c -> if Array.length c = Array.length fastest then Array.iteri (fun i ns -> fastest.(i) <- min fastest.(i) ns) c)
        rest;
      Clock.seconds (Array.fold_left ( + ) 0 fastest)

let untraced (w : Workloads.t) ~seed ~seconds ~reduced =
  let cells = w.Workloads.cells ~seed ~reduced in
  let count = max 1 (Float.to_int (Float.round (seconds /. w.Workloads.iteration_s))) in
  let iterations =
    List.init count (fun _ -> iteration ~traced:false ~setup_reps:w.Workloads.setup_reps cells)
  in
  let failed = sum report_failures iterations in
  let attempted = sum List.length iterations in
  let digests = List.map (fun rs -> workload_digest (oks rs)) iterations in
  let digest = List.hd digests in
  let failed =
    if List.exists (fun d -> d <> digest) digests then begin
      Printf.printf "FAILED digests differ between iterations of one seed\n";
      max failed 1
    end
    else if not (check_reference w ~seed ~reduced digest) then max failed 1
    else failed
  in
  Printf.printf "workload %s seed %d: %d iteration(s), digest %s\n" w.Workloads.name seed
    (List.length iterations) digest;
  let all = List.concat_map oks iterations in
  let run_s = fastest_chunks iterations in
  (* Each iteration's fastest set-up, for the reason given at
     [fastest_chunks]; the metric is their median. *)
  let setup_samples =
    List.map
      (fun rs ->
        let rs = oks rs in
        List.fold_left min infinity
          (List.init w.Workloads.setup_reps (fun i -> Clock.seconds (sum (fun r -> List.nth r.Cell.setup_ns i) rs))))
      iterations
  in
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  {
    attempted;
    failed;
    metrics =
      [
        ("run_s", run_s);
        ("setup_s", median setup_samples);
        ("peak_heap_mb", mb (words * (Sys.word_size / 8)));
        ("minor_words_per_op", ratio (sumf (fun r -> r.Cell.minor_words) all) (float_of_int (sum Cell.ops all)));
      ];
  }

(* Per-layer metrics from one untraced and one traced iteration. *)
let traced (w : Workloads.t) ~seed ~reduced ~out =
  let cells = w.Workloads.cells ~seed ~reduced in
  let plain = iteration ~traced:false ~setup_reps:1 cells in
  L.tracing := true;
  let traced = L.span w.Workloads.name (fun () -> iteration ~traced:true ~setup_reps:1 cells) in
  let failed = report_failures plain + report_failures traced in
  let u = oks plain and t = oks traced in
  let failed =
    if List.map (fun r -> r.Cell.digest) u <> List.map (fun r -> r.Cell.digest) t then begin
      Printf.printf "FAILED traced digests differ from untraced ones\n";
      max failed 1
    end
    else if not (check_reference w ~seed ~reduced (workload_digest u)) then max failed 1
    else failed
  in
  Printf.printf "workload %s seed %d traced, digest %s\n" w.Workloads.name seed (workload_digest t);
  (* Re-issue the captured request streams layer by layer. *)
  let sync = L.timer () and queued = L.timer () and cache = L.timer () in
  List.iter2
    (fun (cell : Workloads.cell) r ->
      let reqs = List.rev r.Cell.capture.Reissue.reqs in
      let ntypes = List.length cell.Workloads.workload.C.Workload.types in
      L.span "reissue.sync" (fun () -> Reissue.sync cell.Workloads.config reqs sync);
      L.span "reissue.queued" (fun () -> Reissue.queued cell.Workloads.config reqs queued);
      L.span "reissue.cache" (fun () -> Reissue.cache cell.Workloads.config ~ntypes reqs cache))
    (List.filter (fun c -> List.exists (fun r -> r.Cell.label = c.Workloads.label) t) cells)
    t;
  let phase_s ph rs = Clock.seconds (sum (fun r -> r.Cell.phase_ns.(ph)) rs) in
  let phase_ops ph = float_of_int (sum (fun r -> r.Cell.phase_ops.(ph)) t) in
  let run_s rs = Clock.seconds (sum Cell.run_ns rs) in
  let alloc_ns r =
    List.fold_left
      (fun acc ph -> Array.fold_left (fun acc tm -> acc + tm.L.ns) acc r.Cell.probe.L.timers.(ph))
      0 L.timed_phases
  in
  let alloc_metrics label =
    let rs = List.filter (fun r -> r.Cell.label = label) t in
    let q op quantile =
      let tm = L.merge_timers (List.map (fun r -> L.op_timer r.Cell.probe ~phases:L.call_phases op) rs) in
      C.Hist.quantile tm.L.hist quantile
    in
    let calls =
      sum
        (fun r ->
          List.fold_left
            (fun acc ph -> Array.fold_left (fun acc tm -> acc + tm.L.calls) acc r.Cell.probe.L.timers.(ph))
            0 L.timed_phases)
        rs
    in
    List.map
      (fun (n, v) -> (Printf.sprintf "alloc.%s.%s" label n, v))
      [
        ("share", ratio (Clock.seconds (sum alloc_ns rs)) (run_s rs));
        ("calls", float_of_int calls);
        ("ensure.us_p50", q L.op_ensure 0.5);
        ("ensure.us_p99", q L.op_ensure 0.99);
        ("delete.us_p50", q L.op_delete 0.5);
        ("delete.us_p99", q L.op_delete 0.99);
        ("shrink_to.us_p50", q L.op_shrink 0.5);
        ("slice.us_p50", q L.op_slice 0.5);
        ("slice.us_p99", q L.op_slice 0.99);
        ("create_file.us_p50", q L.op_create 0.5);
        ("probe.us_p50", q L.op_probe 0.5);
        ("free_extents", float_of_int (sum (fun r -> r.Cell.free_extents) rs));
        ("write_cost", match rs with [] -> 0. | r :: _ -> r.Cell.write_cost);
      ]
  in
  let drives = List.concat_map (fun r -> Array.to_list r.Cell.drives) t in
  let requests = sum (fun d -> d.C.Engine.dr_requests) drives in
  let io_ops = phase_ops L.app_phase +. phase_ops L.seq_phase in
  let caches = List.filter_map (fun r -> r.Cell.cache) t in
  let cache_sum f = float_of_int (sum f caches) in
  let ckpt_hist f = L.merge_timers (List.map f t) in
  let all_ops = float_of_int (sum Cell.ops u) in
  let sim_run_s = run_s t in
  let metrics =
    [
      ("sim.fill_s", phase_s L.fill_phase t);
      ("sim.aging_s", phase_s L.aging_phase t);
      ("sim.app_s", phase_s L.app_phase t);
      ("sim.seq_s", phase_s L.seq_phase t);
      ("sim.fill_ops_per_s", ratio (phase_ops L.fill_phase) (phase_s L.fill_phase t));
      ("sim.aging_ops_per_s", ratio (phase_ops L.aging_phase) (phase_s L.aging_phase t));
      ("sim.app_io_per_s", ratio (phase_ops L.app_phase) (phase_s L.app_phase t));
      ("sim.seq_io_per_s", ratio (phase_ops L.seq_phase) (phase_s L.seq_phase t));
      ( "sim.self_s",
        sim_run_s -. Clock.seconds (sum alloc_ns t) -. Clock.seconds (sum (fun r -> r.Cell.hook_ns) t) );
      ("sim.trace_overhead", ratio sim_run_s (run_s u));
    ]
    @ List.concat_map alloc_metrics policy_labels
    @ [
        ("disk.requests", float_of_int requests);
        ("disk.seeks", float_of_int (sum (fun d -> d.C.Engine.dr_seeks) drives));
        ("disk.chunks_per_op", ratio (float_of_int requests) io_ops);
        ( "disk.sim_util",
          ratio (sumf (fun d -> d.C.Engine.dr_utilization) drives) (float_of_int (List.length drives)) );
        ("disk.sync.us_p50", C.Hist.p50 sync.L.hist);
        ("disk.sync.us_p99", C.Hist.p99 sync.L.hist);
        ("disk.queued.us_p50", C.Hist.p50 queued.L.hist);
        ("disk.queued.us_p99", C.Hist.p99 queued.L.hist);
        ( "cache.hit_rate",
          ratio (cache_sum (fun c -> c.C.Engine.cr_hits)) (cache_sum (fun c -> c.C.Engine.cr_lookups)) );
        ("cache.lookups", cache_sum (fun c -> c.C.Engine.cr_lookups));
        ("cache.evictions", cache_sum (fun c -> c.C.Engine.cr_evictions));
        ("cache.writeback_mb", mb (sum (fun c -> c.C.Engine.cr_writeback_bytes) caches));
        ("cache.us_p50", C.Hist.p50 cache.L.hist);
        ("cache.us_p99", C.Hist.p99 cache.L.hist);
        ("fault.media_errors", float_of_int (sum (fun r -> r.Cell.fault.C.Engine.media_errors) t));
        ("fault.retries", float_of_int (sum (fun r -> r.Cell.fault.C.Engine.retries) t));
        ("ckpt.snapshots", float_of_int (sum (fun r -> r.Cell.ckpt_capture.L.calls) t));
        ("ckpt.capture_ms_p50", C.Hist.p50 (ckpt_hist (fun r -> r.Cell.ckpt_capture)).L.hist /. 1000.);
        ("ckpt.encode_ms_p50", C.Hist.p50 (ckpt_hist (fun r -> r.Cell.ckpt_encode)).L.hist /. 1000.);
        ("ckpt.mb", mb (sum (fun r -> r.Cell.ckpt_bytes) t));
        ("obs.export_s", Clock.seconds (sum (fun r -> r.Cell.export_ns) t));
        ("obs.export_mb", mb (sum (fun r -> r.Cell.export_bytes) t));
        ("obs.timeline_windows", float_of_int (sum (fun r -> r.Cell.windows) t));
        ("obs.trace_dropped", float_of_int (sum (fun r -> r.Cell.trace_dropped) t));
        ("replay.decode_s", Clock.seconds (sum (fun r -> r.Cell.decode_ns) t));
        ("replay.replay_s", Clock.seconds (sum (fun r -> r.Cell.replay_ns) t));
        ( "replay.events_per_s",
          ratio (float_of_int (sum (fun r -> r.Cell.replay_events) t)) (Clock.seconds (sum (fun r -> r.Cell.replay_ns) t)) );
        ("replay.trace_mb", mb (sum (fun r -> r.Cell.trace_bytes) t));
        ("gc.minor_collections", float_of_int (sum (fun r -> r.Cell.minor_gcs) u));
        ("gc.major_collections", float_of_int (sum (fun r -> r.Cell.major_gcs) u));
        ("gc.promoted_words_per_op", ratio (sumf (fun r -> r.Cell.promoted_words) u) all_ops);
      ]
  in
  Option.iter (fun dir -> Breakdown.write ~dir ~workload:w.Workloads.name ~seed ~traced:t ~sync ~queued ~cache) out;
  L.tracing := false;
  { attempted = List.length plain + List.length traced; failed; metrics }

let print_outcome o ~catalogue =
  let attempted = max o.attempted 1 in
  List.iter
    (fun (name, unit) -> Printf.printf "%-32s %16.6f %s\n" name (List.assoc name o.metrics) unit)
    catalogue;
  Printf.printf "error_rate %.4f (%d failed of %d cells)\n" (float_of_int o.failed /. float_of_int attempted)
    o.failed attempted;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (List.assoc name o.metrics) unit)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (o.failed = 0)
    attempted o.failed (String.concat ", " metrics)

let run_workload ~name ~seed ~seconds ~trace ~reduced ~out =
  match Workloads.find name with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  | Some w ->
      if trace then traced w ~seed ~reduced ~out else untraced w ~seed ~seconds ~reduced

(* Reduced-length run of every workload, traced and untraced: every
   catalogue metric must be emitted with a unit, no cell may fail, and
   the catalogue must match BENCHMARK.json when its path is given. *)
let self_test benchmark_json =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (trace, catalogue) ->
          let o = run_workload ~name:w.Workloads.name ~seed:default_seed ~seconds:0. ~trace ~reduced:true ~out:None in
          if o.failed <> 0 then problem "%s: error_rate %d/%d" w.Workloads.name o.failed o.attempted;
          List.iter
            (fun (name, unit) ->
              match List.assoc_opt name o.metrics with
              | Some v when Float.is_finite v && unit <> "" -> ()
              | _ -> problem "%s: metric %s missing or not finite" w.Workloads.name name)
            catalogue)
        [ (false, end_to_end); (true, per_layer) ])
    Workloads.all;
  Option.iter
    (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      match C.Obs.Json.parse text with
      | Error e -> problem "%s: %s" path e
      | Ok doc ->
          let listed key =
            match C.Obs.Json.member key doc with
            | Some (C.Obs.Json.Arr xs) ->
                List.filter_map
                  (fun x ->
                    match (C.Obs.Json.member "name" x, C.Obs.Json.member "unit" x) with
                    | Some (C.Obs.Json.Str n), Some (C.Obs.Json.Str u) -> Some (n, u)
                    | _ -> None)
                  xs
            | _ -> []
          in
          if listed "end_to_end" <> end_to_end then problem "%s: end_to_end differs from the catalogue" path;
          if listed "per_layer" <> per_layer then problem "%s: per_layer differs from the catalogue" path;
          let names =
            match C.Obs.Json.member "workloads" doc with
            | Some (C.Obs.Json.Arr xs) ->
                List.filter_map (fun x -> match C.Obs.Json.member "name" x with Some (C.Obs.Json.Str n) -> Some n | _ -> None) xs
            | _ -> []
          in
          if names <> List.map (fun w -> w.Workloads.name) Workloads.all then
            problem "%s: workloads differ from the benchmark's" path)
    benchmark_json;
  match !problems with
  | [] -> print_endline "self-test passed"
  | ps ->
      List.iter (fun p -> Printf.printf "self-test: %s\n" p) (List.rev ps);
      exit 1

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  let self = ref false and anon = ref [] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time budget of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--self-test", Arg.Set self, " reduced-length check of every workload");
    ]
    (fun a -> anon := a :: !anon)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test (match !anon with [ p ] -> Some p | _ -> None)
  else begin
    let catalogue = if !trace = 1 then per_layer else end_to_end in
    let o =
      run_workload ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~reduced:false
        ~out:(Some "perfbench/out")
    in
    print_outcome o ~catalogue
  end
