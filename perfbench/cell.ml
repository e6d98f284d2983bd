(* One cell: set up an engine, run its timed phases, check and digest
   the simulated results.  The same code runs untraced (counting
   wrapper, no recorder, no spans) and traced (timing wrapper, request
   capture for the re-issue harness, spans); the digests of the two
   must agree. *)

module C = Core
module L = Layers

type result = {
  label : string;
  digest : string;
  failures : string list;  (** failed checks; empty for a correct cell *)
  setup_ns : int list;  (** one per set-up repetition *)
  phase_ns : int array;  (** indexed by [Layers.phases] *)
  chunk_ns : int array;
      (** the timed phases cut into chunks of [Layers.chunk_calls]
          allocator calls, in order; one chunk per phase when traced *)
  phase_ops : int array;
      (** simulated operations per phase: allocator mutations in fill
          and aging, I/Os in app and seq, replayed events in post *)
  minor_words : float;  (** GC counters over the timed phases *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  drives : C.Engine.drive_report array;
  cache : C.Engine.cache_report option;
  fault : C.Engine.fault_report;
  free_extents : int;
  write_cost : float;
  hook_ns : int;  (** benchmark hooks inside timed phases *)
  ckpt_capture : L.timer;
  ckpt_encode : L.timer;
  ckpt_bytes : int;  (** size of the last encoded snapshot *)
  export_ns : int;
  export_bytes : int;
  windows : int;
  trace_dropped : int;
  decode_ns : int;
  replay_ns : int;
  replay_events : int;
  trace_bytes : int;
  probe : L.alloc_probe;  (** per-call allocator timings (traced only) *)
  capture : Reissue.capture;  (** captured request stream (traced only) *)
}

let run_ns r = List.fold_left (fun acc ph -> acc + r.phase_ns.(ph)) 0 L.timed_phases
let ops r = List.fold_left (fun acc ph -> acc + r.phase_ops.(ph)) 0 L.timed_phases

let add_throughput b (r : C.Engine.throughput_report) =
  Printf.bprintf b "tp %h %h %h %d %b %d %d %h %h %d\n" r.C.Engine.pct_of_max r.C.Engine.bytes_per_ms
    r.C.Engine.measured_ms r.C.Engine.checkpoints r.C.Engine.stabilized r.C.Engine.io_ops
    r.C.Engine.disk_fulls r.C.Engine.utilization r.C.Engine.mean_extents_per_file
    r.C.Engine.meta_bytes

let run ~traced ~setup_reps (cell : Workloads.cell) =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let cfg = cell.Workloads.config in
  let unit_bytes = C.Experiment.spec_unit_bytes cell.Workloads.spec in
  let total_units = C.Experiment.capacity_units cfg ~unit_bytes in
  let probe = L.alloc_probe () in
  let mutations = ref 0 in
  let chunks = L.chunker () in
  let capture = Reissue.capture ~limit:(if traced then 100_000 else 0) in
  let engine_ref = ref None in
  let sink = ref None in
  let build () =
    (* Policy RNG seeded exactly as [Experiment.make_engine] does. *)
    let rng = C.Rng.create ~seed:(cfg.C.Engine.seed + 0x5eed) in
    let raw = C.Experiment.build_policy cell.Workloads.spec ~total_units ~rng in
    let policy = if traced then L.timed raw probe else L.counting raw mutations chunks in
    let recorder = if traced then Some (Reissue.recorder capture ~engine:engine_ref ~probe) else None in
    let e = C.Engine.create ?recorder cfg ~policy ~workload:cell.Workloads.workload in
    if cell.Workloads.observed then begin
      let s = C.Sink.create ~trace:true ~trace_capacity:65_536 () in
      C.Engine.attach_obs e s;
      C.Engine.attach_timeline e ~every_ms:10_000.;
      sink := Some s
    end;
    e
  in
  let setup_ns = ref [] in
  let engine = ref None in
  for _ = 1 to setup_reps do
    engine := None;
    engine_ref := None;
    Gc.compact ();
    mutations := 0;
    let t0 = Clock.ns () in
    let e = L.span "engine.create" build in
    setup_ns := (Clock.ns () - t0) :: !setup_ns;
    engine := Some e
  done;
  let e = Option.get !engine in
  engine_ref := Some e;
  let hook_ns = ref 0 in
  let ckpt_capture = L.timer () and ckpt_encode = L.timer () in
  let ckpt_bytes = ref 0 in
  let with_bench_phase f =
    let t0 = Clock.ns () in
    let saved = probe.L.phase in
    probe.L.phase <- L.bench_phase;
    let r = f () in
    probe.L.phase <- saved;
    hook_ns := !hook_ns + (Clock.ns () - t0);
    r
  in
  if cell.Workloads.observed then
    C.Engine.set_checkpoint e ~every_ms:(cfg.C.Engine.max_measure_ms /. 4.) (fun () ->
        with_bench_phase (fun () ->
            (* A recording engine refuses to snapshot; the recorder only
               observes, so detaching it around the capture is safe. *)
            if traced then C.Engine.set_recorder e None;
            let sections = L.span "ckpt.capture" (fun () -> L.time ckpt_capture (fun () -> C.Engine.checkpoint e)) in
            let blob = L.span "ckpt.encode" (fun () -> L.time ckpt_encode (fun () -> C.Ckpt.encode sections)) in
            if C.Ckpt.decode blob <> Ok sections then fail "checkpoint does not round-trip";
            ckpt_bytes := String.length blob;
            if traced then
              C.Engine.set_recorder e (Some (Reissue.recorder capture ~engine:engine_ref ~probe))));
  let phase_ns = Array.make (Array.length L.phases) 0 in
  let phase_ops = Array.make (Array.length L.phases) 0 in
  let counted () =
    if traced then
      Array.fold_left
        (fun acc timers ->
          let n = ref acc in
          Array.iteri (fun op tm -> if L.mutating op then n := !n + tm.L.calls) timers;
          !n)
        0 probe.L.timers
    else !mutations
  in
  let phase ph name f =
    probe.L.phase <- ph;
    let m0 = counted () in
    let t0 = Clock.ns () in
    let r = L.chunked chunks (fun () -> L.span name f) in
    phase_ns.(ph) <- Clock.ns () - t0;
    phase_ops.(ph) <- counted () - m0;
    r
  in
  let gc0 = Gc.quick_stat () in
  phase L.fill_phase "engine.fill" (fun () -> C.Engine.fill_to_lower_bound e);
  phase L.aging_phase "engine.aging" (fun () -> C.Engine.run_aging e);
  let app = phase L.app_phase "engine.app" (fun () -> C.Engine.run_application_test e) in
  let seq =
    if cell.Workloads.sequential then
      Some (phase L.seq_phase "engine.seq" (fun () -> C.Engine.run_sequential_test e))
    else None
  in
  phase_ops.(L.app_phase) <- app.C.Engine.io_ops;
  phase_ops.(L.seq_phase) <- (match seq with Some s -> s.C.Engine.io_ops | None -> 0);
  let drives = C.Engine.drive_reports e in
  let cache = C.Engine.cache_report e in
  let fault = C.Engine.fault_report e in
  let churn = C.Engine.churn_stats e in
  let export_ns = ref 0 and export_bytes = ref 0 and windows = ref 0 and trace_dropped = ref 0 in
  let decode_ns = ref 0 and replay_ns = ref 0 and replay_events = ref 0 and trace_bytes = ref 0 in
  let replay_report = ref None in
  phase L.post_phase "post" (fun () ->
      (match !sink with
      | None -> ()
      | Some s ->
          let t0 = Clock.ns () in
          let docs =
            L.span "obs.export" (fun () ->
                let timeline = Option.get (C.Engine.timeline e) in
                windows := C.Timeline.window_count timeline;
                let trace = Option.get (C.Sink.trace_ref s) in
                trace_dropped := C.Obs.Trace.dropped trace;
                List.map C.Obs.Json.to_string
                  [
                    C.Report.to_json ~application:app ?sequential:seq ~faults:fault ?cache ~drives
                      ~metrics:s ~churn ~workload:cell.Workloads.workload.C.Workload.name
                      ~policy:cell.Workloads.label ();
                    C.Timeline.to_json timeline;
                    C.Obs.Trace.chrome_json trace;
                  ])
          in
          export_ns := Clock.ns () - t0;
          export_bytes := List.fold_left (fun acc d -> acc + String.length d) 0 docs);
      match cell.Workloads.replay with
      | None -> ()
      | Some blob -> (
          trace_bytes := String.length blob;
          let t0 = Clock.ns () in
          let decoded = L.span "replay.decode" (fun () -> C.Trace_codec.decode blob) in
          let t1 = Clock.ns () in
          decode_ns := t1 - t0;
          match decoded with
          | Error msg -> fail ("trace decode: " ^ msg)
          | Ok trace ->
              let outcome =
                L.span "replay.run" (fun () ->
                    C.Trace_replay.run ~config:cfg ~workload:cell.Workloads.workload cell.Workloads.spec trace)
              in
              replay_ns := Clock.ns () - t1;
              let r = outcome.C.Trace_replay.report in
              replay_events := r.C.Trace_replay.trace_events;
              if r.C.Trace_replay.skipped_stale <> 0 then fail "replay skipped stale events";
              if r.C.Trace_replay.events_applied <> r.C.Trace_replay.trace_events then
                fail "replay did not apply every event";
              replay_report := Some r));
  phase_ops.(L.post_phase) <- !replay_events;
  let gc1 = Gc.quick_stat () in
  probe.L.phase <- L.bench_phase;
  let policy = C.Volume.policy (C.Engine.volume e) in
  let free_hist = policy.C.Policy.free_hist () in
  let free_extents = List.fold_left (fun acc (_, c) -> acc + c) 0 free_hist in
  let b = Buffer.create 512 in
  add_throughput b app;
  Option.iter (add_throughput b) seq;
  Printf.bprintf b "alloc %d %d %d %d %d\n" phase_ops.(L.fill_phase) phase_ops.(L.aging_phase)
    (policy.C.Policy.free_units ()) free_extents (policy.C.Policy.largest_free ());
  Printf.bprintf b "churn %d %d %d\n" churn.C.Policy.cs_user_units churn.C.Policy.cs_moved_units
    churn.C.Policy.cs_cleaner_passes;
  Array.iter
    (fun (d : C.Engine.drive_report) ->
      Printf.bprintf b "drive %d %d %d %h\n" d.C.Engine.dr_requests d.C.Engine.dr_bytes d.C.Engine.dr_seeks
        d.C.Engine.dr_busy_ms)
    drives;
  Option.iter
    (fun (c : C.Engine.cache_report) ->
      Printf.bprintf b "cache %d %d %d %d %d %d %d %d\n" c.C.Engine.cr_lookups c.C.Engine.cr_hits
        c.C.Engine.cr_misses c.C.Engine.cr_evictions c.C.Engine.cr_dirty_evictions c.C.Engine.cr_flushes
        c.C.Engine.cr_writeback_bytes c.C.Engine.cr_prefetched_pages)
    cache;
  Printf.bprintf b "fault %d %d %d %d %d\n" fault.C.Engine.data_loss fault.C.Engine.media_errors
    fault.C.Engine.retries fault.C.Engine.remaps fault.C.Engine.remap_hits;
  Option.iter
    (fun (r : C.Trace_replay.report) ->
      Printf.bprintf b "replay %d %d %d %h %d %h %d %d %h %h\n" r.C.Trace_replay.trace_events
        r.C.Trace_replay.events_applied r.C.Trace_replay.skipped_stale r.C.Trace_replay.pct_of_max
        r.C.Trace_replay.bytes_moved r.C.Trace_replay.elapsed_ms r.C.Trace_replay.io_ops
        r.C.Trace_replay.alloc_failures r.C.Trace_replay.internal_frag r.C.Trace_replay.utilization)
    !replay_report;
  Printf.bprintf b "obs %d %d %d\n" ckpt_capture.L.calls !windows !trace_dropped;
  {
    label = cell.Workloads.label;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    failures = List.rev !failures;
    setup_ns = List.rev !setup_ns;
    phase_ns;
    chunk_ns = Array.of_list (List.rev chunks.L.chunks);
    phase_ops;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    drives;
    cache;
    fault;
    free_extents;
    write_cost = C.Policy.write_cost churn;
    hook_ns = !hook_ns + capture.Reissue.hook.L.ns;
    ckpt_capture;
    ckpt_encode;
    ckpt_bytes = !ckpt_bytes;
    export_ns = !export_ns;
    export_bytes = !export_bytes;
    windows = !windows;
    trace_dropped = !trace_dropped;
    decode_ns = !decode_ns;
    replay_ns = !replay_ns;
    replay_events = !replay_events;
    trace_bytes = !trace_bytes;
    probe;
    capture;
  }
