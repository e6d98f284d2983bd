(* Latency breakdown: where a request's time actually goes.

   The paper argues about allocation policies almost entirely through
   throughput; the instrumentation sink lets us look underneath at the
   per-request service anatomy — queue wait, seek, rotation, transfer —
   for each workload, under the seed's FCFS model and under SSTF
   reordering.  TS and TP requests are small, so their time is dominated
   by positioning; SC moves big sequential transfers where positioning
   amortizes away.  SSTF only matters where queues form (TP). *)

module C = Core

let ms = Printf.sprintf "%.1f"

let run () =
  Common.heading "Latency breakdown (restricted buddy, 5 sizes)";
  let t =
    C.Table.create
      ~header:
        [
          "scheduler";
          "workload";
          "p50 ms";
          "p99 ms";
          "mean queue ms";
          "mean seek ms";
          "mean rotation ms";
          "mean transfer ms";
        ]
  in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun w -> (sched, w)) Common.workloads)
      [ C.Sched_policy.Fcfs; C.Sched_policy.Sstf ]
  in
  let rows =
    Common.par_map
      (fun (sched, (w : C.Workload.t)) ->
        let config = { !Common.config with C.Engine.scheduler = sched } in
        let r =
          C.Experiment.run_sharded
            ~config:{ config with C.Engine.shard_slices = 1 }
            ~instrument:true Common.rbuddy_selected w
        in
        let sink = Option.get r.C.Experiment.s_sink in
        let mean = C.Hist.mean in
        let lat = C.Sink.latency sink in
        [
          C.Sched_policy.name sched;
          w.C.Workload.name;
          ms (C.Hist.p50 lat);
          ms (C.Hist.p99 lat);
          ms (mean (C.Sink.queue_wait sink));
          ms (mean (C.Sink.seek sink));
          ms (mean (C.Sink.rotation sink));
          ms (mean (C.Sink.transfer sink));
        ])
      cells
  in
  List.iter (C.Table.add_row t) rows;
  Common.emit ~title:"Per-request latency breakdown by workload and scheduler" t;
  Common.note
    [
      "";
      "Quantiles come from the sink's log-bucketed histograms (lower bucket";
      "bounds); means are exact sums.  Positioning (seek + rotation)";
      "dominates the small-transfer workloads, transfer dominates SC.";
    ]
