(* Speed bench: wall-clock cost of the sharded engine.

   Each paper policy x workload cell is executed once per shard count
   (default sweep 1/2/4; bench --shards N pins a single width), timing
   the whole [run_sharded] call — fill included — and reporting
   simulated I/O operations completed per wall-second.

   The simulated columns (throughput, io ops, slices) come out of the
   deterministic slice merge and are byte-identical at every execution
   width, so they are emitted as their own table that CI diffs across
   --shards values.  The timing table is machine- and load-dependent by
   nature and lives in a separate cell. *)

module C = Core

let speed_config () =
  {
    !Common.config with
    C.Engine.lower_bound = 0.35;
    upper_bound = 0.45;
    interval_ms = 10_000.;
    max_measure_ms = 30_000.;
    warmup_checkpoints = 1;
    max_alloc_ops = 500_000;
  }

let policies w =
  [
    ("restricted", Common.rbuddy_selected);
    ("extent", Common.extent_selected w);
    ("fixed", Common.fixed_spec w);
  ]

let run () =
  Common.heading "Speed: sharded intra-run parallelism (simulated ops per wall-second)";
  let config = speed_config () in
  let shard_counts = !Common.shard_counts in
  let det =
    C.Table.create
      ~header:[ "policy"; "workload"; "slices"; "application"; "sequential"; "io ops" ]
  in
  let tim =
    C.Table.create
      ~header:[ "policy"; "workload"; "shards"; "wall s"; "sim ops"; "ops per wall-s" ]
  in
  List.iter
    (fun (w0 : C.Workload.t) ->
      let w = C.Workload.scaled w0 ~factor:0.25 in
      List.iter
        (fun (pname, spec) ->
          let first = ref true in
          List.iter
            (fun shards ->
              let t0 = Unix.gettimeofday () in
              let r = C.Experiment.run_sharded ~config ~shards spec w in
              let wall = Unix.gettimeofday () -. t0 in
              let app = r.C.Experiment.s_application
              and seq = r.C.Experiment.s_sequential in
              let ops = app.C.Engine.io_ops + seq.C.Engine.io_ops in
              if !first then begin
                first := false;
                C.Table.add_row det
                  [
                    pname;
                    w0.C.Workload.name;
                    string_of_int r.C.Experiment.s_slices;
                    Common.pct_points app.C.Engine.pct_of_max;
                    Common.pct_points seq.C.Engine.pct_of_max;
                    string_of_int ops;
                  ]
              end;
              C.Table.add_row tim
                [
                  pname;
                  w0.C.Workload.name;
                  string_of_int shards;
                  Printf.sprintf "%.2f" wall;
                  string_of_int ops;
                  Printf.sprintf "%.0f" (float_of_int ops /. wall);
                ])
            shard_counts)
        (policies w))
    Common.workloads;
  Common.emit ~title:"Speed: simulated results (shard-invariant)" det;
  Common.emit ~title:"Speed: simulated ops per wall-second (timing; machine-dependent)" tim;
  Common.note
    [
      "";
      "The shard-invariant table is byte-identical at every --shards value;";
      "the timing table depends on host core count and load.  On a";
      "single-core host shards > 1 pays domain overhead without a";
      "wall-clock win.";
    ]
