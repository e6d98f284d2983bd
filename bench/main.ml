(* Reproduction bench driver: regenerates every table and figure of the
   paper's evaluation, plus the Section 6 ablations and the extension
   benches (scheduler, cache, latency, fault, replay, timeline, aging).

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig1 fig2 # a selection
     dune exec bench/main.exe -- --list
*)

let benches =
  [
    ("table1", "disk parameters and derived maxima", Bench_table1.run);
    ("table3", "buddy allocation results", Bench_table3.run);
    ("fig1", "restricted buddy fragmentation sweep", Bench_fig1.run);
    ("fig2", "restricted buddy throughput sweep", Bench_fig2.run);
    ("fig3", "grow factor vs contiguity", Bench_fig3.run);
    ("fig4", "extent-based fragmentation sweep", Bench_fig4.run);
    ("fig5", "extent-based throughput sweep", Bench_fig5.run);
    ("table4", "average extents per file", Bench_table4.run);
    ("fig6", "comparative policy performance", Bench_fig6.run);
    ("sweep", "fig6 replicated over 10 seeds (mean +- stddev)", Bench_sweep.run);
    ("ablation", "stripe-unit and RAID ablations (Section 6)", Bench_ablation.run);
    ("sched", "per-drive I/O scheduler ablation", Bench_sched.run);
    ("cache", "buffer cache policy and size sweep", Bench_cache.run);
    ("latency", "latency breakdown by workload and scheduler", Bench_latency.run);
    ("fault", "degradation table under drive failure and rebuild", Bench_fault.run);
    ("extension", "log-structured allocation extension (Section 6)", Bench_extension.run);
    ("replay", "allocator x cache policy on a recorded TP trace", Bench_replay.run);
    ("timeline", "windowed time series: stabilization, warm-up, fault dip", Bench_timeline.run);
    ("aging", "allocator x workload x age: fresh / 1 week / 1 month churn", Bench_aging.run);
  ]

let list_benches () =
  print_endline "available benches:";
  List.iter (fun (id, doc, _) -> Printf.printf "  %-8s %s\n" id doc) benches

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --csv <dir>: also write every table as CSV into <dir>
     --out <file>: also write every table as one JSON document
     --jobs <n>: run independent simulation cells on <n> domains
     (default: ROFS_JOBS, or 1 — serial, byte-identical output) *)
  let args =
    let rec strip acc = function
      | "--csv" :: dir :: rest ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Common.csv_dir := Some dir;
          strip acc rest
      | "--out" :: file :: rest ->
          Common.json_out := Some file;
          strip acc rest
      | "--jobs" :: n :: rest ->
          (match int_of_string_opt n with
          | Some j when j >= 1 -> Common.jobs := j
          | _ ->
              Printf.eprintf "--jobs %s: expected a positive integer\n" n;
              exit 2);
          strip acc rest
      | x :: rest -> strip (x :: acc) rest
      | [] -> List.rev acc
    in
    strip [] args
  in
  let run_bench (id, _, run) =
    Common.current_bench := id;
    Common.timed id run
  in
  (match args with
  | [ "--list" ] -> list_benches ()
  | [] -> List.iter run_bench benches
  | ids ->
      List.iter
        (fun id ->
          match List.find_opt (fun (name, _, _) -> name = id) benches with
          | Some b -> run_bench b
          | None ->
              Printf.eprintf "unknown bench %S\n" id;
              list_benches ();
              exit 2)
        ids);
  Common.write_json_out ()
