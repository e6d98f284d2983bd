(* Parallel experiment runner tests, three layers deep:

   - pool level: Rofs_par.Pool.map returns results in input order at any
     job count, handles jobs > tasks, propagates worker exceptions, and
     parses ROFS_JOBS;
   - stats level: QCheck properties for Stats.merge (Chan et al.):
     merging any partition of a sample list agrees with a single-pass
     add stream — count / sum / min / max exactly, mean / variance to
     1e-9 — and merging with an empty accumulator is the identity;
   - experiment level: frozen goldens.  The numbers in [goldens] were
     captured from the serial (pre-pool) run_throughput_seeds for every
     policy x {MINI-TS, MINI-TP, MINI-SC}; the suite checks that
     ~jobs:1 still reproduces them bit for bit and that ~jobs:4 equals
     ~jobs:1 bit for bit — the "parallelism changes the wall clock and
     nothing else" guarantee.  Plus edge cases: empty seed list raises,
     one seed and duplicate seeds give stddev 0, permuting the seed
     list leaves the summary invariant (to float re-association). *)

module C = Core
module Pool = C.Pool
module Stats = C.Stats
module Workload = C.Workload
module File_type = C.File_type
module Engine = C.Engine
module Experiment = C.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Pool level                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_orders_results () =
  let tasks = Array.init 100 Fun.id in
  let expect = Array.map (fun x -> x * x) tasks in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expect
        (Pool.map ~jobs (fun x -> x * x) tasks))
    [ 1; 2; 4; 16 ]

let test_map_edge_sizes () =
  Alcotest.(check (array int)) "empty input" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "one task" [| 7 |] (Pool.map ~jobs:4 (fun x -> x + 1) [| 6 |]);
  Alcotest.(check (array int))
    "more jobs than tasks" [| 2; 4 |]
    (Pool.map ~jobs:64 (fun x -> 2 * x) [| 1; 2 |]);
  Alcotest.(check (list int)) "map_list" [ 1; 2; 3 ] (Pool.map_list ~jobs:3 (fun x -> x) [ 1; 2; 3 ])

exception Boom of int

let test_map_propagates_exceptions () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x) (Array.init 40 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 13 -> ())
    [ 1; 4 ]

let test_default_jobs_env () =
  let with_env v f =
    let old = Sys.getenv_opt "ROFS_JOBS" in
    Unix.putenv "ROFS_JOBS" v;
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "ROFS_JOBS" (Option.value old ~default:""))
  in
  with_env "3" (fun () -> check_int "ROFS_JOBS=3" 3 (Pool.default_jobs ()));
  with_env "" (fun () -> check_int "unset means serial" 1 (Pool.default_jobs ()));
  with_env "zero" (fun () ->
      check_bool "garbage rejected" true
        (match Pool.default_jobs () with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Stats.merge                                                        *)
(* ------------------------------------------------------------------ *)

let of_samples xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

(* Small integer-valued samples: sums are exact in floating point, so
   the partition property can demand bitwise equality on sum (and
   count/min/max), with only mean/variance allowed re-association
   slack. *)
let samples_and_cuts =
  QCheck.make
    ~print:(fun (xs, cuts) ->
      Printf.sprintf "samples=[%s] cuts=[%s]"
        (String.concat ";" (List.map string_of_float xs))
        (String.concat ";" (List.map string_of_int cuts)))
    QCheck.Gen.(
      list_size (int_range 0 60) (map float_of_int (int_range (-50) 50)) >>= fun xs ->
      list_size (int_range 0 6) (int_bound (max 0 (List.length xs))) >|= fun cuts -> (xs, cuts))

let partition_at xs cuts =
  (* split [xs] at the (sorted, deduplicated) cut positions *)
  let n = List.length xs in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) in
  let arr = Array.of_list xs in
  let bounds = (0 :: cuts) @ [ n ] in
  let rec pieces = function
    | lo :: (hi :: _ as rest) -> Array.to_list (Array.sub arr lo (hi - lo)) :: pieces rest
    | _ -> []
  in
  pieces bounds

let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. (1. +. Float.abs a +. Float.abs b)

let prop_merge_partition =
  QCheck.Test.make ~name:"merging any partition agrees with single-pass add" ~count:300
    samples_and_cuts
    (fun (xs, cuts) ->
      let whole = of_samples xs in
      let merged =
        List.fold_left
          (fun acc piece -> Stats.merge acc (of_samples piece))
          (Stats.create ()) (partition_at xs cuts)
      in
      Stats.count merged = Stats.count whole
      && Stats.total merged = Stats.total whole
      && Stats.min_value merged = Stats.min_value whole
      && Stats.max_value merged = Stats.max_value whole
      && close (Stats.mean merged) (Stats.mean whole)
      && close (Stats.stddev merged) (Stats.stddev whole))

let prop_merge_empty_identity =
  QCheck.Test.make ~name:"merge with an empty accumulator is the identity" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun xs ->
      let s = of_samples xs in
      let empty = Stats.create () in
      let same a b =
        Stats.count a = Stats.count b
        && Stats.total a = Stats.total b
        && Stats.mean a = Stats.mean b
        && Stats.stddev a = Stats.stddev b
        && Stats.min_value a = Stats.min_value b
        && Stats.max_value a = Stats.max_value b
      in
      same (Stats.merge s empty) s && same (Stats.merge empty s) s
      (* and merge must not mutate its arguments *)
      && Stats.count empty = 0
      && same s (of_samples xs))

let test_merge_does_not_poison_extrema () =
  (* the old nan contract: an empty partition's nan min/max would
     propagate through Float.min/max into the merged extrema *)
  let s = of_samples [ 4.; 2. ] in
  let merged = Stats.merge (Stats.create ()) (Stats.merge s (Stats.create ())) in
  Alcotest.(check (option (float 0.))) "min survives empty merges" (Some 2.) (Stats.min_value merged);
  Alcotest.(check (option (float 0.))) "max survives empty merges" (Some 4.) (Stats.max_value merged);
  Alcotest.(check (option (float 0.))) "empty min is None" None (Stats.min_value (Stats.create ()));
  Alcotest.(check (option (float 0.))) "empty max is None" None (Stats.max_value (Stats.create ()))

(* ------------------------------------------------------------------ *)
(* Experiment level: mini workloads (frozen verbatim — the goldens
   below depend on every field) and a small config on a 2-disk array. *)
(* ------------------------------------------------------------------ *)

let mini_tp =
  {
    Workload.name = "MINI-TP";
    description = "scaled transaction-processing workload";
    types =
      [
        {
          File_type.name = "relation";
          count = 8;
          users = 8;
          process_time_ms = 20.;
          hit_freq_ms = 30.;
          rw_mean_bytes = 16 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 25 * 1024 * 1024;
          initial_dev_bytes = 4 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 6;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
      ];
  }

let mini_sc =
  {
    Workload.name = "MINI-SC";
    description = "scaled supercomputing workload";
    types =
      [
        {
          File_type.name = "big";
          count = 4;
          users = 4;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 40 * 1024 * 1024;
          initial_dev_bytes = 8 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let mini_ts =
  {
    Workload.name = "MINI-TS";
    description = "scaled timesharing workload";
    types =
      [
        {
          File_type.name = "small";
          count = 200;
          users = 6;
          process_time_ms = 10.;
          hit_freq_ms = 25.;
          rw_mean_bytes = 8 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 8 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 8 * 1024;
          initial_dev_bytes = 2 * 1024;
          read_pct = 55;
          write_pct = 25;
          extend_pct = 10;
          delete_pct_of_deallocs = 70;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "large";
          count = 100;
          users = 3;
          process_time_ms = 20.;
          hit_freq_ms = 40.;
          rw_mean_bytes = 24 * 1024;
          rw_dev_bytes = 8 * 1024;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 96 * 1024;
          initial_mean_bytes = 2 * 1024 * 1024;
          initial_dev_bytes = 256 * 1024;
          read_pct = 60;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 20;
          pattern = File_type.Sequential;
        };
      ];
  }

let golden_config =
  {
    Engine.default_config with
    disks = 2;
    lower_bound = 0.50;
    upper_bound = 0.60;
    max_measure_ms = 60_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 4_000_000;
  }

let k = 1024
let m = 1024 * 1024

let policies (w : Workload.t) =
  let ts = w.Workload.name = "MINI-TS" in
  [
    ("buddy", C.Experiment.Buddy C.Buddy.default_config);
    ( "restricted",
      C.Experiment.Restricted
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
           ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
           ()) );
    ( "extent",
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
           ~range_means_bytes:(if ts then [ 96 * k; m; 4 * m ] else [ 512 * k; m; 16 * m ])
           ()) );
    ( "fixed",
      C.Experiment.Fixed
        (C.Fixed_block.config ~block_bytes:(if ts then 4 * k else 16 * k) ()) );
    ("lfs", C.Experiment.Log_structured (C.Log_structured.config ()));
  ]

let golden_seeds = [ 41; 42 ]

(* (policy, workload) -> (app mean, app stddev, seq mean, seq stddev),
   captured from the serial pre-pool run_throughput_seeds at seeds
   [41; 42] under golden_config.  Hex float literals: exact. *)
let goldens =
  [
    (("buddy", "MINI-TS"), (0x1.be3ff91fa8ee1p+5, 0x1.3affb3d601793p-1, 0x1.b7030ad1db81cp+5, 0x1.5c856a4f549eap+0));
    (("restricted", "MINI-TS"), (0x1.1f14e80ae24p+6, 0x1.d61b9cecb1319p+0, 0x1.fe249fb932a73p+5, 0x1.3b5a69252098ap+2));
    (("extent", "MINI-TS"), (0x1.03347b0133d68p+6, 0x1.3f4d4b4a8755bp+0, 0x1.0dc7397cc345p+6, 0x1.8acd1cc0f0a33p+1));
    (("fixed", "MINI-TS"), (0x1.13d3ef47fe014p+3, 0x1.1087309e9b5c1p-6, 0x1.256708cf504a6p+2, 0x1.75aa7176001b9p-1));
    (("lfs", "MINI-TS"), (0x1.33a3bf33d1201p+5, 0x1.072a4c3b07ccfp+0, 0x1.13ad0b2d63452p+6, 0x1.bef6b5fd784bp+0));
    (("buddy", "MINI-TP"), (0x1.0fa42160e1cb8p+4, 0x1.10ef9931c7c05p-3, 0x1.870e1051716ccp+6, 0x1.97fe6d8332f4ap-4));
    (("restricted", "MINI-TP"), (0x1.7d47c9dda9606p+4, 0x1.f4fad93d47f67p-10, 0x1.89d95dad2a1e3p+6, 0x1.8f27f80465963p-3));
    (("extent", "MINI-TP"), (0x1.7c2d41812e60ap+4, 0x1.63bc197c983eap-3, 0x1.7fd185081f4c9p+6, 0x1.91e5b3231c071p-2));
    (("fixed", "MINI-TP"), (0x1.bf31f7734aa06p+3, 0x1.1b42df4f89fe3p-5, 0x1.646edd829d9f4p+4, 0x1.41107ee3804d8p-5));
    (("lfs", "MINI-TP"), (0x1.241aa80a76178p+4, 0x1.2109a4f9c74c5p-1, 0x1.ba68708839138p+4, 0x1.95bad14ba3ffbp-2));
    (("buddy", "MINI-SC"), (0x1.7fa9593f26c18p+6, 0x1.f16b54bd9337bp-2, 0x1.83f8c8e3a1a79p+6, 0x1.437c49291e76dp-1));
    (("restricted", "MINI-SC"), (0x1.7d3970a4325b2p+6, 0x1.4363ed0d0568fp-3, 0x1.819119c51ec55p+6, 0x1.49489e34f9628p-1));
    (("extent", "MINI-SC"), (0x1.81bd525587021p+6, 0x1.432041da1f252p-3, 0x1.822084428258cp+6, 0x1.1db38b550e87p+0));
    (("fixed", "MINI-SC"), (0x1.5fc2a57512378p+4, 0x1.791eafb0f3028p-2, 0x1.5c01efdf79084p+4, 0x1.55f3fa51e8affp-3));
    (("lfs", "MINI-SC"), (0x1.7deae54d8d3e3p+6, 0x1.0056f923776aep-4, 0x1.7772e652bb832p+6, 0x1.9645aa97d86f7p-2));
  ]

let check_summary name (golden_mean, golden_dev) (s : Experiment.summary) =
  check_exact_float (name ^ " mean") golden_mean s.Experiment.mean;
  check_exact_float (name ^ " stddev") golden_dev s.Experiment.stddev;
  check_int (name ^ " runs") (List.length golden_seeds) s.Experiment.runs

let check_summaries_equal name (a : Experiment.summary) (b : Experiment.summary) =
  check_exact_float (name ^ " mean") a.Experiment.mean b.Experiment.mean;
  check_exact_float (name ^ " stddev") a.Experiment.stddev b.Experiment.stddev;
  check_int (name ^ " runs") a.Experiment.runs b.Experiment.runs

let test_goldens_and_jobs4 () =
  (* ~jobs:1 reproduces the frozen serial goldens bit for bit, and
     ~jobs:4 reproduces ~jobs:1 bit for bit, for every policy on every
     mini workload. *)
  List.iter
    (fun w ->
      List.iter
        (fun (pname, spec) ->
          let name = Printf.sprintf "%s/%s" pname w.Workload.name in
          let app1, seq1 =
            Experiment.run_throughput_seeds ~config:golden_config ~jobs:1 ~seeds:golden_seeds
              spec w
          in
          let am, ad, sm, sd = List.assoc (pname, w.Workload.name) goldens in
          check_summary (name ^ " app (serial vs golden)") (am, ad) app1;
          check_summary (name ^ " seq (serial vs golden)") (sm, sd) seq1;
          let app4, seq4 =
            Experiment.run_throughput_seeds ~config:golden_config ~jobs:4 ~seeds:golden_seeds
              spec w
          in
          check_summaries_equal (name ^ " app (jobs=4 vs jobs=1)") app1 app4;
          check_summaries_equal (name ^ " seq (jobs=4 vs jobs=1)") seq1 seq4)
        (policies w))
    [ mini_ts; mini_tp; mini_sc ]

let test_env_jobs_matches_serial () =
  (* whatever ROFS_JOBS says (the CI matrix runs this suite under both
     ROFS_JOBS=1 and ROFS_JOBS=4), the default-jobs path must equal the
     explicit serial path *)
  let spec = List.assoc "fixed" (policies mini_sc) in
  let app_env, seq_env =
    Experiment.run_throughput_seeds ~config:golden_config ~seeds:golden_seeds spec mini_sc
  in
  let app1, seq1 =
    Experiment.run_throughput_seeds ~config:golden_config ~jobs:1 ~seeds:golden_seeds spec
      mini_sc
  in
  check_summaries_equal "app (env jobs vs serial)" app1 app_env;
  check_summaries_equal "seq (env jobs vs serial)" seq1 seq_env

let test_run_matrix_matches_seeds_runner () =
  (* run_matrix is the same cells behind a grid API: each (policy,
     workload) summary must equal run_throughput_seeds exactly, at any
     job count, in policy-major workload-minor order. *)
  let policies = [ ("buddy", fun _ -> C.Experiment.Buddy C.Buddy.default_config);
                   ("fixed", fun (w : Workload.t) -> List.assoc "fixed" (policies w)) ]
  in
  let workloads = [ mini_tp; mini_sc ] in
  let cells =
    Experiment.run_matrix ~config:golden_config ~jobs:4 ~seeds:golden_seeds ~policies workloads
  in
  check_int "cell count" 4 (List.length cells);
  Alcotest.(check (list (pair string string)))
    "policy-major order"
    [ ("buddy", "MINI-TP"); ("buddy", "MINI-SC"); ("fixed", "MINI-TP"); ("fixed", "MINI-SC") ]
    (List.map (fun (mc : Experiment.matrix_cell) -> (mc.Experiment.m_policy, mc.Experiment.m_workload)) cells);
  List.iter
    (fun (mc : Experiment.matrix_cell) ->
      let _, spec_of = List.find (fun (p, _) -> p = mc.Experiment.m_policy) policies in
      let w = List.find (fun (w : Workload.t) -> w.Workload.name = mc.Experiment.m_workload) workloads in
      let app, seq =
        Experiment.run_throughput_seeds ~config:golden_config ~jobs:1 ~seeds:golden_seeds
          (spec_of w) w
      in
      let name = mc.Experiment.m_policy ^ "/" ^ mc.Experiment.m_workload in
      check_summaries_equal (name ^ " app") app mc.Experiment.m_application;
      check_summaries_equal (name ^ " seq") seq mc.Experiment.m_sequential)
    cells

(* Edge cases, on the cheapest cell (fixed block on MINI-SC). *)

let edge_spec = C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:(16 * 1024) ())

let test_empty_seed_list_raises () =
  List.iter
    (fun f ->
      check_bool "raises Invalid_argument" true
        (match f () with _ -> false | exception Invalid_argument _ -> true))
    [
      (fun () ->
        ignore (Experiment.run_throughput_seeds ~config:golden_config ~seeds:[] edge_spec mini_sc));
      (fun () ->
        ignore
          (Experiment.run_matrix ~config:golden_config ~seeds:[]
             ~policies:[ ("fixed", fun _ -> edge_spec) ]
             [ mini_sc ]));
      (fun () ->
        ignore
          (Experiment.run_matrix ~config:golden_config ~seeds:[ 42 ] ~policies:[] [ mini_sc ]));
      (fun () ->
        ignore
          (Experiment.run_matrix ~config:golden_config ~seeds:[ 42 ]
             ~policies:[ ("fixed", fun _ -> edge_spec) ]
             []));
    ];
  (* each sweep entry point names itself *)
  List.iter
    (fun (expected, f) ->
      match f () with
      | () -> Alcotest.failf "%s: no exception" expected
      | exception Invalid_argument msg ->
          Alcotest.(check string) "error names its caller" expected msg)
    [
      ( "Experiment.run_seeds: no seeds",
        fun () -> ignore (Experiment.run_seeds ~config:golden_config ~seeds:[] edge_spec mini_sc) );
      ( "Experiment.run_throughput_seeds: no seeds",
        fun () ->
          ignore (Experiment.run_throughput_seeds ~config:golden_config ~seeds:[] edge_spec mini_sc)
      );
    ]

let test_single_seed_stddev_zero () =
  let app, seq =
    Experiment.run_throughput_seeds ~config:golden_config ~seeds:[ 42 ] edge_spec mini_sc
  in
  check_int "runs" 1 app.Experiment.runs;
  check_exact_float "app stddev" 0. app.Experiment.stddev;
  check_exact_float "seq stddev" 0. seq.Experiment.stddev;
  check_bool "mean positive" true (app.Experiment.mean > 0.)

let test_duplicate_seeds_stddev_zero () =
  (* same seed = same isolated simulation = identical samples, so the
     deviation is exactly zero even in floating point *)
  let app, seq =
    Experiment.run_throughput_seeds ~config:golden_config ~jobs:3 ~seeds:[ 42; 42; 42 ]
      edge_spec mini_sc
  in
  let single, _ =
    Experiment.run_throughput_seeds ~config:golden_config ~seeds:[ 42 ] edge_spec mini_sc
  in
  check_int "runs" 3 app.Experiment.runs;
  check_exact_float "app stddev" 0. app.Experiment.stddev;
  check_exact_float "seq stddev" 0. seq.Experiment.stddev;
  check_exact_float "mean equals the single-seed mean" single.Experiment.mean app.Experiment.mean

let test_seed_permutation_invariance () =
  let run seeds =
    Experiment.run_throughput_seeds ~config:golden_config ~jobs:2 ~seeds edge_spec mini_sc
  in
  let app_a, seq_a = run [ 41; 42; 43 ] in
  let app_b, seq_b = run [ 43; 41; 42 ] in
  check_int "runs" app_a.Experiment.runs app_b.Experiment.runs;
  (* same sample multiset folded in a different order: equal up to
     float re-association *)
  Alcotest.(check (float 1e-9)) "app mean" app_a.Experiment.mean app_b.Experiment.mean;
  Alcotest.(check (float 1e-9)) "app stddev" app_a.Experiment.stddev app_b.Experiment.stddev;
  Alcotest.(check (float 1e-9)) "seq mean" seq_a.Experiment.mean seq_b.Experiment.mean;
  Alcotest.(check (float 1e-9)) "seq stddev" seq_a.Experiment.stddev seq_b.Experiment.stddev

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "rofs_par"
    [
      ( "pool",
        [
          quick "map preserves input order" test_map_orders_results;
          quick "edge sizes" test_map_edge_sizes;
          quick "exceptions propagate" test_map_propagates_exceptions;
          quick "ROFS_JOBS parsing" test_default_jobs_env;
        ] );
      ( "stats merge",
        [
          QCheck_alcotest.to_alcotest prop_merge_partition;
          QCheck_alcotest.to_alcotest prop_merge_empty_identity;
          quick "empty partitions cannot poison extrema" test_merge_does_not_poison_extrema;
        ] );
      ( "determinism goldens",
        [
          slow "jobs=1 vs frozen serial, jobs=4 vs jobs=1" test_goldens_and_jobs4;
          slow "ROFS_JOBS default path equals serial" test_env_jobs_matches_serial;
          slow "run_matrix equals the seeds runner" test_run_matrix_matches_seeds_runner;
        ] );
      ( "seed sweep edges",
        [
          quick "empty seed list raises" test_empty_seed_list_raises;
          slow "single seed has stddev 0" test_single_seed_stddev_zero;
          slow "duplicate seeds have stddev 0" test_duplicate_seeds_stddev_zero;
          slow "seed-list permutation invariance" test_seed_permutation_invariance;
        ] );
    ]
