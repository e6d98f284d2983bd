(* Scheduler subsystem tests, three layers deep:

   - queue level: each policy's take order on hand-built queues, plus
     QCheck properties (conservation, FCFS order, SSTF nearness, and
     every policy's exact take order against a sorted-list model) and
     the hot-cylinder adversary showing SCAN / C-LOOK bound waiting
     where SSTF starves;
   - array level: the dispatch-queue path ({!Array_model.submit_flat} /
     {!Array_model.complete_flat}) completes every operation exactly
     once, keeps each drive serial, and — run FCFS with one operation in
     flight and at most one chunk per drive — lands on exactly the same
     clock, bytes and service breakdown as the synchronous
     {!Array_model.serve_extents} path, on every layout;
   - engine level: a frozen FCFS run.  The golden numbers below were
     captured from the seed implementation (per-drive [busy_until]
     clocks, before this subsystem existed); exact float equality here
     is the guarantee that FCFS experiments are byte-identical to the
     seed.  The queued policies get smoke runs through the same
     experiments. *)

module C = Core
module Policy = C.Sched_policy
module Squeue = C.Scheduler
module Array_model = C.Array_model
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type
module Sink = C.Sink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Queue level                                                        *)
(* ------------------------------------------------------------------ *)

(* The queue hands back payloads only.  These tests store each
   request's cylinder in its payload, so a take reads back the cylinder
   it served.  Cylinders run from 0 to 1000. *)
let create policy = Squeue.create policy ~cylinders:1001
let add q ~cylinder v = Squeue.add q ~cylinder (cylinder, v)
let take q ~head = if Squeue.is_empty q then None else Some (Squeue.take q ~head)

(* Drain [q] following the arm: each take's cylinder becomes the next
   head, as in the array, where the arm parks where it last served. *)
let drain q ~head =
  let rec go head acc =
    match take q ~head with
    | None -> List.rev acc
    | Some (cyl, v) -> go cyl ((cyl, v) :: acc)
  in
  go head []

let add_all q reqs = List.iter (fun (cyl, v) -> add q ~cylinder:cyl v) reqs

let test_fcfs_arrival_order () =
  let q = create Policy.Fcfs in
  let reqs = [ (500, "a"); (3, "b"); (900, "c"); (3, "d"); (120, "e") ] in
  add_all q reqs;
  Alcotest.(check (list string))
    "FCFS ignores geometry" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map snd (drain q ~head:450))

let test_sstf_nearest () =
  let q = create Policy.Sstf in
  add_all q [ (90, "far-low"); (105, "near-high"); (100, "here"); (400, "far-high") ];
  Alcotest.(check (list string))
    "SSTF walks nearest-first"
    [ "here"; "near-high"; "far-low"; "far-high" ]
    (List.map snd (drain q ~head:100))

let test_sstf_tie_goes_low () =
  let q = create Policy.Sstf in
  add_all q [ (105, "high"); (95, "low") ];
  let cyl, v = Option.get (take q ~head:100) in
  check_int "tie at distance 5 picks the lower cylinder" 95 cyl;
  check_bool "and its payload" true (v = "low")

let test_same_cylinder_fifo () =
  (* Arrival order within one cylinder, on every policy. *)
  List.iter
    (fun policy ->
      let q = create policy in
      add_all q [ (7, 1); (7, 2); (7, 3) ];
      Alcotest.(check (list int))
        (Policy.name policy ^ " keeps same-cylinder FIFO")
        [ 1; 2; 3 ]
        (List.map snd (drain q ~head:7)))
    Policy.all

let test_scan_sweeps_then_reverses () =
  let q = create Policy.Scan in
  add_all q [ (60, "b"); (40, "d"); (55, "a"); (70, "c") ];
  (* Starts upward from 50: 55, 60, 70; nothing above 70 left, so the
     elevator reverses and comes back for 40. *)
  Alcotest.(check (list string))
    "elevator order" [ "a"; "b"; "c"; "d" ]
    (List.map snd (drain q ~head:50))

let test_clook_wraps () =
  let q = create Policy.Clook in
  add_all q [ (60, "b"); (40, "c"); (55, "a") ];
  (* Upward from 50: 55, 60; then wraps to the lowest pending (40)
     instead of sweeping back down. *)
  Alcotest.(check (list string))
    "circular order" [ "a"; "b"; "c" ]
    (List.map snd (drain q ~head:50))

let test_clear () =
  List.iter
    (fun policy ->
      let q = create policy in
      add_all q [ (1, 1); (2, 2) ];
      Squeue.clear q;
      check_bool (Policy.name policy ^ " clears") true (Squeue.is_empty q);
      check_int "length 0" 0 (Squeue.length q))
    Policy.all

let test_bounds () =
  List.iter
    (fun policy ->
      let q = Squeue.create policy ~cylinders:10 in
      let name = Policy.name policy in
      Alcotest.check_raises (name ^ ": cylinder past the drive")
        (Invalid_argument "Scheduler.add: cylinder out of range") (fun () ->
          Squeue.add q ~cylinder:10 ());
      Alcotest.check_raises (name ^ ": negative cylinder")
        (Invalid_argument "Scheduler.add: cylinder out of range") (fun () ->
          Squeue.add q ~cylinder:(-1) ());
      Alcotest.check_raises (name ^ ": take from an empty queue")
        (Invalid_argument "Scheduler.take: empty queue") (fun () -> Squeue.take q ~head:0);
      Squeue.add q ~cylinder:9 ();
      Squeue.take q ~head:0;
      check_bool (name ^ ": the top cylinder is served") true (Squeue.is_empty q))
    Policy.all;
  Alcotest.check_raises "no cylinders"
    (Invalid_argument "Scheduler.create: need at least one cylinder") (fun () ->
      ignore (Squeue.create Policy.Sstf ~cylinders:0 : unit Squeue.t))

let cylinders = QCheck.(list_of_size Gen.(int_range 1 80) (int_bound 1000))

(* Every policy is conservative: all requests come out, each exactly
   once, even when adds interleave with takes. *)
let prop_conservation =
  QCheck.Test.make ~name:"every request is served exactly once (all policies)" ~count:200
    QCheck.(pair cylinders cylinders)
    (fun (first, second) ->
      List.for_all
        (fun policy ->
          let q = create policy in
          let tag = List.mapi (fun i c -> (c, i)) in
          let batch1 = tag first in
          let n1 = List.length batch1 in
          let batch2 = List.mapi (fun i c -> (c, n1 + i)) second in
          add_all q batch1;
          (* take about half, then add the rest, then drain *)
          let took = ref [] in
          let head = ref 500 in
          for _ = 1 to n1 / 2 do
            match take q ~head:!head with
            | Some (cyl, v) ->
                head := cyl;
                took := v :: !took
            | None -> ()
          done;
          add_all q batch2;
          let rest = List.map snd (drain q ~head:!head) in
          let served = List.sort compare (List.rev_append !took rest) in
          let expected = List.init (n1 + List.length batch2) Fun.id in
          served = expected && Squeue.is_empty q)
        Policy.all)

let prop_fcfs_is_arrival_order =
  QCheck.Test.make ~name:"FCFS serves in arrival order" ~count:200 cylinders (fun cyls ->
      let q = create Policy.Fcfs in
      add_all q (List.mapi (fun i c -> (c, i)) cyls);
      List.map snd (drain q ~head:0) = List.init (List.length cyls) Fun.id)

let prop_sstf_is_nearest =
  QCheck.Test.make ~name:"SSTF always serves a closest pending cylinder" ~count:200 cylinders
    (fun cyls ->
      let q = create Policy.Sstf in
      add_all q (List.mapi (fun i c -> (c, i)) cyls);
      let pending = ref cyls in
      let rec go head =
        match take q ~head with
        | None -> !pending = []
        | Some (cyl, _) ->
            let nearest = List.fold_left (fun acc c -> min acc (abs (c - head))) max_int !pending in
            abs (cyl - head) = nearest
            &&
            (* remove one occurrence of cyl from the model *)
            let removed = ref false in
            (pending :=
               List.filter
                 (fun c ->
                   if (not !removed) && c = cyl then (
                     removed := true;
                     false)
                   else true)
                 !pending;
             go cyl)
      in
      go 500)

(* Reference model: the pending requests as a list in arrival order,
   plus SCAN's sweep direction.  Each take picks the target cylinder by
   scanning the whole list, then serves the oldest request there. *)
type model = { mutable pending : (int * int) list; mutable up : bool }

let model_take policy m ~head =
  match m.pending with
  | [] -> None
  | (oldest, _) :: _ ->
      let cyls = List.map fst m.pending in
      let above = List.filter (fun c -> c >= head) cyls in
      let below = List.filter (fun c -> c <= head) cyls in
      let lowest = List.fold_left min max_int and highest = List.fold_left max min_int in
      let cyl =
        match policy with
        | Policy.Fcfs -> oldest
        | Policy.Sstf -> (
            match (below, above) with
            | [], _ -> lowest above
            | _, [] -> highest below
            | _ ->
                let lo = highest below and hi = lowest above in
                if head - lo <= hi - head then lo else hi)
        | Policy.Scan ->
            if m.up then
              if above <> [] then lowest above
              else begin
                m.up <- false;
                highest below
              end
            else if below <> [] then highest below
            else begin
              m.up <- true;
              lowest above
            end
        | Policy.Clook -> if above <> [] then lowest above else lowest cyls
      in
      let rec pick seen = function
        | (c, v) :: rest when c = cyl ->
            m.pending <- List.rev_append seen rest;
            Some (c, v)
        | r :: rest -> pick (r :: seen) rest
        | [] -> assert false
      in
      pick [] m.pending

type queue_op = Add of int | Take of int | Clear

(* Cylinders and heads share a small range, so same-cylinder queues,
   equidistant ties, sweep reversals and wraps all come up often. *)
let queue_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (10, Gen.map (fun c -> Add c) (Gen.int_bound 40));
        (8, Gen.map (fun h -> Take h) (Gen.int_bound 40));
        (1, Gen.return Clear);
      ]
  in
  let print = function
    | Add c -> Printf.sprintf "add %d" c
    | Take h -> Printf.sprintf "take@%d" h
    | Clear -> "clear"
  in
  pair
    (make ~print:(Print.list print) (Gen.list_size (Gen.int_range 1 200) op))
    (int_bound 200)

let prop_queues_match_model =
  QCheck.Test.make ~name:"every policy matches a sorted-list reference model" ~count:300 queue_ops
    (fun (ops, roundtrip_at) ->
      List.for_all
        (fun policy ->
          let q = ref (create policy) in
          let m = { pending = []; up = true } in
          let next = ref 0 in
          List.for_all
            (fun (i, op) ->
              (* One Marshal round trip at a random step: the copy must
                 carry on exactly where the original left off. *)
              if i = roundtrip_at then q := Marshal.from_string (Marshal.to_string !q []) 0;
              let same =
                match op with
                | Add cylinder ->
                    add !q ~cylinder !next;
                    m.pending <- m.pending @ [ (cylinder, !next) ];
                    incr next;
                    true
                | Take head -> take !q ~head = model_take policy m ~head
                | Clear ->
                    Squeue.clear !q;
                    m.pending <- [];
                    m.up <- true;
                    true
              in
              same && Squeue.length !q = List.length m.pending)
            (List.mapi (fun i op -> (i, op)) ops))
        Policy.all)

(* Adversary: one victim waits at cylinder 900 with a couple of
   waypoints on the way up; after every service a new request lands
   just behind the arm — always the nearest pending cylinder, so SSTF
   chases it downward forever and the victim starves.  SCAN and C-LOOK
   never move the sweep backward for a new arrival, so the victim is
   reached within one sweep no matter what the adversary does. *)
let victim_position policy =
  let q = create policy in
  add q ~cylinder:900 "victim";
  add q ~cylinder:150 "waypoint";
  add q ~cylinder:300 "waypoint";
  add q ~cylinder:99 "hot";
  let rec go head takes =
    if takes > 200 then None
    else
      match take q ~head with
      | None -> None
      | Some (_, "victim") -> Some takes
      | Some (cyl, _) ->
          add q ~cylinder:(max 0 (cyl - 1)) "hot";
          go cyl (takes + 1)
  in
  go 100 0

let test_scan_no_starvation () =
  match victim_position Policy.Scan with
  | None -> Alcotest.fail "SCAN starved the remote request"
  | Some takes -> check_bool (Printf.sprintf "victim served by take %d" takes) true (takes <= 5)

let test_clook_no_starvation () =
  match victim_position Policy.Clook with
  | None -> Alcotest.fail "C-LOOK starved the remote request"
  | Some takes -> check_bool (Printf.sprintf "victim served by take %d" takes) true (takes <= 5)

let test_sstf_starves () =
  (* Not a virtue — documenting the known SSTF failure mode the other
     two policies fix. *)
  check_bool "SSTF never reaches the remote request" true (victim_position Policy.Sstf = None)

(* ------------------------------------------------------------------ *)
(* Array level                                                        *)
(* ------------------------------------------------------------------ *)

(* One request a drive started, read back from the array's dispatch
   buffer. *)
type started = { s_drive : int; s_started : float; s_finished : float }

(* Everything the last [submit_flat] / [complete_flat] started. *)
let started array =
  List.init (Array_model.dispatched_len array) (fun i ->
      {
        s_drive = Array_model.dispatched_drive array i;
        s_started = Array_model.dispatched_started array i;
        s_finished = Array_model.dispatched_finished array i;
      })

(* Drive the queued path the way the engine does: pop the earliest
   in-service completion, retire it, schedule the follow-on dispatch.
   Returns per-drive dispatch logs. *)
let run_to_completion array dispatched =
  let heap = C.Heap.create () in
  let log = Array.make (Array_model.disks array) [] in
  let post d =
    log.(d.s_drive) <- d :: log.(d.s_drive);
    C.Heap.push heap ~prio:d.s_finished d.s_drive
  in
  List.iter post dispatched;
  let finished = ref [] in
  let rec loop () =
    match C.Heap.pop heap with
    | None -> ()
    | Some (_, drive) ->
        let op = Array_model.complete_flat array ~drive in
        List.iter post (started array);
        if Array_model.op_done op then finished := Array_model.op_id op :: !finished;
        loop ()
  in
  loop ();
  (Array.map List.rev log, !finished)

let submit_batch array ~scheduler:_ ops =
  List.fold_left
    (fun (ids, disp) (kind, extents) ->
      let op = Array_model.submit_flat array ~now:0. ~kind ~extents in
      (Array_model.op_id op :: ids, disp @ started array))
    ([], []) ops

let batch_ops =
  [
    (Array_model.Read, [ (0, 256 * 1024) ]);
    (Array_model.Write, [ (8 * 1024 * 1024, 128 * 1024) ]);
    (Array_model.Read, [ (96 * 1024, 64 * 1024); (32 * 1024 * 1024, 64 * 1024) ]);
    (Array_model.Write, [ (512 * 1024, 512 * 1024) ]);
    (Array_model.Read, [ (200 * 1024 * 1024, 24 * 1024) ]);
  ]

let test_queued_completes_exactly_once () =
  List.iter
    (fun scheduler ->
      let array =
        Array_model.create ~scheduler ~disks:4 (Array_model.Striped { stripe_unit = 24 * 1024 })
      in
      let ids, dispatched = submit_batch array ~scheduler batch_ops in
      let _, finished = run_to_completion array dispatched in
      Alcotest.(check (list int))
        (Policy.name scheduler ^ ": every op completes exactly once")
        (List.sort compare ids) (List.sort compare finished);
      for d = 0 to Array_model.disks array - 1 do
        check_int
          (Printf.sprintf "%s: drive %d queue drained" (Policy.name scheduler) d)
          0
          (Array_model.pending array ~drive:d)
      done)
    Policy.all

let test_queued_drives_stay_serial () =
  List.iter
    (fun scheduler ->
      let array =
        Array_model.create ~scheduler ~disks:4 (Array_model.Striped { stripe_unit = 24 * 1024 })
      in
      let _, dispatched = submit_batch array ~scheduler batch_ops in
      let log, _ = run_to_completion array dispatched in
      Array.iteri
        (fun d reqs ->
          let rec serial = function
            | a :: (b :: _ as rest) ->
                check_bool
                  (Printf.sprintf "%s: drive %d starts %.3f after finish %.3f"
                     (Policy.name scheduler) d b.s_started a.s_finished)
                  true
                  (b.s_started >= a.s_finished);
                serial rest
            | _ -> ()
          in
          serial reqs;
          List.iter
            (fun r -> check_bool "finish after start" true (r.s_finished >= r.s_started))
            reqs)
        log)
    Policy.all

(* Operations that put at most one chunk on any drive of every layout
   below (each stays inside one 24 KB stripe unit, or spans two units on
   distinct drives or contiguously on one), so both paths draw the
   service RNG in the same order. *)
let one_chunk_per_drive_ops =
  let unit = 24 * 1024 and mb = 1024 * 1024 in
  [
    (Array_model.Read, [ (0, 16 * 1024) ]);
    (Array_model.Write, [ ((5 * mb) + 4096, 8 * 1024) ]);
    (Array_model.Read, [ (14 * unit, unit) ]);
    (Array_model.Write, [ (4000 * unit, unit) ]);
    (Array_model.Read, [ ((5 * mb) + 4096, 8 * 1024) ]);
    (Array_model.Read, [ (1706 * unit, 2 * unit) ]);
    (Array_model.Read, [ (8000 * unit, unit) ]);
    (Array_model.Write, [ ((10_000 * unit) + 4096, 8 * 1024) ]);
    (Array_model.Write, [ (1706 * unit, 4096) ]);
  ]

let test_queued_fcfs_matches_sync () =
  (* One operation in flight at a time: the dispatch-queue model and the
     seed's busy-clock model serve every chunk through the same routine
     and must produce the same clock, bytes and service breakdown, RNG
     draw for draw (media errors included).  A single drive takes any
     operation; more drives take operations that put at most one chunk
     on each. *)
  let su = 24 * 1024 in
  let media = { C.Fault_plan.none with C.Fault_plan.media_error_rate = 0.3 } in
  List.iter
    (fun ((name, disks, cfg, ops), faults) ->
      let name = if faults == media then name ^ ", media errors" else name in
      let make scheduler =
        let a = Array_model.create ~scheduler ~faults ~disks cfg in
        Array_model.attach_obs a (Sink.create ());
        a
      in
      let sync = make Policy.Fcfs and queued = make Policy.Fcfs in
      let now = ref 0. in
      List.iteri
        (fun i (kind, extents) ->
          let label what = Printf.sprintf "%s op %d: %s" name i what in
          Array_model.serve_extents sync ~now:!now ~kind ~extents;
          let sync_done = Array_model.last_finished sync in
          let op = Array_model.submit_flat queued ~now:!now ~kind ~extents in
          let _, finished = run_to_completion queued (started queued) in
          check_bool (label "op retired") true (finished = [ Array_model.op_id op ]);
          check_exact_float (label "completion") sync_done (Array_model.op_finished op);
          check_exact_float (label "first byte")
            (Array_model.last_began sync) (Array_model.op_began op);
          (match Array_model.op_breakdown op with
          | None -> Alcotest.fail (label "no breakdown under a sink")
          | Some (seek, rotation, transfer, penalty) ->
              let s, r, x, p = Array_model.last_breakdown sync in
              check_exact_float (label "seek") s seek;
              check_exact_float (label "rotation") r rotation;
              check_exact_float (label "transfer") x transfer;
              check_exact_float (label "fault penalty") p penalty);
          now := sync_done +. 1.)
        ops;
      check_int (name ^ ": same data bytes") (Array_model.bytes_moved sync)
        (Array_model.bytes_moved queued);
      check_bool (name ^ ": same drive statistics") true
        (Array_model.drive_stats sync = Array_model.drive_stats queued))
    (List.concat_map
       (fun layout -> [ (layout, C.Fault_plan.none); (layout, media) ])
       [
         ("striped, 1 drive", 1, Array_model.Striped { stripe_unit = su }, batch_ops);
         ("striped", 4, Array_model.Striped { stripe_unit = su }, one_chunk_per_drive_ops);
         ("mirrored", 2, Array_model.Mirrored { stripe_unit = su }, one_chunk_per_drive_ops);
         ("raid5", 3, Array_model.Raid5 { stripe_unit = su }, one_chunk_per_drive_ops);
         ("parity striped", 2, Array_model.Parity_striped, one_chunk_per_drive_ops);
       ])

(* ------------------------------------------------------------------ *)
(* Engine level                                                       *)
(* ------------------------------------------------------------------ *)

(* Small enough to run in about a second, rich enough to exercise both
   random-access and sequential paths.  Frozen verbatim: the golden
   numbers below depend on every field. *)
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

let mini_sc =
  {
    Workload.name = "MINI-SC";
    description = "scaled supercomputing workload";
    types =
      [
        {
          File_type.name = "big";
          count = 6;
          users = 4;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 60 * 1024 * 1024;
          initial_dev_bytes = 10 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let golden_config =
  {
    Engine.default_config with
    lower_bound = 0.50;
    upper_bound = 0.60;
    max_measure_ms = 120_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 4_000_000;
  }

let buddy = Experiment.Buddy C.Buddy.default_config

let check_throughput name (golden_pct, golden_bpm, golden_measured, g_checkpoints, g_stabilized, g_io_ops)
    (r : Engine.throughput_report) =
  check_exact_float (name ^ " pct_of_max") golden_pct r.Engine.pct_of_max;
  check_exact_float (name ^ " bytes_per_ms") golden_bpm r.Engine.bytes_per_ms;
  check_exact_float (name ^ " measured_ms") golden_measured r.Engine.measured_ms;
  check_int (name ^ " checkpoints") g_checkpoints r.Engine.checkpoints;
  check_bool (name ^ " stabilized") g_stabilized r.Engine.stabilized;
  check_int (name ^ " io_ops") g_io_ops r.Engine.io_ops

let test_fcfs_matches_seed_goldens () =
  (* Captured from the seed implementation before lib/sched existed;
     FCFS must keep reproducing them bit for bit. *)
  let alloc = Experiment.run_allocation ~config:golden_config buddy mini_tp in
  check_exact_float "alloc internal frag" 0.088957747887997402 alloc.Engine.internal_frag;
  check_exact_float "alloc external frag" 0.0044444444444444444 alloc.Engine.external_frag;
  check_int "alloc ops" 209470 alloc.Engine.alloc_ops;
  check_exact_float "alloc utilization" 0.99555555555555553 alloc.Engine.utilization_at_end;
  check_bool "alloc failed" true alloc.Engine.failed;
  let tp_app, tp_seq = Experiment.run_throughput ~config:golden_config buddy mini_tp in
  check_throughput "tp app"
    (12.17699789351555, 1385.382679652462, 60028.651772065787, 6, true, 4781)
    tp_app;
  check_throughput "tp seq"
    (96.748966436765841, 11007.174637613121, 121843.60061949154, 12, false, 32)
    tp_seq;
  check_exact_float "tp utilization" 0.52148148148148143 tp_app.Engine.utilization;
  check_exact_float "tp extents per file" 17.100000000000001 tp_app.Engine.mean_extents_per_file;
  let sc_app, sc_seq = Experiment.run_throughput ~config:golden_config buddy mini_sc in
  check_throughput "sc app"
    (86.536792465442815, 9845.3308839074143, 120012.13940555588, 12, false, 625)
    sc_app;
  check_throughput "sc seq"
    (98.786323618640353, 11238.965706045314, 134713.20273069225, 13, false, 10)
    sc_seq;
  check_exact_float "sc extents per file" 18.5 sc_app.Engine.mean_extents_per_file

let smoke_queued scheduler () =
  let config = { golden_config with scheduler } in
  let app, seq = Experiment.run_throughput ~config buddy mini_tp in
  List.iter
    (fun (label, (r : Engine.throughput_report)) ->
      check_bool
        (Printf.sprintf "%s %s throughput %.2f%% sane" (Policy.name scheduler) label
           r.Engine.pct_of_max)
        true
        (r.Engine.pct_of_max > 0. && r.Engine.pct_of_max <= 100.);
      check_bool (Policy.name scheduler ^ " time advanced") true (r.Engine.measured_ms > 0.))
    [ ("app", app); ("seq", seq) ];
  check_bool (Policy.name scheduler ^ " did I/O") true (app.Engine.io_ops > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "rofs_sched"
    [
      ( "queues",
        [
          quick "fcfs arrival order" test_fcfs_arrival_order;
          quick "sstf nearest" test_sstf_nearest;
          quick "sstf tie goes low" test_sstf_tie_goes_low;
          quick "same cylinder is FIFO" test_same_cylinder_fifo;
          quick "scan sweeps then reverses" test_scan_sweeps_then_reverses;
          quick "clook wraps" test_clook_wraps;
          quick "clear empties" test_clear;
          QCheck_alcotest.to_alcotest prop_conservation;
          QCheck_alcotest.to_alcotest prop_fcfs_is_arrival_order;
          QCheck_alcotest.to_alcotest prop_sstf_is_nearest;
          QCheck_alcotest.to_alcotest prop_queues_match_model;
          quick "scan does not starve" test_scan_no_starvation;
          quick "clook does not starve" test_clook_no_starvation;
          quick "sstf starves (known)" test_sstf_starves;
          quick "cylinder range and empty take" test_bounds;
        ] );
      ( "array dispatch",
        [
          quick "ops complete exactly once" test_queued_completes_exactly_once;
          quick "drives stay serial" test_queued_drives_stay_serial;
          quick "queued FCFS matches sync clock" test_queued_fcfs_matches_sync;
        ] );
      ( "engine",
        [
          slow "FCFS reproduces seed goldens" test_fcfs_matches_seed_goldens;
          slow "sstf smoke" (smoke_queued Policy.Sstf);
          slow "scan smoke" (smoke_queued Policy.Scan);
          slow "clook smoke" (smoke_queued Policy.Clook);
        ] );
    ]
