(* Time-series telemetry bench: three stories the scalar reports cannot
   tell, read off the per-window timeline the engine samples at fixed
   simulated-time boundaries (--timeline on the CLI).

   1. TP stabilization — operation rate and latency quantiles settle
      window by window as the fill churn gives way to the measured mix.
   2. Cache warm-up — a cold buffer cache's per-window hit rate climbs
      toward steady state instead of being averaged away.
   3. Fault dip — under a scripted drive failure a mirrored / RAID-5
      array's throughput dips while degraded and keeps paying during
      the background rebuild.

   Each cell is one engine run with an attached timeline; rows are the
   (subsampled) closed windows, pulled from the rofs-timeline-v1 JSON
   export so the bench exercises the same document users consume. *)

module C = Core
module J = C.Obs.Json

let num name doc =
  match Option.bind (J.member name doc) J.float_value with Some v -> v | None -> 0.

let sub2 outer name w = match J.member outer w with Some o -> num name o | None -> 0.

let windows tl =
  match J.member "windows" (C.Timeline.to_json tl) with Some (J.Arr ws) -> ws | _ -> []

(* Busy time averaged across the per-drive columns of one window. *)
let busy_mean w =
  match J.member "drives" w with
  | Some (J.Arr (_ :: _ as ds)) ->
      List.fold_left (fun acc d -> acc +. num "busy_ms" d) 0. ds /. float_of_int (List.length ds)
  | _ -> 0.

(* Every window is exported; tables keep at most [max_rows] of them
   (every step-th plus the last) so the committed JSON stays readable. *)
let keep ~max_rows ws =
  let n = List.length ws in
  if n <= max_rows then ws
  else
    let step = (n + max_rows - 1) / max_rows in
    List.filteri (fun i _ -> i mod step = 0 || i = n - 1) ws

(* The fill phase issues no timed I/O, so its windows are all zeros;
   keep just the last of them to mark where measurement begins. *)
let trim_fill ws =
  let rec drop = function
    | a :: (b :: _ as rest) when num "io_ops" a = 0. && num "io_ops" b = 0. -> drop rest
    | ws -> ws
  in
  drop ws

let every_ms = 5_000.

let cell_config () =
  {
    !Common.config with
    C.Engine.lower_bound = 0.55;
    upper_bound = 0.65;
    max_measure_ms = 60_000.;
    warmup_checkpoints = 1;
  }

let scaled_tp factor =
  match C.Workload.by_name "tp" with
  | Some w -> C.Workload.scaled w ~factor
  | None -> assert false

(* One engine, one timeline, a scripted sequence of phases: the
   timeline runs continuously across them (windows are absolute
   simulated time), which is the whole point — phase transitions show
   up in the series, not as separate reports. *)
let run_phases config phases =
  let engine = C.Experiment.make_engine ~config Common.rbuddy_selected (scaled_tp 0.25) in
  C.Engine.attach_timeline engine ~every_ms;
  C.Engine.fill_to_lower_bound engine;
  List.iter (fun f -> f engine) phases;
  match C.Engine.timeline engine with Some tl -> tl | None -> assert false

let app engine =
  ignore (C.Engine.run_application_test engine : C.Engine.throughput_report)

let secs w name = Printf.sprintf "%.0f" (num name w /. 1000.)
let int_of w name = Printf.sprintf "%.0f" (num name w)

type cell = Tp | Cache | Fault of string

let run_cell = function
  | Tp ->
      let tl = run_phases (cell_config ()) [ app ] in
      List.map
        (fun w ->
          [
            int_of w "index";
            secs w "t_start_ms";
            int_of w "io_ops";
            Printf.sprintf "%.1f" (num "bytes" w /. (1024. *. 1024.));
            Printf.sprintf "%.2f" (sub2 "latency_ms" "p50" w);
            Printf.sprintf "%.2f" (sub2 "latency_ms" "p99" w);
            Common.pct (busy_mean w /. every_ms);
          ])
        (keep ~max_rows:14 (trim_fill (windows tl)))
  | Cache ->
      (* Large enough that the warm-up lasts across the measured
         windows: the climb toward steady state is the story. *)
      let config =
        {
          (cell_config ()) with
          C.Engine.cache =
            Some
              (C.Cache.config ~mb:256 ~policy:C.Cache_policy.Lru
                 ~write_mode:C.Cache.Write_through ());
        }
      in
      let tl = run_phases config [ app ] in
      List.map
        (fun w ->
          let lookups = sub2 "cache" "lookups" w in
          let hits = sub2 "cache" "hits" w in
          [
            int_of w "index";
            secs w "t_start_ms";
            Printf.sprintf "%.0f" lookups;
            (if lookups = 0. then "-" else Common.pct (hits /. lookups));
            int_of w "io_ops";
          ])
        (keep ~max_rows:14 (trim_fill (windows tl)))
  | Fault layout ->
      (* Deterministic fault script, no fault RNG: one 60 s
         application test (the warm-up outlasts it, so it never ends
         early) runs 20 s healthy, 20 s with drive 0 failed, then 20 s
         with drive 0 repaired and the background rebuild competing
         with foreground work.  A 20 s timer armed at the end of the
         fill fails the drive at its first tick and repairs it at its
         second. *)
      let array_config stripe_unit =
        if layout = "mirrored" then C.Array_model.Mirrored { stripe_unit }
        else C.Array_model.Raid5 { stripe_unit }
      in
      let config = { (cell_config ()) with C.Engine.array_config; warmup_checkpoints = 6 } in
      let script e =
        let ticks = ref 0 in
        C.Engine.set_checkpoint e ~every_ms:20_000. (fun () ->
            incr ticks;
            if !ticks = 1 then C.Engine.fail_drive e ~drive:0
            else if !ticks = 2 then C.Engine.repair_drive e ~drive:0)
      in
      let tl = run_phases config [ script; app ] in
      List.map
        (fun w ->
          [
            layout;
            int_of w "index";
            secs w "t_start_ms";
            int_of w "io_ops";
            Printf.sprintf "%.0f" (sub2 "fault" "failed_drives" w);
            Printf.sprintf "%.0f" (sub2 "fault" "rebuilding_drives" w);
            Printf.sprintf "%.0f" (sub2 "fault" "rebuild_ios" w);
          ])
        (keep ~max_rows:16 (trim_fill (windows tl)))

let run () =
  Common.heading "Timeline: windowed time series (5 s simulated windows)";
  match Common.par_map run_cell [ Tp; Cache; Fault "mirrored"; Fault "raid5" ] with
  | [ tp_rows; cache_rows; mirror_rows; raid5_rows ] ->
      let t =
        C.Table.create
          ~header:[ "window"; "t (s)"; "io ops"; "MB"; "p50 ms"; "p99 ms"; "util" ]
      in
      List.iter (C.Table.add_row t) tp_rows;
      Common.emit ~title:"TP stabilization: per-window rate and latency" t;
      let t =
        C.Table.create ~header:[ "window"; "t (s)"; "lookups"; "hit rate"; "io ops" ]
      in
      List.iter (C.Table.add_row t) cache_rows;
      Common.emit ~title:"Cache warm-up: per-window hit rate (256 MiB LRU, cold)" t;
      let t =
        C.Table.create
          ~header:
            [ "layout"; "window"; "t (s)"; "io ops"; "failed"; "rebuilding"; "rebuild ios" ]
      in
      List.iter (C.Table.add_row t) (mirror_rows @ raid5_rows);
      Common.emit ~title:"Fault dip: degraded -> rebuilding -> healthy" t;
      Common.note
        [
          "";
          "Early windows cover the fill phase (no timed I/O); once the";
          "application mix starts, the TP table shows the rate and quantiles";
          "settling, the cache table shows the cold cache warming toward its";
          "steady hit rate, and the fault table shows throughput dipping when";
          "a drive dies and again while the background rebuild's resync I/O";
          "competes with foreground work through the same dispatch queues.";
        ]
  | _ -> assert false
