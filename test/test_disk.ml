(* Tests for the disk substrate: drive geometry, the seek/rotation/
   transfer service model, sequential-access detection, and the four
   array layouts. *)

module Geometry = Core.Geometry
module Drive = Core.Drive
module Array_model = Core.Array_model
module Rng = Core.Rng

(* One synchronous operation; its completion time. *)
let access a ~now ~kind ~extents =
  Array_model.serve_extents a ~now ~kind ~extents;
  Array_model.last_finished a

let wren = Geometry.cdc_wren_iv
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.4f, got %.4f)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* ------------------------------------------------------------------ *)
(* Geometry *)

let test_wren_parameters () =
  (* Table 1 of the paper. *)
  check_int "platters" 9 wren.Geometry.platters;
  check_int "cylinders" 1600 wren.Geometry.cylinders;
  check_int "track bytes" (24 * 1024) wren.Geometry.track_bytes;
  close "single track seek" 5.5 wren.Geometry.single_track_seek_ms;
  close "incremental seek" 0.032 wren.Geometry.seek_incremental_ms;
  close "rotation" 16.67 wren.Geometry.rotation_ms

let test_geometry_derived () =
  check_int "cylinder bytes" (9 * 24 * 1024) (Geometry.cylinder_bytes wren);
  check_int "capacity" (9 * 24 * 1024 * 1600) (Geometry.capacity_bytes wren);
  check_int "cylinder of offset 0" 0 (Geometry.cylinder_of_offset wren 0);
  check_int "cylinder of one-cylinder offset" 1
    (Geometry.cylinder_of_offset wren (9 * 24 * 1024))

let test_seek_model () =
  (* The paper: an N track seek takes ST + N*SI ms. *)
  close "zero distance free" 0. (Geometry.seek_ms wren ~distance:0);
  close "one track" (5.5 +. 0.032) (Geometry.seek_ms wren ~distance:1);
  close "100 tracks" (5.5 +. (100. *. 0.032)) (Geometry.seek_ms wren ~distance:100)

let test_transfer_time () =
  close "one full track is one rotation" 16.67 (Geometry.transfer_ms wren ~bytes:(24 * 1024));
  close "half track" (16.67 /. 2.) (Geometry.transfer_ms wren ~bytes:(12 * 1024));
  close "zero bytes" 0. (Geometry.transfer_ms wren ~bytes:0)

let test_sustained_rate_matches_paper () =
  (* 8 drives must give the paper's 10.8 M/s maximum throughput. *)
  let mb_per_s = 8. *. Geometry.sustained_bytes_per_ms wren *. 1000. /. (1024. *. 1024.) in
  check_bool
    (Printf.sprintf "8-drive array sustains ~10.8 MB/s (got %.2f)" mb_per_s)
    true
    (mb_per_s > 10.6 && mb_per_s < 11.0)

(* ------------------------------------------------------------------ *)
(* Drive *)

(* One single-pass transfer issued at [now], queued behind whatever the
   drive is still serving. *)
let drive_access d ~now ~rng ~offset ~bytes =
  Drive.serve d ~start:(Float.max now (Drive.busy_until d)) ~rng ~offset ~bytes ~passes:1

let test_drive_initial_state () =
  let d = Drive.create wren in
  check_int "head at 0" 0 (Drive.head_cylinder d);
  close "idle" 0. (Drive.busy_until d);
  check_int "no requests" 0 (Drive.stats d).Drive.requests

let test_drive_access_advances_state () =
  let d = Drive.create wren in
  let rng = Rng.create ~seed:1 in
  let finish = drive_access d ~now:0. ~rng ~offset:0 ~bytes:(24 * 1024) in
  check_bool "took time" true (finish > 0.);
  close "busy until finish" finish (Drive.busy_until d);
  let stats = Drive.stats d in
  check_int "one request" 1 stats.Drive.requests;
  check_int "bytes counted" (24 * 1024) stats.Drive.bytes_moved;
  check_int "one positioning" 1 stats.Drive.seeks

let test_drive_sequential_continuation_is_free () =
  (* Second access continuing exactly where the first ended pays neither
     seek nor rotational latency: its duration is pure transfer. *)
  let d = Drive.create wren in
  let rng = Rng.create ~seed:2 in
  let chunk = 24 * 1024 in
  let t1 = drive_access d ~now:0. ~rng ~offset:0 ~bytes:chunk in
  let t2 = drive_access d ~now:t1 ~rng ~offset:chunk ~bytes:chunk in
  close ~eps:1e-9 "pure transfer" (Geometry.transfer_ms wren ~bytes:chunk) (t2 -. t1);
  check_int "no second positioning" 1 (Drive.stats d).Drive.seeks

let test_drive_nonsequential_pays_positioning () =
  let d = Drive.create wren in
  let rng = Rng.create ~seed:3 in
  let chunk = 24 * 1024 in
  let t1 = drive_access d ~now:0. ~rng ~offset:0 ~bytes:chunk in
  (* A hole between the requests breaks the sequential run. *)
  let t2 = drive_access d ~now:t1 ~rng ~offset:(10 * chunk) ~bytes:chunk in
  check_bool "costs more than pure transfer" true
    (t2 -. t1 > Geometry.transfer_ms wren ~bytes:chunk);
  check_int "second positioning counted" 2 (Drive.stats d).Drive.seeks

let test_drive_sequential_pays_cylinder_crossings () =
  (* Streaming a whole cylinder boundary must pay the track-to-track
     seek: the long-run rate equals the sustained rate, not the raw
     media rate. *)
  let d = Drive.create wren in
  let rng = Rng.create ~seed:4 in
  let cylinder = Geometry.cylinder_bytes wren in
  let t1 = drive_access d ~now:0. ~rng ~offset:0 ~bytes:cylinder in
  let t2 = drive_access d ~now:t1 ~rng ~offset:cylinder ~bytes:cylinder in
  let second_duration = t2 -. t1 in
  close ~eps:1e-6 "cylinder transfer + one track seek"
    (Geometry.transfer_ms wren ~bytes:cylinder +. wren.Geometry.single_track_seek_ms)
    second_duration

let test_drive_queueing () =
  (* A request issued while the drive is busy starts after the previous
     one finishes. *)
  let d = Drive.create wren in
  let rng = Rng.create ~seed:5 in
  let t1 = drive_access d ~now:0. ~rng ~offset:0 ~bytes:(24 * 1024) in
  let t2 = drive_access d ~now:0. ~rng ~offset:(48 * 1024) ~bytes:(24 * 1024) in
  check_bool "second queued behind first" true (t2 > t1)

let test_drive_zero_byte_access () =
  let d = Drive.create wren in
  let rng = Rng.create ~seed:6 in
  let finish = drive_access d ~now:5. ~rng ~offset:0 ~bytes:0 in
  close "instant" 5. finish;
  check_int "not counted" 0 (Drive.stats d).Drive.requests

let test_drive_reset () =
  let d = Drive.create wren in
  let rng = Rng.create ~seed:7 in
  ignore (drive_access d ~now:0. ~rng ~offset:Geometry.(cylinder_bytes wren * 10) ~bytes:1024);
  Drive.reset d;
  check_int "head back to 0" 0 (Drive.head_cylinder d);
  close "clock cleared" 0. (Drive.busy_until d);
  check_int "stats cleared" 0 (Drive.stats d).Drive.requests

let test_drive_service_time_pure () =
  let d = Drive.create wren in
  let rng = Rng.create ~seed:8 in
  let before = Drive.busy_until d in
  let time = Drive.service_time_ms d ~rng ~offset:0 ~bytes:(24 * 1024) in
  check_bool "positive" true (time > 0.);
  close "no state change" before (Drive.busy_until d);
  check_int "no request recorded" 0 (Drive.stats d).Drive.requests

(* ------------------------------------------------------------------ *)
(* Array model: striped *)

let striped ?(disks = 8) () =
  Array_model.create ~disks (Array_model.Striped { stripe_unit = 24 * 1024 })

let test_array_capacity () =
  let a = striped () in
  check_int "8 x drive capacity" (8 * Geometry.capacity_bytes wren) (Array_model.capacity_bytes a)

let test_array_max_bandwidth () =
  let a = striped () in
  let mb = Array_model.max_bandwidth_bytes_per_ms a *. 1000. /. (1024. *. 1024.) in
  check_bool "about 10.8 MB/s" true (mb > 10.6 && mb < 11.0)

let test_array_small_access_single_disk () =
  (* An 8K access within one stripe unit touches one drive. *)
  let a = striped () in
  let finish = access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 8 * 1024) ] in
  let busy = Array_model.drive_stats a in
  let touched = Array.to_list busy |> List.filter (fun s -> s.Drive.requests > 0) in
  check_int "one drive touched" 1 (List.length touched);
  check_bool "took positive time" true (finish > 0.)

let test_array_large_access_spans_disks () =
  let a = striped () in
  ignore
    (access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 8 * 24 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "all 8 drives touched" 8 (List.length touched)

let test_array_parallel_speedup () =
  (* A full-stripe read is serviced in parallel: it takes about as long
     as one stripe unit on one drive, not eight. *)
  let a = striped () in
  let t_stripe =
    Array_model.time_of a ~kind:Array_model.Read ~extents:[ (0, 8 * 24 * 1024) ]
  in
  let t_unit = Array_model.time_of a ~kind:Array_model.Read ~extents:[ (0, 24 * 1024) ] in
  check_bool "parallel service" true (t_stripe < t_unit *. 2.5)

let test_array_sequential_throughput_near_max () =
  (* A long contiguous read sustains (nearly) the maximum bandwidth and
     never exceeds it by more than the latency it saved. *)
  let a = striped () in
  let bytes = 512 * 1024 * 1024 in
  let time = Array_model.time_of a ~kind:Array_model.Read ~extents:[ (0, bytes) ] in
  let rate = float_of_int bytes /. time in
  let max_rate = Array_model.max_bandwidth_bytes_per_ms a in
  check_bool
    (Printf.sprintf "rate %.2f of max %.2f" rate max_rate)
    true
    (rate > 0.93 *. max_rate && rate < 1.01 *. max_rate)

let test_array_bytes_moved () =
  let a = striped () in
  ignore (access a ~now:0. ~kind:Array_model.Write ~extents:[ (0, 100 * 1024) ]);
  check_int "bytes accounted" (100 * 1024) (Array_model.bytes_moved a)

let test_array_service_window () =
  let a = striped () in
  let finished1 = access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 24 * 1024) ] in
  check_bool "starts immediately when idle" true (Array_model.last_began a = 0.);
  (* second op on the same drive starts after the first finishes *)
  ignore (access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 24 * 1024) ]);
  close "queued start" finished1 (Array_model.last_began a)

let test_array_utilization () =
  let a = striped () in
  close "zero at t0" 0. (Array_model.utilization a ~now:0.);
  let finish = access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 24 * 1024) ] in
  let u = Array_model.utilization a ~now:finish in
  check_bool "some utilization" true (u > 0. && u <= 1.)

let test_array_reset () =
  let a = striped () in
  ignore (access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 1024) ]);
  Array_model.reset a;
  check_int "bytes cleared" 0 (Array_model.bytes_moved a);
  check_bool "drives idle" true
    (Array.for_all (fun s -> s.Drive.requests = 0) (Array_model.drive_stats a))

let test_array_rejects_out_of_range () =
  let a = striped () in
  Alcotest.check_raises "outside array" (Invalid_argument "Array_model: extent outside the array")
    (fun () ->
      ignore
        (access a ~now:0. ~kind:Array_model.Read
           ~extents:[ (Array_model.capacity_bytes a, 1) ]))

let test_array_rejects_bad_config () =
  Alcotest.check_raises "zero disks" (Invalid_argument "Array_model.create: need at least one disk")
    (fun () -> ignore (Array_model.create ~disks:0 (Array_model.Striped { stripe_unit = 1024 })));
  Alcotest.check_raises "tiny stripe"
    (Invalid_argument "Array_model.create: stripe unit smaller than sector") (fun () ->
      ignore (Array_model.create ~disks:2 (Array_model.Striped { stripe_unit = 128 })));
  Alcotest.check_raises "odd mirroring"
    (Invalid_argument "Array_model.create: mirroring needs an even disk count") (fun () ->
      ignore (Array_model.create ~disks:3 (Array_model.Mirrored { stripe_unit = 1024 })))

(* ------------------------------------------------------------------ *)
(* Array model: mirrored, RAID-5, parity striped *)

let test_mirrored_capacity_and_writes () =
  let a = Array_model.create ~disks:8 (Array_model.Mirrored { stripe_unit = 24 * 1024 }) in
  check_int "half capacity" (4 * Geometry.capacity_bytes wren) (Array_model.capacity_bytes a);
  ignore (access a ~now:0. ~kind:Array_model.Write ~extents:[ (0, 8 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "write hits both arms" 2 (List.length touched);
  (* data bytes counted once *)
  check_int "data bytes once" (8 * 1024) (Array_model.bytes_moved a)

let test_mirrored_read_single_arm () =
  let a = Array_model.create ~disks:8 (Array_model.Mirrored { stripe_unit = 24 * 1024 }) in
  ignore (access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 8 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "read hits one arm" 1 (List.length touched)

let test_raid5_capacity_and_small_write_penalty () =
  let a = Array_model.create ~disks:8 (Array_model.Raid5 { stripe_unit = 24 * 1024 }) in
  check_int "n-1 capacity" (7 * Geometry.capacity_bytes wren) (Array_model.capacity_bytes a);
  let t_read = Array_model.time_of a ~kind:Array_model.Read ~extents:[ (0, 8 * 1024) ] in
  let t_write = Array_model.time_of a ~kind:Array_model.Write ~extents:[ (0, 8 * 1024) ] in
  check_bool "small write pays read-modify-write" true (t_write > 1.5 *. t_read)

let test_raid5_write_touches_parity_drive () =
  let a = Array_model.create ~disks:8 (Array_model.Raid5 { stripe_unit = 24 * 1024 }) in
  ignore (access a ~now:0. ~kind:Array_model.Write ~extents:[ (0, 8 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "data + parity drives" 2 (List.length touched)

let test_parity_striped_places_file_on_one_disk () =
  let a = Array_model.create ~disks:8 Array_model.Parity_striped in
  (* A multi-megabyte read within one drive's data region touches only
     that drive: Gray's layout does not stripe files. *)
  ignore (access a ~now:0. ~kind:Array_model.Read ~extents:[ (0, 4 * 1024 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "single drive" 1 (List.length touched)

let test_parity_striped_write_updates_partner () =
  let a = Array_model.create ~disks:8 Array_model.Parity_striped in
  ignore (access a ~now:0. ~kind:Array_model.Write ~extents:[ (0, 64 * 1024) ]);
  let touched =
    Array.to_list (Array_model.drive_stats a) |> List.filter (fun s -> s.Drive.requests > 0)
  in
  check_int "data + parity partner" 2 (List.length touched)

(* ------------------------------------------------------------------ *)
(* Heterogeneous arrays *)

let slow_drive =
  {
    wren with
    Geometry.name = "slow drive";
    rotation_ms = 33.34;
    single_track_seek_ms = 11.;
    cylinders = 800;
  }

let test_mixed_capacity_is_min_per_drive () =
  let a =
    Array_model.create_mixed
      ~geometries:[ wren; slow_drive; wren; wren ]
      (Array_model.Striped { stripe_unit = 24 * 1024 })
  in
  (* The slow drive has half the cylinders: every drive contributes that
     smaller capacity. *)
  check_int "4 x smallest drive" (4 * Geometry.capacity_bytes slow_drive)
    (Array_model.capacity_bytes a)

let test_mixed_bandwidth_is_slowest () =
  let homogeneous = striped ~disks:4 () in
  let mixed =
    Array_model.create_mixed
      ~geometries:[ wren; slow_drive; wren; wren ]
      (Array_model.Striped { stripe_unit = 24 * 1024 })
  in
  check_bool "slow drive caps the array" true
    (Array_model.max_bandwidth_bytes_per_ms mixed
    < Array_model.max_bandwidth_bytes_per_ms homogeneous)

let test_mixed_straggler () =
  (* A full-stripe transfer completes when the slowest drive does. *)
  let mixed =
    Array_model.create_mixed
      ~geometries:[ wren; slow_drive; wren; wren ]
      (Array_model.Striped { stripe_unit = 24 * 1024 })
  in
  let t_mixed = Array_model.time_of mixed ~kind:Array_model.Read ~extents:[ (0, 4 * 24 * 1024) ] in
  let uniform = striped ~disks:4 () in
  let t_uniform = Array_model.time_of uniform ~kind:Array_model.Read ~extents:[ (0, 4 * 24 * 1024) ] in
  check_bool "straggler dominates" true (t_mixed > t_uniform)

(* ------------------------------------------------------------------ *)
(* Address-mapping properties *)

(* Model the striped mapping independently and compare observable
   behaviour: every byte of a random extent is serviced exactly once, on
   the drive the round-robin mapping predicts. *)
let prop_striped_mapping_covers_bytes =
  QCheck.Test.make ~name:"striped mapping moves exactly the requested bytes" ~count:200
    QCheck.(pair (int_bound 10_000_000) (int_range 1 5_000_000))
    (fun (addr, len) ->
      let a = striped () in
      ignore (access a ~now:0. ~kind:Array_model.Read ~extents:[ (addr, len) ]);
      Array_model.bytes_moved a = len)

let prop_striped_distributes_round_robin =
  QCheck.Test.make ~name:"aligned stripe units land on successive drives" ~count:50
    QCheck.(int_bound 1000)
    (fun stripe_index ->
      let unit = 24 * 1024 in
      let a = striped () in
      ignore
        (access a ~now:0. ~kind:Array_model.Read
           ~extents:[ (stripe_index * unit, unit) ]);
      let stats = Array_model.drive_stats a in
      let expected_disk = stripe_index mod 8 in
      Array.for_all Fun.id
        (Array.mapi
           (fun i s -> (s.Drive.requests > 0) = (i = expected_disk))
           stats))

let prop_multi_extent_ops_accumulate =
  QCheck.Test.make ~name:"bytes accumulate across extents" ~count:100
    QCheck.(small_list (pair (int_bound 1_000_000) (int_range 1 100_000)))
    (fun extents ->
      let a = striped () in
      let extents = List.map (fun (addr, len) -> (addr, len)) extents in
      if extents = [] then true
      else begin
        ignore (access a ~now:0. ~kind:Array_model.Write ~extents);
        Array_model.bytes_moved a = List.fold_left (fun acc (_, l) -> acc + l) 0 extents
      end)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_array_deterministic () =
  let run () =
    let a = Array_model.create ~seed:9 ~disks:8 (Array_model.Striped { stripe_unit = 24 * 1024 }) in
    let fin = ref 0. in
    for i = 0 to 49 do
      fin :=
        access a ~now:!fin ~kind:Array_model.Read
          ~extents:[ (i * 1024 * 1024, 64 * 1024) ]
    done;
    !fin
  in
  close ~eps:0. "same seed, same trace" (run ()) (run ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_disk"
    [
      ( "geometry",
        [
          quick "wren parameters (Table 1)" test_wren_parameters;
          quick "derived quantities" test_geometry_derived;
          quick "seek model ST + N*SI" test_seek_model;
          quick "transfer time" test_transfer_time;
          quick "sustained rate ~10.8 M/s" test_sustained_rate_matches_paper;
        ] );
      ( "drive",
        [
          quick "initial state" test_drive_initial_state;
          quick "access advances state" test_drive_access_advances_state;
          quick "sequential continuation free" test_drive_sequential_continuation_is_free;
          quick "non-sequential pays positioning" test_drive_nonsequential_pays_positioning;
          quick "sequential pays cylinder crossings" test_drive_sequential_pays_cylinder_crossings;
          quick "queueing" test_drive_queueing;
          quick "zero-byte access" test_drive_zero_byte_access;
          quick "reset" test_drive_reset;
          quick "service_time_ms is pure" test_drive_service_time_pure;
        ] );
      ( "striped array",
        [
          quick "capacity" test_array_capacity;
          quick "max bandwidth" test_array_max_bandwidth;
          quick "small access on one disk" test_array_small_access_single_disk;
          quick "large access spans disks" test_array_large_access_spans_disks;
          quick "parallel speedup" test_array_parallel_speedup;
          quick "sequential throughput near max" test_array_sequential_throughput_near_max;
          quick "bytes accounting" test_array_bytes_moved;
          quick "service window" test_array_service_window;
          quick "utilization" test_array_utilization;
          quick "reset" test_array_reset;
          quick "rejects out-of-range extents" test_array_rejects_out_of_range;
          quick "rejects bad configurations" test_array_rejects_bad_config;
        ] );
      ( "heterogeneous arrays",
        [
          quick "capacity is min per drive" test_mixed_capacity_is_min_per_drive;
          quick "bandwidth capped by slowest" test_mixed_bandwidth_is_slowest;
          quick "straggler dominates stripes" test_mixed_straggler;
        ] );
      ( "mapping properties",
        [
          QCheck_alcotest.to_alcotest prop_striped_mapping_covers_bytes;
          QCheck_alcotest.to_alcotest prop_striped_distributes_round_robin;
          QCheck_alcotest.to_alcotest prop_multi_extent_ops_accumulate;
        ] );
      ( "redundant layouts",
        [
          quick "mirrored capacity and writes" test_mirrored_capacity_and_writes;
          quick "mirrored read single arm" test_mirrored_read_single_arm;
          quick "raid5 capacity and write penalty" test_raid5_capacity_and_small_write_penalty;
          quick "raid5 write touches parity" test_raid5_write_touches_parity_drive;
          quick "parity striping single disk files" test_parity_striped_places_file_on_one_disk;
          quick "parity striping write partner" test_parity_striped_write_updates_partner;
        ] );
      ("determinism", [ quick "same seed same trace" test_array_deterministic ]);
    ]
