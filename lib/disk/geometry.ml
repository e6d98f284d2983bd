type t = {
  name : string;
  platters : int;
  cylinders : int;
  track_bytes : int;
  sector_bytes : int;
  single_track_seek_ms : float;
  seek_incremental_ms : float;
  rotation_ms : float;
}

let cdc_wren_iv =
  {
    name = "CDC Wren IV 94171-344";
    platters = 9;
    cylinders = 1600;
    track_bytes = 24 * 1024;
    sector_bytes = 512;
    single_track_seek_ms = 5.5;
    seek_incremental_ms = 0.0320;
    rotation_ms = 16.67;
  }

let cylinder_bytes t = t.platters * t.track_bytes

let capacity_bytes t = cylinder_bytes t * t.cylinders

let seek_ms t ~distance =
  assert (distance >= 0);
  if distance = 0 then 0.
  else t.single_track_seek_ms +. (float_of_int distance *. t.seek_incremental_ms)

let cylinder_of_offset t offset =
  assert (offset >= 0);
  offset / cylinder_bytes t

let transfer_ms t ~bytes =
  assert (bytes >= 0);
  t.rotation_ms *. float_of_int bytes /. float_of_int t.track_bytes

let sustained_bytes_per_ms t =
  let cylinder_time =
    (float_of_int t.platters *. t.rotation_ms) +. t.single_track_seek_ms
  in
  float_of_int (cylinder_bytes t) /. cylinder_time
