type stats = {
  requests : int;
  bytes_moved : int;
  seeks : int;
  busy_ms : float;
  seek_ms : float;
  rotation_ms : float;
  transfer_ms : float;
}

type t = {
  geometry : Geometry.t;
  mutable head_cylinder : int;
  mutable busy_until : float;
  mutable next_sequential : int;  (** byte offset one past the last transfer; -1 if none *)
  mutable requests : int;
  mutable bytes_moved : int;
  mutable seeks : int;
  mutable busy_ms : float;
  (* Busy-time decomposition.  Plain float arrays — stores into an
     unboxed float array never allocate, so this accounting keeps the
     uninstrumented path allocation-free.  [comp] accumulates across the
     drive's lifetime; [scratch] holds the split of the most recent
     [duration] computation.  Slots: 0 seek, 1 rotation, 2 transfer. *)
  comp : float array;
  scratch : float array;
  mutable last_distance : int;  (** cylinders moved by the last reposition; 0 otherwise *)
  mutable repositioned : bool;  (** the last [duration] paid a full seek *)
}

let create geometry =
  {
    geometry;
    head_cylinder = 0;
    busy_until = 0.;
    next_sequential = -1;
    requests = 0;
    bytes_moved = 0;
    seeks = 0;
    busy_ms = 0.;
    comp = Array.make 3 0.;
    scratch = Array.make 3 0.;
    last_distance = 0;
    repositioned = false;
  }

let geometry t = t.geometry
let busy_until t = t.busy_until
let head_cylinder t = t.head_cylinder
let next_sequential t = t.next_sequential

(* Duration of a transfer; whether it paid a seek/latency lands in
   [t.repositioned] (a mutable field rather than a returned pair, so the
   hot path never builds a tuple).  Pure in [t]'s clock so that
   [service_time_ms] can share it. *)
let duration t ~rng ~offset ~bytes =
  let g = t.geometry in
  assert (bytes >= 0 && offset >= 0 && offset + bytes <= Geometry.capacity_bytes g);
  t.scratch.(0) <- 0.;
  t.scratch.(1) <- 0.;
  t.scratch.(2) <- 0.;
  t.last_distance <- 0;
  t.repositioned <- false;
  if bytes = 0 then 0.
  else begin
    let first_cyl = Geometry.cylinder_of_offset g offset in
    let last_cyl = Geometry.cylinder_of_offset g (offset + bytes - 1) in
    let gap = if t.next_sequential < 0 then -1 else offset - t.next_sequential in
    (* Three positioning regimes:
       - exact sequential continuation: free — the heads are already
         there ("rotationally optimal" layout);
       - a short forward skip (under a cylinder): the platter simply
         rotates over the skipped sectors — this is what reading past a
         RAID-5 parity unit or a small hole in a file costs;
       - anything else: a real seek plus rotational latency.
       Cylinder crossings always pay the track-to-track seek — including
       the boundary between this transfer and the previous one — which
       bounds streaming at the drive's sustained rate rather than its
       raw media rate. *)
    let crossings =
      if gap = 0 then last_cyl - t.head_cylinder
      else if gap > 0 && gap < Geometry.cylinder_bytes g then begin
        t.scratch.(1) <- Geometry.transfer_ms g ~bytes:gap;
        last_cyl - t.head_cylinder
      end
      else begin
        let distance = abs (first_cyl - t.head_cylinder) in
        t.scratch.(0) <- Geometry.seek_ms g ~distance;
        t.scratch.(1) <- Rofs_util.Rng.float rng *. g.Geometry.rotation_ms;
        t.last_distance <- distance;
        t.repositioned <- true;
        last_cyl - first_cyl
      end
    in
    (* After the branch, scratch.(0)/(1) hold exactly the arm and
       rotation costs it charged, so their sum is the position cost —
       no tuple threads the pair out. *)
    let position_cost = t.scratch.(0) +. t.scratch.(1) in
    let crossing_cost = float_of_int crossings *. g.Geometry.single_track_seek_ms in
    let transfer = Geometry.transfer_ms g ~bytes in
    t.scratch.(0) <- t.scratch.(0) +. crossing_cost;
    t.scratch.(2) <- transfer;
    position_cost +. crossing_cost +. transfer
  end

let service_time_ms t ~rng ~offset ~bytes = duration t ~rng ~offset ~bytes

let access t ~now ~rng ~offset ~bytes =
  let time = duration t ~rng ~offset ~bytes in
  let start = Float.max now t.busy_until in
  let finish = start +. time in
  t.busy_until <- finish;
  if bytes > 0 then begin
    t.head_cylinder <- Geometry.cylinder_of_offset t.geometry (offset + bytes - 1);
    t.next_sequential <- offset + bytes;
    t.requests <- t.requests + 1;
    t.bytes_moved <- t.bytes_moved + bytes;
    if t.repositioned then t.seeks <- t.seeks + 1;
    t.busy_ms <- t.busy_ms +. time;
    t.comp.(0) <- t.comp.(0) +. t.scratch.(0);
    t.comp.(1) <- t.comp.(1) +. t.scratch.(1);
    t.comp.(2) <- t.comp.(2) +. t.scratch.(2)
  end;
  finish

let stall t ~ms =
  if ms < 0. then invalid_arg "Drive.stall: negative duration";
  if ms > 0. then begin
    t.busy_until <- t.busy_until +. ms;
    t.busy_ms <- t.busy_ms +. ms
  end;
  t.busy_until

let serve t ~start ~rng ~offset ~bytes ~passes =
  if passes < 1 then invalid_arg "Drive.serve: passes < 1";
  if t.busy_until > start then invalid_arg "Drive.serve: drive still busy";
  (* Each pass runs through [access], so the second pass of a
     read-modify-write re-targets the same bytes and therefore pays a
     full reposition.  A loop rather than a local recursive function:
     without flambda the closure would be allocated on every call. *)
  for _ = 2 to passes do
    ignore (access t ~now:start ~rng ~offset ~bytes : float)
  done;
  access t ~now:start ~rng ~offset ~bytes

let stats t =
  {
    requests = t.requests;
    bytes_moved = t.bytes_moved;
    seeks = t.seeks;
    busy_ms = t.busy_ms;
    seek_ms = t.comp.(0);
    rotation_ms = t.comp.(1);
    transfer_ms = t.comp.(2);
  }

let seek_ms_total t = t.comp.(0)
let rotation_ms_total t = t.comp.(1)
let transfer_ms_total t = t.comp.(2)
let last_seek_cylinders t = t.last_distance

let reset t =
  t.head_cylinder <- 0;
  t.busy_until <- 0.;
  t.next_sequential <- -1;
  t.requests <- 0;
  t.bytes_moved <- 0;
  t.seeks <- 0;
  t.busy_ms <- 0.;
  t.comp.(0) <- 0.;
  t.comp.(1) <- 0.;
  t.comp.(2) <- 0.;
  t.scratch.(0) <- 0.;
  t.scratch.(1) <- 0.;
  t.scratch.(2) <- 0.;
  t.last_distance <- 0;
  t.repositioned <- false
