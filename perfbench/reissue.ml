(* Layer re-issue harness for traced runs.

   The disk and cache calls happen inside the engine, where the
   benchmark cannot time them.  During a traced run the engine recorder
   captures each read and write the engine executes, resolved to
   physical byte runs through [Volume.slice_bytes] at the moment it is
   recorded.  After the run the stream is re-issued through fresh
   [Array_model] instances (the synchronous [serve_extents] path, and
   [submit_flat] / [complete_flat] under the workload's scheduler) and
   a fresh [Cache], timing each call.  The timings approximate the
   in-engine cost of one call on each path. *)

module C = Core

type req = {
  at : float;  (** simulated ms the engine recorded the request *)
  kind : C.Array_model.kind;
  runs : (int * int) list;  (** physical (offset, bytes) runs *)
  file : int;
  ty : int;
  off : int;
  len : int;
  logical : int;  (** file's logical size when recorded *)
}

type capture = {
  mutable reqs : req list;  (** newest first *)
  mutable count : int;
  limit : int;
  hook : Layers.timer;  (** host time spent in the recorder itself *)
}

let capture ~limit = { reqs = []; count = 0; limit; hook = Layers.timer () }

(* The engine recorder.  [engine] is filled in once [Engine.create]
   returns (population records arrive before that and carry no
   transfers).  [probe] moves allocator calls made while resolving
   physical runs out of the engine's phases. *)
let recorder cap ~(engine : C.Engine.t option ref) ~(probe : Layers.alloc_probe) (r : C.Engine.recorded) =
  match (r.C.Engine.rec_op, !engine) with
  | (C.Engine.R_read { off; len } | C.Engine.R_write { off; len }), Some e when cap.count < cap.limit
    ->
      let t0 = Clock.ns () in
      let saved = probe.Layers.phase in
      probe.Layers.phase <- Layers.bench_phase;
      let volume = C.Engine.volume e and file = r.C.Engine.rec_file in
      let runs = C.Volume.slice_bytes volume ~file ~off ~len in
      if runs <> [] then begin
        let kind =
          match r.C.Engine.rec_op with C.Engine.R_read _ -> C.Array_model.Read | _ -> C.Array_model.Write
        in
        cap.reqs <-
          {
            at = r.C.Engine.rec_time_ms;
            kind;
            runs;
            file;
            ty = C.Volume.type_of_file volume ~file;
            off;
            len;
            logical = C.Volume.logical_bytes volume ~file;
          }
          :: cap.reqs;
        cap.count <- cap.count + 1
      end;
      probe.Layers.phase <- saved;
      Layers.stop cap.hook t0
  | _ -> ()

let make_array (cfg : C.Engine.config) =
  C.Array_model.create ~seed:cfg.C.Engine.seed ~scheduler:cfg.C.Engine.scheduler
    ~disks:cfg.C.Engine.disks
    (cfg.C.Engine.array_config cfg.C.Engine.stripe_unit_bytes)

(* Streams from several cells are re-issued cell by cell: each cell's
   requests go to a fresh array, in recorded order. *)
let sync cfg reqs tm =
  let a = make_array cfg in
  List.iter
    (fun r ->
      let t0 = Clock.ns () in
      C.Array_model.serve_extents a ~now:r.at ~kind:r.kind ~extents:r.runs;
      Layers.stop tm t0)
    reqs

let queued cfg reqs tm =
  let a = make_array cfg in
  let pending = C.Heap.create () in
  let post () =
    for i = 0 to C.Array_model.dispatched_len a - 1 do
      C.Heap.push pending
        ~prio:(C.Array_model.dispatched_finished a i)
        (C.Array_model.dispatched_drive a i)
    done
  in
  let complete_until now =
    while (not (C.Heap.is_empty pending)) && C.Heap.min_prio pending <= now do
      let drive = C.Heap.take_min pending in
      let t0 = Clock.ns () in
      ignore (C.Array_model.complete_flat a ~drive);
      Layers.stop tm t0;
      post ()
    done
  in
  List.iter
    (fun r ->
      complete_until r.at;
      let t0 = Clock.ns () in
      ignore (C.Array_model.submit_flat a ~now:r.at ~kind:r.kind ~extents:r.runs);
      Layers.stop tm t0;
      post ())
    reqs;
  complete_until infinity

let cache (cfg : C.Engine.config) ~ntypes reqs tm =
  match cfg.C.Engine.cache with
  | None -> ()
  | Some cc ->
      let c = C.Cache.create ~ntypes cc in
      List.iter
        (fun r ->
          let t0 = Clock.ns () in
          (match r.kind with
          | C.Array_model.Read ->
              ignore
                (C.Cache.read c ~type_idx:r.ty ~file:r.file ~off:r.off ~len:r.len ~logical:r.logical)
          | C.Array_model.Write -> ignore (C.Cache.write c ~type_idx:r.ty ~file:r.file ~off:r.off ~len:r.len));
          Layers.stop tm t0)
        reqs
