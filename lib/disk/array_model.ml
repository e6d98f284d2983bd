module Sched_policy = Rofs_sched.Policy
module Squeue = Rofs_sched.Scheduler
module Fault_plan = Rofs_fault.Plan
module Fault = Rofs_fault.State
module Sink = Rofs_obs.Sink
module Tr = Rofs_obs.Trace

type config =
  | Striped of { stripe_unit : int }
  | Mirrored of { stripe_unit : int }
  | Raid5 of { stripe_unit : int }
  | Parity_striped

type kind = Read | Write

(* Per-operation service-time decomposition: one reusable record for the
   synchronous path, one per queued operation only when a sink is
   attached.  All-float record: the fields stay flat, so the
   accumulating stores in [serve_chunk] never allocate. *)
type op_obs = {
  mutable ob_seek : float;
  mutable ob_rotation : float;
  mutable ob_transfer : float;
  mutable ob_penalty : float;
}

(* One logical operation submitted through the dispatch-queue path: a
   set of per-drive chunk requests that complete independently. *)
type op = {
  op_id : int;
  submitted : float;
  mutable chunks_left : int;
  mutable began : float;  (** earliest dispatch start; [infinity] until one runs *)
  mutable last_finish : float;
  mutable o_bytes : int;  (** data (non-redundancy) bytes *)
  mutable o_obs : op_obs option;
}

(* One chunk pending on (or in service at) a drive. *)
type req = {
  r_op : op;
  r_offset : int;
  r_bytes : int;
  r_parity : bool;
  r_passes : int;
  mutable r_start : float;
  mutable r_finish : float;
}

(* Everything the array checkpoints, in one closure-free record behind
   one mutable slot: a snapshot marshals it whole, and a restore swaps
   it in.  Queued requests share their [op] records (and an in-service
   request shares its op with still-queued siblings); [Marshal]
   preserves sharing within one value, so completions after a restore
   decrement the same [chunks_left] the originals did.  The engine
   references operations only by integer id, never by pointer, so
   decoded op records need no fix-up. *)
type state = {
  drives : Drive.t array;
  rng : Rofs_util.Rng.t;
  mutable bytes_moved : int;
  queues : req Squeue.t array;  (** pending requests, one dispatch queue per drive *)
  in_service : req option array;  (** the request each drive is currently moving *)
  mutable next_op_id : int;
  fault : Fault.t;  (** drive health, media-error and dirty-region state *)
}

type t = {
  config : config;
  geometry : Geometry.t;  (** representative drive (the first) *)
  drive_capacity : int;  (** usable bytes per drive: the smallest drive's capacity *)
  per_drive_sustained : float;  (** sequential rate of the slowest drive *)
  scheduler : Sched_policy.t;
  mutable st : state;
  media_on : bool;  (** media faults configured: consult [fault] per chunk *)
  all_drives : int list;  (** [0; ...; disks-1], the reconstruction group *)
  mutable obs : Sink.t option;  (** instrumentation sink; [None] ⇒ no recording *)
  op_obs : op_obs;  (** the last synchronous operation's breakdown *)
  ob_before : float array;
      (** seek / rotation / transfer totals of the drive being issued
          to, read before the access; live only while a sink is
          attached *)
  (* Chunk scratch buffer: the physical chunks of the operation being
     mapped, struct-of-arrays so that mapping an extent allocates
     nothing.  Chunks are appended in generation order — the order the
     old list-based mapper produced — and the whole operation is
     generated before any chunk is issued, so degraded-mode decisions
     (mirror arm choice, [Fault.Data_loss]) observe pre-operation drive
     state exactly as before. *)
  mutable cb_disk : int array;
  mutable cb_offset : int array;
  mutable cb_bytes : int array;
  mutable cb_parity : bool array;
  mutable cb_rmw : bool array;
  mutable cb_len : int;
  (* Results of the last synchronous [perform_buf]. *)
  mutable pc_began : float;
  mutable pc_finish : float;
  (* Dispatch scratch buffer: the requests started by the last
     [submit_flat] / [complete_flat], in dispatch order. *)
  mutable db_drive : int array;
  mutable db_op_id : int array;
  mutable db_started : float array;
  mutable db_finished : float array;
  mutable db_bytes : int array;
  mutable db_parity : bool array;
  mutable db_len : int;
  (* First-touch-ordered drives of the operation being submitted. *)
  touched_mark : bool array;
  touched : int array;
  mutable touched_len : int;
}

let create_mixed ?(seed = 0) ?(scheduler = Sched_policy.Fcfs) ?(faults = Fault_plan.none)
    ~geometries config =
  let disks = List.length geometries in
  if disks <= 0 then invalid_arg "Array_model.create: need at least one disk";
  List.iter
    (fun geometry ->
      match config with
      | Striped { stripe_unit } | Mirrored { stripe_unit } | Raid5 { stripe_unit } ->
          if stripe_unit < geometry.Geometry.sector_bytes then
            invalid_arg "Array_model.create: stripe unit smaller than sector"
      | Parity_striped -> ())
    geometries;
  (match config with
  | Mirrored _ when disks mod 2 <> 0 ->
      invalid_arg "Array_model.create: mirroring needs an even disk count"
  | Raid5 _ when disks < 3 -> invalid_arg "Array_model.create: RAID-5 needs >= 3 disks"
  | Parity_striped when disks < 2 ->
      invalid_arg "Array_model.create: parity striping needs >= 2 disks"
  | _ -> ());
  let fold f init = List.fold_left f init geometries in
  {
    config;
    geometry = List.hd geometries;
    drive_capacity = fold (fun acc g -> min acc (Geometry.capacity_bytes g)) max_int;
    per_drive_sustained = fold (fun acc g -> Float.min acc (Geometry.sustained_bytes_per_ms g)) infinity;
    scheduler;
    st =
      {
        drives = Array.of_list (List.map Drive.create geometries);
        rng = Rofs_util.Rng.create ~seed;
        bytes_moved = 0;
        queues =
          Array.of_list
            (List.map
               (fun g -> Squeue.create scheduler ~cylinders:g.Geometry.cylinders)
               geometries);
        in_service = Array.make disks None;
        next_op_id = 0;
        fault = Fault.create faults ~drives:disks;
      };
    media_on = Fault_plan.media_faults faults;
    all_drives = List.init disks Fun.id;
    obs = None;
    op_obs = { ob_seek = 0.; ob_rotation = 0.; ob_transfer = 0.; ob_penalty = 0. };
    ob_before = Array.make 3 0.;
    cb_disk = Array.make 64 0;
    cb_offset = Array.make 64 0;
    cb_bytes = Array.make 64 0;
    cb_parity = Array.make 64 false;
    cb_rmw = Array.make 64 false;
    cb_len = 0;
    pc_began = 0.;
    pc_finish = 0.;
    db_drive = Array.make 16 0;
    db_op_id = Array.make 16 0;
    db_started = Array.make 16 0.;
    db_finished = Array.make 16 0.;
    db_bytes = Array.make 16 0;
    db_parity = Array.make 16 false;
    db_len = 0;
    touched_mark = Array.make disks false;
    touched = Array.make disks 0;
    touched_len = 0;
  }

let create ?(geometry = Geometry.cdc_wren_iv) ?seed ?scheduler ?faults ~disks config =
  if disks <= 0 then invalid_arg "Array_model.create: need at least one disk";
  create_mixed ?seed ?scheduler ?faults ~geometries:(List.init disks (fun _ -> geometry)) config

let attach_obs t sink = t.obs <- Some sink

let config t = t.config
let disks t = Array.length t.st.drives
let synchronous t = match t.scheduler with Sched_policy.Fcfs -> true | _ -> false
let fault_state t = t.st.fault

let drive_capacity t = t.drive_capacity

(* Share of each drive devoted to data under parity striping: one
   drive's worth of parity is spread over all N drives. *)
let parity_striped_data_per_drive t =
  let n = disks t in
  drive_capacity t * (n - 1) / n

let capacity_bytes t =
  let n = disks t in
  match t.config with
  | Striped _ -> n * drive_capacity t
  | Mirrored _ -> n / 2 * drive_capacity t
  | Raid5 _ -> (n - 1) * drive_capacity t
  | Parity_striped -> n * parity_striped_data_per_drive t

let max_bandwidth_bytes_per_ms t =
  let per_drive = t.per_drive_sustained in
  let n = disks t in
  let effective =
    (* Mirrored arrays read from every spindle (each arm serves
       different stripes), so the sequential maximum counts all
       drives. *)
    match t.config with
    | Striped _ | Mirrored _ -> n
    | Raid5 _ | Parity_striped -> n - 1
  in
  float_of_int effective *. per_drive

(* ------------------------------------------------------------------ *)
(* Chunk generation into the scratch buffer                            *)

let cb_grow t need =
  let cap = Array.length t.cb_disk in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow_i a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 t.cb_len; a' in
    let grow_b a = let a' = Array.make cap' false in Array.blit a 0 a' 0 t.cb_len; a' in
    t.cb_disk <- grow_i t.cb_disk;
    t.cb_offset <- grow_i t.cb_offset;
    t.cb_bytes <- grow_i t.cb_bytes;
    t.cb_parity <- grow_b t.cb_parity;
    t.cb_rmw <- grow_b t.cb_rmw
  end

let cb_push t ~disk ~offset ~bytes ~parity ~rmw =
  cb_grow t (t.cb_len + 1);
  let i = t.cb_len in
  t.cb_disk.(i) <- disk;
  t.cb_offset.(i) <- offset;
  t.cb_bytes.(i) <- bytes;
  t.cb_parity.(i) <- parity;
  t.cb_rmw.(i) <- rmw;
  t.cb_len <- i + 1

let cb_push_data t ~disk ~offset ~bytes = cb_push t ~disk ~offset ~bytes ~parity:false ~rmw:false

(* Split a logical extent at [stripe]-unit boundaries and feed each unit
   through [place : unit_index -> within -> bytes -> unit], which
   appends that unit's chunks. *)
let iter_striped ~stripe ~place (addr, len) =
  let rec go addr len =
    if len > 0 then begin
      let within = addr mod stripe in
      let take = min len (stripe - within) in
      place (addr / stripe) within take;
      go (addr + take) (len - take)
    end
  in
  go addr len

(* Queued + in-service depth of one drive's dispatch queue. *)
let load t d =
  let st = t.st in
  Squeue.length st.queues.(d) + (match st.in_service.(d) with Some _ -> 1 | None -> 0)

(* Reconstruct one unit of a dead drive from its redundancy group: read
   the same [take]-byte region of every surviving member, paying each
   read's real positioning and transfer time.  The first surviving chunk
   carries the data credit (the caller asked for [take] data bytes); the
   others are redundancy traffic.  A second unavailable member means the
   group cannot cover the loss. *)
let reconstruct_chunks t ~dead ~members ~offset ~take =
  Fault.note_reconstructed_read t.st.fault;
  let first = ref true in
  List.iter
    (fun d ->
      if d <> dead then begin
        if Fault.readable t.st.fault ~drive:d ~offset ~bytes:take then begin
          cb_push t ~disk:d ~offset ~bytes:take ~parity:(not !first) ~rmw:false;
          first := false
        end
        else raise (Fault.Data_loss { drive = dead; offset; bytes = take })
      end)
    members;
  if !first then raise (Fault.Data_loss { drive = dead; offset; bytes = take })

(* Map one logical extent onto physical chunks, appended to the chunk
   buffer in generation order.  May raise [Fault.Data_loss] mid-append;
   callers reset [cb_len] per operation, so a partially generated
   operation is simply abandoned (nothing has been issued yet). *)
let gen_extent ?(queued = false) t ~kind (addr, len) =
  if len < 0 || addr < 0 || addr + len > capacity_bytes t then
    invalid_arg "Array_model: extent outside the array";
  let n = disks t in
  match t.config with
  | Striped { stripe_unit } ->
      let place idx within take =
        let fault = t.st.fault in
        let disk = idx mod n in
        let offset = (idx / n * stripe_unit) + within in
        (* No redundancy: a dead drive's units are simply gone, and a
           write that cannot land has nowhere else to go. *)
        let lost =
          match kind with
          | Read -> not (Fault.readable fault ~drive:disk ~offset ~bytes:take)
          | Write -> not (Fault.writable fault ~drive:disk)
        in
        if lost then raise (Fault.Data_loss { drive = disk; offset; bytes = take });
        cb_push_data t ~disk ~offset ~bytes:take
      in
      iter_striped ~stripe:stripe_unit ~place (addr, len)
  | Mirrored { stripe_unit } ->
      let pairs = n / 2 in
      let place idx within take =
        let st = t.st in
        let pair = idx mod pairs in
        let offset = (idx / pairs * stripe_unit) + within in
        let primary = 2 * pair and secondary = (2 * pair) + 1 in
        match kind with
        | Read ->
            let pok = Fault.readable st.fault ~drive:primary ~offset ~bytes:take in
            let sok = Fault.readable st.fault ~drive:secondary ~offset ~bytes:take in
            let disk =
              if pok && sok then
                (* Both arms alive: prefer the arm already streaming this
                   extent; otherwise the shorter queue (dispatch-queue
                   depth when scheduling is queued, the busy clock on the
                   FCFS fast path). *)
                if Drive.next_sequential st.drives.(primary) = offset then primary
                else if Drive.next_sequential st.drives.(secondary) = offset then secondary
                else if queued && load t primary <> load t secondary then
                  if load t primary < load t secondary then primary else secondary
                else if
                  Drive.busy_until st.drives.(primary) <= Drive.busy_until st.drives.(secondary)
                then primary
                else secondary
              else if pok || sok then begin
                (* Failover: the surviving arm serves the read alone. *)
                Fault.note_reconstructed_read st.fault;
                if pok then primary else secondary
              end
              else raise (Fault.Data_loss { drive = primary; offset; bytes = take })
            in
            cb_push_data t ~disk ~offset ~bytes:take
        | Write ->
            let pok = Fault.writable st.fault ~drive:primary in
            let sok = Fault.writable st.fault ~drive:secondary in
            if pok && sok then begin
              cb_push_data t ~disk:primary ~offset ~bytes:take;
              cb_push t ~disk:secondary ~offset ~bytes:take ~parity:true ~rmw:false
            end
            else if pok || sok then begin
              (* Degraded write: skip the dead arm and remember what it
                 missed; the rebuild sweep will restore it. *)
              Fault.note_degraded_write st.fault;
              let dead = if pok then secondary else primary in
              Fault.log_dirty st.fault ~drive:dead ~offset ~bytes:take;
              cb_push_data t ~disk:(if pok then primary else secondary) ~offset ~bytes:take
            end
            else raise (Fault.Data_loss { drive = primary; offset; bytes = take })
      in
      iter_striped ~stripe:stripe_unit ~place (addr, len)
  | Raid5 { stripe_unit } ->
      let data_per_row = n - 1 in
      let place idx within take =
        let fault = t.st.fault in
        let row = idx / data_per_row in
        let pos = idx mod data_per_row in
        let parity_disk = row mod n in
        let disk = if pos < parity_disk then pos else pos + 1 in
        let offset = (row * stripe_unit) + within in
        match kind with
        | Read ->
            if Fault.readable fault ~drive:disk ~offset ~bytes:take then
              cb_push_data t ~disk ~offset ~bytes:take
            else
              (* Degraded read: XOR of the row's surviving units. *)
              reconstruct_chunks t ~dead:disk ~members:t.all_drives ~offset ~take
        | Write ->
            let dok = Fault.writable fault ~drive:disk in
            let pok = Fault.writable fault ~drive:parity_disk in
            if dok && pok then begin
              (* Small-write penalty: read-modify-write of the data unit
                 and of the row's parity unit. *)
              cb_push t ~disk ~offset ~bytes:take ~parity:false ~rmw:true;
              cb_push t ~disk:parity_disk ~offset ~bytes:take ~parity:true ~rmw:true
            end
            else if pok then begin
              (* Dead data arm: keep the row's parity current so the data
                 is recoverable, and log the dirty region. *)
              Fault.note_degraded_write fault;
              Fault.log_dirty fault ~drive:disk ~offset ~bytes:take;
              cb_push t ~disk:parity_disk ~offset ~bytes:take ~parity:true ~rmw:true
            end
            else if dok then begin
              (* Dead parity arm: plain write, nothing to read-modify. *)
              Fault.note_degraded_write fault;
              Fault.log_dirty fault ~drive:parity_disk ~offset ~bytes:take;
              cb_push t ~disk ~offset ~bytes:take ~parity:false ~rmw:false
            end
            else raise (Fault.Data_loss { drive = disk; offset; bytes = take })
      in
      iter_striped ~stripe:stripe_unit ~place (addr, len)
  | Parity_striped ->
      let per_drive = parity_striped_data_per_drive t in
      let parity_base = per_drive in
      let parity_span = drive_capacity t - per_drive in
      let rec go addr len =
        if len > 0 then begin
          let fault = t.st.fault in
          let disk = addr / per_drive in
          let within = addr mod per_drive in
          let take = min len (per_drive - within) in
          (match kind with
          | Read ->
              if Fault.readable fault ~drive:disk ~offset:within ~bytes:take then
                cb_push_data t ~disk ~offset:within ~bytes:take
              else
                reconstruct_chunks t ~dead:disk ~members:t.all_drives ~offset:within ~take
          | Write ->
              (* Parity for drive d's data lives in the parity region
                 of drive d+1 (mod N), scaled down N-1 : 1. *)
              let pdisk = (disk + 1) mod n in
              let poff = parity_base + (within mod parity_span) in
              let pbytes = min take (drive_capacity t - poff) in
              let dok = Fault.writable fault ~drive:disk in
              let pok = Fault.writable fault ~drive:pdisk in
              if dok && pok then begin
                cb_push_data t ~disk ~offset:within ~bytes:take;
                cb_push t ~disk:pdisk ~offset:poff ~bytes:pbytes ~parity:true ~rmw:true
              end
              else if pok then begin
                Fault.note_degraded_write fault;
                Fault.log_dirty fault ~drive:disk ~offset:within ~bytes:take;
                cb_push t ~disk:pdisk ~offset:poff ~bytes:pbytes ~parity:true ~rmw:true
              end
              else if dok then begin
                Fault.note_degraded_write fault;
                Fault.log_dirty fault ~drive:pdisk ~offset:poff ~bytes:pbytes;
                cb_push_data t ~disk ~offset:within ~bytes:take
              end
              else raise (Fault.Data_loss { drive = disk; offset = within; bytes = take }));
          go (addr + take) (len - take)
        end
      in
      go addr len

let gen_extents ?queued t ~kind extents =
  t.cb_len <- 0;
  List.iter (fun e -> gen_extent ?queued t ~kind e) extents

(* Extra service time charged by the media-fault model for one chunk
   request, pushed onto the drive's busy clock.  [0.] — and no fault-RNG
   draw — when media faults are off. *)
let media_stall t ~disk ~offset ~bytes ~default =
  if not t.media_on then default
  else begin
    let st = t.st in
    let drive = st.drives.(disk) in
    let g = Drive.geometry drive in
    let extra =
      Fault.media_extra_ms st.fault ~drive:disk ~rotation_ms:g.Geometry.rotation_ms
        ~sector_bytes:g.Geometry.sector_bytes ~offset ~bytes
    in
    Drive.stall drive ~ms:extra
  end

(* Serve one chunk on [disk] from [start] (the caller passes
   [max now busy_until]): [passes] back-to-back transfers (2 for a
   read-modify-write), then any media stall.  Both service paths issue
   every chunk through here, so the drive, RNG, fault and
   instrumentation work per chunk is the same on either.  Data (non-
   [parity]) bytes count toward [bytes_moved].  Returns the chunk's
   completion time.

   Instrumentation contract: every recording is guarded on [t.obs], and
   the guarded reads feed fixed scratch slots, so the un-observed path
   performs the same work (and the same RNG draws) as the observed one
   and allocates nothing extra — byte-identical results either way.
   Under a sink the chunk's seek / rotation / transfer / penalty
   accumulate into [o], and [op_id] labels its trace events ([-1] on
   the synchronous path, which has no operation handle). *)
let serve_chunk t o ~op_id ~disk ~start ~offset ~bytes ~passes ~parity =
  let st = t.st in
  let drive = st.drives.(disk) in
  (match t.obs with
  | None -> ()
  | Some _ ->
      let b = t.ob_before in
      b.(0) <- Drive.seek_ms_total drive;
      b.(1) <- Drive.rotation_ms_total drive;
      b.(2) <- Drive.transfer_ms_total drive);
  let served = Drive.serve drive ~start ~rng:st.rng ~offset ~bytes ~passes in
  let finish = media_stall t ~disk ~offset ~bytes ~default:served in
  (match t.obs with
  | None -> ()
  | Some sink ->
      let b = t.ob_before in
      o.ob_seek <- o.ob_seek +. (Drive.seek_ms_total drive -. b.(0));
      o.ob_rotation <- o.ob_rotation +. (Drive.rotation_ms_total drive -. b.(1));
      o.ob_transfer <- o.ob_transfer +. (Drive.transfer_ms_total drive -. b.(2));
      let extra = finish -. served in
      if extra > 0. then begin
        o.ob_penalty <- o.ob_penalty +. extra;
        Sink.record_fault_penalty sink extra
      end;
      let dist = Drive.last_seek_cylinders drive in
      if dist > 0 then Sink.record_seek sink ~drive:disk ~cylinders:dist;
      if Sink.tracing sink then begin
        Sink.event sink
          { Tr.at_ms = start; dur_ms = finish -. start; kind = Tr.Dispatch; drive = disk; op_id; bytes };
        if extra > 0. then
          Sink.event sink
            { Tr.at_ms = served; dur_ms = extra; kind = Tr.Media; drive = disk; op_id; bytes = 0 }
      end);
  if not parity then st.bytes_moved <- st.bytes_moved + bytes;
  finish

(* Synchronous path: issue the buffered chunks in generation order, each
   as soon as its drive's busy clock allows; each drive serialises its
   chunks, distinct drives overlap.  [pc_began] is the moment the first
   chunk starts moving — after any queueing behind earlier
   operations. *)
let perform_buf t ~now =
  let drives = t.st.drives in
  t.pc_finish <- now;
  t.pc_began <- infinity;
  let o = t.op_obs in
  o.ob_seek <- 0.;
  o.ob_rotation <- 0.;
  o.ob_transfer <- 0.;
  o.ob_penalty <- 0.;
  for i = 0 to t.cb_len - 1 do
    let disk = t.cb_disk.(i) in
    let start = Float.max now (Drive.busy_until drives.(disk)) in
    if start < t.pc_began then t.pc_began <- start;
    let finish =
      serve_chunk t o ~op_id:(-1) ~disk ~start ~offset:t.cb_offset.(i) ~bytes:t.cb_bytes.(i)
        ~passes:(if t.cb_rmw.(i) then 2 else 1)
        ~parity:t.cb_parity.(i)
    in
    if finish > t.pc_finish then t.pc_finish <- finish
  done;
  if t.pc_began = infinity then t.pc_began <- now

let last_breakdown t =
  let o = t.op_obs in
  (o.ob_seek, o.ob_rotation, o.ob_transfer, o.ob_penalty)

let serve_extents t ~now ~kind ~extents =
  gen_extents t ~kind extents;
  perform_buf t ~now

let last_began t = t.pc_began
let last_finished t = t.pc_finish

(* ------------------------------------------------------------------ *)
(* Dispatch-queue path: requests are queued per drive and the scheduler
   policy picks which one the arm serves when it falls idle, so a
   later-arriving request can be reordered ahead of queued ones.  The
   engine drives this with one completion event per in-service request;
   the array never looks at a clock of its own. *)

let op_id (op : op) = op.op_id
let op_done (op : op) = op.chunks_left = 0
let op_submitted (op : op) = op.submitted
let op_bytes (op : op) = op.o_bytes

let op_breakdown (op : op) =
  match op.o_obs with
  | None -> None
  | Some o -> Some (o.ob_seek, o.ob_rotation, o.ob_transfer, o.ob_penalty)

let op_began (op : op) = if op.began = infinity then op.submitted else op.began
let op_finished (op : op) = Float.max op.last_finish op.submitted

let in_service_finish t ~drive =
  match t.st.in_service.(drive) with Some r -> Some r.r_finish | None -> None

let db_grow t need =
  let cap = Array.length t.db_drive in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow_i a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 t.db_len; a' in
    let grow_f a = let a' = Array.make cap' 0. in Array.blit a 0 a' 0 t.db_len; a' in
    let grow_b a = let a' = Array.make cap' false in Array.blit a 0 a' 0 t.db_len; a' in
    t.db_drive <- grow_i t.db_drive;
    t.db_op_id <- grow_i t.db_op_id;
    t.db_started <- grow_f t.db_started;
    t.db_finished <- grow_f t.db_finished;
    t.db_bytes <- grow_i t.db_bytes;
    t.db_parity <- grow_b t.db_parity
  end

(* Start the next pending request on an idle drive, if any; a started
   request is appended to the dispatch buffer. *)
let dispatch_push t d ~now =
  let st = t.st in
  let queue = st.queues.(d) in
  if Option.is_none st.in_service.(d) && not (Squeue.is_empty queue) then begin
    let drive = st.drives.(d) in
    let req = Squeue.take queue ~head:(Drive.head_cylinder drive) in
    let op = req.r_op in
    let start = Float.max now (Drive.busy_until drive) in
    (* An operation submitted before a sink was attached has no
       breakdown record; its chunks accumulate into the scratch. *)
    let o = match op.o_obs with Some o -> o | None -> t.op_obs in
    let finish =
      serve_chunk t o ~op_id:op.op_id ~disk:d ~start ~offset:req.r_offset
        ~bytes:req.r_bytes ~passes:req.r_passes ~parity:req.r_parity
    in
    req.r_start <- start;
    req.r_finish <- finish;
    if start < op.began then op.began <- start;
    st.in_service.(d) <- Some req;
    db_grow t (t.db_len + 1);
    let i = t.db_len in
    t.db_drive.(i) <- d;
    t.db_op_id.(i) <- op.op_id;
    t.db_started.(i) <- start;
    t.db_finished.(i) <- finish;
    t.db_bytes.(i) <- req.r_bytes;
    t.db_parity.(i) <- req.r_parity;
    t.db_len <- i + 1
  end

let dispatched_len t = t.db_len
let dispatched_op_id t i = t.db_op_id.(i)
let dispatched_drive t i = t.db_drive.(i)
let dispatched_started t i = t.db_started.(i)
let dispatched_finished t i = t.db_finished.(i)
let dispatched_bytes t i = t.db_bytes.(i)
let dispatched_parity t i = t.db_parity.(i)

(* Enqueue the buffered chunks as one operation and start every idle
   drive that received work; started requests land in the dispatch
   buffer in first-touch drive order. *)
let submit_buf t ~now =
  let st = t.st in
  let op =
    {
      op_id = st.next_op_id;
      submitted = now;
      chunks_left = t.cb_len;
      began = infinity;
      last_finish = now;
      o_bytes = 0;
      o_obs = None;
    }
  in
  (match t.obs with
  | None -> ()
  | Some _ ->
      op.o_obs <- Some { ob_seek = 0.; ob_rotation = 0.; ob_transfer = 0.; ob_penalty = 0. });
  st.next_op_id <- st.next_op_id + 1;
  t.touched_len <- 0;
  for i = 0 to t.cb_len - 1 do
    let disk = t.cb_disk.(i) in
    let offset = t.cb_offset.(i) in
    let bytes = t.cb_bytes.(i) in
    let parity = t.cb_parity.(i) in
    let cylinder = Geometry.cylinder_of_offset (Drive.geometry st.drives.(disk)) offset in
    let req =
      {
        r_op = op;
        r_offset = offset;
        r_bytes = bytes;
        r_parity = parity;
        r_passes = (if t.cb_rmw.(i) then 2 else 1);
        r_start = now;
        r_finish = now;
      }
    in
    if not parity then op.o_bytes <- op.o_bytes + bytes;
    Squeue.add st.queues.(disk) ~cylinder req;
    if not t.touched_mark.(disk) then begin
      t.touched_mark.(disk) <- true;
      t.touched.(t.touched_len) <- disk;
      t.touched_len <- t.touched_len + 1
    end
  done;
  for i = 0 to t.touched_len - 1 do
    t.touched_mark.(t.touched.(i)) <- false
  done;
  (match t.obs with
  | None -> ()
  | Some sink ->
      (* Sample each touched drive's depth at submission, before the
         idle-drive dispatch below pops the head request. *)
      for i = 0 to t.touched_len - 1 do
        let d = t.touched.(i) in
        Sink.record_queue_depth sink ~drive:d ~depth:(load t d)
      done;
      if Sink.tracing sink then
        Sink.event sink
          {
            Tr.at_ms = now;
            dur_ms = 0.;
            kind = Tr.Arrival;
            drive = -1;
            op_id = op.op_id;
            bytes = op.o_bytes;
          });
  t.db_len <- 0;
  for i = 0 to t.touched_len - 1 do
    dispatch_push t t.touched.(i) ~now
  done;
  op

let submit_flat t ~now ~kind ~extents =
  gen_extents ~queued:true t ~kind extents;
  submit_buf t ~now

let complete_flat t ~drive =
  let st = t.st in
  match st.in_service.(drive) with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Array_model.complete_flat: drive %d has nothing in service (queue depth %d)" drive
           (Squeue.length st.queues.(drive)))
  | Some req ->
      st.in_service.(drive) <- None;
      let op = req.r_op in
      op.chunks_left <- op.chunks_left - 1;
      if req.r_finish > op.last_finish then op.last_finish <- req.r_finish;
      t.db_len <- 0;
      dispatch_push t drive ~now:req.r_finish;
      op

let pending t ~drive = load t drive

(* ------------------------------------------------------------------ *)
(* Drive failure, repair and online rebuild                            *)

let check_drive t drive =
  if drive < 0 || drive >= disks t then
    invalid_arg (Printf.sprintf "Array_model: drive %d of %d" drive (disks t))

let fail_drive t ~drive =
  check_drive t drive;
  Fault.fail t.st.fault ~drive

let repair_drive t ~drive =
  check_drive t drive;
  (* A non-redundant layout has nothing to reconstruct from: the drive
     returns to service immediately (its old contents were already
     reported lost); redundant layouts enter the rebuild sweep. *)
  let rebuild = match t.config with Striped _ -> false | _ -> true in
  Fault.repair t.st.fault ~drive ~rebuild

let drive_state t ~drive =
  check_drive t drive;
  match Fault.status t.st.fault ~drive with
  | Fault.Healthy -> `Healthy
  | Fault.Failed -> `Failed
  | Fault.Rebuilding r -> `Rebuilding (float_of_int r.pos /. float_of_int (drive_capacity t))

(* The drives a rebuild of [drive] reconstructs from. *)
let rebuild_sources t ~drive =
  match t.config with
  | Striped _ -> []
  | Mirrored _ -> [ drive lxor 1 ]
  | Raid5 _ | Parity_striped -> List.filter (fun d -> d <> drive) t.all_drives

type rebuild_step =
  | Rebuild_idle
  | Rebuild_blocked
  | Rebuild_done
  | Rebuild_sync of float
  | Rebuild_queued of op

let rebuild_step t ~now ~drive =
  check_drive t drive;
  let fault = t.st.fault in
  match Fault.status fault ~drive with
  | Fault.Healthy | Fault.Failed -> Rebuild_idle
  | Fault.Rebuilding r ->
      if r.pos >= drive_capacity t then begin
        Fault.finish_rebuild fault ~drive;
        Rebuild_done
      end
      else begin
        let pos = r.pos in
        let bytes =
          min (Fault.config fault).Fault_plan.rebuild_chunk_bytes (drive_capacity t - pos)
        in
        let sources = rebuild_sources t ~drive in
        if sources = [] then begin
          Fault.finish_rebuild fault ~drive;
          Rebuild_done
        end
        else if
          List.exists
            (fun s -> not (Fault.readable fault ~drive:s ~offset:pos ~bytes))
            sources
        then Rebuild_blocked
        else begin
          (* Read the region from every redundancy-group member still
             standing, write the reconstruction to the returning drive.
             All of it is redundancy traffic — rebuild I/O never counts
             as data throughput, but it competes for the arms. *)
          t.cb_len <- 0;
          List.iter
            (fun s -> cb_push t ~disk:s ~offset:pos ~bytes ~parity:true ~rmw:false)
            sources;
          cb_push t ~disk:drive ~offset:pos ~bytes ~parity:true ~rmw:false;
          Fault.rebuild_advance fault ~drive ~bytes;
          if synchronous t then begin
            perform_buf t ~now;
            Rebuild_sync t.pc_finish
          end
          else Rebuild_queued (submit_buf t ~now)
        end
      end

let time_of t ~kind ~extents =
  let geometries = Array.to_list (Array.map Drive.geometry t.st.drives) in
  let scratch = create_mixed ~seed:0 ~geometries t.config in
  serve_extents scratch ~now:0. ~kind ~extents;
  scratch.pc_finish

let utilization t ~now =
  if now <= 0. then 0.
  else begin
    let busy = Array.fold_left (fun acc d -> acc +. (Drive.stats d).Drive.busy_ms) 0. t.st.drives in
    busy /. (now *. float_of_int (disks t))
  end

let bytes_moved t = t.st.bytes_moved

(* The scratch buffers are dead between events: a restore or a reset
   empties them. *)
let clear_scratch t =
  t.cb_len <- 0;
  t.db_len <- 0;
  t.touched_len <- 0;
  Array.fill t.touched_mark 0 (Array.length t.touched_mark) false

let ckpt_save t = Marshal.to_string t.st []

let ckpt_load t blob =
  t.st <- (Marshal.from_string blob 0 : state);
  clear_scratch t

let reset t =
  let st = t.st in
  Array.iter Drive.reset st.drives;
  Array.iter Squeue.clear st.queues;
  Array.fill st.in_service 0 (Array.length st.in_service) None;
  st.bytes_moved <- 0;
  clear_scratch t

let drive_stats t = Array.map Drive.stats t.st.drives
let drive_busy_until t ~drive = Drive.busy_until t.st.drives.(drive)

let pp_config ppf = function
  | Striped { stripe_unit } ->
      Format.fprintf ppf "striped (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Mirrored { stripe_unit } ->
      Format.fprintf ppf "mirrored (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Raid5 { stripe_unit } ->
      Format.fprintf ppf "RAID-5 (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Parity_striped -> Format.fprintf ppf "parity striped"
