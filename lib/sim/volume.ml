module Policy = Rofs_alloc.Policy
module Vec = Rofs_util.Vec

type file_info = {
  type_idx : int;
  mutable logical : int;  (** bytes *)
  mutable slot : int;  (** index in its type's live-file vector *)
}

(* Everything a checkpoint carries: one closure-free record, saved with
   one [Marshal] and restored by swapping the decoded record in. *)
type state = {
  files : (int, file_info) Hashtbl.t;
  by_type : int Vec.t array;
  mutable next_id : int;
  mutable total_logical : int;
}

type t = { policy : Policy.t; mutable s : state }

let create policy ~ntypes =
  {
    policy;
    s =
      {
        files = Hashtbl.create 1024;
        by_type = Array.init ntypes (fun _ -> Vec.create ());
        next_id = 0;
        total_logical = 0;
      };
  }

let policy t = t.policy

(* [find] rather than [find_opt]: every grow, truncate and delete
   looks a file up, and this boxes no option. *)
let info t file =
  try Hashtbl.find t.s.files file with Not_found -> invalid_arg "Volume: unknown file"

let create_file t ~type_idx ~hint_bytes =
  let id = t.s.next_id in
  t.s.next_id <- id + 1;
  t.policy.Policy.create_file ~file:id ~hint:(Policy.units_of_bytes t.policy hint_bytes);
  let vec = t.s.by_type.(type_idx) in
  Hashtbl.replace t.s.files id { type_idx; logical = 0; slot = Vec.length vec };
  Vec.push vec id;
  id

let grow t ~file ~bytes =
  assert (bytes >= 0);
  let i = info t file in
  let target = Policy.units_of_bytes t.policy (i.logical + bytes) in
  match t.policy.Policy.ensure ~file ~target with
  | Ok () ->
      i.logical <- i.logical + bytes;
      t.s.total_logical <- t.s.total_logical + bytes;
      Ok ()
  | Error `Disk_full -> Error `Disk_full

let truncate t ~file ~bytes =
  assert (bytes >= 0);
  let i = info t file in
  let removed = min bytes i.logical in
  i.logical <- i.logical - removed;
  t.s.total_logical <- t.s.total_logical - removed;
  t.policy.Policy.shrink_to ~file ~target:(Policy.units_of_bytes t.policy i.logical)

let delete t ~file =
  let i = info t file in
  t.policy.Policy.delete ~file;
  t.s.total_logical <- t.s.total_logical - i.logical;
  Hashtbl.remove t.s.files file;
  (* Swap-remove from the type's live vector, patching the moved file's
     slot. *)
  let vec = t.s.by_type.(i.type_idx) in
  let last_idx = Vec.length vec - 1 in
  let moved = Vec.get vec last_idx in
  Vec.set vec i.slot moved;
  Vec.truncate vec last_idx;
  if moved <> file then (info t moved).slot <- i.slot

let file_exists t ~file = Hashtbl.mem t.s.files file
let logical_bytes t ~file = (info t file).logical

let allocated_bytes t ~file =
  Policy.bytes_of_units t.policy (t.policy.Policy.allocated_units ~file)

let extent_count t ~file = t.policy.Policy.extent_count ~file
let type_of_file t ~file = (info t file).type_idx

let random_file t rng ~type_idx =
  let vec = t.s.by_type.(type_idx) in
  let n = Vec.length vec in
  if n = 0 then None else Some (Vec.get vec (Rofs_util.Rng.int rng n))

let file_count t ~type_idx = Vec.length t.s.by_type.(type_idx)

let live_files t = Hashtbl.fold (fun id _ acc -> id :: acc) t.s.files []

let slice_bytes t ~file ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Volume.slice_bytes";
  if len = 0 then []
  else begin
    let ub = t.policy.Policy.unit_bytes in
    let first_unit = off / ub in
    let last_unit = (off + len - 1) / ub in
    let extents = t.policy.Policy.slice ~file ~off:first_unit ~len:(last_unit - first_unit + 1) in
    List.map
      (fun e -> (e.Rofs_alloc.Extent.addr * ub, e.Rofs_alloc.Extent.len * ub))
      extents
  end

let total_bytes t = Policy.bytes_of_units t.policy t.policy.Policy.total_units
let free_bytes t = Policy.bytes_of_units t.policy (t.policy.Policy.free_units ())
let used_bytes t = total_bytes t - free_bytes t
let total_logical_bytes t = t.s.total_logical

let utilization t = float_of_int (used_bytes t) /. float_of_int (total_bytes t)

let internal_fragmentation t =
  let used = used_bytes t in
  if used = 0 then 0. else float_of_int (used - t.s.total_logical) /. float_of_int used

let external_fragmentation t = float_of_int (free_bytes t) /. float_of_int (total_bytes t)

let occupancy t ~buckets =
  if buckets <= 0 then invalid_arg "Volume.occupancy";
  let total = t.policy.Policy.total_units in
  let cells = Array.make buckets 0 in
  let add_extent (e : Rofs_alloc.Extent.t) =
    (* spread the extent's units over the buckets it covers *)
    let stop = e.Rofs_alloc.Extent.addr + e.Rofs_alloc.Extent.len in
    let rec go pos =
      if pos < stop then begin
        let bucket = min (buckets - 1) (pos * buckets / total) in
        let bucket_end = min stop ((bucket + 1) * total / buckets) in
        let take = max (bucket_end - pos) 1 in
        cells.(bucket) <- cells.(bucket) + take;
        go (pos + take)
      end
    in
    go e.Rofs_alloc.Extent.addr
  in
  Hashtbl.iter
    (fun id _ -> List.iter add_extent (t.policy.Policy.extents ~file:id))
    t.s.files;
  let per_bucket = float_of_int total /. float_of_int buckets in
  Array.map (fun units -> Float.min 1. (float_of_int units /. per_bucket)) cells

let ckpt_save t = Marshal.to_string t.s []
let ckpt_load t blob = t.s <- (Marshal.from_string blob 0 : state)

let mean_extents_per_file t =
  let n = Hashtbl.length t.s.files in
  if n = 0 then 0.
  else begin
    let total = Hashtbl.fold (fun id _ acc -> acc + t.policy.Policy.extent_count ~file:id) t.s.files 0 in
    float_of_int total /. float_of_int n
  end
