type churn_stats = {
  cs_user_units : int;
  cs_moved_units : int;
  cs_cleaner_passes : int;
}

let write_cost cs =
  if cs.cs_user_units = 0 then 1.0
  else
    float_of_int (cs.cs_user_units + cs.cs_moved_units)
    /. float_of_int cs.cs_user_units

type t = {
  name : string;
  unit_bytes : int;
  total_units : int;
  create_file : file:int -> hint:int -> unit;
  file_exists : file:int -> bool;
  ensure : file:int -> target:int -> (unit, [ `Disk_full ]) result;
  shrink_to : file:int -> target:int -> unit;
  delete : file:int -> unit;
  allocated_units : file:int -> int;
  extent_count : file:int -> int;
  extents : file:int -> Extent.t list;
  slice : file:int -> off:int -> len:int -> Extent.t list;
  free_units : unit -> int;
  largest_free : unit -> int;
  free_hist : unit -> (int * int) list;
  churn_stats : unit -> churn_stats;
  ckpt_save : unit -> string;
  ckpt_load : string -> unit;
}

type 'f file = { fx : File_extents.t; data : 'f }

type ('f, 's) state = {
  files : (int, 'f file) Hashtbl.t;
  mutable user_units : int;
  space : 's;
}

let make ~name ~unit_bytes ~total_units ?(prepare = ignore) ?(moved = fun _ -> (0, 0))
    ~new_file ~take ~give ~free_units ~largest_free ~free_hist space =
  (* Everything mutable lives in [!slot]; every closure below reads the
     slot on each call, so a checkpoint load is one assignment. *)
  let slot = ref { files = Hashtbl.create 256; user_units = 0; space } in
  let the_file file =
    match Hashtbl.find_opt !slot.files file with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "%s: unknown file %d" name file)
  in
  let create_file ~file ~hint =
    let st = !slot in
    if Hashtbl.mem st.files file then
      invalid_arg (Printf.sprintf "%s: duplicate file %d" name file);
    Hashtbl.replace st.files file { fx = File_extents.create (); data = new_file st.space ~hint }
  in
  let rec grow st ~file f ~target =
    if File_extents.allocated_units f.fx >= target then Ok ()
    else
      match take st ~file f ~target with
      | None -> Error `Disk_full
      | Some e ->
          File_extents.push f.fx e;
          st.user_units <- st.user_units + e.Extent.len;
          grow st ~file f ~target
  in
  let ensure ~file ~target =
    let st = !slot in
    let f = the_file file in
    prepare st;
    grow st ~file f ~target
  in
  (* Free whole trailing extents while the allocation stays >= target. *)
  let rec drop space f ~target =
    match File_extents.last f.fx with
    | Some e when File_extents.allocated_units f.fx - e.Extent.len >= target ->
        ignore (File_extents.pop f.fx : Extent.t option);
        give space f.data e;
        drop space f ~target
    | Some _ | None -> ()
  in
  let delete ~file =
    let st = !slot in
    let f = the_file file in
    File_extents.iter f.fx (give st.space f.data);
    Hashtbl.remove st.files file
  in
  {
    name;
    unit_bytes;
    total_units;
    create_file;
    file_exists = (fun ~file -> Hashtbl.mem !slot.files file);
    ensure;
    shrink_to = (fun ~file ~target -> drop !slot.space (the_file file) ~target);
    delete;
    allocated_units = (fun ~file -> File_extents.allocated_units (the_file file).fx);
    extent_count = (fun ~file -> File_extents.count (the_file file).fx);
    extents = (fun ~file -> File_extents.to_list (the_file file).fx);
    slice = (fun ~file ~off ~len -> File_extents.slice (the_file file).fx ~off ~len);
    free_units = (fun () -> free_units !slot.space);
    largest_free = (fun () -> largest_free !slot.space);
    free_hist = (fun () -> free_hist !slot.space);
    churn_stats =
      (fun () ->
        let moved_units, passes = moved !slot.space in
        { cs_user_units = !slot.user_units; cs_moved_units = moved_units; cs_cleaner_passes = passes });
    ckpt_save = (fun () -> Marshal.to_string !slot []);
    ckpt_load = (fun blob -> slot := (Marshal.from_string blob 0 : (_, _) state));
  }

let allocated_total t ~files =
  List.fold_left (fun acc file -> acc + t.allocated_units ~file) 0 files

let used_units t = t.total_units - t.free_units ()

let utilization t = float_of_int (used_units t) /. float_of_int t.total_units

let units_of_bytes t bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / t.unit_bytes) + 1

let bytes_of_units t units = units * t.unit_bytes
