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
    ~new_file ~take ~give ?give_run ~free_units ~largest_free ~free_hist space =
  (* Everything mutable lives in [!slot]; every closure below reads the
     slot on each call, so a checkpoint load is one assignment. *)
  let slot = ref { files = Hashtbl.create 256; user_units = 0; space } in
  let the_file file =
    try Hashtbl.find !slot.files file
    with Not_found -> invalid_arg (Printf.sprintf "%s: unknown file %d" name file)
  in
  let create_file ~file ~hint =
    let st = !slot in
    if Hashtbl.mem st.files file then
      invalid_arg (Printf.sprintf "%s: duplicate file %d" name file);
    Hashtbl.replace st.files file { fx = File_extents.create (); data = new_file st.space ~hint }
  in
  let rec grow st ~file f ~target =
    let before = File_extents.allocated_units f.fx in
    if before >= target then Ok ()
    else if take st ~file f ~target then begin
      st.user_units <- st.user_units + (File_extents.allocated_units f.fx - before);
      grow st ~file f ~target
    end
    else Error `Disk_full
  in
  let ensure ~file ~target =
    let st = !slot in
    let f = the_file file in
    prepare st;
    grow st ~file f ~target
  in
  (* Return pieces [from..] of [f] to free space: through [give_run]
     once per maximal run of address-contiguous pieces, in logical
     order; else through [give] one piece at a time, last first when
     [last_first]. *)
  let release space f ~from ~last_first =
    let fx = f.fx in
    let n = File_extents.count fx in
    match give_run with
    | None ->
        if last_first then
          for i = n - 1 downto from do
            give space f.data ~addr:(File_extents.addr fx i) ~len:(File_extents.len fx i)
          done
        else
          for i = from to n - 1 do
            give space f.data ~addr:(File_extents.addr fx i) ~len:(File_extents.len fx i)
          done
    | Some give_run ->
        if from < n then begin
          let start = ref (File_extents.addr fx from) in
          let stop = ref (!start + File_extents.len fx from) in
          for i = from + 1 to n - 1 do
            let addr = File_extents.addr fx i in
            if addr <> !stop then begin
              give_run space f.data ~addr:!start ~len:(!stop - !start);
              start := addr
            end;
            stop := addr + File_extents.len fx i
          done;
          give_run space f.data ~addr:!start ~len:(!stop - !start)
        end
  in
  (* Free whole trailing extents while the allocation stays >= target:
     the first [kept] extents stay. *)
  let shrink_to ~file ~target =
    let f = the_file file in
    let kept = ref (File_extents.count f.fx) in
    while !kept > 0 && File_extents.offset f.fx (!kept - 1) >= target do
      decr kept
    done;
    release !slot.space f ~from:!kept ~last_first:true;
    File_extents.truncate f.fx !kept
  in
  let delete ~file =
    let st = !slot in
    let f = the_file file in
    release st.space f ~from:0 ~last_first:false;
    Hashtbl.remove st.files file
  in
  {
    name;
    unit_bytes;
    total_units;
    create_file;
    file_exists = (fun ~file -> Hashtbl.mem !slot.files file);
    ensure;
    shrink_to;
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

let used_units t = t.total_units - t.free_units ()

let utilization t = float_of_int (used_units t) /. float_of_int t.total_units

let units_of_bytes t bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / t.unit_bytes) + 1

let bytes_of_units t units = units * t.unit_bytes
