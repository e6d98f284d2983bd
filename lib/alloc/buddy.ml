type config = { unit_bytes : int; max_extent_bytes : int }

let default_config = { unit_bytes = 1024; max_extent_bytes = 1024 * 1024 * 1024 }

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

let give t () ~addr ~len = Buddy_space.give t (log2_ceil len) addr

let create config ~total_units =
  if config.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Buddy.create";
  let cap_units = config.max_extent_bytes / config.unit_bytes in
  if cap_units <= 0 || cap_units land (cap_units - 1) <> 0 then
    invalid_arg "Buddy.create: max extent must be a power-of-two multiple of the unit";
  let sizes = Array.init (log2_ceil cap_units + 1) (fun k -> 1 lsl k) in
  (* Koch's rule: the next extent doubles the file's current allocation;
     the first extent is one unit; extents never exceed the cap.  The
     block just past the file's last extent is taken when it is free at
     that size; else the lowest free block of the size, else the lowest
     block of the smallest larger size, split. *)
  let take (st : (unit, Buddy_space.t) Policy.state) ~file:_ (f : unit Policy.file) ~target:_ =
    let t = st.space in
    let current = File_extents.allocated_units f.fx in
    let k = log2_ceil (if current = 0 then 1 else min current cap_units) in
    let prefer = Buddy_space.sequential t k f.fx in
    let addr =
      if Buddy_space.is_free t k prefer then begin
        Buddy_space.take t k prefer;
        prefer
      end
      else Buddy_space.alloc_anywhere t k ~prefer:(-1)
    in
    if addr < 0 then false
    else begin
      File_extents.push f.fx ~addr ~len:sizes.(k);
      true
    end
  in
  Policy.make ~name:"buddy" ~unit_bytes:config.unit_bytes ~total_units
    ~new_file:(fun _ ~hint:_ -> ())
    ~take ~give ~free_units:Buddy_space.free_units ~largest_free:Buddy_space.largest_free
    ~free_hist:Buddy_space.free_hist
    (Buddy_space.create ~sizes ~total_units)
