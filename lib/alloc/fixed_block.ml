type config = { unit_bytes : int; block_bytes : int; aged : bool }

let config ?(unit_bytes = 1024) ?(aged = true) ~block_bytes () = { unit_bytes; block_bytes; aged }

let create cfg ~total_units ~rng =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Fixed_block.create";
  if cfg.block_bytes <= 0 || cfg.block_bytes mod cfg.unit_bytes <> 0 then
    invalid_arg "Fixed_block.create: block size must be a multiple of the unit";
  let block_units = cfg.block_bytes / cfg.unit_bytes in
  let nblocks = total_units / block_units in
  let order = Array.init nblocks (fun i -> i * block_units) in
  if cfg.aged then
    (* Fisher–Yates: an aged free list has no address locality left. *)
    for i = nblocks - 1 downto 1 do
      let j = Rofs_util.Rng.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
  (* The free list's FIFO order is the allocation order: blocks come off
     the head and go back on the tail. *)
  let free_list = Queue.create () in
  Array.iter (fun addr -> Queue.add addr free_list) order;
  Policy.make
    ~name:(Printf.sprintf "fixed(%s)" (Rofs_util.Units.to_string cfg.block_bytes))
    ~unit_bytes:cfg.unit_bytes ~total_units
    ~new_file:(fun _ ~hint:_ -> ())
    ~take:(fun st ~file:_ _ ~target:_ ->
      let q = st.Policy.space in
      if Queue.is_empty q then None else Some (Extent.make ~addr:(Queue.take q) ~len:block_units))
    ~give:(fun q () e -> Queue.add e.Extent.addr q)
    ~free_units:(fun q -> Queue.length q * block_units)
    ~largest_free:(fun q -> if Queue.is_empty q then 0 else block_units)
    ~free_hist:(fun q ->
      let n = Queue.length q in
      if n = 0 then [] else [ (block_units, n) ])
    free_list
