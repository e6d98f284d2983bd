type config = { unit_bytes : int; block_bytes : int; aged : bool }

let config ?(unit_bytes = 1024) ?(aged = true) ~block_bytes () = { unit_bytes; block_bytes; aged }

(* The free list: block addresses in a ring, taken from [head] and
   given back at the tail, so FIFO order is the allocation order.
   Every block is either here or in exactly one file, so the ring never
   holds more than all of them. *)
type free_list = { ring : int array; mutable head : int; mutable size : int }

let take_block q =
  let addr = q.ring.(q.head) in
  q.head <- (if q.head + 1 = Array.length q.ring then 0 else q.head + 1);
  q.size <- q.size - 1;
  addr

let give_block q () ~addr ~len:_ =
  let cap = Array.length q.ring in
  if q.size = cap then failwith "Fixed_block: a block was freed twice";
  let tail = q.head + q.size in
  q.ring.(if tail >= cap then tail - cap else tail) <- addr;
  q.size <- q.size + 1

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
  Policy.make
    ~name:(Printf.sprintf "fixed(%s)" (Rofs_util.Units.to_string cfg.block_bytes))
    ~unit_bytes:cfg.unit_bytes ~total_units
    ~new_file:(fun _ ~hint:_ -> ())
    ~take:(fun st ~file:_ f ~target:_ ->
      let q = st.Policy.space in
      if q.size = 0 then false
      else begin
        File_extents.push f.Policy.fx ~addr:(take_block q) ~len:block_units;
        true
      end)
    ~give:give_block
    ~free_units:(fun q -> q.size * block_units)
    ~largest_free:(fun q -> if q.size = 0 then 0 else block_units)
    ~free_hist:(fun q -> if q.size = 0 then [] else [ (block_units, q.size) ])
    { ring = order; head = 0; size = nblocks }
