module IntSet = Set.Make (Int)

type config = { unit_bytes : int; max_extent_bytes : int }

let default_config = { unit_bytes = 1024; max_extent_bytes = 1024 * 1024 * 1024 }

type space = {
  max_order : int;
  free : IntSet.t array;  (** free.(k): start addresses of free 2^k-unit blocks *)
  mutable free_units : int;
}

let order_size k = 1 lsl k

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

(* Seed the free lists with the greedy aligned power-of-two decomposition
   of [0, total): repeatedly take the largest block (<= max order) that
   is aligned at the current address and fits. *)
let seed t ~total_units =
  let rec place addr =
    if addr < total_units then begin
      let rec pick k =
        let s = order_size k in
        if k > 0 && (addr mod s <> 0 || addr + s > total_units) then pick (k - 1) else k
      in
      let k = pick t.max_order in
      t.free.(k) <- IntSet.add addr t.free.(k);
      place (addr + order_size k)
    end
  in
  place 0

(* Take a block of exactly order [k], splitting a larger one if needed;
   -1 when none is free.  [prefer] is an address whose block, if free at
   order [k], is taken first (contiguity with the file's previous
   extent). *)
let rec take_order t k ~prefer =
  if k > t.max_order then -1
  else if prefer >= 0 && IntSet.mem prefer t.free.(k) then begin
    t.free.(k) <- IntSet.remove prefer t.free.(k);
    prefer
  end
  else begin
    match IntSet.min_elt_opt t.free.(k) with
    | Some addr ->
        t.free.(k) <- IntSet.remove addr t.free.(k);
        addr
    | None ->
        (* Split one block of the next order up: lower half is returned,
           upper half becomes free at order k. *)
        let addr = take_order t (k + 1) ~prefer:(-1) in
        if addr >= 0 then t.free.(k) <- IntSet.add (addr + order_size k) t.free.(k);
        addr
  end

(* Eager buddy coalescing: while our buddy at this order is free, merge
   upward.  Blocks in the free sets are always size-aligned, so the
   xor rule identifies the buddy. *)
let rec free_block t addr k =
  let s = order_size k in
  let buddy = addr lxor s in
  if k < t.max_order && IntSet.mem buddy t.free.(k) then begin
    t.free.(k) <- IntSet.remove buddy t.free.(k);
    free_block t (min addr buddy) (k + 1)
  end
  else t.free.(k) <- IntSet.add addr t.free.(k)

let give t () (e : Extent.t) =
  free_block t e.addr (log2_ceil e.len);
  t.free_units <- t.free_units + e.len

let largest_free t =
  let rec scan k = if k < 0 then 0 else if IntSet.is_empty t.free.(k) then scan (k - 1) else order_size k in
  scan t.max_order

let free_hist t =
  let acc = ref [] in
  for k = t.max_order downto 0 do
    let c = IntSet.cardinal t.free.(k) in
    if c > 0 then acc := (order_size k, c) :: !acc
  done;
  !acc

let create config ~total_units =
  if config.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Buddy.create";
  let cap_units = config.max_extent_bytes / config.unit_bytes in
  if cap_units <= 0 || cap_units land (cap_units - 1) <> 0 then
    invalid_arg "Buddy.create: max extent must be a power-of-two multiple of the unit";
  let max_order = log2_ceil cap_units in
  let space = { max_order; free = Array.make (max_order + 1) IntSet.empty; free_units = total_units } in
  seed space ~total_units;
  (* Koch's rule: the next extent doubles the file's current allocation;
     the first extent is one unit; extents never exceed the cap. *)
  let take (st : (unit, space) Policy.state) ~file:_ (f : unit Policy.file) ~target:_ =
    let t = st.space in
    let current = File_extents.allocated_units f.fx in
    let k = log2_ceil (if current = 0 then 1 else min current cap_units) in
    let prefer =
      match File_extents.last f.fx with
      | Some e when Extent.end_ e mod order_size k = 0 -> Extent.end_ e
      | Some _ | None -> -1
    in
    let addr = take_order t k ~prefer in
    if addr < 0 then None
    else begin
      t.free_units <- t.free_units - order_size k;
      Some (Extent.make ~addr ~len:(order_size k))
    end
  in
  Policy.make ~name:"buddy" ~unit_bytes:config.unit_bytes ~total_units
    ~new_file:(fun _ ~hint:_ -> ())
    ~take ~give
    ~free_units:(fun t -> t.free_units)
    ~largest_free ~free_hist space
