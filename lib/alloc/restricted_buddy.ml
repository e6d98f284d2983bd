module IntSet = Set.Make (Int)
module Units = Rofs_util.Units

type config = {
  unit_bytes : int;
  block_sizes_bytes : int list;
  grow_factor : int;
  clustered : bool;
  region_bytes : int;
  tail_bounded : bool;
}

let config ?(unit_bytes = 1024) ?(grow_factor = 1) ?(clustered = true)
    ?(region_bytes = 32 * 1024 * 1024) ?(tail_bounded = true) ~block_sizes_bytes () =
  { unit_bytes; block_sizes_bytes; grow_factor; clustered; region_bytes; tail_bounded }

let paper_block_sizes n =
  let k = Units.kib and m = Units.mib in
  match n with
  | 2 -> [ k; 8 * k ]
  | 3 -> [ k; 8 * k; 64 * k ]
  | 4 -> [ k; 8 * k; 64 * k; m ]
  | 5 -> [ k; 8 * k; 64 * k; m; 16 * m ]
  | _ -> invalid_arg "Restricted_buddy.paper_block_sizes: expected 2..5"

type file = {
  tier_totals : int array;  (** units currently allocated per block-size tier *)
  fd_region : int;
}

type space = {
  cfg : config;
  total_units : int;
  sizes : int array;  (** block sizes in units, increasing; sizes.(0) = 1 *)
  top : int;  (** index of the largest size *)
  free : IntSet.t array;  (** free.(k): start addresses of free tier-k blocks *)
  mutable free_units : int;
  region_units : int;
  mutable next_fd_region : int;
}

let validate cfg =
  if cfg.unit_bytes <= 0 then invalid_arg "Restricted_buddy: bad unit";
  if cfg.grow_factor < 1 then invalid_arg "Restricted_buddy: grow factor must be >= 1";
  (match cfg.block_sizes_bytes with
  | [] -> invalid_arg "Restricted_buddy: no block sizes"
  | first :: _ when first <> cfg.unit_bytes ->
      invalid_arg "Restricted_buddy: smallest block size must equal the disk unit"
  | sizes ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
            if b <= a || b mod a <> 0 then
              invalid_arg "Restricted_buddy: each block size must be a multiple of the previous";
            chain rest
        | [ _ ] | [] -> ()
      in
      chain sizes);
  if cfg.region_bytes mod List.hd (List.rev cfg.block_sizes_bytes) <> 0 then
    invalid_arg "Restricted_buddy: region size must be a multiple of the largest block"

(* Greedy aligned decomposition of the address space into the largest
   blocks that fit, seeding the free structures. *)
let seed t =
  let rec place addr =
    if addr < t.total_units then begin
      let rec pick k =
        let s = t.sizes.(k) in
        if k > 0 && (addr mod s <> 0 || addr + s > t.total_units) then pick (k - 1) else k
      in
      let k = pick t.top in
      t.free.(k) <- IntSet.add addr t.free.(k);
      place (addr + t.sizes.(k))
    end
  in
  place 0

let region_of t addr = addr / t.region_units
let region_start t r = r * t.region_units
let region_end t r = min t.total_units ((r + 1) * t.region_units)
let region_count t = ((t.total_units - 1) / t.region_units) + 1

(* Lowest free tier-k address in [lo, hi) that is >= prefer (when
   prefer lands in the window), else the lowest in the window. *)
let find_in t k ~lo ~hi ~prefer =
  let from target =
    match IntSet.find_first_opt (fun a -> a >= target) t.free.(k) with
    | Some a when a < hi -> Some a
    | Some _ | None -> None
  in
  if prefer > lo && prefer < hi then
    match from prefer with Some _ as hit -> hit | None -> from lo
  else from lo

let take t k addr =
  t.free.(k) <- IntSet.remove addr t.free.(k);
  t.free_units <- t.free_units - t.sizes.(k)

(* Split the tier-j free block at [addr] down to one tier-k block at
   [addr]; the remainder re-enters the free lists as maximal aligned
   pieces (the standard multi-level buddy split). *)
let split t ~j ~k addr =
  take t j addr;
  for i = k to j - 1 do
    let ratio = t.sizes.(i + 1) / t.sizes.(i) in
    for m = 1 to ratio - 1 do
      t.free.(i) <- IntSet.add (addr + (m * t.sizes.(i))) t.free.(i)
    done
  done;
  t.free_units <- t.free_units + (t.sizes.(j) - t.sizes.(k))

(* The allocation searches below return the allocated tier-k block
   address, or -1 when they find none. *)

(* The exact-size-then-split search within one address window. *)
let alloc_in_window t k ~lo ~hi ~prefer =
  match find_in t k ~lo ~hi ~prefer with
  | Some addr ->
      take t k addr;
      addr
  | None ->
      let rec try_split j =
        if j > t.top then -1
        else begin
          match find_in t j ~lo ~hi ~prefer with
          | Some addr ->
              split t ~j ~k addr;
              addr
          | None -> try_split (j + 1)
        end
      in
      try_split (k + 1)

(* Exact-size block anywhere, preferring the sequential address. *)
let alloc_exact_anywhere t k ~prefer =
  let pick addr =
    take t k addr;
    addr
  in
  match
    if prefer > 0 then IntSet.find_first_opt (fun a -> a >= prefer) t.free.(k) else None
  with
  | Some addr -> pick addr
  | None -> ( match IntSet.min_elt_opt t.free.(k) with Some addr -> pick addr | None -> -1)

let split_anywhere t k ~prefer =
  let rec try_split j =
    if j > t.top then -1
    else begin
      let candidate =
        match
          if prefer > 0 then IntSet.find_first_opt (fun a -> a >= prefer) t.free.(j) else None
        with
        | Some _ as hit -> hit
        | None -> IntSet.min_elt_opt t.free.(j)
      in
      match candidate with
      | Some addr ->
          split t ~j ~k addr;
          addr
      | None -> try_split (j + 1)
    end
  in
  try_split (k + 1)

(* Section 4.2's region selection: optimal region first (exact size,
   then split), then an exact-size block in any region, then a split
   anywhere. *)
let alloc_clustered t k ~optimal_region ~prefer =
  let lo = region_start t optimal_region and hi = region_end t optimal_region in
  let addr = alloc_in_window t k ~lo ~hi ~prefer in
  if addr >= 0 then addr
  else
    let addr = alloc_exact_anywhere t k ~prefer in
    if addr >= 0 then addr else split_anywhere t k ~prefer

let alloc_unclustered t k ~prefer =
  let addr = alloc_exact_anywhere t k ~prefer in
  if addr >= 0 then addr else split_anywhere t k ~prefer

(* Eager coalescing: whenever every sibling inside the parent block of
   the next tier is free, replace them with the parent and recurse. *)
let rec coalesce t k addr =
  if k >= t.top then t.free.(k) <- IntSet.add addr t.free.(k)
  else begin
    let parent_size = t.sizes.(k + 1) in
    let parent = addr - (addr mod parent_size) in
    if parent + parent_size > t.total_units then t.free.(k) <- IntSet.add addr t.free.(k)
    else begin
      let ratio = parent_size / t.sizes.(k) in
      let rec siblings_free m =
        m >= ratio
        ||
        let sibling = parent + (m * t.sizes.(k)) in
        (sibling = addr || IntSet.mem sibling t.free.(k)) && siblings_free (m + 1)
      in
      if siblings_free 0 then begin
        for m = 0 to ratio - 1 do
          let sibling = parent + (m * t.sizes.(k)) in
          if sibling <> addr then t.free.(k) <- IntSet.remove sibling t.free.(k)
        done;
        coalesce t (k + 1) parent
      end
      else t.free.(k) <- IntSet.add addr t.free.(k)
    end
  end

let tier_of_size t units =
  let rec scan k = if t.sizes.(k) = units then k else scan (k + 1) in
  scan 0

let give t f (e : Extent.t) =
  let k = tier_of_size t e.len in
  f.tier_totals.(k) <- f.tier_totals.(k) - e.len;
  coalesce t k e.addr;
  t.free_units <- t.free_units + e.len

(* Tier whose blocks the file should allocate next: advance past tier i
   once the file holds grow_factor * sizes.(i+1) units in tier-i
   blocks. *)
let tier_of t f =
  let rec scan i =
    if i >= t.top then t.top
    else if f.tier_totals.(i) < t.cfg.grow_factor * t.sizes.(i + 1) then i
    else scan (i + 1)
  in
  scan 0

let new_file t ~hint:_ =
  let fd_region = t.next_fd_region in
  t.next_fd_region <- (t.next_fd_region + 1) mod region_count t;
  { tier_totals = Array.make (t.top + 1) 0; fd_region }

let allocate_block t fx f k =
  let prefer =
    match File_extents.last fx with
    | Some e when Extent.end_ e mod t.sizes.(k) = 0 -> Extent.end_ e
    | Some _ | None -> -1
  in
  if t.cfg.clustered then begin
    let optimal_region =
      match File_extents.last fx with
      | Some e -> region_of t e.Extent.addr
      | None -> f.fd_region
    in
    alloc_clustered t k ~optimal_region ~prefer
  end
  else alloc_unclustered t k ~prefer

(* The next block for a file still short of [target] units. *)
let take_block t fx f ~target =
  let allocated = File_extents.allocated_units fx in
  (* The grow policy sets the ceiling.  In the (default) tail-bounded
     mode the block is at most the largest size not exceeding the
     remaining request — so files do not round up to a whole next-tier
     block, which is what keeps Figure 1's fragmentation under 6% — but
     at least the largest size not exceeding an eighth of the file's
     current allocation: block size keeps growing with the file (the
     policy's stated principle), appends to big files land in big
     blocks, and the worst-case waste per file stays near 1/8.  With
     [tail_bounded] off, the literal grow rule applies — "any file over
     72K requires a 64K block" (Figure 3) — at the cost of internal
     fragmentation up to half the top block size per file. *)
  let k =
    if t.cfg.tail_bounded then begin
      let floor_tier limit =
        let rec scan k = if k = 0 then 0 else if t.sizes.(k) <= limit then k else scan (k - 1) in
        scan t.top
      in
      let remaining = target - allocated in
      min (tier_of t f) (max (floor_tier remaining) (floor_tier (allocated / 8)))
    end
    else tier_of t f
  in
  let addr = allocate_block t fx f k in
  if addr < 0 then false
  else begin
    f.tier_totals.(k) <- f.tier_totals.(k) + t.sizes.(k);
    File_extents.push fx (Extent.make ~addr ~len:t.sizes.(k));
    true
  end

let largest_free t =
  let rec scan k = if k < 0 then 0 else if IntSet.is_empty t.free.(k) then scan (k - 1) else t.sizes.(k) in
  scan t.top

let free_hist t =
  let acc = ref [] in
  for k = t.top downto 0 do
    let c = IntSet.cardinal t.free.(k) in
    if c > 0 then acc := (t.sizes.(k), c) :: !acc
  done;
  !acc

let create cfg ~total_units =
  validate cfg;
  let sizes = Array.of_list (List.map (fun b -> b / cfg.unit_bytes) cfg.block_sizes_bytes) in
  let top = Array.length sizes - 1 in
  if total_units <= 0 then invalid_arg "Restricted_buddy.create";
  let t =
    {
      cfg;
      total_units;
      sizes;
      top;
      free = Array.make (top + 1) IntSet.empty;
      free_units = total_units;
      region_units = cfg.region_bytes / cfg.unit_bytes;
      next_fd_region = 0;
    }
  in
  seed t;
  let name =
    Printf.sprintf "restricted-buddy(%d sizes, g=%d, %s)" (top + 1) cfg.grow_factor
      (if cfg.clustered then "clustered" else "unclustered")
  in
  Policy.make ~name ~unit_bytes:cfg.unit_bytes ~total_units ~new_file
    ~take:(fun st ~file:_ f ~target -> take_block st.Policy.space f.Policy.fx f.Policy.data ~target)
    ~give
    ~free_units:(fun t -> t.free_units)
    ~largest_free ~free_hist t
