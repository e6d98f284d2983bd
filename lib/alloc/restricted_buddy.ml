module Bitset = Rofs_util.Bitset
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
  free : Bitset.t array;
      (** free.(k): bit i is set when the tier-k block at [i * sizes.(k)] is free *)
  counts : int array array;  (** counts.(k).(r): free tier-k blocks in region r *)
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
  if cfg.region_bytes <= 0 || cfg.region_bytes mod List.hd (List.rev cfg.block_sizes_bytes) <> 0
  then invalid_arg "Restricted_buddy: region size must be a positive multiple of the largest block"

(* A region is a whole number of top-tier blocks, so every block lies
   in exactly one region. *)
let add t k addr =
  Bitset.set t.free.(k) (addr / t.sizes.(k));
  let c = t.counts.(k) and r = addr / t.region_units in
  c.(r) <- c.(r) + 1

let remove t k addr =
  Bitset.clear t.free.(k) (addr / t.sizes.(k));
  let c = t.counts.(k) and r = addr / t.region_units in
  c.(r) <- c.(r) - 1

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
      add t k addr;
      place (addr + t.sizes.(k))
    end
  in
  place 0

(* Lowest set bit of [bits] in [from, stop), where a region holds
   [per_region] bits and [counts.(r)] of them are set in region r: a
   region whose count is 0 is skipped whole, the others are scanned a
   word at a time.  A whole region scanned in vain under a non-zero
   count means the counts have drifted from the bitmap.  The searches
   below are top-level functions so that they allocate no closures. *)
let rec scan_regions bits counts ~per_region ~stop r from =
  if from >= stop then -1
  else begin
    let next = (r + 1) * per_region in
    let i = if counts.(r) = 0 then -1 else Bitset.first_set_in bits ~lo:from ~hi:(min stop next) in
    if i >= 0 then i
    else begin
      if counts.(r) > 0 && from = r * per_region && next <= stop then
        failwith "Restricted_buddy: a region's free count disagrees with its bitmap";
      scan_regions bits counts ~per_region ~stop (r + 1) next
    end
  end

(* Lowest free tier-k address in [lo, hi), or -1. *)
let first_free t k ~lo ~hi =
  let bits = t.free.(k) in
  if Bitset.cardinal bits = 0 then -1
  else begin
    let s = t.sizes.(k) in
    let per_region = t.region_units / s in
    let from = (lo + s - 1) / s in
    let stop = min (Bitset.length bits) ((hi + s - 1) / s) in
    let i = scan_regions bits t.counts.(k) ~per_region ~stop (from / per_region) from in
    if i >= 0 then i * s else -1
  end

(* Lowest free tier-k address in [lo, hi) that is >= prefer (when
   prefer lands in the window), else the lowest in the window. *)
let find_in t k ~lo ~hi ~prefer =
  if prefer > lo && prefer < hi then begin
    let addr = first_free t k ~lo:prefer ~hi in
    if addr >= 0 then addr else first_free t k ~lo ~hi:prefer
  end
  else first_free t k ~lo ~hi

let take t k addr =
  remove t k addr;
  t.free_units <- t.free_units - t.sizes.(k)

(* Split the tier-j free block at [addr] down to one tier-k block at
   [addr]; the remainder re-enters the free structures as maximal
   aligned pieces (the standard multi-level buddy split). *)
let split t ~j ~k addr =
  take t j addr;
  for i = k to j - 1 do
    let ratio = t.sizes.(i + 1) / t.sizes.(i) in
    for m = 1 to ratio - 1 do
      add t i (addr + (m * t.sizes.(i)))
    done
  done;
  t.free_units <- t.free_units + (t.sizes.(j) - t.sizes.(k))

(* A split of the lowest larger tier, from j up, that has a free block
   in the window. *)
let rec split_in_window t k j ~lo ~hi ~prefer =
  if j > t.top then -1
  else begin
    let addr = find_in t j ~lo ~hi ~prefer in
    if addr >= 0 then begin
      split t ~j ~k addr;
      addr
    end
    else split_in_window t k (j + 1) ~lo ~hi ~prefer
  end

(* The exact-size-then-split search within one address window; returns
   the allocated tier-k block address, or -1 when it finds none. *)
let alloc_in_window t k ~lo ~hi ~prefer =
  let addr = find_in t k ~lo ~hi ~prefer in
  if addr >= 0 then begin
    take t k addr;
    addr
  end
  else split_in_window t k (k + 1) ~lo ~hi ~prefer

(* Over the whole disk, the window search is "an exact-size block
   anywhere, preferring the sequential address, then a split
   anywhere"; Section 4.2's region selection runs it on the optimal
   region first. *)
let alloc_anywhere t k ~prefer = alloc_in_window t k ~lo:0 ~hi:t.total_units ~prefer

let alloc_clustered t k ~optimal_region ~prefer =
  let lo = optimal_region * t.region_units in
  let hi = min t.total_units (lo + t.region_units) in
  let addr = alloc_in_window t k ~lo ~hi ~prefer in
  if addr >= 0 then addr else alloc_anywhere t k ~prefer

let rec siblings_free t k ~parent ~addr m =
  let size = t.sizes.(k) in
  m >= t.sizes.(k + 1) / size
  ||
  let sibling = parent + (m * size) in
  (sibling = addr || Bitset.mem t.free.(k) (sibling / size))
  && siblings_free t k ~parent ~addr (m + 1)

(* Eager coalescing: whenever every sibling inside the parent block of
   the next tier is free, replace them with the parent and recurse. *)
let rec coalesce t k addr =
  if k >= t.top then add t k addr
  else begin
    let size = t.sizes.(k) and parent_size = t.sizes.(k + 1) in
    let parent = addr - (addr mod parent_size) in
    if parent + parent_size > t.total_units then add t k addr
    else if siblings_free t k ~parent ~addr 0 then begin
      for m = 0 to (parent_size / size) - 1 do
        let sibling = parent + (m * size) in
        if sibling <> addr then remove t k sibling
      done;
      coalesce t (k + 1) parent
    end
    else add t k addr
  end

(* Tier of a block of [units] units, searched from tier [k] up.  This
   and the tier searches below are top-level functions, like
   [scan_regions], so that each block taken or freed builds no
   closure. *)
let rec tier_of_size sizes units k = if sizes.(k) = units then k else tier_of_size sizes units (k + 1)

let give t f ~addr ~len =
  let k = tier_of_size t.sizes len 0 in
  f.tier_totals.(k) <- f.tier_totals.(k) - len;
  coalesce t k addr;
  t.free_units <- t.free_units + len

(* Tier whose blocks the file should allocate next, searched from tier
   [i] up: advance past tier i once the file holds
   grow_factor * sizes.(i+1) units in tier-i blocks. *)
let rec tier_of t f i =
  if i >= t.top then t.top
  else if f.tier_totals.(i) < t.cfg.grow_factor * t.sizes.(i + 1) then i
  else tier_of t f (i + 1)

let new_file t ~hint:_ =
  let fd_region = t.next_fd_region in
  t.next_fd_region <- (t.next_fd_region + 1) mod Array.length t.counts.(0);
  { tier_totals = Array.make (t.top + 1) 0; fd_region }

let allocate_block t fx f k =
  let n = File_extents.count fx in
  let prefer =
    if n = 0 then -1
    else
      let stop = File_extents.addr fx (n - 1) + File_extents.len fx (n - 1) in
      if stop mod t.sizes.(k) = 0 then stop else -1
  in
  if t.cfg.clustered then begin
    let optimal_region =
      if n = 0 then f.fd_region else File_extents.addr fx (n - 1) / t.region_units
    in
    alloc_clustered t k ~optimal_region ~prefer
  end
  else alloc_anywhere t k ~prefer

(* Largest tier, from tier [k] down, whose block size does not exceed
   [limit]; tier 0 at least. *)
let rec floor_tier t limit k =
  if k = 0 then 0 else if t.sizes.(k) <= limit then k else floor_tier t limit (k - 1)

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
    if t.cfg.tail_bounded then
      min (tier_of t f 0)
        (max (floor_tier t (target - allocated) t.top) (floor_tier t (allocated / 8) t.top))
    else tier_of t f 0
  in
  let addr = allocate_block t fx f k in
  if addr < 0 then false
  else begin
    f.tier_totals.(k) <- f.tier_totals.(k) + t.sizes.(k);
    File_extents.push fx ~addr ~len:t.sizes.(k);
    true
  end

let rec largest_from t k =
  if k < 0 then 0 else if Bitset.cardinal t.free.(k) = 0 then largest_from t (k - 1) else t.sizes.(k)

let largest_free t = largest_from t t.top

let free_hist t =
  let acc = ref [] in
  for k = t.top downto 0 do
    let c = Bitset.cardinal t.free.(k) in
    if c > 0 then acc := (t.sizes.(k), c) :: !acc
  done;
  !acc

let create cfg ~total_units =
  validate cfg;
  let sizes = Array.of_list (List.map (fun b -> b / cfg.unit_bytes) cfg.block_sizes_bytes) in
  let top = Array.length sizes - 1 in
  if total_units <= 0 then invalid_arg "Restricted_buddy.create";
  let region_units = cfg.region_bytes / cfg.unit_bytes in
  let regions = ((total_units - 1) / region_units) + 1 in
  let t =
    {
      cfg;
      total_units;
      sizes;
      top;
      free = Array.map (fun s -> Bitset.create ((total_units + s - 1) / s)) sizes;
      counts = Array.init (top + 1) (fun _ -> Array.make regions 0);
      free_units = total_units;
      region_units;
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
