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
  free : Buddy_space.t;
  region_units : int;
  regions : int;
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

(* Section 4.2's region selection: the window search on the optimal
   region first, then over the whole disk ("an exact-size block
   anywhere, preferring the sequential address, then a split
   anywhere").  A region is a whole number of top-tier blocks, so every
   block lies in exactly one region. *)
let alloc_clustered t k ~optimal_region ~prefer =
  let lo = optimal_region * t.region_units in
  let hi = min t.free.total_units (lo + t.region_units) in
  let addr = Buddy_space.alloc_in_window t.free k ~lo ~hi ~prefer in
  if addr >= 0 then addr else Buddy_space.alloc_anywhere t.free k ~prefer

let give t f ~addr ~len =
  let k = Buddy_space.tier_of_size t.free len 0 in
  f.tier_totals.(k) <- f.tier_totals.(k) - len;
  Buddy_space.give t.free k addr

(* Tier whose blocks the file should allocate next, searched from tier
   [i] up: advance past tier i once the file holds
   grow_factor * sizes.(i+1) units in tier-i blocks.  This and the
   tier search below are top-level functions, so that each block taken
   builds no closure. *)
let rec tier_of t f i =
  let b = t.free in
  if i >= b.top then b.top
  else if f.tier_totals.(i) < t.cfg.grow_factor * b.sizes.(i + 1) then i
  else tier_of t f (i + 1)

let new_file t ~hint:_ =
  let fd_region = t.next_fd_region in
  t.next_fd_region <- (t.next_fd_region + 1) mod t.regions;
  { tier_totals = Array.make (t.free.top + 1) 0; fd_region }

let allocate_block t fx f k =
  let prefer = Buddy_space.sequential t.free k fx in
  if t.cfg.clustered then begin
    let n = File_extents.count fx in
    let optimal_region =
      if n = 0 then f.fd_region else File_extents.addr fx (n - 1) / t.region_units
    in
    alloc_clustered t k ~optimal_region ~prefer
  end
  else Buddy_space.alloc_anywhere t.free k ~prefer

(* Largest tier, from tier [k] down, whose block size does not exceed
   [limit]; tier 0 at least. *)
let rec floor_tier t limit k =
  if k = 0 then 0 else if t.free.sizes.(k) <= limit then k else floor_tier t limit (k - 1)

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
        (max
           (floor_tier t (target - allocated) t.free.top)
           (floor_tier t (allocated / 8) t.free.top))
    else tier_of t f 0
  in
  let addr = allocate_block t fx f k and size = t.free.sizes.(k) in
  if addr < 0 then false
  else begin
    f.tier_totals.(k) <- f.tier_totals.(k) + size;
    File_extents.push fx ~addr ~len:size;
    true
  end

let create cfg ~total_units =
  validate cfg;
  let sizes = Array.of_list (List.map (fun b -> b / cfg.unit_bytes) cfg.block_sizes_bytes) in
  if total_units <= 0 then invalid_arg "Restricted_buddy.create";
  let region_units = cfg.region_bytes / cfg.unit_bytes in
  let t =
    {
      cfg;
      free = Buddy_space.create ~sizes ~total_units;
      region_units;
      regions = ((total_units - 1) / region_units) + 1;
      next_fd_region = 0;
    }
  in
  let name =
    Printf.sprintf "restricted-buddy(%d sizes, g=%d, %s)" (Array.length sizes) cfg.grow_factor
      (if cfg.clustered then "clustered" else "unclustered")
  in
  Policy.make ~name ~unit_bytes:cfg.unit_bytes ~total_units ~new_file
    ~take:(fun st ~file:_ f ~target -> take_block st.Policy.space f.Policy.fx f.Policy.data ~target)
    ~give
    ~free_units:(fun t -> Buddy_space.free_units t.free)
    ~largest_free:(fun t -> Buddy_space.largest_free t.free)
    ~free_hist:(fun t -> Buddy_space.free_hist t.free)
    t
