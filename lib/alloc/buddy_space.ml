module Bitset = Rofs_util.Bitset

type t = {
  total_units : int;
  sizes : int array;
  top : int;
  free : Bitset.t array;
  mutable free_units : int;
}

let add t k addr = Bitset.set t.free.(k) (addr / t.sizes.(k))
let remove t k addr = Bitset.clear t.free.(k) (addr / t.sizes.(k))

(* Greedy aligned decomposition of the address space into the largest
   blocks that fit, seeding the free bitmaps. *)
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

let create ~sizes ~total_units =
  let t =
    {
      total_units;
      sizes;
      top = Array.length sizes - 1;
      free = Array.map (fun s -> Bitset.create ((total_units + s - 1) / s)) sizes;
      free_units = total_units;
    }
  in
  seed t;
  t

let is_free t k addr =
  addr >= 0 && addr < t.total_units && Bitset.mem t.free.(k) (addr / t.sizes.(k))

let sequential t k fx =
  let n = File_extents.count fx in
  if n = 0 then -1
  else
    let stop = File_extents.addr fx (n - 1) + File_extents.len fx (n - 1) in
    if stop mod t.sizes.(k) = 0 then stop else -1

(* Lowest free tier-k address in [lo, hi), or -1.  The searches below
   are top-level functions so that they allocate no closures. *)
let first_free t k ~lo ~hi =
  let s = t.sizes.(k) in
  let i = Bitset.first_set_in t.free.(k) ~lo:((lo + s - 1) / s) ~hi:((hi + s - 1) / s) in
  if i >= 0 then i * s else -1

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
   [addr]; the remainder re-enters the free bitmaps as maximal aligned
   pieces (the standard multi-level buddy split). *)
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

let alloc_in_window t k ~lo ~hi ~prefer =
  let addr = find_in t k ~lo ~hi ~prefer in
  if addr >= 0 then begin
    take t k addr;
    addr
  end
  else split_in_window t k (k + 1) ~lo ~hi ~prefer

let alloc_anywhere t k ~prefer = alloc_in_window t k ~lo:0 ~hi:t.total_units ~prefer

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

let give t k addr =
  coalesce t k addr;
  t.free_units <- t.free_units + t.sizes.(k)

let rec tier_of_size t units k = if t.sizes.(k) = units then k else tier_of_size t units (k + 1)

let free_units t = t.free_units

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
