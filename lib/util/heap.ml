(* Classic array-backed binary min-heap, stored as two parallel arrays:
   an unboxed float array for the priorities and a plain array for the
   values.  Slot 0 is the root; [size] tracks the live prefix so that
   pops do not shrink the backing store.

   The split layout is what makes the simulator's hot loop allocation
   free: pushing stores a float into a flat float array and a pointer
   into a value array (no (prio, value) entry record), and the
   {!min_prio} / {!take_min} pair pops without building the
   [Some (prio, value)] tuple that {!pop} returns.

   The sift routines compare and swap exactly as the old entry-record
   implementation did — same [<] comparisons in the same order — so the
   order in which equal-priority elements surface is unchanged, which
   the engine's frozen goldens depend on. *)

type 'a t = {
  mutable prios : float array;
  mutable data : 'a array;
  mutable size : int;
}

let create () = { prios = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Capacity grows lazily: the first pushed value seeds the fresh value
   array (there is no dummy element), exactly as the old implementation
   filled [Array.make] with the incoming entry. *)
let reserve t value extra =
  let capacity = Array.length t.prios in
  if t.size + extra > capacity then begin
    let fresh_cap = max 16 (max (t.size + extra) (2 * capacity)) in
    let fresh_prios = Array.make fresh_cap 0. in
    let fresh_data = Array.make fresh_cap value in
    Array.blit t.prios 0 fresh_prios 0 t.size;
    Array.blit t.data 0 fresh_data 0 t.size;
    t.prios <- fresh_prios;
    t.data <- fresh_data
  end

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let v = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prios.(i) < t.prios.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let size = t.size in
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = if left < size && t.prios.(left) < t.prios.(i) then left else i in
  let smallest =
    if right < size && t.prios.(right) < t.prios.(smallest) then right else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let push t ~prio value =
  reserve t value 1;
  t.prios.(t.size) <- prio;
  t.data.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Non-allocating pop: read {!min_prio}, then {!take_min}. *)
let min_prio t =
  if t.size = 0 then invalid_arg "Heap.min_prio: empty heap";
  t.prios.(0)

let take_min t =
  if t.size = 0 then invalid_arg "Heap.take_min: empty heap";
  let root = t.data.(0) in
  t.size <- t.size - 1;
  t.prios.(0) <- t.prios.(t.size);
  t.data.(0) <- t.data.(t.size);
  if t.size > 0 then sift_down t 0;
  root

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) in
    let value = take_min t in
    Some (prio, value)
  end

let clear t = t.size <- 0
