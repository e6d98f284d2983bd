(* Extent i is [addrs.(i), addrs.(i) + ends.(i) - offset i): [ends.(i)]
   is the cumulative unit count through extent i, i.e. the logical
   offset one past it.  Slots [n ..] of both arrays are spare capacity. *)
type t = { mutable addrs : int array; mutable ends : int array; mutable n : int }

let create () = { addrs = [||]; ends = [||]; n = 0 }

let count t = t.n

let allocated_units t = if t.n = 0 then 0 else t.ends.(t.n - 1)

let check t i = if i < 0 || i >= t.n then invalid_arg "File_extents: index out of bounds"

let offset t i =
  check t i;
  if i = 0 then 0 else t.ends.(i - 1)

let addr t i =
  check t i;
  t.addrs.(i)

let len t i = t.ends.(i) - offset t i

let set_addr t i a =
  check t i;
  t.addrs.(i) <- a

(* Reallocate both arrays together, so they always share one
   capacity. *)
let resize t capacity =
  let addrs = Array.make capacity 0 and ends = Array.make capacity 0 in
  Array.blit t.addrs 0 addrs 0 t.n;
  Array.blit t.ends 0 ends 0 t.n;
  t.addrs <- addrs;
  t.ends <- ends

let push t ~addr ~len =
  if addr < 0 || len <= 0 then invalid_arg "File_extents.push";
  if t.n = Array.length t.addrs then resize t (max 4 (2 * Array.length t.addrs));
  t.addrs.(t.n) <- addr;
  t.ends.(t.n) <- allocated_units t + len;
  t.n <- t.n + 1

(* [capacity] halved, down to 4, while [n] fills at most an eighth of
   it.  A truncated table is then at most a quarter full, so pushes and
   truncates that alternate around one size do not copy at every step. *)
let rec shrunk capacity n =
  if capacity > 4 && 8 * n <= capacity then shrunk (capacity / 2) n else capacity

let truncate t n =
  if n < 0 || n > t.n then invalid_arg "File_extents.truncate";
  t.n <- n;
  let capacity = shrunk (Array.length t.addrs) n in
  if capacity < Array.length t.addrs then resize t capacity

let to_list t =
  List.init t.n (fun i -> { Extent.addr = t.addrs.(i); len = len t i })

(* Least index whose cumulative end exceeds [off]: the extent holding
   logical unit [off]. *)
let rec search ends off lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if ends.(mid) > off then search ends off lo mid else search ends off (mid + 1) hi
  end

let slice t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "File_extents.slice";
  let total = allocated_units t in
  let off = min off total in
  let stop = min (off + len) total in
  if stop <= off then []
  else begin
    let first = search t.ends off 0 t.n in
    let last = ref first in
    while t.ends.(!last) < stop do
      incr last
    done;
    (* Every extent in [first .. last] meets [off, stop); build the list
       back to front so it comes out in logical order. *)
    let acc = ref [] in
    for i = !last downto first do
      let pos = if i = 0 then 0 else t.ends.(i - 1) in
      let lo = max off pos and hi = min stop t.ends.(i) in
      acc := { Extent.addr = t.addrs.(i) + (lo - pos); len = hi - lo } :: !acc
    done;
    !acc
  end
