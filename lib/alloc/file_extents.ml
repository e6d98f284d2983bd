module Vec = Rofs_util.Vec

(* [ends] mirrors [extents]: ends.(i) is the cumulative unit count
   through extent i, i.e. the logical offset one past extent i. *)
type t = { extents : Extent.t Vec.t; ends : int Vec.t }

let create () = { extents = Vec.create (); ends = Vec.create () }

(* Read in place: this runs on every grow step, slice and probe, so it
   must not box an option. *)
let allocated_units t =
  let n = Vec.length t.ends in
  if n = 0 then 0 else Vec.get t.ends (n - 1)

let push t extent =
  let total = allocated_units t + extent.Extent.len in
  Vec.push t.extents extent;
  Vec.push t.ends total

let count t = Vec.length t.extents

let get t i = Vec.get t.extents i

let offset t i = if i = 0 then 0 else Vec.get t.ends (i - 1)

let truncate t n =
  Vec.truncate t.extents n;
  Vec.truncate t.ends n

let to_list t = Vec.to_list t.extents

let relocate t f =
  Vec.iteri
    (fun i e ->
      match f e with
      | Some addr -> Vec.set t.extents i { e with Extent.addr }
      | None -> ())
    t.extents

(* Least index whose cumulative end exceeds [off] — the extent holding
   logical unit [off]. *)
let index_of_offset t off =
  let n = Vec.length t.ends in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Vec.get t.ends mid > off then search lo mid else search (mid + 1) hi
    end
  in
  search 0 n

let slice t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "File_extents.slice";
  let total = allocated_units t in
  let off = min off total in
  let stop = min (off + len) total in
  if stop <= off then []
  else begin
    let rec collect i pos acc =
      (* [pos] is the logical offset of the start of extent [i]. *)
      if pos >= stop || i >= Vec.length t.extents then List.rev acc
      else begin
        let e = Vec.get t.extents i in
        let lo = max off pos in
        let hi = min stop (pos + e.Extent.len) in
        let acc =
          if hi > lo then Extent.sub e ~off:(lo - pos) ~len:(hi - lo) :: acc else acc
        in
        collect (i + 1) (pos + e.Extent.len) acc
      end
    in
    let first = index_of_offset t off in
    collect first (offset t first) []
  end
