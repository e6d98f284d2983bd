(* Fixed-boundary log-bucketed histogram (see hist.mli for the scheme).
   Values are floats scaled by 1000 and truncated to int ("milli-units");
   bucket [i] of octave [e] covers a [2^e]-wide slice, 32 slices per
   octave, so boundaries depend only on the index — the precondition for
   partition-invariant merging. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 linear sub-buckets per octave *)

(* Position of the highest set bit; [msb 1 = 0]. *)
let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < 0 then invalid_arg "Hist.index_of: negative value";
  if v < sub_count then v
  else begin
    let exp = msb v - sub_bits in
    (exp * sub_count) + (v lsr exp)
  end

let bucket_count = index_of max_int + 1

let bucket_lower i =
  if i < 0 || i >= bucket_count then invalid_arg "Hist.bucket_lower: index out of range";
  if i < 2 * sub_count then i
  else begin
    let exp = (i / sub_count) - 1 in
    (i - (exp * sub_count)) lsl exp
  end

(* Exclusive upper bound: the next bucket's lower bound. *)
let bucket_upper i = if i + 1 >= bucket_count then max_int else bucket_lower (i + 1)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable minimum : float; (* exact; meaningless when n = 0 *)
  mutable maximum : float;
}

let create () =
  { counts = Array.make bucket_count 0; n = 0; sum = 0.; minimum = 0.; maximum = 0. }

let scale = 1000.

let add t x =
  let x = if Float.is_nan x || x < 0. then 0. else x in
  let v =
    let scaled = x *. scale in
    if scaled >= float_of_int max_int then max_int else int_of_float scaled
  in
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sum <- t.sum +. x;
  if t.n = 0 then begin
    t.minimum <- x;
    t.maximum <- x
  end
  else begin
    if x < t.minimum then t.minimum <- x;
    if x > t.maximum then t.maximum <- x
  end;
  t.n <- t.n + 1

(* Bulk add: [k] identical samples in one bucket update.  Used by the
   timeline's free-extent snapshots, where the allocator reports
   (size, count) pairs and adding one-by-one would be O(total extents). *)
let add_n t x k =
  if k < 0 then invalid_arg "Hist.add_n: negative count";
  if k > 0 then begin
    let x = if Float.is_nan x || x < 0. then 0. else x in
    let v =
      let scaled = x *. scale in
      if scaled >= float_of_int max_int then max_int else int_of_float scaled
    in
    let i = index_of v in
    t.counts.(i) <- t.counts.(i) + k;
    t.sum <- t.sum +. (x *. float_of_int k);
    if t.n = 0 then begin
      t.minimum <- x;
      t.maximum <- x
    end
    else begin
      if x < t.minimum then t.minimum <- x;
      if x > t.maximum then t.maximum <- x
    end;
    t.n <- t.n + k
  end

let count t = t.n
let is_empty t = t.n = 0
let total t = t.sum
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then None else Some t.minimum
let max_value t = if t.n = 0 then None else Some t.maximum

let quantile t q =
  if t.n = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (min t.n (int_of_float (Float.ceil (q *. float_of_int t.n)))) in
    let rec walk i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank then float_of_int (bucket_lower i) /. scale else walk (i + 1) cum
    in
    walk 0 0
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let copy t =
  {
    counts = Array.copy t.counts;
    n = t.n;
    sum = t.sum;
    minimum = t.minimum;
    maximum = t.maximum;
  }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let counts = Array.copy a.counts in
    Array.iteri (fun i c -> if c <> 0 then counts.(i) <- counts.(i) + c) b.counts;
    {
      counts;
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      minimum = Float.min a.minimum b.minimum;
      maximum = Float.max a.maximum b.maximum;
    }
  end

let buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.counts.(i) <> 0 then
      acc :=
        ( float_of_int (bucket_lower i) /. scale,
          float_of_int (bucket_upper i) /. scale,
          t.counts.(i) )
        :: !acc
  done;
  !acc
