type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations, per Welford *)
  mutable minimum : float;
  mutable maximum : float;
  mutable sum : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; minimum = nan; maximum = nan; sum = 0. }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.minimum <- x;
    t.maximum <- x
  end
  else begin
    if x < t.minimum then t.minimum <- x;
    if x > t.maximum then t.maximum <- x
  end

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then None else Some t.minimum
let max_value t = if t.n = 0 then None else Some t.maximum
let total t = t.sum
let copy t = { n = t.n; mean = t.mean; m2 = t.m2; minimum = t.minimum; maximum = t.maximum; sum = t.sum }

(* Chan et al. pairwise combination of two Welford accumulators.  Count,
   sum and extrema combine exactly; mean and m2 agree with a single-pass
   [add] stream algebraically but not bit-for-bit (the update order
   differs), so callers that need bit-stable aggregates must fold [add]
   in a fixed sample order instead. *)
let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = na +. nb in
    let delta = b.mean -. a.mean in
    {
      n = a.n + b.n;
      mean = a.mean +. (delta *. (nb /. n));
      m2 = a.m2 +. b.m2 +. (delta *. delta *. (na *. nb /. n));
      minimum = Float.min a.minimum b.minimum;
      maximum = Float.max a.maximum b.maximum;
      sum = a.sum +. b.sum;
    }
  end

module Series = struct
  type t = {
    window : int;
    tolerance : float;
    mutable samples : float list; (* newest first *)
  }

  let create ~window ~tolerance =
    assert (window >= 2 && tolerance >= 0.);
    { window; tolerance; samples = [] }

  let add t x = t.samples <- x :: t.samples

  let last t = match t.samples with [] -> None | x :: _ -> Some x

  let is_stable t =
    let rec take n xs =
      match (n, xs) with
      | 0, _ -> Some []
      | _, [] -> None
      | n, x :: rest -> Option.map (fun tail -> x :: tail) (take (n - 1) rest)
    in
    match take t.window t.samples with
    | None -> false
    | Some recent ->
        let lo = List.fold_left Float.min infinity recent in
        let hi = List.fold_left Float.max neg_infinity recent in
        hi -. lo <= t.tolerance
end
