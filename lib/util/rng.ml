(* xoshiro256** 1.0 (Blackman & Vigna).  State is four non-zero 64-bit
   words; seeding runs the 64-bit splitmix generator over the user seed so
   that small seeds still yield well-mixed states. *)

(* The four state words live unboxed in one 32-byte buffer, read and
   written with [Bytes.get_int64_le] / [set_int64_le] (little-endian,
   so a marshalled generator means the same stream on every host): a
   draw keeps its words in registers and boxes no [int64], and copying
   or restoring a generator is one blit. *)
type t = Bytes.t

let[@inline] word t i = Bytes.get_int64_le t (i * 8)
let[@inline] set t i v = Bytes.set_int64_le t (i * 8) v

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let copy = Bytes.copy

let derive_seed ~seed ~stream =
  (* Mix the pair through splitmix64 so that (seed, 0), (seed, 1), ...
     land far apart even for adjacent seeds; the result is kept
     positive so it can be fed back into [create] or stored in configs
     that print seeds in decimal. *)
  let state = ref (Int64.of_int seed) in
  let a = splitmix64 state in
  let state = ref (Int64.logxor a (Int64.of_int stream)) in
  let b = splitmix64 state in
  Int64.to_int (Int64.shift_right_logical b 1)

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the output word, computed from the state
   before the state advances. *)
let[@inline] next t =
  let open Int64 in
  let s0 = word t 0 and s1 = word t 1 and s2 = word t 2 and s3 = word t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let split t =
  (* Seed the child from two parent outputs; mixing through splitmix64
     decorrelates the child stream from subsequent parent outputs. *)
  let state = ref (Int64.logxor (next t) (rotl (next t) 23)) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let float t =
  (* 53 high bits give a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* The smallest all-ones mask covering [n - 1]. *)
let rec widen n m = if m >= n - 1 then m else widen n ((m lsl 1) lor 1)

(* Rejection sampling over the low bits to avoid modulo bias.  [mask]
   fits in an [int], so masking after [to_int] keeps exactly the bits
   masking before it would. *)
let rec draw t n mask =
  let v = Int64.to_int (next t) land mask in
  if v < n then v else draw t n mask

let int t n =
  assert (n > 0);
  if n = 1 then 0 else draw t n (widen n 1)
