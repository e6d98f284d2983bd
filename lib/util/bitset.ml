(* Bit [i] lives in chunk [i / chunk_bits]; inside a chunk, 63 bits to
   a word, so every bit of an OCaml [int] carries one flag.  A chunk is
   allocated when its first bit is set and then kept, so a bitset costs
   memory only where bits have been set; an unallocated chunk is the
   empty array, skipped whole by a scan.  Everything is [int] arrays,
   so a bitset holds no closure and marshals whole. *)
let bits = 63
let chunk_words = 64
let chunk_bits = bits * chunk_words

type t = { chunks : int array array; length : int; mutable cardinal : int }

let create n =
  assert (n >= 0);
  { chunks = Array.make ((n + chunk_bits - 1) / chunk_bits) [||]; length = n; cardinal = 0 }

let length t = t.length

let check t i = if i < 0 || i >= t.length then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  let words = t.chunks.(i / chunk_bits) and o = i mod chunk_bits in
  Array.length words > 0 && words.(o / bits) land (1 lsl (o mod bits)) <> 0

let set t i =
  check t i;
  let c = i / chunk_bits and o = i mod chunk_bits in
  let words =
    let words = t.chunks.(c) in
    if Array.length words > 0 then words
    else begin
      let fresh = Array.make chunk_words 0 in
      t.chunks.(c) <- fresh;
      fresh
    end
  in
  let w = o / bits and mask = 1 lsl (o mod bits) in
  let word = words.(w) in
  if word land mask = 0 then begin
    words.(w) <- word lor mask;
    t.cardinal <- t.cardinal + 1
  end

let clear t i =
  check t i;
  let words = t.chunks.(i / chunk_bits) and o = i mod chunk_bits in
  if Array.length words > 0 then begin
    let w = o / bits and mask = 1 lsl (o mod bits) in
    let word = words.(w) in
    if word land mask <> 0 then begin
      words.(w) <- word land lnot mask;
      t.cardinal <- t.cardinal - 1
    end
  end

let cardinal t = t.cardinal

(* Index of the lowest set bit of a non-zero word, by halving. *)
let lowest_bit word =
  let w = ref (word land -word) and n = ref 0 in
  if !w land 0xFFFFFFFF = 0 then (n := !n + 32; w := !w lsr 32);
  if !w land 0xFFFF = 0 then (n := !n + 16; w := !w lsr 16);
  if !w land 0xFF = 0 then (n := !n + 8; w := !w lsr 8);
  if !w land 0xF = 0 then (n := !n + 4; w := !w lsr 4);
  if !w land 0x3 = 0 then (n := !n + 2; w := !w lsr 2);
  if !w land 0x1 = 0 then !n + 1 else !n

(* Offset in its chunk of the lowest set bit from word [w] (already
   masked as [word]) through word [last], or -1.  The scans are
   top-level functions so that they allocate no closures. *)
let rec scan_words words ~last w word =
  if word <> 0 then (w * bits) + lowest_bit word
  else if w >= last then -1
  else scan_words words ~last (w + 1) words.(w + 1)

(* Lowest set index in [lo, hi), where [lo] lies in chunk [c]. *)
let rec scan_chunks t ~hi c lo =
  if lo >= hi then -1
  else begin
    let base = c * chunk_bits and words = t.chunks.(c) in
    let next = base + chunk_bits in
    let o =
      if Array.length words = 0 then -1
      else begin
        let o = lo - base in
        let w = o / bits in
        scan_words words ~last:((min hi next - 1 - base) / bits) w
          (words.(w) land (-1 lsl (o mod bits)))
      end
    in
    if o >= 0 then if base + o < hi then base + o else -1 else scan_chunks t ~hi (c + 1) next
  end

let first_set_in t ~lo ~hi =
  let lo = max lo 0 and hi = min hi t.length in
  if lo >= hi || t.cardinal = 0 then -1 else scan_chunks t ~hi (lo / chunk_bits) lo

let first_set_from t i = first_set_in t ~lo:i ~hi:t.length

let iter_set t f =
  let rec go i =
    let j = first_set_from t i in
    if j >= 0 then begin
      f j;
      go (j + 1)
    end
  in
  go 0
