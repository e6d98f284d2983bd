(* Bit [i] lives in chunk [i / chunk_bits]; inside a chunk, 63 bits to
   a word, so every bit of an OCaml [int] carries one flag.  A chunk is
   allocated when its first bit is set and then kept, so a bitset costs
   memory only where bits have been set.  [live.(c)] counts the set
   bits of chunk c, so a scan skips an empty chunk, allocated or not,
   in one step.  Every chunk below [low] is empty: [set] lowers it, and
   a scan that reaches [low] steps over the empty chunks there once and
   raises it past them, so scans from index 0 start at the lowest chunk
   that may hold a bit.  Everything is [int]s and [int] arrays, so a
   bitset holds no closure and marshals whole. *)
let bits = 63
let chunk_words = 64
let chunk_bits = bits * chunk_words

type t = {
  chunks : int array array;
  live : int array;  (** live.(c): set bits in chunk c *)
  length : int;
  mutable cardinal : int;
  mutable low : int;  (** every chunk below it is empty *)
}

let create n =
  assert (n >= 0);
  let nchunks = (n + chunk_bits - 1) / chunk_bits in
  {
    chunks = Array.make nchunks [||];
    live = Array.make nchunks 0;
    length = n;
    cardinal = 0;
    low = nchunks;
  }

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
    t.live.(c) <- t.live.(c) + 1;
    t.cardinal <- t.cardinal + 1;
    if c < t.low then t.low <- c
  end

let clear t i =
  check t i;
  let c = i / chunk_bits and o = i mod chunk_bits in
  let words = t.chunks.(c) in
  if Array.length words > 0 then begin
    let w = o / bits and mask = 1 lsl (o mod bits) in
    let word = words.(w) in
    if word land mask <> 0 then begin
      words.(w) <- word land lnot mask;
      t.live.(c) <- t.live.(c) - 1;
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

(* Lowest set index in [lo, hi), where [lo] lies in chunk [c]; an empty
   chunk stepped over at [low] raises [low] past it. *)
let rec scan_chunks t ~hi c lo =
  if lo >= hi then -1
  else begin
    let base = c * chunk_bits in
    let next = base + chunk_bits in
    if t.live.(c) = 0 then begin
      if c = t.low then t.low <- c + 1;
      scan_chunks t ~hi (c + 1) next
    end
    else begin
      let words = t.chunks.(c) and o = lo - base in
      let w = o / bits in
      let o =
        scan_words words ~last:((min hi next - 1 - base) / bits) w
          (words.(w) land (-1 lsl (o mod bits)))
      in
      if o >= 0 then if base + o < hi then base + o else -1 else scan_chunks t ~hi (c + 1) next
    end
  end

let first_set_in t ~lo ~hi =
  let lo = max lo (t.low * chunk_bits) and hi = min hi t.length in
  if lo >= hi || t.cardinal = 0 then -1 else scan_chunks t ~hi (lo / chunk_bits) lo

let first_set_from t i = first_set_in t ~lo:i ~hi:t.length

(* Index of the highest set bit of a non-zero word, by halving. *)
let highest_bit word =
  let w = ref word and n = ref 0 in
  if !w lsr 32 <> 0 then (n := 32; w := !w lsr 32);
  if !w lsr 16 <> 0 then (n := !n + 16; w := !w lsr 16);
  if !w lsr 8 <> 0 then (n := !n + 8; w := !w lsr 8);
  if !w lsr 4 <> 0 then (n := !n + 4; w := !w lsr 4);
  if !w lsr 2 <> 0 then (n := !n + 2; w := !w lsr 2);
  if !w lsr 1 <> 0 then !n + 1 else !n

(* Offset in its chunk of the highest set bit from word [w] (already
   masked as [word]) down through word [first], or -1. *)
let rec scan_words_down words ~first w word =
  if word <> 0 then (w * bits) + highest_bit word
  else if w <= first then -1
  else scan_words_down words ~first (w - 1) words.(w - 1)

(* Highest set index in [lo, hi), where [hi - 1] lies in chunk [c];
   nothing lies below chunk [low]. *)
let rec scan_chunks_down t ~lo c hi =
  if hi <= lo || c < t.low then -1
  else begin
    let base = c * chunk_bits in
    if t.live.(c) = 0 then scan_chunks_down t ~lo (c - 1) base
    else begin
      let words = t.chunks.(c) and o = hi - 1 - base in
      let w = o / bits in
      let o =
        scan_words_down words ~first:((max lo base - base) / bits) w
          (words.(w) land (-1 lsr (bits - 1 - (o mod bits))))
      in
      if o >= 0 then if base + o >= lo then base + o else -1
      else scan_chunks_down t ~lo (c - 1) base
    end
  end

let last_set_in t ~lo ~hi =
  let lo = max lo 0 and hi = min hi t.length in
  if lo >= hi || t.cardinal = 0 then -1 else scan_chunks_down t ~lo ((hi - 1) / chunk_bits) hi
