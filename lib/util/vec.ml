type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let push t x =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh = Array.make (max 8 (2 * capacity)) x in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i = if i < 0 || i >= t.size then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let truncate t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate";
  t.size <- n
