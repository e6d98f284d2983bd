type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let push t x =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh = Array.make (max 8 (2 * capacity)) x in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    t.size <- t.size - 1;
    Some t.data.(t.size)
  end

let check t i = if i < 0 || i >= t.size then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

let truncate t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate";
  t.size <- n
