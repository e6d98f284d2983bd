type t = { addr : int; len : int }

let make ~addr ~len =
  if addr < 0 || len <= 0 then invalid_arg "Extent.make";
  { addr; len }

let end_ e = e.addr + e.len

let contains e u = u >= e.addr && u < end_ e

let sub e ~off ~len =
  if off < 0 || len <= 0 || off + len > e.len then invalid_arg "Extent.sub";
  { addr = e.addr + off; len }

let equal a b = a.addr = b.addr && a.len = b.len
