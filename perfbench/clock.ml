(* Host monotonic clock in nanoseconds.  The external is the one the
   bechamel.monotonic_clock library exports, redeclared here so every
   read stays unboxed and allocation-free in the timed paths. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let () = ignore (Monotonic_clock.now : unit -> int64)
let ns () = Int64.to_int (now_ns ())
let seconds ns = float_of_int ns *. 1e-9
