(* Wall time from the kernel's monotonic clock, in nanoseconds since an
   arbitrary origin (bechamel's CLOCK_MONOTONIC stub). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
