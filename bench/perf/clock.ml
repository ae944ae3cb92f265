(* Monotonic clock in seconds, nanosecond resolution: span and latency
   timings must not jump with the wall clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
