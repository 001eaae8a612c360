(* Monotonic wall-clock time for the analysis engine.

   [Sys.time] reports *CPU* time summed over every running thread, which
   both stalls (while blocked) and over-counts (once analyses fan out
   across OCaml 5 domains).  Elapsed-time reporting must use a monotonic
   wall clock instead; the C stub below (shipped with bechamel's
   monotonic_clock library) wraps clock_gettime(CLOCK_MONOTONIC). *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let elapsed_s ~since = now_s () -. since
