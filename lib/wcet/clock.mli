(** Monotonic wall clock (nanosecond C stub), for timing analyses that may
    run concurrently on several domains — [Sys.time] is CPU time and would
    over-count there. *)

val now_s : unit -> float
val elapsed_s : since:float -> float
