(** Response-time analysis driver: computed (IPET) and observed
    (adversarial execution) worst cases per kernel entry point.

    The headline quantity follows Section 6: worst-case interrupt
    response = WCET of the longest kernel operation (the system-call
    path) + WCET of the interrupt path.

    All drivers take an {!Analysis_ctx.t}. *)

val computed : Analysis_ctx.t -> Kernel_model.entry_point -> Wcet.Ipet.result
val computed_cycles : Analysis_ctx.t -> Kernel_model.entry_point -> int

val computed_for_path : Analysis_ctx.t -> Kernel_model.entry_point -> int
(** Predicted time of the realisable path the workloads execute, obtained
    by forcing the ILP (Section 6.2); the Figure 8 numerator. *)

val interrupt_response_bound : Analysis_ctx.t -> int

val profile : Analysis_ctx.t -> Kernel_model.entry_point -> Obs.Bound_profile.t
(** Block-by-block decomposition of the entry point's computed bound
    (the optimal IPET basis); its {!Obs.Bound_profile.total} equals
    {!computed_cycles} exactly.  Cached like {!computed}. *)

val interrupt_response_profile : Analysis_ctx.t -> Obs.Bound_profile.t
(** Decomposition of the full response bound: the syscall-path profile
    followed by the interrupt-path profile; total equals
    {!interrupt_response_bound}. *)
