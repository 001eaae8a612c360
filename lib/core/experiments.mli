(** The paper's evaluation, section by section.  Expected shapes and the
    output of every section are documented in EXPERIMENTS.md. *)

val sections : (string * (unit -> unit)) list
(** Each paper section by its [sel4rt repro] name, in the paper's order:
    a thunk that computes the section's table or figure and prints it in
    the paper's layout. *)

val loop_bounds : unit -> Kernel_loops.result list
(** The Section 5.3 kernel loop bounds at the default kernel parameters
    (the [loopbounds] section). *)
