(** The proof-invariant catalogue of Section 2.2 as executable checks:
    queue well-formedness, the Benno-scheduling invariant, the bitmap
    mirror, object alignment and non-overlap, derivation-tree shape,
    shadow back-pointer consistency, kernel global mappings, and clearing
    completeness.  Property tests run {!check} after every kernel entry. *)

exception Violation of string

val check : Kernel.t -> unit
(** Run the whole catalogue.  @raise Violation at the first failure. *)

val check_result : Kernel.t -> (unit, string list) Result.t
(** Run the whole catalogue to the end and return {e every} violation
    (one per failing check, prefixed with the check's name), so failure
    reports show the complete damage rather than only the first hit. *)

val catalogue : (string * (Kernel.t -> unit)) list
(** The named checks, in the order {!check} runs them. *)

(** Individual checks, for targeted tests: *)

val check_run_queues : Kernel.t -> unit

val check_affinity : Kernel.t -> unit
(** SMP migration invariant: the current thread and every queued thread
    belong to this kernel's core ({!Kernel.t.cpu_id}); threads never
    migrate, so affinity is fixed at creation. *)

val check_endpoints : Kernel.t -> unit
val check_notifications : Kernel.t -> unit
val check_alignment : Kernel.t -> unit
val check_cdt : Kernel.t -> unit
val check_shadow_tables : Kernel.t -> unit
val check_kernel_mappings : Kernel.t -> unit
val check_cleared : Kernel.t -> unit
