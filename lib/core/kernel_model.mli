(** WCET timing skeletons: the static-analysis view of the kernel.

    Declarative CFGs of each kernel entry point, built from the same cost
    constants ({!Sel4.Costs}) and code-region addresses ({!Sel4.Layout})
    the executable kernel charges, so computed-vs-observed gaps arise only
    from the paper's sources (conservative cache model, infeasible paths).

    Preemptible loops are bounded by the work between preemption points —
    one unit with preemption points enabled, the full structure in the
    "before" kernel (Sections 5.2-5.3 path semantics). *)

type params = {
  decode_depth : int;  (** capability-space levels (Figure 7) *)
  msg_words : int;  (** message registers copied per IPC phase *)
  extra_caps : int;  (** capabilities granted per IPC *)
  max_frame_bits : int;  (** largest object retyped in the scenario *)
  max_ep_waiters : int;  (** endpoint queue length bound *)
  max_parked : int;  (** stale threads lazy scheduling can park *)
  preemptible_call : bool;
      (** Section 6.1's suggested preemption point between the send and
          receive phases of the atomic call *)
}

val default_params : params

type entry_point = Syscall | Interrupt | Page_fault | Undefined_instruction

val entry_points : entry_point list
val entry_name : entry_point -> string

val entry_main : entry_point -> string
(** The CFG function name of the entry's main program (the [~main]
    argument of {!constraint_report}). *)

val spec : ?params:params -> Sel4.Build.t -> entry_point -> Wcet.Ipet.spec
(** The complete analysis input: inlinable program, loop bounds (some
    computed by the {!Kernel_loops} pipeline), the manual constraints of
    Section 5.2, and the constraints {!Wcet.Derive_constraints} derives
    from the decision models. *)

val decision_models :
  params -> Sel4.Build.t -> main:string -> Wcet.Derive_constraints.model list
(** The Section 5.2 decision models {!spec} derives constraints from,
    for the entry whose main program is [main]. *)

val constraint_report :
  ?params:params -> main:string -> unit -> Wcet.Derive_constraints.report
(** Derive constraints from the decision models and audit every manual
    constraint against them (Proved / Refuted / Unknown, with evidence).
    Covers what any build states, the lazy scheduler's stale-dequeue cap
    included. *)

val realisable_path : ?params:params -> entry_point -> (string * string * int) list
(** Block execution counts of the path the adversarial workload actually
    exercises, for path-forced analysis (Figure 8). *)
