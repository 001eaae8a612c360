(** Kernel build configuration: the paper's "before" and "after" kernels
    as switches over the same code base, enabling Table 2's comparison and
    per-dimension ablations. *)

type sched_variant =
  | Lazy  (** Figure 2: blocked threads parked in the run queues *)
  | Benno  (** Figure 3: only runnable threads queued (Section 3.1) *)
  | Benno_bitmap  (** plus the two-level CLZ priority bitmap (Section 3.2) *)

type vspace_model =
  | Asid_table  (** the original indirection with harmless stale ASIDs *)
  | Shadow_tables  (** eager back-pointers from mappings to frame caps *)

type t = {
  sched : sched_variant;
  vspace : vspace_model;
  preemption_points : bool;  (** Sections 3.3-3.6 preemption points *)
  preempt_chunk : int;  (** bytes cleared/copied between preemption points *)
}

val original : t
(** The "before" kernel of Table 2: lazy scheduling, ASID table, no
    preemption points. *)

val improved : t
(** The "after" kernel: Benno + bitmap, shadow tables, preemption points. *)

val sched_name : sched_variant -> string
(** ["lazy"], ["benno"], ["benno_bitmap"]: the name a variant goes by in
    campaign labels, soak run labels and analysis-cache keys.  {!pp}
    keeps its own display text. *)

val pp : t Fmt.t
