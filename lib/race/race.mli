(** Static interference analysis over preemption-delimited sections.

    Each preemption-delimited section of the four long-running operations
    (Sections 3.3-3.6) and the IRQ-delivery path declares a read/write
    footprint over abstract kernel state variables (endpoint queues, CDT,
    untyped watermarks, mapping entries, scheduler queues, per-TCB
    fields).  Two sections {e interfere} when their footprints overlap on
    a variable at least one writes; sections that do not interfere on
    digest-visible ({e semantic}) state commute, which is what the DPOR
    explorer ({!Explore}) prunes with.

    The declarations are not trusted: {!audit} replays every operation
    with an access recorder attached ({!Sel4.Ctx.set_access_hook}),
    preempting at every poll, and reports any recorded access that
    escapes the executing section's declared footprint. *)

(** {1 State variables} *)

type cls =
  | Tcb  (** per-TCB fields: state, restart flag, queue links, registers *)
  | Endpoint  (** endpoint queues, active flag, abort cursor *)
  | Notification  (** notification word, active flag, wait queue *)
  | Cap  (** capability slots: cap value and CDT parent *)
  | Cdt_links  (** CDT sibling/first-child links (digest-invisible) *)
  | Untyped  (** watermark and in-progress creation cursor *)
  | Frame  (** frame contents and clearing progress *)
  | Page_table  (** PTEs, shadow slots, mapping back-pointers *)
  | Page_dir  (** PDEs, shadow slots, ASID binding *)
  | Asid_pool  (** ASID pool entries *)
  | Asid_table  (** the global ASID lookup table *)
  | Sched_queues  (** run queues and priority bitmap *)
  | Cur_thread  (** the current-thread pointer *)
  | Irq_state  (** pending word and handler table *)
  | Kernel_stack  (** the single kernel stack *)

val all_classes : cls list
val cls_name : cls -> string

val semantic : cls -> bool
(** Is the variable rendered into the canonical state digest
    ({!Sel4.Digest.of_kernel})?  Scheduler bookkeeping, the CDT link
    order, IRQ words and the stack are not: they are invisible to a
    final-state comparison by design. *)

(** {1 Footprints} *)

type access = { a_cls : cls; a_obj : int option; a_write : bool }
(** [a_obj = None] means any instance of the class (the class-level
    catalogue); instantiated footprints name object ids. *)

type footprint = access list

val r : ?obj:int -> cls -> access
val w : ?obj:int -> cls -> access
val rw : ?obj:int -> cls -> footprint
val pp_access : access Fmt.t

val conflicts :
  ?semantic_only:bool -> footprint -> footprint -> (access * access) list
(** All pairs touching the same variable with at least one write.
    [semantic_only] restricts to digest-visible variables. *)

val independent : ?semantic_only:bool -> footprint -> footprint -> bool
(** [conflicts f1 f2 = []] — the two footprints commute. *)

(** {1 The section catalogue} *)

type section = {
  sec_name : string;  (** e.g. ["ep_delete.step"], ["irq.deliver"] *)
  sec_op : string option;  (** owning operation, [None] for the IRQ path *)
  sec_fp : footprint;
}

val catalogue : section list
(** Step and finalise sections of the four long-running operations, plus
    the IRQ-delivery path (unbound and bound-handler variants). *)

val section_exn : string -> section
(** Raises [Invalid_argument] for unknown names. *)

val interferes : ?semantic_only:bool -> section -> section -> cls list
(** The conflicting variable classes, deduplicated. *)

type pair = {
  p_left : string;
  p_right : string;
  p_classes : cls list;  (** conflicting classes, full relation *)
  p_semantic : cls list;  (** the digest-visible subset *)
}

val matrix : unit -> pair list
(** The pairwise interference relation over the catalogue (unordered
    pairs of distinct sections). *)

(** {1 Owicki-Gries non-interference report} *)

val ops : string list
val measure_reads : string -> cls list
(** The variable classes an operation's progress measure reads — the
    state whose perturbation could break the strict-decrease restart
    guarantee.  Raises [Invalid_argument] for unknown operations. *)

type og_row = {
  og_op : string;
  og_reads : cls list;
  og_perturbers : string list;
      (** foreign sections writing into the measure's read set: the
          interference an Owicki-Gries proof must reason about *)
  og_safe : string list;  (** foreign sections proven non-interfering *)
}

val og_report : unit -> og_row list

(** {1 Footprint audit} *)

type audit_violation = {
  av_section : string;
  av_cls : cls;
  av_write : bool;
  av_addr : int;
}

type audit_report = {
  ar_runs : int;  (** operation x scheduler-variant replays *)
  ar_entries : int;  (** preemption-delimited windows executed *)
  ar_accesses : int;  (** distinct (window, address, direction) accesses *)
  ar_violations : audit_violation list;
}

val audit :
  ?catalogue:section list ->
  ?ops:Inject.op list ->
  smoke:bool ->
  Sel4_rt.Analysis_ctx.t ->
  audit_report
(** Replay each operation under every scheduler variant, preempting at
    every poll so each kernel entry executes exactly one section, with
    the access recorder attached.  Every recorded access is classified
    (globals by the {!Sel4.Layout} map, objects by registered address
    range, smallest containing range first) and checked against the
    executing section's declared footprint.  [catalogue] substitutes a
    corrupted table — the hook the planted-violation tests use. *)

val audit_ok : audit_report -> bool

(** {1 Rendering} *)

val pp_matrix : unit Fmt.t
val pp_og : unit Fmt.t
val pp_audit : audit_report Fmt.t

val to_json : audit_report -> Obs.Json.t
(** The full analysis — sections, matrix, Owicki-Gries rows and the audit
    result — as a JSON object. *)
