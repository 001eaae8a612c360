(** The preemption-schedule campaign: one checker for the restart safety
    of every preemption point of the four long-running operations
    (Sections 3.3-3.6).

    A schedule places preemptions at chosen poll indices (not cycles, so
    it replays identically across scheduler variants) and runs a
    client action — a signal, a notification poll, a re-queueing send on
    the endpoint under abort, or nothing (a "pause") — in the window each
    preemption opens, before the operation restarts.  Per operation
    ({!Race.op}) the campaign runs the uninterrupted baselines under
    the three scheduler variants (which must agree on poll count and
    digest), the sweep (a pause at each poll alone, then a pause at every
    poll; each must reach the baseline digest), and DPOR over the
    operation's client-action alphabet.

    DPOR prunes the schedule space with the static interference relation
    of [Race]: actions whose footprints commute (no semantic conflict)
    with the operation's sections, the IRQ-delivery path and every other
    action are slid to a canonical placement, and only canonical
    schedules run; conflicting actions are decisions, explored in every
    placement and order.

    Every schedule is judged by one oracle: invariants after each kernel
    exit, strict decrease of the progress measure between consecutive
    preemptions, and agreement of the final states across the three
    scheduler variants.  DPOR deduplicates final states by canonical
    digest for counting only.  Failures are shrunk to a 1-minimal
    schedule ({!shrink}) and carry an {!Obs.Trace} timeline of
    the replayed failure.

    The same replay serves the footprint audit ({!audit}): a CPU tracer
    observes the preempt-everywhere schedule and checks every data access
    against [Race]'s declared section footprints. *)

(** {1 Workloads} *)

type sizes = {
  sz_waiters : int;  (** blocked senders queued for deletion *)
  sz_abort_waiters : int;  (** blocked badged senders *)
  sz_frame_bits : int;  (** retyped frame size (cleared in chunks) *)
  sz_ptes : int;  (** small pages mapped through the page table *)
  sz_sections : int;  (** 1 MiB sections mapped in the directory *)
}

val sizes : sizes
(** The campaign workload: what the audit replays and the sweep runs. *)

type driver = {
  d_event : Sel4.Kernel.event;  (** the long-running operation *)
  d_initiator : Sel4.Ktypes.tcb;  (** thread that issues (and restarts) it *)
  d_measure : unit -> int;
      (** progress toward completion; must strictly decrease between
          consecutive preemptions and reach 0 on completion *)
}

val setup : Sel4.Boot.env -> sizes -> Race.op -> driver
(** Populate a freshly booted environment with the operation's workload
    (parked senders, badged caps, mapped frames, ...) and return its
    driver.  Raises [Sel4.Boot.Boot_failure] if the setup syscalls fail. *)

val variants : base:Sel4.Build.t -> Race.op -> Sel4.Build.t list
(** The scheduler variants a schedule is differentially replayed under
    (lazy, Benno, Benno+bitmap), derived from [base] with preemption
    points forced on — and, for {!Race.Vspace_delete}, the shadow vspace
    design, the only one with preemptible teardown. *)

(** {1 Actions} *)

type action = {
  act_name : string;
  act_fp : Race.footprint;
      (** semantic footprint; instances are root-CNode slot indices *)
  act_actor_slot : int;  (** root-CNode slot of the acting thread's TCB *)
  act_event : Sel4.Kernel.event option;
      (** [None]: the preemption alone ("pause") *)
}

val actions_for : Race.op -> action list
(** The operation's client-action alphabet.  Empty for
    {!Race.Retype_clear} and {!Race.Vspace_delete}: they get the
    baselines and the sweep only. *)

val independent_actions : Race.op -> action list -> string list
(** Names of the globally-independent actions of an alphabet: those that
    commute, on digest-visible state, with every operation section and
    with every other action. *)

(** {1 Schedules} *)

type sched = (int * action) list
(** Sorted by poll index; distinct polls, distinct actions. *)

val universe : polls:int -> depth:int -> action list -> sched list
(** Every schedule of at most [depth] (poll, action) pairs over poll
    indices [1..polls]. *)

val canonical : polls:int -> indep:string list -> sched -> bool
(** Is this schedule its equivalence class's canonical representative?
    The globally-independent actions, taken in name order, must occupy
    the smallest polls left free by the decision actions.  Sliding an
    independent action to its canonical poll crosses only sections and
    actions it commutes with, so every class keeps exactly one canonical
    member. *)

(** {1 Reports} *)

type failure = {
  x_variant : string;  (** scheduler variant, ["differential"] or ["planted"] *)
  x_schedule : (int * string) list;  (** (poll, action) as first observed *)
  x_min_schedule : (int * string) list;  (** 1-minimal after shrinking *)
  x_reason : string;
  x_timeline : string;  (** rendered {!Obs.Trace} timeline of a replay *)
}

val shrink : fails:('a list -> bool) -> 'a list -> 'a list
(** Greedy one-at-a-time reduction of a failing schedule to a 1-minimal
    one: removing any single remaining element no longer fails.
    Precondition: [fails schedule]. *)

type op_report = {
  e_op : Race.op;
  e_points : int;
      (** H: polls of the uninterrupted run at campaign sizes (the sweep) *)
  e_runs : int;  (** replays executed, shrinking included *)
  e_max_restarts : int;  (** worst restart count over all replays *)
  e_depth : int;  (** DPOR depth bound *)
  e_polls : int;  (** polls of the DPOR reference run (DPOR's smaller sizes) *)
  e_alphabet : string list;
  e_independent : string list;
  e_universe : int;
  e_explored : int;
  e_pruned : int;
  e_deduped : int;  (** explored schedules converging on a seen digest *)
  e_digest_classes : int;
  e_digests : ((int * string) list * string) list;
      (** explored schedule -> final digest *)
  e_failures : failure list;
}

type report = {
  x_depth : int;
  x_ops : op_report list;  (** one per {!Race.ops} *)
  x_total_runs : int;
}

val run_op :
  ?naive:bool ->
  ?planted:(sched -> string option) ->
  depth:int ->
  Sel4_rt.Analysis_ctx.t ->
  Race.op ->
  op_report
(** The campaign for one operation: baselines, sweep (at
    {!sizes}) and DPOR at [depth] (at smaller sizes of its own).  The
    context supplies the base build (each scheduler variant is derived
    from it) and the hardware configuration failures are traced under.
    A failing baseline is a recorded failure and ends the operation's
    campaign.  [naive] disables DPOR pruning and replays DPOR schedules
    under the first variant only — the full-enumeration reference the
    pruning-soundness test compares digest sets against.  [planted] is a
    test-only fault oracle: a schedule it returns [Some reason] for is
    treated as failing, the hook the shrinker tests plant bugs with. *)

val run : ?depth:int -> Sel4_rt.Analysis_ctx.t -> report
(** The campaign over all four operations, DPOR at [depth] (default 3;
    badged_abort at [<= 2]).
    @raise Invalid_argument if [depth < 1]. *)

val ok : report -> bool
val pp_report : report Fmt.t

val to_json : report -> Obs.Json.t
(** [campaign], [depth], [ok], [total_runs], and an [ops] array
    with per-operation counts and [failures]. *)

(** {1 Footprint audit} *)

val audit :
  ?catalogue:Race.section list ->
  ?ops:Race.op list ->
  Sel4_rt.Analysis_ctx.t ->
  Race.audit_report
(** Replay each operation under every scheduler variant with a pause at
    every poll (the sweep's preempt-everywhere schedule, at {!sizes}) on
    a {!Hw.Config.default} CPU whose tracer observes the driver's kernel
    entries, and check every data access with {!Race.audit_add}.
    [catalogue] substitutes a corrupted table — the hook the
    planted-violation tests use.
    @raise Invalid_argument if a replay fails. *)
