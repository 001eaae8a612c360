(** Exhaustive preemption-point fault injection with differential
    scheduler checking.

    For each long-running kernel operation — endpoint deletion, badged-IPC
    abort, untyped retype with preemptible clearing, and address-space
    deletion — the campaign replays the operation injecting a timer
    interrupt at the k-th polled preemption point, for every k an
    uninterrupted reference run polls (an exhaustive single-injection
    sweep), plus seeded multi-interrupt schedules drawn from a splitmix
    PRNG.  Injection is by poll index, not by cycle count, so a schedule
    replays identically across scheduler variants.

    After every kernel exit the full {!Sel4.Invariants} catalogue runs,
    and the operation's progress measure (queued waiters, abort-scan
    length, uncleared bytes, live mappings) must strictly decrease between
    consecutive preemptions — the restart-progress guarantee of
    Sections 3.3-3.6.  The final kernel state is digested (queues, CDT,
    mappings, cleared ranges) and must agree across the lazy, Benno, and
    Benno+bitmap scheduler variants {e and} with the uninterrupted run.
    Failing schedules are shrunk to a 1-minimal injection schedule and
    reported with an {!Obs.Trace} timeline of the replayed failure. *)

(** {1 Operations under test} *)

type op =
  | Ep_delete  (** endpoint deletion, one dequeue per point (§3.3) *)
  | Badged_abort  (** badged-send cancellation, cursor on the endpoint (§3.4) *)
  | Retype_clear  (** retype with chunked object clearing (§3.5) *)
  | Vspace_delete  (** shadow address-space teardown, per-entry points (§3.6) *)

val all_ops : op list
val op_name : op -> string

(** {1 Campaign results} *)

type failure = {
  f_op : op;
  f_variant : string;  (** scheduler variant (or ["differential"]) *)
  f_schedule : int list;  (** injection schedule as first observed *)
  f_min_schedule : int list;  (** 1-minimal schedule after shrinking *)
  f_reason : string;
  f_timeline : string;  (** rendered {!Obs.Trace} timeline of a replay *)
}

type op_report = {
  o_op : op;
  o_points : int;  (** preemption points polled by the reference run *)
  o_runs : int;  (** injection runs executed, across all variants *)
  o_max_restarts : int;  (** worst restart count over all runs *)
  o_failures : failure list;
}

type report = {
  r_seed : int;
  r_smoke : bool;
  r_ops : op_report list;
  r_total_runs : int;
}

val run_campaign :
  ?smoke:bool ->
  ?seed:int ->
  ?ops:op list ->
  ?planted:(op -> int list -> string option) ->
  Sel4_rt.Analysis_ctx.t ->
  report
(** Run the full campaign.  The context supplies the base kernel build
    (each scheduler variant is derived from it, with preemption points
    forced on) and the hardware configuration used to replay failures
    under the tracer.  [smoke] shrinks the workload sizes and the number
    of random schedules for a fast fixed-seed CI run.  [planted] is a
    test-only fault oracle: when it returns [Some reason] for a schedule,
    that schedule is treated as failing — the hook the shrinker tests use
    to plant a deterministic bug. *)

val ok : report -> bool
val pp_report : report Fmt.t

val to_json : report -> Obs.Json.t
(** Machine-readable campaign report.  The envelope — [campaign], [ok],
    [total_runs], and per-unit failure arrays — is shared with
    [Explore.to_json], so CI tooling parses both reports the same way. *)

(** {1 Workloads exposed for the race analyser and schedule explorer}

    The audit mode of [Race] replays these drivers with an access recorder
    attached, and [Explore] interleaves them with interfering client
    actions; both reuse the exact workloads the injection campaign
    validates, so their conclusions transfer. *)

type sizes = {
  sz_waiters : int;  (** blocked senders queued for deletion *)
  sz_abort_waiters : int;  (** blocked badged senders *)
  sz_frame_bits : int;  (** retyped frame size (cleared in chunks) *)
  sz_ptes : int;  (** small pages mapped through the page table *)
  sz_sections : int;  (** 1 MiB sections mapped in the directory *)
}

val sizes : smoke:bool -> sizes

type driver = {
  d_event : Sel4.Kernel.event;  (** the long-running operation *)
  d_initiator : Sel4.Ktypes.tcb;  (** thread that issues (and restarts) it *)
  d_measure : unit -> int;
      (** progress toward completion; must strictly decrease between
          consecutive preemptions and reach 0 on completion *)
}

val setup : Sel4.Boot.env -> sizes -> op -> driver
(** Populate a freshly booted environment with the operation's workload
    (parked senders, badged caps, mapped frames, ...) and return its
    driver.  Raises [Sel4.Boot.Boot_failure] if the setup syscalls fail. *)

val variant_name : Sel4.Build.sched_variant -> string

val variants : base:Sel4.Build.t -> op -> Sel4.Build.t list
(** The scheduler variants a schedule is differentially replayed under
    (lazy, Benno, Benno+bitmap), derived from [base] with preemption
    points forced on — and, for {!Vspace_delete}, the shadow vspace
    design, the only one with preemptible teardown. *)

(** {1 Pieces exposed for tests} *)

val shrink : fails:(int list -> bool) -> int list -> int list
(** Greedy one-at-a-time reduction of a failing schedule to a 1-minimal
    one: removing any single remaining injection no longer fails.
    Precondition: [fails schedule]. *)

val digest_of : Sel4.Kernel.t -> string
(** Canonical rendering of the scheduler-independent kernel state: object
    registry (queues, abort cursors, watermarks, cleared ranges, page
    tables), capability slots and CDT shape.  Run-queue contents are
    deliberately excluded — lazy scheduling parks blocked threads in the
    queues by design. *)
