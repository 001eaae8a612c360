(** The workloads of the preemption-schedule campaign.

    Four long-running kernel operations — endpoint deletion, badged-IPC
    abort, untyped retype with preemptible clearing, and address-space
    deletion — each with a setup that populates a freshly booted
    environment, a driver that issues (and restarts) the operation, and a
    progress measure that must strictly decrease between consecutive
    preemptions (Sections 3.3-3.6).

    {!Explore} replays these drivers under preemption schedules and judges
    them; {!Race} replays them with the CPU access tracer attached.  Both
    reuse the exact same workloads, so their conclusions transfer.
    Schedules are indexed by preemption-point poll, not by cycle, so a
    schedule replays identically across scheduler variants. *)

(** {1 Operations under test} *)

type op =
  | Ep_delete  (** endpoint deletion, one dequeue per point (§3.3) *)
  | Badged_abort  (** badged-send cancellation, cursor on the endpoint (§3.4) *)
  | Retype_clear  (** retype with chunked object clearing (§3.5) *)
  | Vspace_delete  (** shadow address-space teardown, per-entry points (§3.6) *)

val all_ops : op list
val op_name : op -> string

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

val setup : Sel4.Boot.env -> sizes -> op -> driver
(** Populate a freshly booted environment with the operation's workload
    (parked senders, badged caps, mapped frames, ...) and return its
    driver.  Raises [Sel4.Boot.Boot_failure] if the setup syscalls fail. *)

val variants : base:Sel4.Build.t -> op -> Sel4.Build.t list
(** The scheduler variants a schedule is differentially replayed under
    (lazy, Benno, Benno+bitmap), derived from [base] with preemption
    points forced on — and, for {!Vspace_delete}, the shadow vspace
    design, the only one with preemptible teardown. *)

(** {1 Shrinking} *)

val shrink : fails:('a list -> bool) -> 'a list -> 'a list
(** Greedy one-at-a-time reduction of a failing schedule to a 1-minimal
    one: removing any single remaining element no longer fails.
    Precondition: [fails schedule]. *)
