(** Canonical rendering of the scheduler-independent kernel state.

    The digest is a deterministic text rendering of every live object,
    root slot and capability refcount, sorted by object id.  Scheduler
    bookkeeping — run queues, [in_run_queue] flags, memoised lowest-mapped
    hints — is excluded: it is performance state, not semantics, and
    differs across scheduler variants by design.  Two kernel states with
    the same digest are indistinguishable to user level.

    Shared by lib/explore (the differential final-state oracle, schedule
    deduplication and the badged-abort progress measure,
    {!abort_scan_len}) and lib/sim (violation forensics). *)

val of_kernel : Kernel.t -> string
(** Render the canonical state.  Insensitive to hash-table iteration
    order and to the order of the object registry. *)

val abort_scan_len : Ktypes.endpoint -> int
(** Remaining nodes in an in-progress badged abort: cursor to the
    end-of-queue marker captured when the abort began (also the
    badged-abort progress measure). *)
