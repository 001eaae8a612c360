(** Execution context: how the kernel charges work to the hardware model,
    and the interrupt controller its preemption points poll.  With no CPU
    attached the kernel runs uninstrumented (fast functional testing). *)

val num_irqs : int
val timer_irq : int

type t
(** The cost-charging target plus the interrupt controller's state; both
    stay private to this module. *)

val create : ?cpu:Hw.Cpu.t -> Build.t -> t
val build : t -> Build.t
val cycles : t -> int

val emit : t -> Obs.Trace.kind -> unit
(** Emit a structured trace event into the CPU's attached buffer (no-op
    without a CPU or a buffer).  Charges nothing. *)

val tracing : t -> bool
(** A CPU with a trace buffer is attached — check before building an
    event for {!emit} on a hot path (the event itself allocates). *)

val exec : t -> Layout.code_region -> int -> unit
(** [exec t region n]: charge [n] instructions fetched from [region], one
    of the {!Layout.R} values. *)

val load : t -> int -> unit
val store : t -> int -> unit
val branch : t -> Layout.code_region -> taken:bool -> unit

val scan :
  t -> Layout.code_region -> int -> addr:int -> stride:int -> steps:int -> unit
(** [scan t region n ~addr ~stride ~steps]: [steps] repetitions of
    [exec t region n] followed by [load t (addr + i * stride)], [i]
    counting from 0, charged through {!Hw.Cpu.scan} (identical cycles,
    counters, cache state and {!Hw.Cpu.set_tracer} reports). *)

val store_block : t -> int -> int -> unit
(** Bulk store, one access per cache line (object clearing, the kernel
    mapping copy). *)

val load_block : t -> int -> int -> unit

(** {1 The interrupt controller}

    Per line: a pending bit with its assert cycle, and an armed bit with
    its fire cycle.  Every raise and arm draws a tie-break ticket from one
    counter, so lines asserted at the same cycle are delivered in the
    order they were raised or armed.  Raising, arming, polling and
    delivering allocate nothing. *)

val assert_irq : t -> int -> unit
(** Assert a line now: it becomes pending, stamped with the current
    cycle, unless it is already pending.  Emits [Irq_assert] either
    way. *)

val arm_irq : t -> int -> fire:int -> unit
(** Arm a line's device timer: the line is asserted once the cycle
    counter reaches [fire].  Each line holds one fire cycle; re-arming an
    armed line keeps the earlier one.  Emits [Irq_armed]. *)

val promote_armed : t -> unit
(** Make every fired timer's line pending, stamped with its fire cycle
    and carrying the ticket it was armed with; a line already pending
    absorbs the assertion.  Emits [Irq_assert] per promoted line, earliest
    first.  Called on the interrupt path only. *)

val has_pending : t -> bool
(** Some line is pending.  A fired timer counts only once
    {!promote_armed} has run. *)

val pop_irq : t -> int
(** Remove and return the pending line with the earliest (assert cycle,
    ticket).  Requires {!has_pending}. *)

val assert_cycle : t -> int -> int
(** The assert cycle of a line, valid while it is pending and after
    {!pop_irq} returns it, until it is asserted again. *)

val next_armed_irq : t -> (int * int) option
(** The earliest (fire cycle, line) among armed timers, ties by ticket. *)

val irq_pending : t -> bool
(** A line is pending, or an armed timer has fired.  Promotes nothing;
    O(1). *)

val preemption_point : t -> bool
(** Poll {!irq_pending} (charging the check), after running the
    preempt-poll hook.  Always [false] when the build disables preemption
    points — the "before" kernel. *)

val set_injection_hook : t -> (int -> bool) option -> unit
(** Install or clear the preempt-poll hook ({!Kernel.set_injection_hook}
    documents it) and reset the poll counter.  Raises [Invalid_argument]
    over a live hook: two campaigns sharing one kernel would otherwise
    silently drop each other's schedules. *)

val preempt_polls : t -> int
(** Preemption points polled since the hook was last installed. *)
