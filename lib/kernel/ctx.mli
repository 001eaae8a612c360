(** Execution context: how the kernel charges work to the hardware model,
    and the interrupt controller its preemption points poll.  With no CPU
    attached the kernel runs uninstrumented (fast functional testing). *)

val num_irqs : int
val timer_irq : int

type t = {
  cpu : Hw.Cpu.t option;
  build : Build.t;
  pending_buf : int array;  (** ring of raised, undelivered lines *)
  mutable pending_head : int;
  mutable pending_count : int;
  mutable pending_mask : int;  (** bit per line: membership in the ring *)
  irq_assert : int array;
      (** per-line assert cycle of each pending line (stale for a line not
          in the ring) *)
  mutable armed_fire : int array;
  mutable armed_line : int array;
      (** (fire cycle, line) device timers not yet promoted, first
          [armed_count] slots live *)
  mutable armed_count : int;
  mutable scratch_fire : int array;
  mutable scratch_line : int array;
  mutable preempt_count : int;
  mutable preempt_polls : int;  (** preemption points polled (taken or not) *)
  mutable on_preempt_poll : (int -> bool) option;
      (** fault-injection hook: called with the 1-based poll index before
          the pending check; returning [true] asserts [timer_irq] at
          exactly this poll (install via {!Kernel.set_injection_hook}) *)
}

val create : ?cpu:Hw.Cpu.t -> Build.t -> t
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

(** {1 The interrupt controller} *)

val assert_irq : t -> int -> unit
(** Assert a line now: it joins the pending ring, stamped with the current
    cycle, unless it is already pending.  Emits [Irq_assert] either way. *)

val arm_irq : t -> int -> fire:int -> unit
(** Arm a device timer: the line is asserted once the cycle counter
    reaches [fire].  Any number of timers may be armed at once.  Emits
    [Irq_armed]. *)

val promote_armed : t -> unit
(** Move every fired timer's line into the pending ring, earliest fire
    cycle first (ties by arming order), stamped with its fire cycle; a
    line already pending absorbs the assertion.  Called on the interrupt
    path only. *)

val pop_irq : t -> int
(** Remove and return the oldest pending line; its assert stamp stays
    readable in [irq_assert] until the line is asserted again.  Requires
    [pending_count > 0]. *)

val next_armed_irq : t -> (int * int) option
(** The earliest (fire cycle, line) among armed timers, if any. *)

val irq_pending : t -> bool
(** A line is pending, or an armed timer has fired.  Promotes nothing. *)

val preemption_point : t -> bool
(** Poll {!irq_pending} (charging the check), after running the
    preempt-poll hook.  Always [false] when the build disables preemption
    points — the "before" kernel. *)
