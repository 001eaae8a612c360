(** The microkernel: event-based, single kernel stack, interrupts disabled
    during kernel execution except at explicit preemption points.

    Every kernel entry runs to completion or to a preemption point.  A
    preempted operation saves its progress in the objects it manipulates
    (incremental consistency), marks the current thread's system call for
    restart, handles the pending interrupt, and returns; re-executing the
    system call continues the operation (Section 2.1). *)

open Ktypes

type t = {
  ctx : Ctx.t;
  build : Build.t;
  cpu_id : int;
      (** the core this kernel instance runs on (SMP model); 0 on the
          single-core model *)
  sched : Sched.t;
  asids : Vspace.asid_state;
  idle : tcb;
  mutable current : tcb;
  mutable objects : any_object list;
      (** registry of live objects, for the invariant checker *)
  mutable next_id : int;
  mutable phys_watermark : int;
  mutable next_root_slot : int;
  mutable root_slots : slot list;
  cap_refs : (int, int) Hashtbl.t;  (** object id -> live capability count *)
  irq_handlers : cap option array;
  mutable irq_line_worst : int;
  mutable on_irq_deliver : (int -> int -> unit) option;
  mutable preempted_events : int;
  mutable syscall_restarts : int;
}

val num_irqs : int
val timer_irq : int

(** {1 Construction and bookkeeping} *)

val create : ?cpu:Hw.Cpu.t -> ?cpu_id:int -> Build.t -> t
(** [cpu_id] (default 0) tags this kernel instance's core: threads it
    creates are pinned there ({!Ktypes.tcb.tcb_affinity}). *)

val ctx : t -> Ctx.t
val current : t -> tcb
val cycles : t -> int

val fresh_id : t -> int
val register : t -> any_object -> unit

val new_root_slot : t -> slot
(** A harness-owned capability slot outside any CNode (boot caps). *)

val boot_untyped : t -> size_bits:int -> slot
(** Carve an untyped out of simulated physical memory at boot. *)

val incref : t -> cap -> unit

(** {1 Scheduling} *)

val switch_to : t -> tcb -> unit
val reschedule : t -> unit

val force_run : t -> tcb -> unit
(** Harness entry: put [tcb] on the CPU as if scheduled, re-queueing the
    displaced thread.  Models user-level context switches driven by the
    simulation. *)

val wake : t -> ?direct:bool -> tcb -> unit
(** Make a thread runnable; with [direct] (default), performs the
    Benno-style immediate switch when the thread can run now. *)

(** {1 Events (kernel entries)} *)

type invocation =
  | Inv_retype of {
      ut : int;
      obj_type : obj_type;
      count : int;
      dest_slots : slot list;
    }
  | Inv_copy of { src : int; dest_slot : slot; badge : int option }
  | Inv_move of { src : int; dest_slot : slot }
  | Inv_delete of { target : int }
  | Inv_revoke of { target : int }
  | Inv_cancel_badged_sends of { ep : int; badge : int }
  | Inv_tcb_priority of { target : int; prio : int }
  | Inv_tcb_configure of {
      target : int;
      cspace : int;
      vspace : int;
      fault_ep : int;
    }
  | Inv_tcb_suspend of { target : int }
  | Inv_tcb_resume of { target : int }
  | Inv_map_frame of { frame : int; pd : int; vaddr : int }
  | Inv_unmap_frame of { frame : int }
  | Inv_map_page_table of { pt : int; pd : int; vaddr : int }
  | Inv_make_asid_pool of { ut : int; dest_slot : slot; top_index : int }
  | Inv_assign_asid of { pool : int; pd : int }
  | Inv_irq_handler of { line : int; ep : int }
  | Inv_bind_irq_notification of { line : int; ntfn : int }

type event =
  | Ev_signal of { ntfn : int }
  | Ev_wait of { ntfn : int }
  | Ev_poll of { ntfn : int }
  | Ev_call of {
      ep : int;
      badge_hint : int;
      msg_len : int;
      extra_caps : int list;
    }
  | Ev_send of { ep : int; msg_len : int; extra_caps : int list; blocking : bool }
  | Ev_recv of { ep : int }
  | Ev_reply_recv of { ep : int; msg_len : int }
  | Ev_yield
  | Ev_invoke of invocation
  | Ev_interrupt
  | Ev_page_fault of { vaddr : int }
  | Ev_undefined_instruction

type outcome = Completed | Preempted | Failed of string

val kernel_entry : t -> event -> outcome
(** One kernel entry: exception vector in, event handling, and either a
    clean exit or a preemption (in which case the pending interrupt is
    serviced before returning to user, per Section 5.2's path model). *)

val run_to_completion : t -> event -> outcome
(** Re-execute a preempted system call until it completes (what user
    level does implicitly by restarting the trapping instruction), giving
    up after a million restarts. *)

(** {1 Interrupts}

    The interrupt controller (per-line pending and armed state with their
    assert and fire cycles) lives in the kernel's {!Ctx.t}, where the
    preemption points poll it; these functions drive it. *)

val raise_irq : t -> int -> unit
(** Assert an interrupt line now ({!Ctx.assert_irq}). *)

val schedule_irq : t -> int -> delay:int -> unit
(** Assert a line once the cycle counter advances by [delay] — the
    interrupt lands mid-operation.  Each line holds one armed fire cycle
    (re-arming an armed line keeps the earlier); any number of lines may
    be armed at once.  A fired line becomes pending stamped with its fire
    cycle as its assert time. *)

val next_armed_irq : t -> (int * int) option
(** The earliest (fire cycle, line) among armed device timers, if any —
    lets a driver know how far to advance an idle system for the next
    interrupt to fire. *)

val has_pending_irq : t -> bool
(** Is any line pending?  A fired timer becomes pending only on the
    interrupt path, so it is not counted here until then (the preemption
    points poll {!Ctx.irq_pending}, which does count it).  Delivery takes
    the pending line asserted earliest (ties in the order the lines were
    raised or armed).  Allocation-free. *)

val set_irq_delivery_hook : t -> (int -> int -> unit) option -> unit
(** Install (or clear) an observer called with [(line, latency)] at every
    interrupt delivery — the soak simulator's per-IRQ latency feed.
    Latency is measured from the line's own assert cycle. *)

val worst_irq_latency : t -> int
(** Worst per-delivery response latency (cycles) so far, across all
    lines: the maximum of the latencies the delivery hook reports. *)

val preempted_events : t -> int

(** {1 Fault injection} *)

val set_injection_hook : t -> (int -> bool) option -> unit
(** Install (or clear) a deterministic fault-injection hook: the callback
    receives the 1-based index of every preemption-point poll; returning
    [true] asserts {!timer_irq} at exactly that poll
    ({!Ctx.preemption_point} does the assertion).  Indices are
    counted by poll, not by cycle, so an injection schedule replays
    identically across scheduler variants.  Installation resets the poll
    counter.  Raises [Invalid_argument] when a hook is already installed
    and the new value is [Some _] — clear with [None] first. *)

val preempt_polls : t -> int
(** Preemption-point polls since the injection hook was last installed. *)
