(** Latency attribution: per-run breakdowns computed from a raw event
    trace — which non-preemptible section bounded the interrupt response,
    how long to the next preemption opportunity, and how the cycles split
    into memory stall vs compute. *)

type irq_breakdown = {
  core : int;
      (** the core whose ring recorded the delivery (0 on the single-core
          model) — carried so multicore forensics stay attributable *)
  line : int;
  asserted_at : int;  (** recovered as delivered - latency *)
  delivered_at : int;
  latency : int;
  section : string;
      (** kernel event in progress at assertion, or ["user"] *)
  cycles_to_preempt : int option;
      (** assertion to the first polled preemption point; [None] when the
          interrupt was taken on the kernel-exit path *)
  stall_cycles : int;  (** memory-hierarchy cycles within the latency *)
  compute_cycles : int;  (** latency - stall *)
}

val irq_breakdowns : ?core:int -> Trace.event list -> irq_breakdown list
(** One breakdown per [Irq_deliver] event, in delivery order, each tagged
    with [core] (default 0 — pass {!Trace.core} for a tagged ring). *)

type section = {
  sec_label : string;
  sec_cycles : int;
  sec_stall : int;
}

val section_profile :
  Trace.event list -> from:int -> until:int -> (string * int) list
(** Cycles per kernel section (event label, or ["user"]) inside the
    window [\[from, until\]], largest first; segments between consecutive
    events are attributed to the section in progress and clipped to the
    window.  Sums to [until - from]. *)

val longest_nonpreemptible : Trace.event list -> section option
(** The longest stretch between consecutive preemption opportunities
    (kernel entry, polled preemption points, kernel exit), labelled with
    the kernel event executing it. *)
