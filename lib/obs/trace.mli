(** Cycle-accurate event tracer: a preallocated ring buffer of structured
    events stamped with the simulated cycle counter (never wall time).

    Determinism: emission reads only the simulated cycle and stall
    counters, so a trace of a given scenario is bit-identical run after
    run and across serial/parallel execution.  Zero overhead: emission
    charges no simulated cycles and touches no cache state, so enabling
    tracing cannot change observed cycle counts. *)

type kind =
  | Kernel_enter of { event : string }  (** kernel entry: event name *)
  | Kernel_exit of { outcome : string }
  | Preempt_point of { taken : bool }
      (** a preemption point was polled; [taken] if it preempted *)
  | Sched_decision of { tcb : int; priority : int }
  | Irq_assert of { line : int }
  | Irq_armed of { line : int; fire_at : int }
      (** a future interrupt was scheduled *)
  | Irq_deliver of { line : int; latency : int }
      (** in-kernel delivery; [latency] cycles since assertion *)
  | Ep_enqueue of { ep : int; tcb : int }
  | Ep_dequeue of { ep : int; tcb : int }
  | Untyped_clear of { addr : int; bytes : int }
      (** one preemptible chunk of untyped-memory clearing *)
  | Vspace_unmap of { addr : int }
  | Pin_evict of { cache : string; addr : int }
      (** a pinned (or pin-displaced) line was evicted *)
  | Marker of string

type event = { at : int;  (** simulated cycle *) stall : int;
               (** cumulative memory-stall cycles at emission *)
               kind : kind }

type t

val create : ?capacity:int -> ?core:int -> unit -> t
(** Preallocate a ring of [capacity] events (default 65536).  When full,
    the oldest events are overwritten.  [core] (default 0) tags the whole
    ring with the core it records — per-ring rather than per-event, so
    tagging adds no cost to {!emit} and no word to events; renderers give
    each core its own lane. *)

val emit : t -> at:int -> stall:int -> kind -> unit
val length : t -> int
val capacity : t -> int

val core : t -> int
(** The core this ring records (0 on the single-core model). *)

val dropped : t -> int
(** Events lost to ring wrap-around. *)

val clear : t -> unit
val events : t -> event list
(** Surviving events, oldest first. *)

val of_events : ?core:int -> event list -> t
(** A ring sized to exactly the given events, in order — lets an
    extracted window (e.g. a flight-recorder capture) reuse
    {!pp_timeline} and {!to_chrome_json}.  [core] as in {!create}. *)

val kind_name : kind -> string
val pp_kind : kind Fmt.t
val pp_event : event Fmt.t

val pp_timeline : Format.formatter -> t -> unit
(** Human-readable timeline: cycle, delta, cumulative stall, event. *)

val to_chrome_json : ?cycles_per_us:float -> t -> Json.t
(** Chrome [trace_event] JSON (loadable in Perfetto / chrome://tracing).
    Kernel entries become duration events, everything else instants;
    timestamps are cycles converted at [cycles_per_us] (default 1.0),
    printed with 3 decimals.  Events render on thread lane [core + 1],
    so multicore captures lay each core out as its own track; a core-0
    ring carries no thread-name record, like a single-core trace. *)
