(** Adversarial workloads: best-effort recreation of worst cases on the
    executable kernel (Section 5.4).  Caches are polluted with dirty lines
    before each measured entry; the observed worst case is the maximum
    over several pollution seeds.

    Drivers take an {!Analysis_ctx.t}. *)

type scenario = {
  env : Sel4.Boot.env;
  cpu : Hw.Cpu.t;
  measured_event : Sel4.Kernel.event;
  victim : Sel4.Ktypes.tcb;  (** the thread that traps for the event *)
}

exception Scenario_failed of { entry : string; seed : int; reason : string }
(** A measured event failed outright: which entry point, under which
    pollution seed, and the kernel's error message. *)

val scenario : Analysis_ctx.t -> Kernel_model.entry_point -> scenario
(** Construct the worst-case scenario for one entry point: full-depth
    decodes, maximum message, granted capabilities, waiting receiver /
    registered handler / deep fault-handler address. *)

val measure_once : scenario -> seed:int -> Sel4.Kernel.outcome * int
(** Pollute the caches with [seed] and measure one kernel entry. *)

val observed : ?runs:int -> Analysis_ctx.t -> Kernel_model.entry_point -> int
(** Maximum observed cycles over [runs] freshly built scenarios.
    @raise Scenario_failed if the measured event fails outright.
    @raise Invalid_argument if [runs] < 1. *)

type provenance = {
  workload : string;  (** entry-point name *)
  worst_seed : int;  (** pollution seed of the worst run *)
  section : string;  (** worst non-preemptible section / delivery section *)
  section_cycles : int;
  cycles_to_preempt : int option;
      (** cycles from interrupt assertion to the first polled preemption
          point, when one was reached before delivery *)
  stall_cycles : int;  (** memory-hierarchy share of the section *)
  compute_cycles : int;
}

val pp_provenance : provenance Fmt.t

val run_traced :
  buf:Obs.Trace.t ->
  seed:int ->
  Analysis_ctx.t ->
  Kernel_model.entry_point ->
  Sel4.Kernel.outcome * int
(** Build the scenario, attach [buf], pollute with [seed] and measure one
    kernel entry.  Cycle counts are bit-identical to an untraced run. *)

val observed_traced :
  ?runs:int ->
  Analysis_ctx.t ->
  Kernel_model.entry_point ->
  int * provenance
(** Same maximum as {!observed} (tracing never charges cycles), plus the
    latency attribution of the worst run.
    @raise Scenario_failed if the measured event fails outright.
    @raise Invalid_argument if [runs] < 1. *)
