(** Stateless DPOR-style exploration of multi-preemption schedules.

    Where the injection campaign ([Inject]) sweeps single interrupts, the
    explorer enumerates {e interleavings}: a schedule places preemptions
    at chosen poll indices and runs a client action — a signal, a
    notification poll, a re-queueing send on the endpoint under abort —
    in the window each preemption opens, before the long-running
    operation restarts.

    The schedule space is pruned with the static interference relation of
    [Race], in the style of dynamic partial-order reduction: actions
    whose footprints commute (no semantic conflict) with the operation's
    sections, the IRQ-delivery path and every other action are slid to a
    canonical placement, and only canonical schedules run; conflicting
    actions are decisions, explored in every placement and order.  Every
    explored schedule is judged by the injection oracles (invariants
    after each exit, strict measure decrease, digest agreement across the
    three scheduler variants), and final states are deduplicated by
    canonical digest. *)

(** {1 Actions} *)

type action = {
  act_name : string;
  act_fp : Race.footprint;
      (** semantic footprint; instances are root-CNode slot indices *)
  act_actor_slot : int;  (** root-CNode slot of the acting thread's TCB *)
  act_event : Sel4.Kernel.event option;
      (** [None]: the preemption alone ("pause") *)
}

val actions_for : Inject.op -> action list
(** The scenario alphabet.  Only {!Inject.Ep_delete} and
    {!Inject.Badged_abort} have scenarios; raises [Invalid_argument]
    otherwise. *)

val op_sections : Inject.op -> Race.footprint list
(** The operation's own sections instantiated for the scenario's concrete
    objects, plus the IRQ-delivery path: what an action must commute with
    to be independent. *)

val independent_actions : Inject.op -> action list -> string list
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

val run_sched :
  build:Sel4.Build.t ->
  op:Inject.op ->
  sz:Inject.sizes ->
  schedule:sched ->
  unit ->
  (string * int, string) result
(** Replay the operation firing the schedule's preemptions and running
    each fired action in the window its preemption opens, with the
    invariant and progress-measure oracles armed.  [Ok (digest, polls)]
    on success. *)

(** {1 Reports} *)

type failure = {
  x_variant : string;
  x_schedule : (int * string) list;
  x_reason : string;
}

type scen_report = {
  e_scenario : string;
  e_depth : int;
  e_polls : int;  (** H: polls of the uninterrupted reference run *)
  e_alphabet : string list;
  e_independent : string list;
  e_universe : int;
  e_explored : int;
  e_pruned : int;
  e_deduped : int;  (** explored schedules converging on a seen digest *)
  e_digest_classes : int;
  e_runs : ((int * string) list * string) list;
      (** explored schedule -> final digest (first variant) *)
  e_failures : failure list;
}

type report = {
  x_smoke : bool;
  x_depth : int;
  x_scens : scen_report list;
  x_total_runs : int;
}

val run_scenario :
  ?naive:bool ->
  depth:int ->
  Sel4_rt.Analysis_ctx.t ->
  Inject.op ->
  scen_report * int
(** Explore one scenario; returns the report and the number of runs.
    [naive] disables pruning and the differential replay (first variant
    only) — the full-enumeration reference the pruning-soundness test
    compares digest sets against. *)

val run : ?smoke:bool -> ?depth:int -> Sel4_rt.Analysis_ctx.t -> report
(** The campaign: ep-delete at [depth] (default 3, smoke 2) and — full
    mode only — badged-abort at depth [<= 2].
    @raise Invalid_argument if [depth < 1]. *)

val ok : report -> bool
val pp_report : report Fmt.t

val to_json : report -> Obs.Json.t
(** Shares the campaign envelope with [Inject.to_json]: [campaign],
    [ok], [total_runs], and an [ops] array with per-unit [failures]. *)
