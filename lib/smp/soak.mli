(** The multicore soak: N per-core worlds interleaved in global cycle
    order, coupled through the IPI fabric.

    Each core is one {!Sim.make_world} instance — its own booted kernel
    (tagged with the core id, so the affinity invariant bites), its own
    per-CPU timer and run queues, the scenario's tenant threads and
    device lines that the {!Topology} routes to it.  The driver always
    steps the unfinished world with the lowest cycle count (ties to the
    lowest core id), so the interleaving is a pure function of the seed.

    Cross-core traffic, all deterministic:
    - every device delivery on a core sends one [Resched] IPI to the next
      tenant core round-robin — the "my handler woke a worker pinned
      elsewhere" pattern; under the shielded policy core 0 is therefore a
      pure IPI {e sender}, never a receiver;
    - cores running address-space-mutating workloads broadcast a
      [Tlb_shootdown] to the other tenant cores at a fixed cycle period
      (longer than the response bound, so at most one broadcast lands in
      any response window).

    IPI costs are charged outside kernel entries — send cycles on the
    source, receive (and shootdown-handler) cycles on the destination —
    and every delivery on every core is checked against that core's
    {!Bound.per_core} total, under the same queued-delivery window rule
    as the single-core campaign. *)

type core_run = {
  cr_core : int;
  cr_parked : bool;
      (** no tenants and no routed lines: the core idles and is excluded
          from IPI targeting *)
  cr_tenants : int;
  cr_lines : int list;  (** device lines routed to this core *)
  cr_bound : Bound.t;
  cr_entries : int;
  cr_deliveries : int;  (** all interrupt deliveries, device and IPI *)
  cr_queued : int;
  cr_ipi_delivered : int;
  cr_latency : Sim.latency_stats;
      (** single-outstanding deliveries, checked against [cr_bound] *)
  cr_hist : (int * int) list;
      (** the exact (latency, count) histogram behind [cr_latency] —
          what {!run_compare} pools across cores and scenarios *)
  cr_violations : Sim.violation list;
  cr_inv : string list;
}

type scenario_run = {
  sr_scenario : string;
  sr_cores : core_run array;
  sr_ipi_sent : int;
  sr_ipi_coalesced : int;
  sr_ipi_delivered : int;
  sr_ipi_cancelled : int;
  sr_fabric_error : string option;
      (** a failed {!Fabric.check}: some IPI neither delivered nor
          cancelled, or the accounting broke *)
}

type report = {
  rp_seed : int;
  rp_cores : int;
  rp_policy : Topology.policy;
  rp_entries_per_core : int;
  rp_base_bound : int;  (** the single-core bound the per-core totals extend *)
  rp_irq_wcet : int;
  rp_scenarios : scenario_run list;
  rp_deliveries : int;
  rp_ipi_sent : int;
  rp_ipi_delivered : int;
  rp_ipi_cancelled : int;
  rp_ipi_coalesced : int;
  rp_violations : int;
  rp_invariant_failures : int;
  rp_ok : bool;
}

val run :
  ?seed:int ->
  ?entries:int ->
  ?smoke:bool ->
  ?inv_every:int ->
  ?only:string list ->
  cores:int ->
  policy:Topology.policy ->
  unit ->
  report
(** Run the five-scenario mix on [cores] cores.  [entries] is per core
    (default 1_500 under [smoke], 12_000 otherwise); [inv_every] samples
    the invariant catalogue — including the SMP membership and affinity
    checks — every that many entries per core (default 256 under smoke,
    512 otherwise; 0 disables).  Serial and deterministic: the report is
    a pure function of the arguments.  Registry metrics ([smp.ipi.*],
    [smp.core<i>.deliveries], ...) are bumped as a side effect. *)

(** Shielded-vs-spread tail comparison at identical seed, cores and
    entry budget: the shielded interrupt core's observed delivery tail
    against the aggregate over every spread core that takes device
    interrupts. *)
type comparison = {
  cmp_cores : int;
  cmp_shielded : Sim.latency_stats;  (** shielded core 0, all scenarios *)
  cmp_spread : Sim.latency_stats;
      (** spread cores with routed device lines, all scenarios *)
  cmp_tail_lower : bool;
      (** strict: shielded p99.9 {e and} max below the spread ones *)
}

val run_compare :
  ?seed:int ->
  ?entries:int ->
  ?smoke:bool ->
  cores:int ->
  unit ->
  report * report * comparison
(** [(shielded, spread, comparison)]. *)

val report_to_json : report -> Obs.Json.t

val report_json : report -> string
(** {!report_to_json} rendered by {!Obs.Json.to_string}. *)

val comparison_to_json : comparison -> Obs.Json.t
val pp_report : report Fmt.t
val pp_comparison : comparison Fmt.t
