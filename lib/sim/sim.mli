(** Deterministic discrete-event soak engine (the §6-style long-horizon
    campaign): seeded multi-tenant syscall traffic plus virtual devices
    asserting interrupts under configurable arrival processes, run for
    large entry counts on the executable kernel, with every observed
    interrupt response latency validated against the computed WCET bound.

    Determinism: a campaign is a pure function of [(seed, entries)].  Work
    is sharded into fixed-size slices whose PRNG streams derive from the
    shard index alone ({!Sel4_rt.Prng.split_at}), shards run on the
    {!Sel4_rt.Parallel} pool, and results merge in submission order — so
    the merged histograms are byte-identical for any domain count. *)

(** Device interrupt arrival process, in cycles between assertions. *)
type arrival =
  | Periodic of int  (** fixed inter-arrival time *)
  | Poisson of int  (** exponential inter-arrival times with this mean *)
  | Bursty of { period : int; burst : int; spacing : int }
      (** [burst] assertions [spacing] cycles apart, then a [period] gap *)

type device = { dev_line : int; dev_arrival : arrival }

(** Workload program executed by the tenant threads of a scenario. *)
type workload =
  | Ipc_pingpong  (** client/server call + reply-recv pairs over endpoints *)
  | Notification_storm  (** signal / wait / poll churn on shared words *)
  | Cnode_storm  (** badged mint / move / delete decode storms *)
  | Untyped_churn  (** retype small objects and delete them again *)
  | Vspace_churn  (** map/unmap frames, page-table teardown and rebuild *)

type scenario = {
  sc_name : string;
  sc_workload : workload;
  sc_tenants : int;  (** workload threads, at mixed priorities *)
  sc_devices : device list;
}

val scenarios : scenario list
(** The standard five-scenario soak mix. *)

val select_scenarios : string list option -> scenario list
(** The scenarios named in the list, in {!scenarios} order; every
    scenario for [None].
    @raise Invalid_argument naming the known scenarios if a name is
    unknown. *)

(** Exact latency statistics of one run, in cycles.  Percentiles are
    computed from the full sorted sample (not a sketch); [ls_buckets] is
    the log2 histogram in {!Obs.Metrics} bucket convention (exponent [k]
    covers [(2^(k-1), 2^k]]). *)
type latency_stats = {
  ls_count : int;
  ls_sum : int;
  ls_min : int;
  ls_p50 : int;
  ls_p90 : int;
  ls_p99 : int;
  ls_p999 : int;
  ls_max : int;
  ls_buckets : (int * int) list;
}

type violation = {
  v_line : int;
  v_latency : int;
  v_queued : int;  (** other deliveries between this line's assert and
                       delivery *)
  v_allowed : int;  (** the bound it was checked against *)
}

type run_result = {
  rr_scenario : string;
  rr_build : string;  (** scheduler/pinning label *)
  rr_pinned : bool;
  rr_entries : int;
  rr_preempted : int;
  rr_restarts : int;
  rr_failed : int;  (** kernel entries returning [Failed] (e.g. exhausted
                        untyped) — workload noise, not gate failures *)
  rr_deliveries : int;
  rr_queued_deliveries : int;  (** deliveries with at least one other
                                   delivery in their response window *)
  rr_bound : int;  (** computed interrupt-response bound (cycles) *)
  rr_irq_wcet : int;  (** computed interrupt-path WCET, the per-queued
                          -delivery surcharge *)
  rr_latency : latency_stats;
      (** single-outstanding deliveries — the paper's headline quantity,
          gated against [rr_bound] *)
  rr_violations : violation list;
  rr_invariant_failures : string list;
}

type report = {
  rp_seed : int;
  rp_entries_per_run : int;
  rp_total_entries : int;
  rp_total_deliveries : int;
  rp_runs : run_result list;
  rp_ok : bool;
}

val margin_percent : run_result -> float
(** Headroom of the bound over the observed worst case:
    [100 * (bound - max) / bound] (100 when nothing was observed). *)

(** {1 Steppable per-core world}

    The building block the SMP soak ({!Smp.Soak}) is made of: one
    booted kernel plus the scenario's tenants and devices, exposed as an
    explicit step/finish interface so several worlds (one per modelled
    core) can be interleaved in global cycle order.
    {!run_campaign_timed} is exactly [make_world] driven to completion
    per shard, so the single-core campaign (and its byte-identity
    contract) is unchanged. *)

(** Aggregated output of one world run to completion: counts, the
    latency histogram of single-outstanding deliveries (value -> count,
    sorted ascending), chronological bound violations and sampled
    invariant failures. *)
type shard_out = {
  so_entries : int;
  so_preempted : int;
  so_restarts : int;
  so_failed : int;
  so_deliveries : int;
  so_queued : int;
  so_hist : (int * int) list;
  so_violations : violation list;
  so_inv : string list;
  so_minor_words : float;
  so_worst : (int * int * int * int) list;
      (** forensics only: (latency, line, delivered cycle, entry index) *)
}

type world

val make_world :
  ?worst_n:int ->
  ?cpu_id:int ->
  ?trace:Obs.Trace.t ->
  ?on_delivery:(line:int -> latency:int -> cycle:int -> unit) ->
  build:Sel4.Build.t ->
  config:Hw.Config.t ->
  selection:Sel4_rt.Pinning.selection option ->
  scenario:scenario ->
  entries:int ->
  bound:int ->
  irq_wcet:int ->
  inv_every:int ->
  rng:Sel4_rt.Prng.t ->
  unit ->
  world
(** Boot a fresh kernel and set up [scenario]'s devices and tenants.
    [cpu_id] (default 0) tags the booted kernel's core so the affinity
    invariant has teeth under SMP soaks.
    Every observed delivery is checked against [bound] (plus one
    [irq_wcet] per queued delivery in its window) at delivery time.
    [on_delivery] is invoked after the delivering entry returns (outside
    kernel execution) — the hook the SMP fabric uses to observe traffic
    and inject cross-core work; the single-core campaign passes nothing,
    so report bytes are unaffected. *)

val world_step : world -> unit
(** Run one kernel entry (or one idle-skip-to-next-timer entry). *)

val world_done : world -> bool
val world_cycles : world -> int
val world_cpu : world -> Hw.Cpu.t
val world_kernel : world -> Sel4.Kernel.t
val world_entries_done : world -> int

val world_finish : world -> shard_out
(** Final invariant sample, uninstall the delivery hook, and reduce. *)

val stats_of_hist : (int, int) Hashtbl.t -> latency_stats
(** Exact latency statistics from a value -> count histogram (the merge
    step the campaign and the SMP soak share). *)

(** Wall-clock economics of one campaign (not deterministic — never part
    of the byte-identity contract). *)
type throughput = {
  th_wall_s : float;  (** wall time around the shard fan-out *)
  th_entries_per_sec : float;
  th_minor_words_per_entry : float;
      (** minor-heap words allocated per kernel entry, summed over the
          per-shard domain-local [Gc.minor_words] deltas *)
  th_peak_rss_kb : int;  (** VmHWM from /proc/self/status; 0 if absent *)
}

val full_entries : int
(** Kernel entries per run of the full (non-smoke) campaign: 52,000. *)

val run_campaign_timed :
  ?pool:Sel4_rt.Parallel.t ->
  ?seed:int ->
  ?entries:int ->
  ?smoke:bool ->
  ?only:string list ->
  ?inv_every:int ->
  unit ->
  report * throughput
(** Run every scenario against the three scheduler variants (all other
    improvements enabled) plus a cache-pinned variant of the improved
    build, [entries] kernel entries each (default {!full_entries}, or 1_500 with
    [smoke]), and measure the throughput.  [only] restricts to the named
    scenarios ({!select_scenarios}).  The gate holds when every observed
    latency is within its computed bound — plain for single-outstanding
    deliveries, plus one interrupt-path WCET per other delivery in the
    response window — and no sampled invariant check failed.
    [inv_every] sets the invariant sampling period in entries (default
    512, or 0 = off with [smoke]; invariant checks charge no simulated
    cycles, so the period never affects report bytes). *)

(** {1 Forensics: tail flight recorder and gap report}

    Retroactive capture of the worst deliveries of a campaign.  Pass 1 is
    the ordinary campaign with a per-run worst-[n] index (pure
    observation: no PRNG draws, no simulated cycles, so the report stays
    byte-identical to a non-forensic run).  Pass 2 replays exactly the
    shards implicated — their PRNG streams derive from
    [(seed, run, shard)] alone — with a trace ring attached, stopping
    right after the delivering entry, and extracts the window around each
    worst delivery. *)

type forensics = {
  fo_tail : Obs.Tail_report.t;
      (** the worst-[n] deliveries per (scenario, build) run, each with
          its captured trace window and kernel-section attribution *)
  fo_gaps : Obs.Gap_report.t list;
      (** one per run: the bound decomposition aligned against the
          observed worst window — headroom and never-executed charges *)
  fo_profiles : (string * Obs.Bound_profile.t) list;
      (** build label -> full interrupt-response bound decomposition, one
          per distinct build variant of the campaign *)
}

val run_campaign_forensics :
  ?pool:Sel4_rt.Parallel.t ->
  ?seed:int ->
  ?entries:int ->
  ?smoke:bool ->
  ?only:string list ->
  ?inv_every:int ->
  unit ->
  report * throughput * forensics
(** [run_campaign_timed] plus the two-pass forensics capture of the two
    worst deliveries of each run.  The returned
    [report] is byte-identical ([report_json]) to the same campaign run
    without forensics. *)

val pp_report : report Fmt.t

val report_to_json : report -> Obs.Json.t
(** The report as a JSON object (the [sim] serve payload). *)

val report_json : report -> string
(** {!report_to_json} rendered by {!Obs.Json.to_string}: the bytes
    pinned by [test/sim_smoke_report.golden.json]. *)

val pp_throughput : throughput Fmt.t
