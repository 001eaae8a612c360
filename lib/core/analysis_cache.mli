(** Content-keyed, domain-safe memo cache over the WCET analysis pipeline.

    Results are keyed on (build variant, entry point, kernel-model
    parameters, hardware configuration, pinned lines, forced-path
    constraints, use of manual constraints); the analysis prefix (inlining
    + loop detection + cache fixpoint) is cached separately and shared by
    every ILP variant over it.  Concurrent requests for the same key
    compute once: later requesters block until the first one's result (or
    exception) is available.

    Cached {!Wcet.Ipet.result} values are shared structurally — treat
    their arrays as read-only. *)

val computed :
  ?params:Kernel_model.params ->
  ?pinned_code:int list ->
  ?pinned_data:int list ->
  ?use_constraints:bool ->
  ?sources:Wcet.Ipet.sources ->
  ?forced:(string * string * int) list ->
  config:Hw.Config.t ->
  Sel4.Build.t ->
  Kernel_model.entry_point ->
  Wcet.Ipet.result
(** Memoised [Kernel_model.spec |> Wcet.Ipet.analyse].
    [use_constraints:false] drops every user constraint; [sources]
    selects manual-only / derived-only / all constraint rows when they
    are on (default [`All]).  Less constrained variants warm-start from
    an already-cached [`All] sibling's solution. *)

val computed_cycles :
  ?params:Kernel_model.params ->
  ?pinned_code:int list ->
  ?pinned_data:int list ->
  ?use_constraints:bool ->
  ?sources:Wcet.Ipet.sources ->
  ?forced:(string * string * int) list ->
  config:Hw.Config.t ->
  Sel4.Build.t ->
  Kernel_model.entry_point ->
  int

type stats = {
  hits : int;  (** in-memory result hits (including waits on in-flight keys) *)
  misses : int;  (** cold computations (missed memory and the store) *)
  disk_hits : int;
      (** memory misses satisfied from the persistent store with zero ILP
          solves.  [hits], [disk_hits] and [misses] partition the result
          lookups — a persistent hit is never also counted as a miss. *)
  prefix_hits : int;
  prefix_misses : int;
}

val stats : unit -> stats

val hit_rate : stats -> float
(** [(hits + disk_hits) / (hits + disk_hits + misses)], 0 if no lookups. *)

type persist = {
  p_load : string -> Wcet.Ipet.persisted option;
      (** canonical key -> stored record; [None] on miss or corruption *)
  p_store : string -> Wcet.Ipet.persisted -> unit;
}
(** A persistent result store keyed by the canonical text rendering of the
    full analysis key (context digest convention: every field named,
    deterministic order).  Loaded records are {!Wcet.Ipet.rehydrate}d over
    the freshly prepared prefix, so a store hit performs no ILP build or
    solve; a missing or rejected record falls back to computing (and
    re-storing).  Implementations must be safe to call from any domain. *)

val set_persist : persist option -> unit
(** Install (or remove) the persistent store behind the memo tables.
    Installed by [Serve.Disk_cache.install]; [None] by default. *)

val reset : unit -> unit
(** Drop settled entries and zero the counters. *)

val set_enabled : bool -> unit
(** When disabled, every call recomputes from scratch and touches neither
    the tables nor the counters (a fresh-computation reference for
    tests). *)
