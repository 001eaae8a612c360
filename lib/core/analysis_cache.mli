(** Content-keyed, domain-safe memo cache over the WCET analysis pipeline.

    One request is an {!Analysis_ctx.t}, an entry point, a constraint
    selector and forced-path counts.  Results and the analysis prefix
    (inlining + loop detection + cache fixpoint, shared by every ILP
    variant over one context and entry point) are memoised in separate
    tables, both keyed by the request's canonical text, the same text
    that addresses the persistent store.  Concurrent requests for the
    same key compute once: later requesters block until the first one's
    result (or exception) is available.

    Cached {!Wcet.Ipet.result} values are shared structurally — treat
    their arrays as read-only. *)

val computed :
  ?sources:Wcet.Ipet.sources ->
  ?forced:(string * string * int) list ->
  Analysis_ctx.t ->
  Kernel_model.entry_point ->
  Wcet.Ipet.result
(** Memoised [Kernel_model.spec |> Wcet.Ipet.analyse_prepared].
    [sources] selects the constraint rows (default [`All]; [`None] is
    the unconstrained baseline); [forced] pins path counts.  A miss
    solves cold. *)

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
    full analysis request (context digest convention: every field named,
    deterministic order), the key of the in-memory result table too.
    Loaded records are {!Wcet.Ipet.rehydrate}d over the freshly prepared
    prefix, so a store hit performs no ILP build or solve; a missing or
    rejected record falls back to computing (and re-storing).
    Implementations must be safe to call from any domain. *)

val set_persist : persist option -> unit
(** Install (or remove) the persistent store behind the memo tables.
    Installed by [Serve.Disk_cache.install]; [None] by default. *)

val reset : unit -> unit
(** Drop settled entries and zero the counters. *)

val set_enabled : bool -> unit
(** When disabled, every call recomputes from scratch and touches neither
    the tables nor the counters (a fresh-computation reference for
    tests). *)
