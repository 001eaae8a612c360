(** Implicit Path Enumeration Technique: virtual inlining, cache analysis,
    ILP generation and solving, as in Section 5.2 of the paper.

    The pipeline is split so the expensive analysis prefix (inlining, loop
    detection, cache fixpoint) can be {!prepare}d once per (program,
    hardware configuration, pinned lines) and shared by every ILP variant
    solved over it via {!analyse_prepared}.  Every variant is solved
    cold; a stored result is {!rehydrate}d over a fresh prefix instead
    of solved again. *)

type loop_bound = { func : string; header : string; bound : int }
(** Maximum executions of the header block per entry into the loop. *)

type spec = {
  program : Timing.t Cfg.Flowgraph.program;
  bounds : loop_bound list;
  constraints : User_constraint.t list;  (** manual, Section 5.2 *)
  derived : (User_constraint.t * Derive_constraints.derivation) list;
      (** mechanically derived by {!Derive_constraints}, with
          provenance; see the [sources] selector *)
}

type sources = [ `All | `Manual | `Derived | `None ]
(** Which constraint sources an ILP variant uses.  [`All] is the
    default: the manual set plus every derived constraint that does not
    structurally duplicate a manual one.  [`None] drops every user
    constraint (the Section 6.3 unconstrained baseline). *)

type result = {
  wcet : int;  (** sound upper bound, in cycles *)
  block_counts : int array;  (** worst-case execution count per inlined block *)
  inlined : Timing.t Cfg.Inline.t;
  costs : Cache_analysis.t;
  ilp_vars : int;
  ilp_constraints : int;
  bb_nodes : int;
  lp_solves : int;
  elapsed_s : float;
      (** monotonic wall time of this analysis (prefix + ILP), as if run
          fresh; prefix time is included even when the prefix was shared *)
  edge_counts : ((int * int) * int) list;
      (** traversal counts of CFG edges (inlined block ids) at the optimum,
          restricted to edges with positive flow, sorted *)
  binding_constraints : (string * int) list;
      (** labelled inequality rows that are tight at the optimum — the loop
          bounds and provenance-labelled user constraints of the optimal
          basis that actually limit the bound — with the row's left-hand
          side value; flow-conservation equalities are omitted *)
}

exception Unbounded_loop of string
(** A loop header without an iteration bound; the analysis requires all
    loops bounded (Section 5.3). *)

exception No_solution of string

type prepared
(** The analysis prefix: inlined CFG, cache-analysis costs, loops,
    predecessors and the per-function context table.  Immutable once
    built; safe to share across domains. *)

val prepare :
  config:Hw.Config.t ->
  ?pinned_code:int list ->
  ?pinned_data:int list ->
  spec ->
  prepared

val analyse_prepared :
  ?sources:sources -> ?forced:(string * string * int) list -> prepared -> result
(** Build and solve one ILP over a shared prefix, cold.  [sources]
    selects the user constraints (default [`All]); constraint rows carry
    their provenance in the ILP row label.  [forced] pins total execution
    counts of (function, block label) pairs, which is how Section 6.2
    computes the predicted time of a specific realisable path. *)

val analyse :
  config:Hw.Config.t ->
  ?pinned_code:int list ->
  ?pinned_data:int list ->
  ?forced:(string * string * int) list ->
  spec ->
  result
(** [prepare] + [analyse_prepared] in one step. *)

type persisted = {
  ps_wcet : int;
  ps_block_counts : int array;
  ps_ilp_vars : int;
  ps_ilp_constraints : int;
  ps_bb_nodes : int;
  ps_lp_solves : int;
  ps_elapsed_s : float;
  ps_edge_counts : ((int * int) * int) list;
  ps_binding_constraints : (string * int) list;
}
(** The marshal-safe subset of a {!result}: everything except the
    in-process [inlined] CFG and [costs] tables, which are pure functions
    of the analysis inputs and are rebuilt by {!prepare} on rehydration.
    Contains only ints, floats, strings, arrays and lists — safe for
    [Marshal] across process boundaries of the same binary. *)

val to_persisted : result -> persisted

val rehydrate : prepared -> persisted -> result
(** Reconstitute a full {!result} from a persisted record and the prepared
    prefix it was computed over, without building or solving any ILP.
    Sound only when the prefix was prepared from the *same* content key
    (spec, config, pins) the persisted record was stored under; the
    on-disk cache guarantees this by content addressing.  The block-count
    array length is checked against the prefix as a cheap corruption
    guard.
    @raise Invalid_argument on a shape mismatch. *)

val worst_path : result -> (string * int * int) list
(** Blocks on the worst-case path: (inlined label, count, cycles/visit). *)
