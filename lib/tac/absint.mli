(** Abstract interpretation of TAC programs over the
    {!Value_domain} interval × congruence product.

    The program is SSA-converted and analysed by a worklist fixpoint with
    per-edge branch refinement: each CFG edge carries the environment
    refined by the branch condition guarding it, so mutually exclusive
    paths receive disjoint abstract values.  Widening fires at natural
    loop headers after a short delay; bounded narrowing (descending
    sweeps) then recovers precision lost to widening.

    Memory is not modelled: [Load] yields top and [Store] is ignored,
    which keeps every result sound and forces the analysis to abstain on
    memory-carried loops (those remain the model checker's job). *)

type stats = {
  iterations : int;  (** block transfer evaluations in the ascending phase *)
  widenings : int;
  narrowings : int;
}

type t

val analyse : Lang.program -> t
(** SSA-convert and analyse.  @raise Lang.Malformed on invalid programs. *)

val ssa : t -> Ssa.t
val stats : t -> stats

(** {1 Queries}  Blocks are named by their (SSA = source) labels;
    registers by their SSA names (["i.2"], with ["p.0"] the initial value
    of parameter [p]). *)

val block : t -> string -> Ssa.ssa_block
(** The analysed SSA block with this label.
    @raise Invalid_argument when there is none. *)

val reachable : t -> string -> bool
(** Abstractly reachable from the entry. *)

val edge_feasible : t -> src:string -> dst:string -> bool
(** False when the branch refinement proves the edge cannot be taken (or
    its source is unreachable). *)

val reg_value : t -> block:string -> Lang.reg -> Value_domain.t
(** Abstract value of a register in the in-state of [block] (after phi
    evaluation and edge refinement, joined over incoming edges);
    {!Value_domain.bot} when the block is unreachable. *)

val tracked_regs : t -> block:string -> Lang.reg list
(** Registers with an explicit (non-default) value in the in-state of
    [block], plus the parameters' [".0"] registers. *)

val pred_labels : t -> string -> string list
val loop_free : t -> bool
val in_loop : t -> string -> bool

val exactly_once : t -> string -> bool
(** The block executes exactly once on every run: the program is
    loop-free (hence terminating) and the block dominates every
    reachable exit. *)

val trip_bound : t -> header:string -> int option
(** The maximum number of loop-body iterations per entry into the loop
    headed by [header], when the analysis can bound its induction
    variable.  Generalises syntactic counter analysis: the step and limit
    may be arbitrary intervals (e.g. a parameter-dependent decrement). *)

val block_visit_bound : t -> string -> int option
(** Sound upper bound on executions of the block per program run, when
    one is derivable: 1 for blocks outside all loops (reducible CFGs),
    entries × trips for blocks in a single depth-1 loop with a known
    trip count. *)
