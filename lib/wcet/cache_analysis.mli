(** Static cache analysis: must-analysis fixpoint over an inlined CFG and
    derivation of sound per-block cycle costs under the paper's conservative
    hardware model (Section 5.1). *)

type block_cost = {
  cycles : int;
  fetch_misses : int;
  fetch_hits : int;
  data_misses : int;
  data_hits : int;
}

type t = { costs : block_cost array }

val analyse :
  config:Hw.Config.t ->
  ?pinned_code:int list ->
  ?pinned_data:int list ->
  preds:int list array ->
  Timing.t Cfg.Flowgraph.fn ->
  t
(** Fixpoint over the (call-free) CFG starting from cold caches at entry.
    [preds] is the CFG's {!Cfg.Flowgraph.preds}.  Pinned lines are always
    guaranteed present. *)

val cost : t -> int -> block_cost
