(** Branch-and-bound integer linear programming.

    Solves a {!Problem.t} with all variables restricted to non-negative
    integers, maximising the objective.  This is the "off-the-shelf ILP
    solver" role of the paper's toolchain (Section 5.2). *)

exception Node_limit

type outcome =
  | Optimal of { objective : int; values : int array }
  | Infeasible
  | Unbounded

type stats = { mutable nodes : int; mutable lp_solves : int }

val solve : ?max_nodes:int -> ?stats:stats -> Problem.t -> outcome
(** Depth-first search from an empty incumbent; IPET relaxations are
    usually integral, so the root node typically ends it.
    @raise Node_limit if the search exceeds [max_nodes] (default 100_000). *)

val pp_outcome : outcome Fmt.t
