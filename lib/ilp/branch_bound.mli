(** Branch-and-bound integer linear programming.

    Solves a {!Problem.t} with all variables restricted to non-negative
    integers, maximising the objective.  This is the "off-the-shelf ILP
    solver" role of the paper's toolchain (Section 5.2). *)

exception Node_limit

type outcome =
  | Optimal of { objective : int; values : int array }
  | Infeasible
  | Unbounded

type stats = {
  mutable nodes : int;
  mutable lp_solves : int;
  mutable fallbacks : int;
      (** LP solves the float path could not certify, answered by
          {!Simplex.solve_exact} *)
}

val solve : ?stats:stats -> Problem.t -> outcome
(** Depth-first search from an empty incumbent; IPET relaxations are
    usually integral, so the root node typically ends it.
    @raise Node_limit if the search exceeds 100_000 nodes. *)

val pp_outcome : outcome Fmt.t
