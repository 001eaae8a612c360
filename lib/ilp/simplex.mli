(** Two-phase simplex with Bland's rule and sparse constraint rows, solved
    in floats and certified in exact rationals.

    Solves [max c.x  s.t.  A x {<=,>=,=} b,  x >= 0].  Constraints are
    given sparsely — IPET flow matrices are ~95 % zeros — and pivots only
    walk the nonzero support of the pivot row.  The solver's output is
    used as a claimed sound upper bound on worst-case execution time, so
    every [Optimal] that {!solve} returns has either passed {!certify} or
    come from {!solve_exact}. *)

type op = Le | Ge | Eq

type lp = {
  num_vars : int;
  maximize : Rat.t array;  (** objective coefficients, length [num_vars] *)
  constraints : ((int * Rat.t) list * op * Rat.t) list;
      (** sparse rows: (variable index, coefficient) pairs; indices must be
          in [0, num_vars); duplicate indices are summed *)
}

type solution = {
  objective : Rat.t;
  values : Rat.t array;  (** the primal point x, indexed by variable *)
  duals : Rat.t array;
      (** the dual y, one entry per row of [constraints] in the caller's
          orientation: [>= 0] for [Le], [<= 0] for [Ge], free for [Eq] *)
}

type result = Optimal of solution | Infeasible | Unbounded

val solve : ?on_fallback:(unit -> unit) -> lp -> result
(** Solve over floats, read x (rounded to integers) and y from the final
    basis, and return them if {!certify} accepts; otherwise — an
    infeasible, unbounded or fractional float answer, a dual with no
    small-denominator reading, a rejected certificate, a [Rat] overflow or
    the pivot cap — call [on_fallback] and return {!solve_exact}'s answer.
    Both loops follow the same pivoting rule, so they reach the same basis
    unless a tolerance decides a tie differently; the tests compare the
    two on random problems. *)

val solve_exact : lp -> result
(** The same algorithm over exact rationals (overflow raises
    {!Rat.Overflow}); the reference {!solve} falls back to. *)

val certify : lp -> solution -> bool
(** The LP-duality proof that [solution] is optimal, checked in [Rat] in
    time linear in the nonzeros: x >= 0 satisfies every row exactly, y has
    the right sign for each row relation, [A^T y >= c] column by column,
    and [c.x = b.y = objective].  Then no feasible point beats x.  [false]
    on any failed check or overflow. *)

val pp_result : result Fmt.t
