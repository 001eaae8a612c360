(** Two-phase simplex with Bland's rule and sparse constraint rows,
    presolved, solved in floats and certified in exact rationals.

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
(** Presolve — merge the variables tied by an [Eq] row [c.x_p - c.x_q = 0]
    (exactly two terms once duplicates are summed, rhs 0) into one column
    per class and drop the rows left [0 = 0] — then solve the reduced LP
    over floats, read x (rounded to integers) and y from its final basis,
    lift them to every original variable and row, and return them if
    {!certify} accepts them on the original LP.  Otherwise — an
    infeasible, unbounded or fractional float answer, a dual with no
    small-denominator reading, a rejected certificate, a [Rat] overflow or
    the pivot cap — call [on_fallback] and return {!solve_exact}'s answer
    on the original LP.  The two agree on the result kind and objective;
    on an LP with a tying row they may return different optimal points
    (the tests pin the same point on the analysis's IPET LPs), and on one
    without they pivot alike. *)

val solve_exact : lp -> result
(** The same algorithm over exact rationals on the LP as given (overflow
    raises {!Rat.Overflow}); the reference {!solve} falls back to. *)

val certify : lp -> solution -> bool
(** The LP-duality proof that [solution] is optimal, checked in [Rat] in
    time linear in the nonzeros: x >= 0 satisfies every row exactly, y has
    the right sign for each row relation, [A^T y >= c] column by column,
    and [c.x = b.y = objective].  Then no feasible point beats x.  [false]
    on any failed check or overflow. *)

val pp_result : result Fmt.t
