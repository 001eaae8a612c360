(** Named-variable ILP/LP problem builder over integer coefficients.

    All variables are implicitly non-negative.  This is the constraint
    language the IPET analysis emits; labels on constraints make the
    generated systems readable, mirroring the manual constraint-inspection
    workflow of Section 5.2 of the paper. *)

type var = private int
(** Dense indices in creation order; solution arrays are indexed by them. *)

type relation = Le | Ge | Eq

type cstr = {
  label : string Lazy.t;  (** rendered only when read; [""] for none *)
  terms : (int * var) list;
  relation : relation;
  bound : int;
}

type t

val create : unit -> t

val var : ?index:int list -> t -> string -> var
(** Fresh non-negative variable.  Its name is the string followed by
    [index] (default none) joined with ["_"]: [var ~index:[3; 4] t "d"]
    is [d3_4].  The name is only rendered by {!name} and {!pp}. *)

val num_vars : t -> int
val name : t -> var -> string

val add_le : ?label:string Lazy.t -> t -> (int * var) list -> int -> unit
val add_ge : ?label:string Lazy.t -> t -> (int * var) list -> int -> unit
val add_eq : ?label:string Lazy.t -> t -> (int * var) list -> int -> unit

val set_objective : t -> (int * var) list -> unit
(** Objective to maximise. *)

val constraints : t -> cstr list
val num_constraints : t -> int

val objective : t -> (int * var) list
(** The current objective terms, as passed to {!set_objective}. *)

val to_lp : ?extra:cstr list -> t -> Simplex.lp
(** The LP relaxation of the problem plus [extra] rows, in row order. *)

val solve_relaxation :
  ?extra:cstr list -> ?on_fallback:(unit -> unit) -> t -> Simplex.result
(** {!Simplex.solve} on the problem plus [extra] rows. *)

val vars : t -> var list
(** All variables, in creation order. *)

val eval_terms : (int * var) list -> int array -> int
(** Value of a linear form at an integer point (indexed by variable). *)

val slack : cstr -> int array -> int
(** Distance from the constraint boundary at an integer point: [bound - lhs]
    for [Le], [lhs - bound] for [Ge], and [0] for [Eq] (always tight).
    Non-negative iff the point satisfies the constraint. *)

val binding : cstr -> int array -> bool
(** A constraint is binding (tight) at a point when its slack is zero —
    i.e. it is part of the optimal basis that actually limits the
    objective.  [Eq] rows are tight by construction. *)

val pp : t Fmt.t
