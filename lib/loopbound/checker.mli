(** Bounded model checking of loop bounds with binary search
    (Section 5.3): the program's executions over its exhaustively
    enumerated input domains form the state space; the property "the loop
    head executes at most N times" is an LTL [always]; the bound is the
    least N the checker verifies. *)

type verdict = Verified | Violated of (Tac.Lang.reg * int) list | Diverged

type trace_state = { label : string; visit : int }

val verify :
  ?max_steps:int -> Tac.Lang.program -> header:string -> bound:int -> verdict
(** Check [always (visits header <= bound)] over every input valuation.
    [Violated] carries a concrete counterexample input. *)

val find_bound :
  ?max_steps:int -> ?upper:int -> Tac.Lang.program -> header:string ->
  int option
(** Binary search for the least verified bound; [None] if even [upper]
    cannot be verified. *)

val max_observed : ?max_steps:int -> Tac.Lang.program -> header:string -> int
(** Exhaustive ground truth, for validating the other two. *)

val pp_verdict : verdict Fmt.t
