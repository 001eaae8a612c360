(** Static single assignment construction (Cytron et al.), as named in
    Section 5.3 of the paper: phi insertion at dominance frontiers, then
    stack-based renaming over the dominator tree.

    Versioned registers are written ["r.k"]; version ["r.0"] is the initial
    value of [r] (an input parameter, or an implicit zero). *)

type phi = { dest : Lang.reg; sources : (string * Lang.operand) list }
(** One source per predecessor block label. *)

type ssa_block = {
  label : string;
  phis : phi list;
  instrs : Lang.instr list;
  term : Lang.terminator;
}

type t = { entry : string; params : Lang.param list; blocks : ssa_block list }

val convert : Lang.program -> t
(** SSA-convert a validated program; unreachable blocks are dropped. *)

val base_of : Lang.reg -> Lang.reg
(** Strip the version suffix: [base_of "i.3" = "i"]. *)

val run :
  ?max_steps:int -> t -> inputs:(Lang.reg * int) list -> (string, int) Hashtbl.t
(** Execute the SSA program directly (parallel phi semantics) and return
    per-block visit counts.  The loop-bound model check
    ([Kernel_loops.compute_bound]) runs a sliced loop this way once per
    input valuation; the tests use it to check that SSA construction and
    slicing preserve visit counts.
    @raise Interp.Step_limit on divergence. *)

val pp : t Fmt.t
