(** Guarded capability-space decoding.

    A 32-bit capability address resolves through a tree of CNodes, each
    consuming guard bits plus radix bits.  An adversarial space consumes
    one bit per level — 32 pointer-chasing levels, the paper's Figure 7
    worst case and the dominant system-call cost. *)

open Ktypes

type error =
  | Invalid_root
  | Guard_mismatch of int  (** level *)
  | Depth_exhausted
  | Empty_slot of int  (** level *)

type result = Ok_slot of slot * int  (** slot, levels traversed *) | Error of error

val resolve : Ctx.t -> root_cap:cap -> cptr:int -> result
(** Resolve a capability address, charging one level's instructions and
    two loads per CNode traversed.  Resolution stops early at a non-CNode
    capability. *)

val pp_error : error Fmt.t
