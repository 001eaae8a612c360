(** Must-analysis abstract cache state: the conservative direct-mapped
    model of Section 5.1 of the paper, plus pinned lines that are always
    guaranteed present. *)

type t

val create : line_size:int -> sets:int -> pinned_lines:int list -> t
(** Empty must-state (nothing guaranteed) with the given pinned lines. *)

val copy : t -> t

val must_hit : t -> int -> bool
(** Is the line containing this address guaranteed to be cached? *)

val access : t -> int -> unit
(** Record an access; the line becomes guaranteed. *)

val clobber : t -> unit
(** Forget all guarantees except pinned lines (models a write to a
    statically unknown address). *)

val join : t -> t -> t
(** Intersection: guaranteed only if guaranteed on both paths. *)

val equal : t -> t -> bool
