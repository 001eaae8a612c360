(** Must-analysis abstract cache state: the conservative direct-mapped
    model of Section 5.1 of the paper, plus pinned lines that are always
    guaranteed present. *)

type t

val create : line_size:int -> sets:int -> pinned_lines:int list -> t
(** Empty must-state (nothing guaranteed) with the given pinned lines. *)

val copy : t -> t
(** A fresh state with the same guarantees; the pin table is shared. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s guarantees with [src]'s (same geometry and pins). *)

val must_hit : t -> int -> bool
(** Is the line containing this address guaranteed to be cached? *)

val access : t -> int -> unit
(** Record an access; the line becomes guaranteed. *)

val clobber : t -> unit
(** Forget all guarantees except pinned lines (models a write to a
    statically unknown address). *)

val join : into:t -> t -> unit
(** Intersection, in place: afterwards a line is guaranteed in [into]
    only if it was guaranteed in both states. *)

val equal : t -> t -> bool
