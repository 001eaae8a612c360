(** Lowering TAC programs onto the generic CFG library, giving access to
    dominators, dominance frontiers (for SSA) and natural loops. *)

type t = {
  fn : Lang.block Cfg.Flowgraph.fn;
  id_of_label : (string, int) Hashtbl.t;
  label_of_id : string array;
}

val lower : Lang.program -> t
(** @raise Lang.Malformed on invalid programs. *)

val id : t -> string -> int
val label : t -> int -> string
