(** Timing payload attached to every CFG basic block: the information the
    paper's analysis extracts from the compiled kernel binary.

    Data accesses are classified by what the analysis knows statically:
    [Static] addresses can be proven to hit by must-analysis; [Dynamic]
    addresses (pointer chasing) are always charged the worst miss, and a
    dynamic access also invalidates the data must-state. *)

type access =
  | Static of { addr : int; write : bool }
  | Dynamic of { write : bool; count : int }

type t = {
  base : int;  (** code address of the block's first instruction *)
  instrs : int;
  accesses : access list;
  branch : bool option;
      (** overrides the default "conditional iff >= 2 successors" *)
}

val make :
  ?accesses:access list -> ?branch:bool -> base:int -> instrs:int -> unit -> t

val code_lines : t -> line_size:int -> int list
(** I-cache line addresses this block's instructions occupy. *)

val ends_in_branch : t -> num_succs:int -> bool
val pp : t Fmt.t
