(** Concrete interpreter for the TAC mini-language: the semantic ground
    truth against which slices and loop bounds are validated. *)

type trace = {
  visits : (string, int) Hashtbl.t;
  mutable steps : int;
  mutable halted : bool;
}

type state = {
  regs : (Lang.reg, int) Hashtbl.t;
  memory : (int, int) Hashtbl.t;
}

exception Step_limit

val run :
  ?max_steps:int ->
  Lang.program ->
  inputs:(Lang.reg * int) list ->
  state * trace
(** Execute from the entry block to [Halt].
    @raise Step_limit if the program runs longer than [max_steps] blocks. *)

val visits : trace -> string -> int
(** Times the given block was entered. *)

val for_all_inputs : Lang.program -> ((Lang.reg * int) list -> bool) -> bool
(** Short-circuiting universal quantification over all input valuations in
    the declared parameter domains. *)
