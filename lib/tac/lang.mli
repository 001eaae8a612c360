(** A three-address-code mini-language: the stand-in for the paper's ARM
    instruction semantics (Section 5.3), in which the kernel's loops are
    re-expressed so that iteration bounds can be computed mechanically. *)

type reg = string

type operand = Reg of reg | Imm of int

type binop = Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Assign of reg * operand
  | Binop of reg * binop * operand * operand
  | Load of reg * operand  (** destination, address *)
  | Store of operand * operand  (** address, value *)

type terminator =
  | Jump of string
  | Branch of cmp * operand * operand * string * string
      (** [Branch (c, a, b, l1, l2)]: if [a c b] goto [l1] else [l2] *)
  | Halt

type block = { label : string; instrs : instr list; term : terminator }

type param = { name : reg; lo : int; hi : int }
(** Input parameter with a finite domain; the model checker enumerates
    these exhaustively. *)

type program = { entry : string; params : param list; blocks : block list }

exception Malformed of string

val validate : program -> unit
(** @raise Malformed on duplicate labels, dangling jumps, bad domains. *)

val defs_of_instr : instr -> reg list
val uses_of_instr : instr -> reg list
val uses_of_operand : operand -> reg list
val uses_of_terminator : terminator -> reg list

val successors : terminator -> string list
(** Distinct successor labels. *)

val eval_cmp : cmp -> int -> int -> bool
val eval_binop : binop -> int -> int -> int

val pp_operand : operand Fmt.t
val pp_cmp : cmp Fmt.t
val pp_instr : instr Fmt.t
val pp_terminator : terminator Fmt.t
val pp : program Fmt.t
