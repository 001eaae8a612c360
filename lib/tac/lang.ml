(* A three-address-code mini-language.

   This plays the role of the paper's ARM instruction semantics (obtained
   there from the Fox/Myreen ARMv7 formalisation, Section 5.3): a small,
   exactly-defined language in which the kernel's loops can be re-expressed
   so that loop bounds can be computed mechanically by slicing and model
   checking rather than asserted by hand. *)

type reg = string

type operand = Reg of reg | Imm of int

type binop = Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Assign of reg * operand
  | Binop of reg * binop * operand * operand
  | Load of reg * operand  (* dst, address *)
  | Store of operand * operand  (* address, value *)

type terminator =
  | Jump of string
  | Branch of cmp * operand * operand * string * string
      (* if cmp a b then goto l1 else goto l2 *)
  | Halt

type block = { label : string; instrs : instr list; term : terminator }

type param = { name : reg; lo : int; hi : int }
(* Input parameter with its declared finite domain; the model checker
   enumerates these. *)

type program = { entry : string; params : param list; blocks : block list }

let defs_of_instr = function
  | Assign (r, _) | Binop (r, _, _, _) | Load (r, _) -> [ r ]
  | Store _ -> []

let uses_of_operand = function Reg r -> [ r ] | Imm _ -> []

let uses_of_instr = function
  | Assign (_, a) -> uses_of_operand a
  | Binop (_, _, a, b) -> uses_of_operand a @ uses_of_operand b
  | Load (_, a) -> uses_of_operand a
  | Store (a, v) -> uses_of_operand a @ uses_of_operand v

let uses_of_terminator = function
  | Jump _ | Halt -> []
  | Branch (_, a, b, _, _) -> uses_of_operand a @ uses_of_operand b

let successors = function
  | Jump l -> [ l ]
  | Branch (_, _, _, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Halt -> []

let eval_cmp cmp a b =
  match cmp with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 62)
  | Shr -> a lsr (b land 62)

exception Malformed of string

let validate program =
  let labels = List.map (fun b -> b.label) program.blocks in
  let rec dups = function
    | [] -> ()
    | l :: rest ->
        if List.mem l rest then raise (Malformed ("duplicate label " ^ l))
        else dups rest
  in
  dups labels;
  if not (List.mem program.entry labels) then
    raise (Malformed ("missing entry " ^ program.entry));
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (List.mem s labels) then
            raise (Malformed (Fmt.str "%s jumps to unknown %s" b.label s)))
        (successors b.term))
    program.blocks;
  List.iter
    (fun (p : param) ->
      if p.lo > p.hi then
        raise (Malformed (Fmt.str "empty domain for %s" p.name)))
    program.params

let pp_operand ppf = function
  | Reg r -> Fmt.string ppf r
  | Imm n -> Fmt.int ppf n

let pp_binop ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "+"
    | Sub -> "-"
    | Mul -> "*"
    | Div -> "/"
    | And -> "&"
    | Or -> "|"
    | Xor -> "^"
    | Shl -> "<<"
    | Shr -> ">>")

let pp_cmp ppf c =
  Fmt.string ppf
    (match c with
    | Eq -> "=="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let pp_instr ppf = function
  | Assign (r, a) -> Fmt.pf ppf "%s := %a" r pp_operand a
  | Binop (r, op, a, b) ->
      Fmt.pf ppf "%s := %a %a %a" r pp_operand a pp_binop op pp_operand b
  | Load (r, a) -> Fmt.pf ppf "%s := mem[%a]" r pp_operand a
  | Store (a, v) -> Fmt.pf ppf "mem[%a] := %a" pp_operand a pp_operand v

let pp_terminator ppf = function
  | Jump l -> Fmt.pf ppf "goto %s" l
  | Branch (c, a, b, l1, l2) ->
      Fmt.pf ppf "if %a %a %a goto %s else %s" pp_operand a pp_cmp c
        pp_operand b l1 l2
  | Halt -> Fmt.string ppf "halt"

let pp ppf program =
  Fmt.pf ppf "@[<v>entry %s@," program.entry;
  List.iter
    (fun (p : param) -> Fmt.pf ppf "param %s in [%d,%d]@," p.name p.lo p.hi)
    program.params;
  List.iter
    (fun b ->
      Fmt.pf ppf "%s:@," b.label;
      List.iter (fun i -> Fmt.pf ppf "  %a@," pp_instr i) b.instrs;
      Fmt.pf ppf "  %a@," pp_terminator b.term)
    program.blocks;
  Fmt.pf ppf "@]"
