(* Concrete interpreter for the TAC mini-language.

   Used as the semantic ground truth: the slicing and loop-bound machinery
   are validated against it (a slice must preserve the branching behaviour
   it was taken for; a claimed loop bound must dominate observed visit
   counts). *)

type trace = {
  visits : (string, int) Hashtbl.t;  (* block label -> times entered *)
  mutable steps : int;
  mutable halted : bool;
}

exception Step_limit

type state = {
  regs : (Lang.reg, int) Hashtbl.t;
  memory : (int, int) Hashtbl.t;
}

let initial_state bindings =
  let regs = Hashtbl.create 16 in
  List.iter (fun (r, v) -> Hashtbl.replace regs r v) bindings;
  { regs; memory = Hashtbl.create 16 }

let read_reg state r = try Hashtbl.find state.regs r with Not_found -> 0
let read_mem state a = try Hashtbl.find state.memory a with Not_found -> 0

let eval state = function
  | Lang.Reg r -> read_reg state r
  | Lang.Imm n -> n

let exec_instr state = function
  | Lang.Assign (r, a) -> Hashtbl.replace state.regs r (eval state a)
  | Lang.Binop (r, op, a, b) ->
      Hashtbl.replace state.regs r
        (Lang.eval_binop op (eval state a) (eval state b))
  | Lang.Load (r, a) ->
      Hashtbl.replace state.regs r (read_mem state (eval state a))
  | Lang.Store (a, v) ->
      Hashtbl.replace state.memory (eval state a) (eval state v)

let visits trace label =
  try Hashtbl.find trace.visits label with Not_found -> 0

(* Run to Halt (or raise [Step_limit]); returns final state and trace. *)
let run ?(max_steps = 1_000_000) program ~inputs =
  Lang.validate program;
  (* Labels are unique once validated; every step looks one up. *)
  let blocks = Hashtbl.create (List.length program.Lang.blocks) in
  List.iter
    (fun b -> Hashtbl.replace blocks b.Lang.label b)
    program.Lang.blocks;
  let state = initial_state inputs in
  let trace = { visits = Hashtbl.create 16; steps = 0; halted = false } in
  let rec go label =
    trace.steps <- trace.steps + 1;
    if trace.steps > max_steps then raise Step_limit;
    Hashtbl.replace trace.visits label (1 + visits trace label);
    let block = Hashtbl.find blocks label in
    List.iter (exec_instr state) block.Lang.instrs;
    match block.Lang.term with
    | Lang.Halt -> trace.halted <- true
    | Lang.Jump l -> go l
    | Lang.Branch (cmp, a, b, l1, l2) ->
        if Lang.eval_cmp cmp (eval state a) (eval state b) then go l1
        else go l2
  in
  go program.Lang.entry;
  (state, trace)

(* Enumerate all input valuations over the declared parameter domains and
   apply [f] to each, stopping at the first [false].  The state space this
   induces is what the loop-bound model check explores. *)
let for_all_inputs program f =
  let rec enum acc = function
    | [] -> f (List.rev acc)
    | (p : Lang.param) :: rest ->
        let rec values v =
          v > p.Lang.hi
          || (enum ((p.Lang.name, v) :: acc) rest && values (v + 1))
        in
        values p.Lang.lo
  in
  enum [] program.Lang.params
