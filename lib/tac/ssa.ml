(* Static single assignment construction (Cytron et al. 1991), as named in
   Section 5.3 of the paper: phi insertion at dominance frontiers followed
   by stack-based renaming over the dominator tree.

   Versioned registers are written "r.k"; version "r.0" is the initial
   value of [r] (an input parameter or an implicit zero). *)

type phi = { dest : Lang.reg; sources : (string * Lang.operand) list }
(* One source per predecessor label. *)

type ssa_block = {
  label : string;
  phis : phi list;
  instrs : Lang.instr list;
  term : Lang.terminator;
}

type t = { entry : string; params : Lang.param list; blocks : ssa_block list }

let base_of versioned =
  match String.rindex_opt versioned '.' with
  | Some i -> String.sub versioned 0 i
  | None -> versioned

let all_variables (program : Lang.program) =
  let tbl = Hashtbl.create 16 in
  let note r = Hashtbl.replace tbl r () in
  List.iter (fun (p : Lang.param) -> note p.Lang.name) program.Lang.params;
  List.iter
    (fun (b : Lang.block) ->
      List.iter
        (fun i ->
          List.iter note (Lang.defs_of_instr i);
          List.iter note (Lang.uses_of_instr i))
        b.Lang.instrs;
      List.iter note (Lang.uses_of_terminator b.Lang.term))
    program.Lang.blocks;
  Hashtbl.fold (fun r () acc -> r :: acc) tbl [] |> List.sort compare

let convert (program : Lang.program) =
  let lowered = To_cfg.lower program in
  let fn = lowered.To_cfg.fn in
  let n = Cfg.Flowgraph.num_blocks fn in
  let dom = Cfg.Dominators.compute fn in
  let frontiers = Cfg.Dominators.frontiers fn dom in
  let vars = all_variables program in
  (* Phase 1: phi placement.  For each variable, iterate the dominance
     frontiers of its definition sites. *)
  let def_blocks v =
    List.filter_map
      (fun (b : Lang.block) ->
        if
          List.exists
            (fun i -> List.mem v (Lang.defs_of_instr i))
            b.Lang.instrs
        then Some (To_cfg.id lowered b.Lang.label)
        else None)
      program.Lang.blocks
    @
    (* Parameters are defined at entry. *)
    if List.exists (fun (p : Lang.param) -> p.Lang.name = v) program.Lang.params
    then [ fn.Cfg.Flowgraph.entry ]
    else []
  in
  let needs_phi = Array.make n [] in
  List.iter
    (fun v ->
      let placed = Array.make n false in
      let work = Queue.create () in
      List.iter (fun b -> Queue.push b work) (def_blocks v);
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        List.iter
          (fun f ->
            if not placed.(f) then begin
              placed.(f) <- true;
              needs_phi.(f) <- v :: needs_phi.(f);
              Queue.push f work
            end)
          frontiers.(b)
      done)
    vars;
  (* Phase 2: renaming over the dominator tree. *)
  let counters = Hashtbl.create 16 in
  let stacks : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let top v =
    match Hashtbl.find_opt stacks v with
    | Some (x :: _) -> x
    | _ -> v ^ ".0"
  in
  let fresh v =
    let k = 1 + try Hashtbl.find counters v with Not_found -> 0 in
    Hashtbl.replace counters v k;
    let name = v ^ "." ^ string_of_int k in
    Hashtbl.replace stacks v (name :: try Hashtbl.find stacks v with Not_found -> []);
    name
  in
  let pop v =
    match Hashtbl.find_opt stacks v with
    | Some (_ :: rest) -> Hashtbl.replace stacks v rest
    | _ -> assert false
  in
  let rename_operand = function
    | Lang.Reg r -> Lang.Reg (top r)
    | Lang.Imm n -> Lang.Imm n
  in
  (* Mutable per-block result under construction. *)
  let out_phis : (string * phi ref list) array =
    Array.init n (fun b ->
        ( To_cfg.label lowered b,
          List.map
            (fun v -> ref { dest = v; sources = [] })
            (List.sort compare needs_phi.(b)) ))
  in
  let out_instrs = Array.make n [] in
  let out_terms = Array.make n Lang.Halt in
  let children = Cfg.Dominators.dominator_tree dom in
  let rec walk b =
    let block = (Cfg.Flowgraph.block fn b).Cfg.Flowgraph.payload in
    let label = block.Lang.label in
    let pushed = ref [] in
    (* Phi destinations define new versions. *)
    let _, phis = out_phis.(b) in
    List.iter
      (fun phi_ref ->
        let v = base_of !phi_ref.dest in
        let name = fresh v in
        pushed := v :: !pushed;
        phi_ref := { !phi_ref with dest = name })
      phis;
    out_instrs.(b) <-
      List.map
        (fun i ->
          match i with
          | Lang.Assign (r, a) ->
              let a' = rename_operand a in
              let r' = fresh r in
              pushed := r :: !pushed;
              Lang.Assign (r', a')
          | Lang.Binop (r, op, a, c) ->
              let a' = rename_operand a and c' = rename_operand c in
              let r' = fresh r in
              pushed := r :: !pushed;
              Lang.Binop (r', op, a', c')
          | Lang.Load (r, a) ->
              let a' = rename_operand a in
              let r' = fresh r in
              pushed := r :: !pushed;
              Lang.Load (r', a')
          | Lang.Store (a, v) -> Lang.Store (rename_operand a, rename_operand v))
        block.Lang.instrs;
    out_terms.(b) <-
      (match block.Lang.term with
      | Lang.Jump l -> Lang.Jump l
      | Lang.Branch (c, a, v, l1, l2) ->
          Lang.Branch (c, rename_operand a, rename_operand v, l1, l2)
      | Lang.Halt -> Lang.Halt);
    (* Fill phi sources of successors. *)
    List.iter
      (fun s ->
        let _, succ_phis = out_phis.(s) in
        List.iter
          (fun phi_ref ->
            let v = base_of !phi_ref.dest in
            phi_ref :=
              {
                !phi_ref with
                sources = (label, Lang.Reg (top v)) :: !phi_ref.sources;
              })
          succ_phis)
      (Cfg.Flowgraph.succs fn b);
    List.iter walk children.(b);
    List.iter pop !pushed
  in
  walk fn.Cfg.Flowgraph.entry;
  (* Lowered ids run entry first, then the rest in program order. *)
  let reachable = Cfg.Flowgraph.reachable fn in
  let blocks =
    List.filter_map
      (fun id ->
        if not reachable.(id) then None
        else
          let label, phis = out_phis.(id) in
          Some
            {
              label;
              phis = List.map (fun r -> !r) phis;
              instrs = out_instrs.(id);
              term = out_terms.(id);
            })
      (List.init n Fun.id)
  in
  { entry = program.Lang.entry; params = program.Lang.params; blocks }

(* --- SSA interpreter, for validating semantics preservation --- *)

let run ?(max_steps = 1_000_000) (t : t) ~inputs =
  let blocks = Hashtbl.create (List.length t.blocks) in
  List.iter (fun b -> Hashtbl.replace blocks b.label b) t.blocks;
  let regs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* Version 0 of each parameter carries its input value. *)
  List.iter (fun (r, v) -> Hashtbl.replace regs (r ^ ".0") v) inputs;
  let memory = Hashtbl.create 16 in
  let read r = try Hashtbl.find regs r with Not_found -> 0 in
  let eval = function Lang.Reg r -> read r | Lang.Imm n -> n in
  let visits = Hashtbl.create 16 in
  let steps = ref 0 in
  let rec go pred label =
    incr steps;
    if !steps > max_steps then raise Interp.Step_limit;
    Hashtbl.replace visits label
      (1 + try Hashtbl.find visits label with Not_found -> 0);
    let block = Hashtbl.find blocks label in
    (* Parallel phi evaluation: read all sources before writing. *)
    let phi_values =
      List.map
        (fun phi ->
          match List.assoc_opt pred phi.sources with
          | Some src -> (phi.dest, eval src)
          | None -> (phi.dest, 0))
        block.phis
    in
    List.iter (fun (d, v) -> Hashtbl.replace regs d v) phi_values;
    List.iter
      (fun i ->
        match i with
        | Lang.Assign (r, a) -> Hashtbl.replace regs r (eval a)
        | Lang.Binop (r, op, a, b) ->
            Hashtbl.replace regs r (Lang.eval_binop op (eval a) (eval b))
        | Lang.Load (r, a) ->
            Hashtbl.replace regs r
              (try Hashtbl.find memory (eval a) with Not_found -> 0)
        | Lang.Store (a, v) -> Hashtbl.replace memory (eval a) (eval v))
      block.instrs;
    match block.term with
    | Lang.Halt -> ()
    | Lang.Jump l -> go label l
    | Lang.Branch (c, a, b, l1, l2) ->
        if Lang.eval_cmp c (eval a) (eval b) then go label l1 else go label l2
  in
  go "" t.entry;
  visits

let pp ppf t =
  Fmt.pf ppf "@[<v>entry %s@," t.entry;
  List.iter
    (fun b ->
      Fmt.pf ppf "%s:@," b.label;
      List.iter
        (fun phi ->
          Fmt.pf ppf "  %s := phi(%a)@," phi.dest
            Fmt.(
              list ~sep:comma (fun ppf (l, o) ->
                  pf ppf "%s: %a" l Lang.pp_operand o))
            phi.sources)
        b.phis;
      List.iter (fun i -> Fmt.pf ppf "  %a@," Lang.pp_instr i) b.instrs;
      Fmt.pf ppf "  %a@," Lang.pp_terminator b.term)
    t.blocks;
  Fmt.pf ppf "@]"
