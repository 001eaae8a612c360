(* Worklist abstract interpreter over SSA with per-edge refinement.

   The CFG structure (dominators, natural loops, predecessors) comes from
   lowering an instruction-free skeleton of the SSA program through
   To_cfg; block ids below are the skeleton's. *)

module VD = Value_domain
module Smap = Map.Make (String)

type env = VD.t Smap.t

type stats = { iterations : int; widenings : int; narrowings : int }

type t = {
  ssa : Ssa.t;
  skel : To_cfg.t;
  ssa_of : Ssa.ssa_block array;  (* by skeleton id *)
  doms : Cfg.Dominators.t;
  loops : Cfg.Loops.t;
  reducible : bool;
  in_env : env option array;
  edges : (int * int, env) Hashtbl.t;
  stats : stats;
}

let ssa t = t.ssa
let stats t = t.stats

(* A register with no explicit binding: ".0" versions are initial values
   (the parameter's declared range, or the implicit zero every other
   register starts at — see Ssa.run); anything else is unknown. *)
let default_of (ssa : Ssa.t) reg =
  let base = Ssa.base_of reg in
  if reg = base ^ ".0" then
    match List.find_opt (fun (p : Lang.param) -> p.name = base) ssa.params with
    | Some p -> VD.range p.lo p.hi
    | None -> VD.const 0
  else VD.top

let lookup d env reg =
  match Smap.find_opt reg env with Some v -> v | None -> d reg

let eval d env = function
  | Lang.Imm n -> VD.const n
  | Lang.Reg r -> lookup d env r

let env_join d a b =
  Smap.merge
    (fun k x y ->
      match (x, y) with
      | Some x, Some y -> Some (VD.join x y)
      | Some x, None -> Some (VD.join x (d k))
      | None, Some y -> Some (VD.join (d k) y)
      | None, None -> None)
    a b

let env_widen d a b =
  Smap.merge
    (fun k x y ->
      let x = match x with Some x -> x | None -> d k in
      let y = match y with Some y -> y | None -> d k in
      Some (VD.widen x y))
    a b

let env_leq d a b =
  Smap.for_all
    (fun k va ->
      VD.leq va (match Smap.find_opt k b with Some v -> v | None -> d k))
    a
  && Smap.for_all
       (fun k vb ->
         match Smap.find_opt k a with
         | Some _ -> true
         | None -> VD.leq (d k) vb)
       b

(* Pointwise meet; None when some register becomes bottom (the state is
   unreachable). *)
let env_meet d a b =
  let bot = ref false in
  let m =
    Smap.merge
      (fun k x y ->
        let x = match x with Some x -> x | None -> d k in
        let y = match y with Some y -> y | None -> d k in
        let v = VD.meet x y in
        if VD.is_bot v then bot := true;
        Some v)
      a b
  in
  if !bot then None else Some m

let cmp_of : Lang.cmp -> VD.cmp = function
  | Lang.Eq -> VD.Eq
  | Lang.Ne -> VD.Ne
  | Lang.Lt -> VD.Lt
  | Lang.Le -> VD.Le
  | Lang.Gt -> VD.Gt
  | Lang.Ge -> VD.Ge

let transfer_instr d env (i : Lang.instr) =
  match i with
  | Assign (r, a) -> Smap.add r (eval d env a) env
  | Binop (r, op, a, b) ->
      let va = eval d env a and vb = eval d env b in
      let v =
        match (VD.is_const va, VD.is_const vb) with
        | Some x, Some y -> VD.const (Lang.eval_binop op x y)
        | _ -> (
            match op with
            | Add -> VD.add va vb
            | Sub -> VD.sub va vb
            | Mul -> VD.mul va vb
            | Div -> VD.div va vb
            | And -> VD.logand va vb
            | Or -> VD.logor va vb
            | Xor -> VD.logxor va vb
            | Shl -> VD.shl va vb
            | Shr -> VD.shr va vb)
      in
      Smap.add r v env
  | Load (r, _) -> Smap.add r VD.top env
  | Store _ -> env

let transfer_block d (b : Ssa.ssa_block) env =
  List.fold_left (transfer_instr d) env b.instrs

(* Refine [env] under the assumption [a c b]; None when the assumption
   is abstractly unsatisfiable (the edge is infeasible). *)
let refine_by d env c a b =
  let va = eval d env a and vb = eval d env b in
  match VD.definitely c va vb with
  | Some false -> None
  | _ ->
      let env =
        match a with
        | Lang.Reg ra -> Smap.add ra (VD.refine c va vb) env
        | Lang.Imm _ -> env
      in
      let env =
        match b with
        | Lang.Reg rb -> Smap.add rb (VD.refine (VD.swap_cmp c) vb va) env
        | Lang.Imm _ -> env
      in
      if Smap.exists (fun _ v -> VD.is_bot v) env then None else Some env

(* Environments flowing out of a block, per successor label. *)
let out_edges d (b : Ssa.ssa_block) env =
  match b.term with
  | Lang.Halt -> []
  | Lang.Jump l -> [ (l, env) ]
  | Lang.Branch (_, _, _, l1, l2) when l1 = l2 -> [ (l1, env) ]
  | Lang.Branch (c, a, bb, l1, l2) ->
      let c = cmp_of c in
      let t_edge =
        refine_by d env c a bb |> Option.map (fun e -> (l1, e))
      in
      let f_edge =
        refine_by d env (VD.negate_cmp c) a bb |> Option.map (fun e -> (l2, e))
      in
      List.filter_map Fun.id [ t_edge; f_edge ]

(* Evaluate [block]'s phis over the environment arriving on the edge from
   [pred] (parallel semantics; a missing source mirrors the concrete
   implicit zero). *)
let apply_phis d (block : Ssa.ssa_block) ~pred env =
  let bindings =
    List.map
      (fun (ph : Ssa.phi) ->
        let v =
          match List.assoc_opt pred ph.sources with
          | Some op -> eval d env op
          | None -> VD.const 0
        in
        (ph.dest, v))
      block.phis
  in
  List.fold_left (fun e (r, v) -> Smap.add r v e) env bindings

(* Visits of a loop header before its join widens. *)
let widen_delay = 2

let analyse_ssa (ssa : Ssa.t) =
  let skeleton =
    {
      Lang.entry = ssa.entry;
      params = ssa.params;
      blocks =
        List.map
          (fun (b : Ssa.ssa_block) ->
            { Lang.label = b.label; instrs = []; term = b.term })
          ssa.blocks;
    }
  in
  let skel = To_cfg.lower skeleton in
  let fn = skel.fn in
  let doms = Cfg.Dominators.compute fn in
  let loops = Cfg.Loops.compute fn in
  let reducible = Cfg.Loops.is_reducible fn loops in
  let n = Cfg.Flowgraph.num_blocks fn in
  let preds = Cfg.Flowgraph.preds fn in
  let is_header = Array.make n false in
  List.iter (fun h -> is_header.(h) <- true) (Cfg.Loops.headers loops);
  let d = default_of ssa in
  let ssa_of = Array.make n (List.hd ssa.blocks) in
  List.iter
    (fun (b : Ssa.ssa_block) -> ssa_of.(To_cfg.id skel b.label) <- b)
    ssa.blocks;
  let entry_id = To_cfg.id skel ssa.entry in
  (* Entry phis (the entry can be a loop header) start at the implicit
     zero, matching Ssa.run's missing-source behaviour. *)
  let env0 =
    List.fold_left
      (fun e (ph : Ssa.phi) -> Smap.add ph.dest (VD.const 0) e)
      Smap.empty (ssa_of.(entry_id)).phis
  in
  let in_env = Array.make n None in
  let edges : (int * int, env) Hashtbl.t = Hashtbl.create 64 in
  let visits = Array.make n 0 in
  let iterations = ref 0 and widenings = ref 0 and narrowings = ref 0 in
  let cap = (64 * n) + 256 in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue b =
    if not queued.(b) then (
      queued.(b) <- true;
      Queue.add b queue)
  in
  let recompute_in s =
    let contribs =
      List.filter_map
        (fun p ->
          Hashtbl.find_opt edges (p, s)
          |> Option.map (fun e -> apply_phis d ssa_of.(s) ~pred:skel.label_of_id.(p) e))
        preds.(s)
    in
    let contribs = if s = entry_id then env0 :: contribs else contribs in
    match contribs with
    | [] -> None
    | e :: rest -> Some (List.fold_left (env_join d) e rest)
  in
  let update_in s =
    match recompute_in s with
    | None -> ()
    | Some j -> (
        match in_env.(s) with
        | None ->
            in_env.(s) <- Some j;
            enqueue s
        | Some old ->
            let nw = env_join d old j in
            let widen_here =
              (is_header.(s) && visits.(s) >= widen_delay) || visits.(s) >= cap
            in
            let nw = if widen_here then env_widen d old nw else nw in
            if not (env_leq d nw old) then (
              if widen_here then incr widenings;
              in_env.(s) <- Some nw;
              enqueue s))
  in
  in_env.(entry_id) <- Some env0;
  enqueue entry_id;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    queued.(b) <- false;
    visits.(b) <- visits.(b) + 1;
    incr iterations;
    match in_env.(b) with
    | None -> ()
    | Some env ->
        let env = transfer_block d ssa_of.(b) env in
        List.iter
          (fun (l, e) ->
            let s = To_cfg.id skel l in
            let key = (b, s) in
            match Hashtbl.find_opt edges key with
            | None ->
                Hashtbl.replace edges key e;
                update_in s
            | Some old ->
                let ne = env_join d old e in
                if not (env_leq d ne old) then (
                  Hashtbl.replace edges key ne;
                  update_in s))
          (out_edges d ssa_of.(b) env)
  done;
  (* Descending sweeps: rebuild edge environments from the current
     in-states (dropping edges refinement now proves infeasible), then
     meet each in-state with its recomputed join.  Every state stays
     above the least fixpoint, so precision improves soundly. *)
  let rebuild_edges () =
    Hashtbl.reset edges;
    Array.iteri
      (fun b ino ->
        match ino with
        | None -> ()
        | Some env ->
            let env = transfer_block d ssa_of.(b) env in
            List.iter
              (fun (l, e) -> Hashtbl.replace edges (b, To_cfg.id skel l) e)
              (out_edges d ssa_of.(b) env))
      in_env
  in
  let rpo = Cfg.Flowgraph.reverse_postorder fn in
  for _pass = 1 to 2 do
    rebuild_edges ();
    List.iter
      (fun s ->
        match in_env.(s) with
        | None -> ()
        | Some old -> (
            match recompute_in s with
            | None ->
                in_env.(s) <- None;
                incr narrowings
            | Some nw -> (
                match env_meet d old nw with
                | None ->
                    in_env.(s) <- None;
                    incr narrowings
                | Some m ->
                    if not (env_leq d old m) then incr narrowings;
                    in_env.(s) <- Some m)))
      rpo
  done;
  rebuild_edges ();
  {
    ssa;
    skel;
    ssa_of;
    doms;
    loops;
    reducible;
    in_env;
    edges;
    stats =
      {
        iterations = !iterations;
        widenings = !widenings;
        narrowings = !narrowings;
      };
  }

let analyse p =
  Lang.validate p;
  analyse_ssa (Ssa.convert p)

let id_opt t label = Hashtbl.find_opt t.skel.id_of_label label

let block t label =
  match id_opt t label with
  | Some i -> t.ssa_of.(i)
  | None -> invalid_arg ("Absint.block: no block " ^ label)

let reachable t label =
  match id_opt t label with Some i -> t.in_env.(i) <> None | None -> false

let edge_feasible t ~src ~dst =
  match (id_opt t src, id_opt t dst) with
  | Some s, Some d -> Hashtbl.mem t.edges (s, d)
  | _ -> false

let reg_value t ~block reg =
  match id_opt t block with
  | None -> VD.bot
  | Some i -> (
      match t.in_env.(i) with
      | None -> VD.bot
      | Some env -> lookup (default_of t.ssa) env reg)

let tracked_regs t ~block =
  let params =
    List.map (fun (p : Lang.param) -> p.name ^ ".0") t.ssa.params
  in
  match id_opt t block with
  | None -> params
  | Some i -> (
      match t.in_env.(i) with
      | None -> params
      | Some env ->
          let keys = Smap.fold (fun k _ acc -> k :: acc) env [] in
          keys @ List.filter (fun p -> not (Smap.mem p env)) params)

let pred_labels t label =
  match id_opt t label with
  | None -> []
  | Some i ->
      List.map
        (fun p -> t.skel.label_of_id.(p))
        (Cfg.Flowgraph.preds t.skel.fn).(i)

let loop_free t = Cfg.Loops.loops t.loops = []

let in_loop t label =
  match id_opt t label with
  | None -> false
  | Some i ->
      List.exists
        (fun (l : Cfg.Loops.loop) -> List.mem i l.body)
        (Cfg.Loops.loops t.loops)

let exactly_once t label =
  loop_free t && reachable t label
  &&
  match id_opt t label with
  | None -> false
  | Some i ->
      List.for_all
        (fun e -> t.in_env.(e) = None || Cfg.Dominators.dominates t.doms i e)
        (Cfg.Flowgraph.exits t.skel.fn)

(* Induction-variable trip counting over the fixpoint: a header phi
   whose in-loop sources are the phi plus or minus a step, compared
   against a limit, with init, step and limit all interval-valued.  This
   is the first method of the kernel loop-bound chain (Kernel_loops). *)

let find_def t reg =
  List.find_map
    (fun (b : Ssa.ssa_block) ->
      List.find_map
        (fun i ->
          if List.mem reg (Lang.defs_of_instr i) then Some (b, i) else None)
        b.instrs)
    t.ssa.blocks

let ceil_div a b = (a + b - 1) / b

let trip_of_candidate t loop ~header_id iv limit_op ccmp =
  let d = default_of t.ssa in
  let header = t.skel.label_of_id.(header_id) in
  let hblock = t.ssa_of.(header_id) in
  match List.find_opt (fun (ph : Ssa.phi) -> ph.dest = iv) hblock.phis with
  | None -> None
  | Some phi -> (
      let body = (loop : Cfg.Loops.loop).body in
      let in_body l =
        match id_opt t l with Some i -> List.mem i body | None -> false
      in
      let edge_env p =
        match (id_opt t p, id_opt t header) with
        | Some pi, Some hi -> Hashtbl.find_opt t.edges (pi, hi)
        | _ -> None
      in
      (* Initial value: join of the entry-edge sources. *)
      let inits =
        List.filter_map
          (fun (p, op) ->
            if in_body p then None
            else
              match edge_env p with
              | Some e -> Some (eval d e op)
              | None -> None)
          phi.sources
      in
      (* Step: each latch source must be iv +/- something. *)
      let steps =
        List.map
          (fun (p, op) ->
            if not (in_body p) then Some []
            else
              match op with
              | Lang.Reg s -> (
                  match find_def t s with
                  | Some (db, Lang.Binop (_, Lang.Add, Lang.Reg x, y))
                    when x = iv -> (
                      match t.in_env.(To_cfg.id t.skel db.label) with
                      | Some env ->
                          Some [ eval d (transfer_block d db env) y ]
                      | None -> Some [] (* latch unreachable *))
                  | Some (db, Lang.Binop (_, Lang.Sub, Lang.Reg x, y))
                    when x = iv -> (
                      match t.in_env.(To_cfg.id t.skel db.label) with
                      | Some env ->
                          Some [ VD.neg (eval d (transfer_block d db env) y) ]
                      | None -> Some [])
                  | _ -> None)
              | Lang.Imm _ -> None)
          phi.sources
      in
      if List.exists (fun s -> s = None) steps then None
      else
        let steps = List.concat_map Option.get steps in
        let init = List.fold_left VD.join VD.bot inits in
        let step = List.fold_left VD.join VD.bot steps in
        let limit =
          match t.in_env.(header_id) with
          | Some env -> eval d env limit_op
          | None -> VD.bot
        in
        if VD.is_bot init || VD.is_bot step || VD.is_bot limit then None
        else
          match ccmp with
          | Lang.Lt | Lang.Le -> (
              match
                (VD.finite_lo init, VD.finite_lo step, VD.finite_hi limit)
              with
              | Some i0, Some smin, Some lmax when smin >= 1 ->
                  let span =
                    lmax - i0 + (if ccmp = Lang.Le then 1 else 0)
                  in
                  Some (max 0 (ceil_div (max 0 span) smin))
              | _ -> None)
          | Lang.Gt | Lang.Ge -> (
              match
                (VD.finite_hi init, VD.finite_hi step, VD.finite_lo limit)
              with
              | Some i0, Some smax, Some lmin when smax <= -1 ->
                  let span =
                    i0 - lmin + (if ccmp = Lang.Ge then 1 else 0)
                  in
                  Some (max 0 (ceil_div (max 0 span) (-smax)))
              | _ -> None)
          | Lang.Ne -> (
              match
                (VD.is_const init, VD.is_const step, VD.is_const limit)
              with
              | Some i0, Some s, Some l when s <> 0 ->
                  let diff = l - i0 in
                  if diff mod s = 0 && diff / s >= 0 then Some (diff / s)
                  else None
              | _ -> None)
          | Lang.Eq -> None)

let trip_bound t ~header =
  match id_opt t header with
  | None -> None
  | Some hid -> (
      match Cfg.Loops.loop_of_header t.loops hid with
      | None -> None
      | Some loop -> (
          let hblock = t.ssa_of.(hid) in
          match hblock.term with
          | Lang.Branch (c, a, b, l1, l2) when l1 <> l2 -> (
              let in_body l =
                match id_opt t l with
                | Some i -> List.mem i loop.body
                | None -> false
              in
              let cont =
                match (in_body l1, in_body l2) with
                | true, false -> Some c
                | false, true ->
                    Some
                      (match c with
                      | Lang.Eq -> Lang.Ne
                      | Lang.Ne -> Lang.Eq
                      | Lang.Lt -> Lang.Ge
                      | Lang.Le -> Lang.Gt
                      | Lang.Gt -> Lang.Le
                      | Lang.Ge -> Lang.Lt)
                | _ -> None
              in
              match cont with
              | None -> None
              | Some ccmp -> (
                  let swap = function
                    | Lang.Lt -> Lang.Gt
                    | Lang.Gt -> Lang.Lt
                    | Lang.Le -> Lang.Ge
                    | Lang.Ge -> Lang.Le
                    | c -> c
                  in
                  let c1 =
                    match a with
                    | Lang.Reg iv ->
                        trip_of_candidate t loop ~header_id:hid iv b ccmp
                    | Lang.Imm _ -> None
                  in
                  match c1 with
                  | Some _ -> c1
                  | None -> (
                      match b with
                      | Lang.Reg iv ->
                          trip_of_candidate t loop ~header_id:hid iv a
                            (swap ccmp)
                      | Lang.Imm _ -> None)))
          | _ -> None))

let block_visit_bound t label =
  if not t.reducible then None
  else
    match id_opt t label with
    | None -> None
    | Some i ->
        if t.in_env.(i) = None then Some 0
        else
          let containing =
            List.filter
              (fun (l : Cfg.Loops.loop) -> List.mem i l.body)
              (Cfg.Loops.loops t.loops)
          in
          match containing with
          | [] -> Some 1
          | [ loop ] when loop.depth = 1 -> (
              let entry_srcs =
                List.map fst (Cfg.Loops.entry_edges t.skel.fn loop)
              in
              let src_outside_loops s =
                not
                  (List.exists
                     (fun (l : Cfg.Loops.loop) -> List.mem s l.body)
                     (Cfg.Loops.loops t.loops))
              in
              if not (List.for_all src_outside_loops entry_srcs) then None
              else
                match trip_bound t ~header:t.skel.label_of_id.(loop.header) with
                | None -> None
                | Some trips ->
                    let per_entry =
                      if i = loop.header then trips + 1 else trips
                    in
                    Some (List.length entry_srcs * per_entry))
          | _ -> None
