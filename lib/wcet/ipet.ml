(* Implicit Path Enumeration Technique (Li & Malik), as used by Chronos and
   by the paper's analysis (Section 5.2).

   The kernel program is virtually inlined into one call-free CFG; the
   cache analysis assigns every block a sound cycle cost; and the worst
   case is the solution of an integer linear program over block execution
   counts x_b and edge traversal counts d_e:

     maximise   sum_b cost_b * x_b
     subject to structural flow conservation (x_b equals the flow in and
     the flow out of b, with one unit of virtual flow entering at the entry
     block and leaving at the exits), loop bounds relating header counts to
     the flow entering the loop, and the manual constraint forms of
     {!User_constraint}.

   The pipeline is split in two so the expensive prefix — virtual inlining,
   loop detection and the cache-analysis fixpoint, which depend only on the
   program, hardware configuration and pinned lines — is computed once
   ({!prepare}) and shared across every ILP variant run over it
   ({!analyse_prepared}): with each constraint source or none, and with
   any set of forced path counts (Section 6.2).  Every variant is solved
   cold: IPET relaxations are integral, so branch-and-bound ends at the
   root LP and a seeded incumbent would save nothing. *)

type loop_bound = { func : string; header : string; bound : int }

type spec = {
  program : Timing.t Cfg.Flowgraph.program;
  bounds : loop_bound list;
  constraints : User_constraint.t list;
  derived : (User_constraint.t * Derive_constraints.derivation) list;
}

type sources = [ `All | `Manual | `Derived | `None ]

type result = {
  wcet : int;
  block_counts : int array;
  inlined : Timing.t Cfg.Inline.t;
  costs : Cache_analysis.t;
  ilp_vars : int;
  ilp_constraints : int;
  bb_nodes : int;
  lp_solves : int;
  elapsed_s : float;
  edge_counts : ((int * int) * int) list;
  binding_constraints : (string * int) list;
}

exception Unbounded_loop of string
exception No_solution of string

(* Label of the original source block of an inlined block. *)
let source_label program (origin : Cfg.Inline.origin) =
  let fn = Cfg.Flowgraph.find_fn program origin.Cfg.Inline.func in
  (Cfg.Flowgraph.block fn origin.Cfg.Inline.orig_id).Cfg.Flowgraph.label

(* Instance ids of every block of every function, grouped by source
   function and calling context: each entry is
   (context, [(inlined id, source label, is function entry)]) sorted by
   context.  One pass over the origin table covers all functions; the
   result is immutable and shared by every analysis over this prefix. *)
let compute_contexts inlined program =
  let by_func : (string, (string, (int * string * bool) list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun id (o : Cfg.Inline.origin) ->
      let label = source_label program o in
      let entry =
        (Cfg.Flowgraph.find_fn program o.Cfg.Inline.func).Cfg.Flowgraph.entry
        = o.Cfg.Inline.orig_id
      in
      let by_ctx =
        match Hashtbl.find_opt by_func o.Cfg.Inline.func with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 8 in
            Hashtbl.add by_func o.Cfg.Inline.func h;
            h
      in
      let prev =
        try Hashtbl.find by_ctx o.Cfg.Inline.context with Not_found -> []
      in
      Hashtbl.replace by_ctx o.Cfg.Inline.context ((id, label, entry) :: prev))
    inlined.Cfg.Inline.origins;
  let table = Hashtbl.create 16 in
  Hashtbl.iter
    (fun func by_ctx ->
      Hashtbl.replace table func
        (Hashtbl.fold (fun ctx blocks acc -> (ctx, blocks) :: acc) by_ctx []
        |> List.sort compare))
    by_func;
  table

type prepared = {
  spec : spec;
  config : Hw.Config.t;
  pinned_code : int list;
  pinned_data : int list;
  inlined : Timing.t Cfg.Inline.t;
  costs : Cache_analysis.t;
  loops : Cfg.Loops.t;
  preds : int list array;
  contexts : (string, (string * (int * string * bool) list) list) Hashtbl.t;
      (* read-only after [prepare]; safe to share across domains *)
  prep_elapsed_s : float;
}

(* Per-stage wall-time spans for the metrics registry (sel4rt metrics,
   perfbench).  Wall time never feeds the event tracer. *)
let span_prepare = Obs.Metrics.histogram "ipet.prepare"
let span_cache = Obs.Metrics.histogram "ipet.cache_analysis"
let span_build = Obs.Metrics.histogram "ipet.ilp_build"
let span_solve = Obs.Metrics.histogram "ipet.ilp_solve"

let prepare ~config ?(pinned_code = []) ?(pinned_data = []) (spec : spec) =
  Obs.Metrics.span span_prepare @@ fun () ->
  let started = Clock.now_s () in
  let inlined = Cfg.Inline.inline spec.program in
  let fn = inlined.Cfg.Inline.fn in
  let costs =
    Obs.Metrics.span span_cache (fun () ->
        Cache_analysis.analyse ~config ~pinned_code ~pinned_data fn)
  in
  let loops = Cfg.Loops.compute fn in
  let preds = Cfg.Flowgraph.preds fn in
  let contexts = compute_contexts inlined spec.program in
  {
    spec;
    config;
    pinned_code;
    pinned_data;
    inlined;
    costs;
    loops;
    preds;
    contexts;
    prep_elapsed_s = Clock.elapsed_s ~since:started;
  }

(* Constraints selected for one ILP variant, each tagged with its
   provenance for the constraint-row label.  Derived constraints that
   structurally duplicate a manual one are dropped under [`All]. *)
let selected_constraints (spec : spec) (sources : sources) =
  let manual = List.map (fun c -> (c, "manual")) spec.constraints in
  let derived =
    List.map
      (fun (c, (d : Derive_constraints.derivation)) ->
        ( c,
          Fmt.str "derived %s/%s" d.Derive_constraints.dv_model
            (Derive_constraints.rule_name d.Derive_constraints.dv_rule) ))
      spec.derived
  in
  match sources with
  | `None -> []
  | `Manual -> manual
  | `Derived -> derived
  | `All ->
      manual
      @ List.filter (fun (c, _) -> not (List.mem c spec.constraints)) derived

let analyse_prepared ?(sources : sources = `All)
    ?(forced = ([] : (string * string * int) list)) (p : prepared) =
  let started = Clock.now_s () in
  let spec = p.spec in
  let inlined = p.inlined in
  let fn = inlined.Cfg.Inline.fn in
  let n = Cfg.Flowgraph.num_blocks fn in
  let costs = p.costs in
  let instances_of func =
    match Hashtbl.find_opt p.contexts func with Some l -> l | None -> []
  in
  let problem = Ilp.Problem.create () in
  let x = Array.init n (fun b -> Ilp.Problem.var problem (Fmt.str "x%d" b)) in
  (* Edge variables, plus virtual entry/exit edges. *)
  let edges = Hashtbl.create 64 in
  Array.iter
    (fun (b : Timing.t Cfg.Flowgraph.block) ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem edges (b.Cfg.Flowgraph.id, s)) then
            Hashtbl.replace edges (b.Cfg.Flowgraph.id, s)
              (Ilp.Problem.var problem
                 (Fmt.str "d%d_%d" b.Cfg.Flowgraph.id s)))
        b.Cfg.Flowgraph.succs)
    fn.Cfg.Flowgraph.blocks;
  let edge_var e = Hashtbl.find edges e in
  let entry_var = Ilp.Problem.var problem "d_entry" in
  let exit_vars =
    List.map
      (fun b -> (b, Ilp.Problem.var problem (Fmt.str "d_exit%d" b)))
      (Cfg.Flowgraph.exits fn)
  in
  Ilp.Problem.add_eq ~label:"one entry" problem [ (1, entry_var) ] 1;
  Ilp.Problem.add_eq ~label:"one exit" problem
    (List.map (fun (_, v) -> (1, v)) exit_vars)
    1;
  let preds = p.preds in
  Array.iter
    (fun (b : Timing.t Cfg.Flowgraph.block) ->
      let id = b.Cfg.Flowgraph.id in
      let inflow =
        List.map (fun pr -> (1, edge_var (pr, id))) preds.(id)
        @ if id = fn.Cfg.Flowgraph.entry then [ (1, entry_var) ] else []
      in
      let outflow =
        List.map (fun s -> (1, edge_var (id, s))) b.Cfg.Flowgraph.succs
        @
        match List.assoc_opt id exit_vars with
        | Some v -> [ (1, v) ]
        | None -> []
      in
      Ilp.Problem.add_eq
        ~label:(Fmt.str "flow in %d" id)
        problem
        ((1, x.(id)) :: List.map (fun (c, v) -> (-c, v)) inflow)
        0;
      Ilp.Problem.add_eq
        ~label:(Fmt.str "flow out %d" id)
        problem
        ((1, x.(id)) :: List.map (fun (c, v) -> (-c, v)) outflow)
        0)
    fn.Cfg.Flowgraph.blocks;
  (* Loop bounds: header count bounded by (bound * flow entering the
     loop).  The bound counts header visits per loop entry. *)
  List.iter
    (fun (l : Cfg.Loops.loop) ->
      let origin = Cfg.Inline.origin inlined l.Cfg.Loops.header in
      let label = source_label spec.program origin in
      let bound =
        match
          List.find_opt
            (fun b -> b.func = origin.Cfg.Inline.func && b.header = label)
            spec.bounds
        with
        | Some b -> b.bound
        | None ->
            raise
              (Unbounded_loop
                 (Fmt.str "%s/%s (inlined block %d)" origin.Cfg.Inline.func
                    label l.Cfg.Loops.header))
      in
      let entering = Cfg.Loops.entry_edges fn l in
      Ilp.Problem.add_le
        ~label:
          (Fmt.str "loop bound %s/%s <= %d per entry" origin.Cfg.Inline.func
             label bound)
        problem
        ((1, x.(l.Cfg.Loops.header))
        :: List.map (fun e -> (-bound, edge_var e)) entering)
        0)
    (Cfg.Loops.loops p.loops);
  (* User constraints, one per calling context (Section 5.2). *)
  let find_in_ctx blocks label =
    List.filter_map (fun (id, l, _) -> if l = label then Some id else None) blocks
  in
  let entry_of_ctx blocks =
    List.filter_map (fun (id, _, is_entry) -> if is_entry then Some id else None) blocks
  in
  let constraints = selected_constraints spec sources in
  List.iter
    (fun (c, src) ->
      let clabel = Fmt.str "[%s] %a" src User_constraint.pp c in
      match c with
      | User_constraint.Conflicts_with { func; a; b } ->
          List.iter
            (fun (_ctx, blocks) ->
              let xa = find_in_ctx blocks a
              and xb = find_in_ctx blocks b
              and entry = entry_of_ctx blocks in
              if xa <> [] && xb <> [] then
                Ilp.Problem.add_le ~label:clabel problem
                  (List.map (fun id -> (1, x.(id))) (xa @ xb)
                  @ List.map (fun id -> (-1, x.(id))) entry)
                  0)
            (instances_of func)
      | User_constraint.Consistent_with { func; a; b } ->
          List.iter
            (fun (_ctx, blocks) ->
              let xa = find_in_ctx blocks a and xb = find_in_ctx blocks b in
              if xa <> [] && xb <> [] then
                Ilp.Problem.add_eq ~label:clabel problem
                  (List.map (fun id -> (1, x.(id))) xa
                  @ List.map (fun id -> (-1, x.(id))) xb)
                  0)
            (instances_of func)
      | User_constraint.Executes_at_most { func; block; times } ->
          let all =
            List.concat_map
              (fun (_ctx, blocks) -> find_in_ctx blocks block)
              (instances_of func)
          in
          if all <> [] then
            Ilp.Problem.add_le ~label:clabel problem
              (List.map (fun id -> (1, x.(id))) all)
              times)
    constraints;
  (* Forced path counts (Section 6.2: computing the execution time of a
     specific realisable path by adding constraints to the ILP). *)
  List.iter
    (fun (func, label, count) ->
      let all =
        List.concat_map
          (fun (_ctx, blocks) -> find_in_ctx blocks label)
          (instances_of func)
      in
      if all <> [] then
        Ilp.Problem.add_eq
          ~label:(Fmt.str "forced %s/%s = %d" func label count)
          problem
          (List.map (fun id -> (1, x.(id))) all)
          count)
    forced;
  Ilp.Problem.set_objective problem
    (Array.to_list
       (Array.mapi (fun b v -> ((Cache_analysis.cost costs b).cycles, v)) x));
  let stats = { Ilp.Branch_bound.nodes = 0; lp_solves = 0 } in
  Obs.Metrics.observe span_build (Clock.elapsed_s ~since:started);
  let solve_started = Clock.now_s () in
  let solved = Ilp.Branch_bound.solve ~stats problem in
  Obs.Metrics.observe span_solve (Clock.elapsed_s ~since:solve_started);
  match solved with
  | Ilp.Branch_bound.Optimal { objective; values } ->
      (* The optimal basis, kept rather than discarded: per-edge traversal
         counts at the optimum (sorted for determinism) and the inequality
         rows that are tight there — the loop bounds and provenance-labelled
         user constraints that actually limit the bound.  Flow-conservation
         [Eq] rows are tight by construction and carry no information, so
         they are skipped. *)
      let edge_counts =
        Hashtbl.fold
          (fun e v acc ->
            let c = values.((v : Ilp.Problem.var :> int)) in
            if c > 0 then (e, c) :: acc else acc)
          edges []
        |> List.sort compare
      in
      let binding_constraints =
        List.filter_map
          (fun (c : Ilp.Problem.cstr) ->
            (* Vacuously binding rows — every variable in the row is zero
               at the optimum (constraints on inlined contexts the
               critical path never enters) — are noise, not explanation. *)
            let touched =
              List.exists
                (fun (_, v) -> values.((v : Ilp.Problem.var :> int)) > 0)
                c.Ilp.Problem.terms
            in
            if
              c.Ilp.Problem.relation <> Ilp.Problem.Eq
              && c.Ilp.Problem.label <> ""
              && touched
              && Ilp.Problem.binding c values
            then
              Some
                ( c.Ilp.Problem.label,
                  Ilp.Problem.eval_terms c.Ilp.Problem.terms values )
            else None)
          (Ilp.Problem.constraints problem)
      in
      {
        wcet = objective;
        block_counts = Array.init n (fun b -> values.((x.(b) :> int)));
        inlined;
        costs;
        ilp_vars = Ilp.Problem.num_vars problem;
        ilp_constraints = Ilp.Problem.num_constraints problem;
        bb_nodes = stats.Ilp.Branch_bound.nodes;
        lp_solves = stats.Ilp.Branch_bound.lp_solves;
        elapsed_s = p.prep_elapsed_s +. Clock.elapsed_s ~since:started;
        edge_counts;
        binding_constraints;
      }
  | Ilp.Branch_bound.Infeasible -> raise (No_solution "ILP infeasible")
  | Ilp.Branch_bound.Unbounded -> raise (No_solution "ILP unbounded")

let analyse ~config ?(pinned_code = []) ?(pinned_data = [])
    ?(forced = ([] : (string * string * int) list)) (spec : spec) =
  analyse_prepared ~forced (prepare ~config ~pinned_code ~pinned_data spec)

(* --- persistence: the marshal-safe projection of a result --- *)

type persisted = {
  ps_wcet : int;
  ps_block_counts : int array;
  ps_ilp_vars : int;
  ps_ilp_constraints : int;
  ps_bb_nodes : int;
  ps_lp_solves : int;
  ps_elapsed_s : float;
  ps_edge_counts : ((int * int) * int) list;
  ps_binding_constraints : (string * int) list;
}

let to_persisted (r : result) =
  {
    ps_wcet = r.wcet;
    ps_block_counts = r.block_counts;
    ps_ilp_vars = r.ilp_vars;
    ps_ilp_constraints = r.ilp_constraints;
    ps_bb_nodes = r.bb_nodes;
    ps_lp_solves = r.lp_solves;
    ps_elapsed_s = r.elapsed_s;
    ps_edge_counts = r.edge_counts;
    ps_binding_constraints = r.binding_constraints;
  }

(* The inverse: [inlined] and [costs] come from the (recomputed, content
   -identical) prefix, every solver-derived quantity from the stored
   record.  No ILP is built or solved. *)
let rehydrate (p : prepared) (ps : persisted) =
  let n = Cfg.Flowgraph.num_blocks p.inlined.Cfg.Inline.fn in
  if Array.length ps.ps_block_counts <> n then
    invalid_arg
      (Fmt.str "Ipet.rehydrate: %d persisted block counts for a %d-block CFG"
         (Array.length ps.ps_block_counts)
         n);
  {
    wcet = ps.ps_wcet;
    block_counts = ps.ps_block_counts;
    inlined = p.inlined;
    costs = p.costs;
    ilp_vars = ps.ps_ilp_vars;
    ilp_constraints = ps.ps_ilp_constraints;
    bb_nodes = ps.ps_bb_nodes;
    lp_solves = ps.ps_lp_solves;
    elapsed_s = ps.ps_elapsed_s;
    edge_counts = ps.ps_edge_counts;
    binding_constraints = ps.ps_binding_constraints;
  }

(* Render the worst-case path as (label, count, per-visit cycles) rows for
   blocks on the path, in block order. *)
let worst_path (result : result) =
  let fn = result.inlined.Cfg.Inline.fn in
  Array.to_list fn.Cfg.Flowgraph.blocks
  |> List.filter_map (fun (b : Timing.t Cfg.Flowgraph.block) ->
         let count = result.block_counts.(b.Cfg.Flowgraph.id) in
         if count = 0 then None
         else
           Some
             ( b.Cfg.Flowgraph.label,
               count,
               (Cache_analysis.cost result.costs b.Cfg.Flowgraph.id).cycles ))
