module L = Tac.Lang
module VD = Tac.Value_domain
module AI = Tac.Absint

type model = {
  dm_name : string;
  dm_func : string;
  dm_program : L.program;
  dm_labels : (string * string) list;
  dm_calls_bound : int;
}

type rule = Exclusive_paths | Equal_guards | Loop_trip_count

type derivation = { dv_model : string; dv_rule : rule; dv_note : string }

type verdict = Proved | Refuted | Unknown

type audit_line = {
  al_constraint : User_constraint.t;
  al_verdict : verdict;
  al_evidence : string;
}

type report = {
  rep_derived : (User_constraint.t * derivation) list;
  rep_audit : audit_line list;
  rep_iterations : int;
  rep_widenings : int;
  rep_narrowings : int;
}

let rule_name = function
  | Exclusive_paths -> "exclusive-paths"
  | Equal_guards -> "equal-guards"
  | Loop_trip_count -> "loop-trip-count"

let verdict_name = function
  | Proved -> "Proved"
  | Refuted -> "Refuted"
  | Unknown -> "Unknown"

let m_derived = Obs.Metrics.counter "constraints.derived"
let m_proved = Obs.Metrics.counter "constraints.proved"
let m_refuted = Obs.Metrics.counter "constraints.refuted"
let m_unknown = Obs.Metrics.counter "constraints.unknown"
let m_iterations = Obs.Metrics.counter "absint.iterations"
let m_widenings = Obs.Metrics.counter "absint.widenings"
let m_narrowings = Obs.Metrics.counter "absint.narrowings"

let negate_cmp = function
  | L.Eq -> L.Ne
  | L.Ne -> L.Eq
  | L.Lt -> L.Ge
  | L.Le -> L.Gt
  | L.Gt -> L.Le
  | L.Ge -> L.Lt

let swap_cmp = function
  | L.Lt -> L.Gt
  | L.Gt -> L.Lt
  | L.Le -> L.Ge
  | L.Ge -> L.Le
  | c -> c

(* Ordered pairs (i < j) of the model's mapped blocks. *)
let mapped_pairs m =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go m.dm_labels

let dedup_regs regs = List.sort_uniq compare regs

(* Exclusive paths: in a loop-free program every SSA register is assigned
   at most once per run, so a register whose abstract values at two
   blocks are disjoint proves the blocks mutually exclusive (and each
   executes at most once), which is exactly the ILP reading of
   Conflicts_with. *)
let derive_conflicts m ai =
  if not (AI.loop_free ai) then []
  else
    List.filter_map
      (fun ((la, ka), (lb, kb)) ->
        if not (AI.reachable ai la && AI.reachable ai lb) then None
        else
          let regs =
            dedup_regs
              (AI.tracked_regs ai ~block:la @ AI.tracked_regs ai ~block:lb)
          in
          List.find_map
            (fun r ->
              let va = AI.reg_value ai ~block:la r
              and vb = AI.reg_value ai ~block:lb r in
              if
                (not (VD.is_bot va))
                && (not (VD.is_bot vb))
                && VD.is_bot (VD.meet va vb)
              then
                Some
                  ( User_constraint.conflicts ~func:m.dm_func ka kb,
                    {
                      dv_model = m.dm_name;
                      dv_rule = Exclusive_paths;
                      dv_note =
                        Fmt.str "%s: %s at %s vs %s at %s are disjoint" r
                          (VD.to_string va) la (VD.to_string vb) lb;
                    } )
              else None)
            regs)
      (mapped_pairs m)

(* The polarity-normalised guard of a block with a unique, exactly-once
   branch predecessor: the condition under which the block executes.  The
   terminator is read from the SSA form, so equal operands are equal
   values: a register redefined between two syntactically identical
   branches carries a new version there. *)
let guard_of ai la =
  match AI.pred_labels ai la with
  | [ p ] when AI.exactly_once ai p -> (
      match (Tac.Ssa.block_exn (AI.ssa ai) p).term with
      | L.Branch (c, x, y, l1, l2) when l1 <> l2 ->
          if la = l1 then Some (p, c, x, y)
          else if la = l2 then Some (p, negate_cmp c, x, y)
          else None
      | _ -> None)
  | _ -> None

(* An SSA operand under its source register name. *)
let pp_source ppf = function
  | L.Reg r -> L.pp_operand ppf (L.Reg (Tac.Ssa.base_of r))
  | o -> L.pp_operand ppf o

let same_guard (c1, x1, y1) (c2, x2, y2) =
  (c1 = c2 && x1 = x2 && y1 = y2)
  || (c1 = swap_cmp c2 && x1 = y2 && y1 = x2)

(* Equal guards: both blocks are branch arms guarded by the same
   run-constant condition, and both branches execute exactly once per
   invocation, so the blocks' counts are equal (Figure 6). *)
let derive_consistents m ai =
  if not (AI.loop_free ai) then []
  else
    List.filter_map
      (fun ((la, ka), (lb, kb)) ->
        match (guard_of ai la, guard_of ai lb) with
        | Some (pa, c1, x1, y1), Some (pb, c2, x2, y2)
          when pa <> pb && same_guard (c1, x1, y1) (c2, x2, y2) ->
            Some
              ( User_constraint.consistent ~func:m.dm_func ka kb,
                {
                  dv_model = m.dm_name;
                  dv_rule = Equal_guards;
                  dv_note =
                    Fmt.str "both guarded by %a %a %a (at %s and %s)"
                      pp_source x1 L.pp_cmp c1 pp_source y1 pa pb;
                } )
        | _ -> None)
      (mapped_pairs m)

(* Loop trip count: a per-run visit bound from the interval analysis,
   scaled by the model's declared invocation bound. *)
let derive_caps m ai =
  List.filter_map
    (fun (la, ka) ->
      if not (AI.in_loop ai la) then None
      else
        match AI.block_visit_bound ai la with
        | Some n ->
            Some
              ( User_constraint.executes_at_most ~func:m.dm_func ka
                  (n * m.dm_calls_bound),
                {
                  dv_model = m.dm_name;
                  dv_rule = Loop_trip_count;
                  dv_note =
                    Fmt.str
                      "<=%d visits per invocation, <=%d invocation%s per \
                       activation"
                      n m.dm_calls_bound
                      (if m.dm_calls_bound = 1 then "" else "s");
                } )
        | None -> None)
    m.dm_labels

let derive_model m =
  let ai = AI.analyse m.dm_program in
  let stats = AI.stats ai in
  (derive_conflicts m ai @ derive_consistents m ai @ derive_caps m ai, stats)

let derive models =
  let derived, iters, wids, narrs =
    List.fold_left
      (fun (acc, i, w, nr) m ->
        let ds, (st : AI.stats) = derive_model m in
        (acc @ ds, i + st.iterations, w + st.widenings, nr + st.narrowings))
      ([], 0, 0, 0) models
  in
  (* Drop structural duplicates derived by several models. *)
  let derived =
    List.fold_left
      (fun acc (c, d) ->
        if List.exists (fun (c', _) -> c' = c) acc then acc
        else acc @ [ (c, d) ])
      [] derived
  in
  Obs.Metrics.incr ~by:(List.length derived) m_derived;
  Obs.Metrics.incr ~by:iters m_iterations;
  Obs.Metrics.incr ~by:wids m_widenings;
  Obs.Metrics.incr ~by:narrs m_narrowings;
  {
    rep_derived = derived;
    rep_audit = [];
    rep_iterations = iters;
    rep_widenings = wids;
    rep_narrowings = narrs;
  }

(* Does a derivation subsume the manual constraint? *)
let subsumes (derived : User_constraint.t) (manual : User_constraint.t) =
  match (derived, manual) with
  | ( User_constraint.Conflicts_with d,
      User_constraint.Conflicts_with k ) ->
      d.func = k.func
      && ((d.a = k.a && d.b = k.b) || (d.a = k.b && d.b = k.a))
  | ( User_constraint.Consistent_with d,
      User_constraint.Consistent_with k ) ->
      d.func = k.func
      && ((d.a = k.a && d.b = k.b) || (d.a = k.b && d.b = k.a))
  | ( User_constraint.Executes_at_most d,
      User_constraint.Executes_at_most k ) ->
      d.func = k.func && d.block = k.block && d.times <= k.times
  | _ -> false

let covers m (c : User_constraint.t) =
  let mapped k = List.exists (fun (_, kl) -> kl = k) m.dm_labels in
  match c with
  | User_constraint.Conflicts_with { func; a; b }
  | User_constraint.Consistent_with { func; a; b } ->
      func = m.dm_func && mapped a && mapped b
  | User_constraint.Executes_at_most { func; block; _ } ->
      func = m.dm_func && mapped block

let model_label m k =
  List.find_map (fun (ml, kl) -> if kl = k then Some ml else None) m.dm_labels

let pp_inputs ppf inputs =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
    inputs

(* Exhaustive concrete search for a violating run of a covering model
   (the same ground truth Kernel_loops uses for loop bounds). *)
let refute_with m (c : User_constraint.t) =
  let witness = ref None in
  let run_counts inputs labels =
    match Tac.Interp.run ~max_steps:1_000_000 m.dm_program ~inputs with
    | _, trace -> Some (List.map (Tac.Interp.visits trace) labels)
    | exception Tac.Interp.Step_limit -> None
  in
  let check inputs =
    match c with
    | User_constraint.Conflicts_with { a; b; _ } -> (
        match (model_label m a, model_label m b) with
        | Some ma, Some mb -> (
            match run_counts inputs [ ma; mb ] with
            | Some [ va; vb ] ->
                if va + vb > 1 then (
                  witness :=
                    Some
                      (Fmt.str "%a: %s ran %d times, %s %d times" pp_inputs
                         inputs a va b vb);
                  false)
                else true
            | _ -> true)
        | _ -> true)
    | User_constraint.Consistent_with { a; b; _ } -> (
        match (model_label m a, model_label m b) with
        | Some ma, Some mb -> (
            match run_counts inputs [ ma; mb ] with
            | Some [ va; vb ] ->
                if va <> vb then (
                  witness :=
                    Some
                      (Fmt.str "%a: %s ran %d times but %s %d times" pp_inputs
                         inputs a va b vb);
                  false)
                else true
            | _ -> true)
        | _ -> true)
    | User_constraint.Executes_at_most { block; times; _ } -> (
        match model_label m block with
        | Some mb -> (
            match run_counts inputs [ mb ] with
            | Some [ v ] ->
                if v > times then (
                  witness :=
                    Some
                      (Fmt.str "%a: %s ran %d times (cap %d)" pp_inputs inputs
                         block v times);
                  false)
                else true
            | _ -> true)
        | None -> true)
  in
  if Tac.Interp.for_all_inputs m.dm_program check then None
  else
    Option.map (fun w -> Fmt.str "model %s, inputs %s" m.dm_name w) !witness

let audit ~models ~manual =
  let base = derive models in
  let audit_line c =
    match
      List.find_opt (fun (d, _) -> subsumes d c) base.rep_derived
    with
    | Some (_, dv) ->
        {
          al_constraint = c;
          al_verdict = Proved;
          al_evidence =
            Fmt.str "%s via %s: %s" dv.dv_model (rule_name dv.dv_rule)
              dv.dv_note;
        }
    | None -> (
        let covering = List.filter (fun m -> covers m c) models in
        match List.find_map (fun m -> refute_with m c) covering with
        | Some ev -> { al_constraint = c; al_verdict = Refuted; al_evidence = ev }
        | None ->
            {
              al_constraint = c;
              al_verdict = Unknown;
              al_evidence =
                (if covering = [] then "no decision model covers this constraint"
                 else "analysis could not decide");
            })
  in
  let audit = List.map audit_line manual in
  let count v =
    List.length (List.filter (fun l -> l.al_verdict = v) audit)
  in
  Obs.Metrics.incr ~by:(count Proved) m_proved;
  Obs.Metrics.incr ~by:(count Refuted) m_refuted;
  Obs.Metrics.incr ~by:(count Unknown) m_unknown;
  { base with rep_audit = audit }

let pp_rule ppf r = Fmt.string ppf (rule_name r)
let pp_verdict ppf v = Fmt.string ppf (verdict_name v)

let pp_derived ppf (c, d) =
  Fmt.pf ppf "%a  [%s/%a: %s]" User_constraint.pp c d.dv_model pp_rule
    d.dv_rule d.dv_note

let pp_audit_line ppf l =
  Fmt.pf ppf "%-8s %a  (%s)" (verdict_name l.al_verdict) User_constraint.pp
    l.al_constraint l.al_evidence

let pp_report ppf r =
  Fmt.pf ppf "@[<v>derived (%d):@," (List.length r.rep_derived);
  List.iter (fun d -> Fmt.pf ppf "  %a@," pp_derived d) r.rep_derived;
  Fmt.pf ppf "manual audit (%d):@," (List.length r.rep_audit);
  List.iter (fun l -> Fmt.pf ppf "  %a@," pp_audit_line l) r.rep_audit;
  Fmt.pf ppf "absint: %d iterations, %d widenings, %d narrowings@]"
    r.rep_iterations r.rep_widenings r.rep_narrowings
