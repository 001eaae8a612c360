(* Branch-and-bound integer programming over the rational simplex.

   All variables are required to take integer values.  Depth-first search
   with an incumbent bound: a node is pruned when its LP relaxation cannot
   beat the best integral solution found so far.  Because IPET objectives
   have integer coefficients, the LP bound can be floored before comparing,
   which prunes aggressively.  IPET flow problems are network-like and their
   relaxations are usually integral already, so in practice the root node
   ends the search. *)

exception Node_limit

type outcome =
  | Optimal of { objective : int; values : int array }
  | Infeasible
  | Unbounded

type stats = { mutable nodes : int; mutable lp_solves : int }

let fractional_var (solution : Simplex.solution) =
  let n = Array.length solution.values in
  let rec scan i =
    if i >= n then None
    else if Rat.is_integer solution.values.(i) then scan (i + 1)
    else Some (i, solution.values.(i))
  in
  scan 0

let solve ?(max_nodes = 100_000) ?stats problem =
  let stats = match stats with Some s -> s | None -> { nodes = 0; lp_solves = 0 } in
  let incumbent = ref None in
  let better objective =
    match !incumbent with
    | None -> true
    | Some (best, _) -> objective > best
  in
  let unbounded = ref false in
  (* [bounds] is the list of extra branching constraints along this path. *)
  let rec node bounds =
    stats.nodes <- stats.nodes + 1;
    if stats.nodes > max_nodes then raise Node_limit;
    stats.lp_solves <- stats.lp_solves + 1;
    match Problem.solve_relaxation ~extra:bounds problem with
    | Simplex.Infeasible -> ()
    | Simplex.Unbounded ->
        (* An unbounded relaxation at any node makes the ILP unbounded or
           infeasible; report unbounded conservatively from the root. *)
        unbounded := true
    | Simplex.Optimal solution ->
        let bound = Rat.floor solution.objective in
        if (not !unbounded) && better bound then begin
          match fractional_var solution with
          | None ->
              let values = Array.map Rat.to_int_exn solution.values in
              if better bound then incumbent := Some (bound, values)
          | Some (v, value) ->
              let floor_c =
                {
                  Problem.label = "branch-le";
                  terms = [ (1, List.nth (Problem.vars problem) v) ];
                  relation = Problem.Le;
                  bound = Rat.floor value;
                }
              and ceil_c =
                {
                  Problem.label = "branch-ge";
                  terms = [ (1, List.nth (Problem.vars problem) v) ];
                  relation = Problem.Ge;
                  bound = Rat.ceil value;
                }
              in
              (* Explore the floor branch first: WCET flows are usually
                 pushed to their bounds, so ceiling tends to win; trying
                 floor first still finds it via the second branch while the
                 incumbent from the first prunes elsewhere. *)
              node (floor_c :: bounds);
              node (ceil_c :: bounds)
        end
  in
  node [];
  if !unbounded then Unbounded
  else
    match !incumbent with
    | Some (objective, values) -> Optimal { objective; values }
    | None -> Infeasible

let pp_outcome ppf = function
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Optimal { objective; values } ->
      Fmt.pf ppf "optimal %d at (%a)" objective Fmt.(array ~sep:comma int) values
