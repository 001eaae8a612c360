(* Tests for the LP/ILP solver: unit cases with known optima, the LP
   optimality certificate and planted mutations it must reject, and
   randomized cross-checks against the exact simplex and brute-force
   enumeration. *)

module R = Ilp.Rat

let rat = Alcotest.testable R.pp R.equal

let check_rat = Alcotest.check rat
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rationals --- *)

let test_rat_basics () =
  check_rat "1/2 + 1/3" (R.make 5 6) (R.add (R.make 1 2) (R.make 1 3));
  check_rat "normalisation" (R.make 1 2) (R.make 17 34);
  check_rat "negative denominator" (R.make (-1) 2) (R.make 1 (-2));
  check_rat "mul" (R.make 3 8) (R.mul (R.make 1 2) (R.make 3 4));
  check_rat "div" (R.make 2 3) (R.div (R.make 1 2) (R.make 3 4));
  check_int "floor 7/2" 3 (R.floor (R.make 7 2));
  check_int "floor -7/2" (-4) (R.floor (R.make (-7) 2));
  check_int "ceil 7/2" 4 (R.ceil (R.make 7 2));
  check_int "ceil -7/2" (-3) (R.ceil (R.make (-7) 2));
  check_bool "1/3 < 1/2" true (R.lt (R.make 1 3) (R.make 1 2))

let test_rat_overflow () =
  Alcotest.check_raises "mul overflow" R.Overflow (fun () ->
      ignore (R.mul (R.of_int max_int) (R.of_int 2)))

(* [min_int] has no negation, so every way of producing or consuming it
   must raise rather than return a wrong-signed value or a negative
   denominator. *)
let test_rat_min_int () =
  let raises name f = Alcotest.check_raises name R.Overflow (fun () -> ignore (f ())) in
  raises "neg min_int" (fun () -> R.neg (R.of_int min_int));
  raises "sub zero min_int" (fun () -> R.sub R.zero (R.of_int min_int));
  raises "mul min_int minus_one" (fun () -> R.mul (R.of_int min_int) R.minus_one);
  raises "make min_int (-1)" (fun () -> R.make min_int (-1));
  raises "div one min_int" (fun () -> R.div R.one (R.of_int min_int));
  raises "add reaching min_int" (fun () ->
      R.add (R.of_int (-(1 lsl 61))) (R.of_int (-(1 lsl 61))))

let small_rat_gen =
  QCheck.Gen.(
    map2
      (fun n d -> R.make n d)
      (int_range (-50) 50)
      (int_range 1 20))

let arb_rat = QCheck.make ~print:(Fmt.to_to_string R.pp) small_rat_gen

let test_rat_field_laws =
  QCheck.Test.make ~count:500 ~name:"rational arithmetic laws"
    QCheck.(triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) ->
      R.equal (R.add a b) (R.add b a)
      && R.equal (R.add (R.add a b) c) (R.add a (R.add b c))
      && R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c))
      && R.equal (R.sub a a) R.zero
      && (R.is_zero b || R.equal (R.mul (R.div a b) b) a))

let test_rat_order_antisym =
  QCheck.Test.make ~count:500 ~name:"compare consistent with floats"
    QCheck.(pair arb_rat arb_rat)
    (fun (a, b) ->
      let c = R.compare a b in
      let f = Stdlib.compare (R.to_float a) (R.to_float b) in
      (* floats of small rationals are exact enough for the sign *)
      c = f || (c = 0 && f = 0))

(* --- Simplex unit cases --- *)

(* Constraints are written densely in the cases below and converted to the
   solver's sparse-row form here. *)
let lp num_vars maximize constraints =
  let sparse coeffs =
    Array.to_list (Array.mapi (fun v c -> (v, c)) coeffs)
    |> List.filter_map (fun (v, c) ->
           if c = 0 then None else Some (v, R.of_int c))
  in
  {
    Ilp.Simplex.num_vars;
    maximize = Array.map R.of_int maximize;
    constraints =
      List.map (fun (coeffs, op, b) -> (sparse coeffs, op, R.of_int b)) constraints;
  }

let objective_of = function
  | Ilp.Simplex.Optimal s -> s.Ilp.Simplex.objective
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.Simplex.pp_result r

(* Every optimum the solver returns must carry a certificate that checks. *)
let solve problem =
  let r = Ilp.Simplex.solve problem in
  (match r with
  | Ilp.Simplex.Optimal s ->
      check_bool "certificate checks" true (Ilp.Simplex.certify problem s)
  | _ -> ());
  r

(* max x + y s.t. x <= 2, y <= 3 -> 5 *)
let basic_lp =
  lp 2 [| 1; 1 |] [ ([| 1; 0 |], Ilp.Simplex.Le, 2); ([| 0; 1 |], Ilp.Simplex.Le, 3) ]

let test_simplex_basic () =
  check_rat "optimum" (R.of_int 5) (objective_of (solve basic_lp))

(* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4,y=0 -> 12;
   tighter: 2x + y <= 5 as well -> x=5/2? include to get fractional *)
let fractional_lp =
  lp 2 [| 3; 2 |]
    [
      ([| 1; 1 |], Ilp.Simplex.Le, 4);
      ([| 1; 3 |], Ilp.Simplex.Le, 6);
      ([| 2; 1 |], Ilp.Simplex.Le, 5);
    ]

let test_simplex_fractional () =
  (* Optimum at 2x+y=5 intersect x+3y=6: x=9/5, y=7/5, objective 41/5. *)
  check_rat "fractional-path optimum" (R.make 41 5)
    (objective_of (solve fractional_lp))

let test_simplex_infeasible () =
  let r =
    solve
      (lp 1 [| 1 |]
         [ ([| 1 |], Ilp.Simplex.Le, 1); ([| 1 |], Ilp.Simplex.Ge, 2) ])
  in
  check_bool "infeasible" true (r = Ilp.Simplex.Infeasible)

let test_simplex_unbounded () =
  let r = solve (lp 1 [| 1 |] [ ([| -1 |], Ilp.Simplex.Le, 0) ]) in
  check_bool "unbounded" true (r = Ilp.Simplex.Unbounded)

let test_simplex_equality () =
  (* max x + 2y s.t. x + y = 3, x <= 2 -> x in [0,2], y = 3-x, obj = 6-x
     -> max at x=0: 6 *)
  let r =
    solve
      (lp 2 [| 1; 2 |]
         [ ([| 1; 1 |], Ilp.Simplex.Eq, 3); ([| 1; 0 |], Ilp.Simplex.Le, 2) ])
  in
  check_rat "equality optimum" (R.of_int 6) (objective_of r)

let test_simplex_negative_rhs () =
  (* x >= 1 written as -x <= -1; max -x -> -1 *)
  let r = solve (lp 1 [| -1 |] [ ([| -1 |], Ilp.Simplex.Le, -1) ]) in
  check_rat "negative rhs handled" (R.of_int (-1)) (objective_of r)

let test_simplex_degenerate () =
  (* Degenerate vertex: redundant constraints meeting at the optimum. *)
  let r =
    solve
      (lp 2 [| 1; 1 |]
         [
           ([| 1; 0 |], Ilp.Simplex.Le, 1);
           ([| 0; 1 |], Ilp.Simplex.Le, 1);
           ([| 1; 1 |], Ilp.Simplex.Le, 2);
           ([| 2; 1 |], Ilp.Simplex.Le, 3);
         ])
  in
  check_rat "degenerate optimum" (R.of_int 2) (objective_of r)

(* --- The certificate and its planted mutations --- *)

let mixed_lp =
  (* max x + 2y s.t. x + y = 3, x <= 2, y >= 1 -> 6 at (0, 3) *)
  lp 2 [| 1; 2 |]
    [
      ([| 1; 1 |], Ilp.Simplex.Eq, 3);
      ([| 1; 0 |], Ilp.Simplex.Le, 2);
      ([| 0; 1 |], Ilp.Simplex.Ge, 1);
    ]

let optimum problem =
  match Ilp.Simplex.solve problem with
  | Ilp.Simplex.Optimal s -> s
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.Simplex.pp_result r

let first_le (problem : Ilp.Simplex.lp) =
  let rec find i = function
    | (_, Ilp.Simplex.Le, _) :: _ -> i
    | _ :: rest -> find (i + 1) rest
    | [] -> Alcotest.fail "no Le row"
  in
  find 0 problem.constraints

(* One row per planted mutation: each turns a valid optimum into one the
   certificate must reject. *)
let certificate_mutations =
  let with_dual i f (s : Ilp.Simplex.solution) =
    let duals = Array.copy s.duals in
    duals.(i) <- f duals.(i);
    { s with duals }
  in
  [
    ( "dual perturbed by 1/2",
      fun _ s -> with_dual 0 (R.add (R.make 1 2)) s );
    ( "Le row's dual made negative",
      fun problem s ->
        with_dual (first_le problem)
          (fun y -> R.sub (R.neg (if R.sign y < 0 then R.neg y else y)) R.one)
          s );
    ( "primal value + 1 (infeasible)",
      fun _ (s : Ilp.Simplex.solution) ->
        let values = Array.copy s.values in
        values.(0) <- R.add values.(0) R.one;
        { s with values } );
    ( "objective off by 1 (duality gap)",
      fun _ (s : Ilp.Simplex.solution) ->
        { s with objective = R.add s.objective R.one } );
  ]

let certified_cases = [ basic_lp; mixed_lp; fractional_lp ]

let test_certificate_accepts () =
  List.iter
    (fun problem ->
      check_bool "exact optimum certifies" true
        (match Ilp.Simplex.solve_exact problem with
        | Ilp.Simplex.Optimal s -> Ilp.Simplex.certify problem s
        | _ -> false);
      check_bool "optimum certifies" true
        (Ilp.Simplex.certify problem (optimum problem)))
    certified_cases

let test_mutation (name, mutate) () =
  List.iter
    (fun problem ->
      let s = optimum problem in
      check_bool name false (Ilp.Simplex.certify problem (mutate problem s)))
    certified_cases

(* --- Randomized LP/ILP cross-checks --- *)

(* Random bounded ILPs: n in 1..3 variables, each bounded by [ub], a few
   mixed-relation constraints with small coefficients.  Brute-force over
   the integer box and compare with branch-and-bound; also check the LP
   relaxation bounds the ILP. *)
type rel = RLe | RGe | REq

let random_ilp_gen =
  QCheck.Gen.(
    let* n = int_range 1 3 in
    let* ub = int_range 1 5 in
    let* n_cstr = int_range 0 4 in
    let coeff = int_range (-3) 3 in
    let* objective = list_repeat n coeff in
    let* constraints =
      list_repeat n_cstr
        (let* coeffs = list_repeat n coeff in
         let* bound = int_range 0 12 in
         let* relation = frequency [ (4, return RLe); (2, return RGe); (1, return REq) ] in
         return (coeffs, relation, bound))
    in
    return (n, ub, objective, constraints))

let rel_str = function RLe -> "<=" | RGe -> ">=" | REq -> "="

let print_ilp (n, ub, objective, constraints) =
  Fmt.str "n=%d ub=%d obj=%a cstrs=[%s]" n ub
    Fmt.(Dump.list int)
    objective
    (String.concat "; "
       (List.map
          (fun (coeffs, relation, bound) ->
            Fmt.str "%a %s %d" Fmt.(Dump.list int) coeffs (rel_str relation)
              bound)
          constraints))

let satisfies relation v bound =
  match relation with RLe -> v <= bound | RGe -> v >= bound | REq -> v = bound

let brute_force (n, ub, objective, constraints) =
  (* Enumerate the integer box [0..ub]^n. *)
  let best = ref None in
  let point = Array.make n 0 in
  let rec enum i =
    if i = n then begin
      let feasible =
        List.for_all
          (fun (coeffs, relation, bound) ->
            let v =
              List.fold_left ( + ) 0
                (List.mapi (fun j c -> c * point.(j)) coeffs)
            in
            satisfies relation v bound)
          constraints
      in
      if feasible then begin
        let obj =
          List.fold_left ( + ) 0
            (List.mapi (fun j c -> c * point.(j)) objective)
        in
        match !best with
        | None -> best := Some obj
        | Some b -> if obj > b then best := Some obj
      end
    end
    else
      for v = 0 to ub do
        point.(i) <- v;
        enum (i + 1)
      done
  in
  enum 0;
  !best

let build_problem (n, ub, objective, constraints) =
  let p = Ilp.Problem.create () in
  let vars = List.init n (fun i -> Ilp.Problem.var p (Fmt.str "x%d" i)) in
  List.iter (fun v -> Ilp.Problem.add_le p [ (1, v) ] ub) vars;
  List.iter
    (fun (coeffs, relation, bound) ->
      let terms = List.map2 (fun c v -> (c, v)) coeffs vars in
      match relation with
      | RLe -> Ilp.Problem.add_le p terms bound
      | RGe -> Ilp.Problem.add_ge p terms bound
      | REq -> Ilp.Problem.add_eq p terms bound)
    constraints;
  Ilp.Problem.set_objective p (List.map2 (fun c v -> (c, v)) objective vars);
  p

let test_bb_vs_brute_force =
  QCheck.Test.make ~count:300 ~name:"branch&bound matches brute force"
    (QCheck.make ~print:print_ilp random_ilp_gen)
    (fun instance ->
      let expected = brute_force instance in
      let p = build_problem instance in
      match (Ilp.Branch_bound.solve p, expected) with
      | Ilp.Branch_bound.Optimal { objective; _ }, Some e -> objective = e
      | Ilp.Branch_bound.Infeasible, None -> true
      | _ -> false)

let test_lp_bounds_ilp =
  QCheck.Test.make ~count:300 ~name:"LP relaxation bounds the ILP"
    (QCheck.make ~print:print_ilp random_ilp_gen)
    (fun instance ->
      let p = build_problem instance in
      match (Ilp.Problem.solve_relaxation p, Ilp.Branch_bound.solve p) with
      | Ilp.Simplex.Optimal s, Ilp.Branch_bound.Optimal { objective; _ } ->
          R.ge s.Ilp.Simplex.objective (R.of_int objective)
      | Ilp.Simplex.Infeasible, Ilp.Branch_bound.Infeasible -> true
      | Ilp.Simplex.Optimal _, Ilp.Branch_bound.Infeasible ->
          (* LP feasible but no integer point in the polytope: possible. *)
          true
      | _ -> false)

(* Random LPs, boxed or not: the certified float path must agree with the
   exact reference on the result kind and objective, and on the point
   where the LP has no tying row. *)
let random_lp_gen =
  QCheck.Gen.(
    let* boxed = bool in
    let* instance = random_ilp_gen in
    return (boxed, instance))

let to_lp (boxed, (n, ub, objective, constraints)) =
  let unit v = Array.init n (fun j -> if j = v then 1 else 0) in
  let op = function
    | RLe -> Ilp.Simplex.Le
    | RGe -> Ilp.Simplex.Ge
    | REq -> Ilp.Simplex.Eq
  in
  lp n (Array.of_list objective)
    ((if boxed then List.init n (fun v -> (unit v, Ilp.Simplex.Le, ub)) else [])
    @ List.map
        (fun (coeffs, relation, bound) -> (Array.of_list coeffs, op relation, bound))
        constraints)

(* Whether [problem] has a row the presolve merges: c.x_p - c.x_q = 0
   once duplicate terms are summed. *)
let ties (problem : Ilp.Simplex.lp) =
  let merged terms =
    List.fold_left
      (fun acc (v, c) ->
        let c0 = Option.value ~default:R.zero (List.assoc_opt v acc) in
        (v, R.add c0 c) :: List.remove_assoc v acc)
      [] terms
    |> List.filter (fun (_, c) -> not (R.is_zero c))
  in
  List.exists
    (fun (terms, op, b) ->
      op = Ilp.Simplex.Eq && R.is_zero b
      &&
      match merged terms with
      | [ (_, p); (_, q) ] -> R.equal p (R.neg q)
      | _ -> false)
    problem.constraints

(* The same kind and objective; with [point], the same optimal point too,
   which the two solvers promise only for an LP the presolve leaves as it
   is (then both pivot alike). *)
let same_result ?(point = true) a b =
  match (a, b) with
  | Ilp.Simplex.Optimal x, Ilp.Simplex.Optimal y ->
      R.equal x.objective y.objective
      && Array.length x.values = Array.length y.values
      && ((not point) || Array.for_all2 R.equal x.values y.values)
  | Ilp.Simplex.Infeasible, Ilp.Simplex.Infeasible
  | Ilp.Simplex.Unbounded, Ilp.Simplex.Unbounded ->
      true
  | _ -> false

let test_solve_vs_exact =
  QCheck.Test.make ~count:500 ~name:"float path matches the exact simplex"
    (QCheck.make
       ~print:(fun (boxed, i) -> Fmt.str "boxed=%b %s" boxed (print_ilp i))
       random_lp_gen)
    (fun instance ->
      let problem = to_lp instance in
      let r = Ilp.Simplex.solve problem in
      same_result ~point:(not (ties problem)) r (Ilp.Simplex.solve_exact problem)
      &&
      match r with
      | Ilp.Simplex.Optimal s -> Ilp.Simplex.certify problem s
      | _ -> true)

(* Over a fixed sample, the exact path must still be reached for each
   reason the float path hands over: infeasible, unbounded and fractional
   relaxations.  Integral optima must mostly certify without it. *)
let test_fallbacks_exercised () =
  let rand = Random.State.make [| 22 |] in
  let tally = Hashtbl.create 4 in
  let bump k = Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)) in
  for _ = 1 to 400 do
    let problem = to_lp (QCheck.Gen.generate1 ~rand random_lp_gen) in
    let fell = ref false in
    let r = Ilp.Simplex.solve ~on_fallback:(fun () -> fell := true) problem in
    check_bool "agrees with exact" true
      (same_result ~point:(not (ties problem)) r (Ilp.Simplex.solve_exact problem));
    let kind =
      match r with
      | Ilp.Simplex.Infeasible -> "infeasible"
      | Ilp.Simplex.Unbounded -> "unbounded"
      | Ilp.Simplex.Optimal s ->
          if Array.for_all R.is_integer s.values then "integral" else "fractional"
    in
    bump ((if !fell then "exact " else "float ") ^ kind)
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt tally k) in
  List.iter
    (fun k -> check_bool (k ^ " seen") true (count k > 0))
    [ "exact infeasible"; "exact unbounded"; "exact fractional"; "float integral" ];
  check_int "float fractional" 0 (count "float fractional");
  check_int "float infeasible" 0 (count "float infeasible");
  check_int "float unbounded" 0 (count "float unbounded")

let test_bb_fallback_stats () =
  let stats () = { Ilp.Branch_bound.nodes = 0; lp_solves = 0; fallbacks = 0 } in
  let p = Ilp.Problem.create () in
  let x = Ilp.Problem.var p "x" in
  Ilp.Problem.add_le p [ (2, x) ] 3;
  Ilp.Problem.set_objective p [ (1, x) ];
  let fractional = stats () in
  ignore (Ilp.Branch_bound.solve ~stats:fractional p);
  check_bool "fractional root falls back" true (fractional.fallbacks >= 1);
  let q = Ilp.Problem.create () in
  let y = Ilp.Problem.var q "y" in
  Ilp.Problem.add_le q [ (1, y) ] 3;
  Ilp.Problem.set_objective q [ (1, y) ];
  let integral = stats () in
  ignore (Ilp.Branch_bound.solve ~stats:integral q);
  check_int "integral root certifies" 0 integral.fallbacks

let test_bb_integrality () =
  (* max x s.t. 2x <= 3 -> LP gives 3/2, ILP must give 1. *)
  let p = Ilp.Problem.create () in
  let x = Ilp.Problem.var p "x" in
  Ilp.Problem.add_le p [ (2, x) ] 3;
  Ilp.Problem.set_objective p [ (1, x) ];
  match Ilp.Branch_bound.solve p with
  | Ilp.Branch_bound.Optimal { objective; values } ->
      check_int "integral optimum" 1 objective;
      check_int "value" 1 values.(0)
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.Branch_bound.pp_outcome r

(* --- The presolve --- *)

(* Random LPs with planted doubleton chains: a boxed base over [n]
   variables; [k] copies, each tied to an earlier variable by
   c.x_copy - c.x_earlier = 0 (c of either sign, written plainly, with the
   copy's term split in two, or with a pair of terms that cancel); maybe a
   second tying row closing a cycle in the last copy's class; and a few
   random rows over every variable, all shuffled.  Objective
   coefficients may be negative. *)
let planted_gen =
  QCheck.Gen.(
    let* n = int_range 1 3 in
    let* k = int_range 1 4 in
    let total = n + k in
    let coeff = int_range (-3) 3 in
    let* maximize = array_repeat total coeff in
    let* ub = int_range 1 5 in
    let* ties =
      flatten_l
        (List.init k (fun i ->
             let* p = int_range 0 (n + i - 1) in
             let* c = oneofl [ -3; -2; -1; 1; 2; 3 ] in
             let* form = int_range 0 2 in
             return (n + i, p, c, form)))
    in
    let* cycle = bool in
    let* extra =
      list_size (int_range 0 3)
        (let* coeffs = array_repeat total coeff in
         let* op = oneofl Ilp.Simplex.[ Le; Le; Ge; Eq ] in
         let* b = int_range 0 12 in
         return (coeffs, op, b))
    in
    let tie (j, p, c, form) =
      let terms =
        match form with
        | 0 -> [ (j, c); (p, -c) ]
        | 1 -> [ (j, 2 * c); (p, -c); (j, -c) ]
        | _ -> [ (j, c); (0, 1); (p, -c); (0, -1) ]
      in
      (List.map (fun (v, c) -> (v, R.of_int c)) terms, Ilp.Simplex.Eq, R.zero)
    in
    let parent = Array.init total Fun.id in
    List.iter (fun (j, p, _, _) -> parent.(j) <- p) ties;
    let rec root v = if parent.(v) = v then v else root parent.(v) in
    let last = total - 1 in
    let box =
      List.init n (fun v -> ([ (v, R.one) ], Ilp.Simplex.Le, R.of_int ub))
    in
    let sparse (coeffs, op, b) =
      ( Array.to_list coeffs
        |> List.mapi (fun v c -> (v, c))
        |> List.filter_map (fun (v, c) ->
               if c = 0 then None else Some (v, R.of_int c)),
        op,
        R.of_int b )
    in
    let* constraints =
      shuffle_l
        (box @ List.map tie ties
        @ (if cycle then [ tie (root last, last, 2, 0) ] else [])
        @ List.map sparse extra)
    in
    return
      {
        Ilp.Simplex.num_vars = total;
        maximize = Array.map R.of_int maximize;
        constraints;
      })

let print_lp (lp : Ilp.Simplex.lp) =
  let op = function
    | Ilp.Simplex.Le -> "<="
    | Ilp.Simplex.Ge -> ">="
    | Ilp.Simplex.Eq -> "="
  in
  Fmt.str "max %a s.t. %s"
    Fmt.(Dump.array R.pp)
    lp.maximize
    (String.concat "; "
       (List.map
          (fun (terms, o, b) ->
            Fmt.str "%s %s %a"
              (String.concat " + "
                 (List.map (fun (v, c) -> Fmt.str "%a x%d" R.pp c v) terms))
              (op o) R.pp b)
          lp.constraints))

(* Over a seeded sample of planted LPs, [solve] agrees with [solve_exact]
   on the kind and objective, and every optimum it returns has one dual
   per original row and certifies on the original LP.  Every integral
   optimum must come through the lift on the float path. *)
let test_presolve_planted () =
  let rand = Random.State.make [| 5 |] in
  let lifted = ref 0 and integral_fallbacks = ref 0 in
  for _ = 1 to 500 do
    let problem = QCheck.Gen.generate1 ~rand planted_gen in
    let fell = ref false in
    let r = Ilp.Simplex.solve ~on_fallback:(fun () -> fell := true) problem in
    if not (same_result ~point:false r (Ilp.Simplex.solve_exact problem)) then
      Alcotest.failf "disagrees with exact on %s" (print_lp problem);
    match r with
    | Ilp.Simplex.Optimal s ->
        check_int "one dual per original row"
          (List.length problem.constraints)
          (Array.length s.duals);
        if not (Ilp.Simplex.certify problem s) then
          Alcotest.failf "uncertified optimum on %s" (print_lp problem);
        if not !fell then incr lifted
        else if Array.for_all R.is_integer s.values then
          incr integral_fallbacks
    | _ -> ()
  done;
  check_bool "float path answers planted LPs" true (!lifted > 0);
  check_int "integral optima left to the exact path" 0 !integral_fallbacks

(* Rows the presolve must leave alone: merging any of them would change
   the LP, so the lifted answer would fail its certificate and the solve
   would fall back.  Each must be answered on the float path with the
   exact optimum; the last case, whose tying rows merge, too. *)
let test_presolve_no_merge () =
  let cases =
    Ilp.Simplex.
      [
        ("rhs 1", lp 2 [| 1; 1 |] [ ([| 1; -1 |], Eq, 1); ([| 1; 0 |], Le, 5) ], 9);
        ( "same-sign pair",
          lp 3 [| 1; 1; 1 |] [ ([| 1; 1; 0 |], Eq, 0); ([| 0; 0; 1 |], Le, 3) ],
          3 );
        ( "unequal magnitudes",
          lp 2 [| 1; 1 |] [ ([| 1; -2 |], Eq, 0); ([| 0; 1 |], Le, 2) ],
          6 );
        ( "Le doubleton",
          lp 2 [| -1; 1 |] [ ([| 1; -1 |], Le, 0); ([| 0; 1 |], Le, 3) ],
          3 );
        ( "Ge doubleton",
          lp 2 [| 1; -1 |] [ ([| 1; -1 |], Ge, 0); ([| 1; 0 |], Le, 3) ],
          3 );
        ( "tied chain",
          lp 3 [| 2; -1; 3 |]
            [
              ([| 1; -1; 0 |], Eq, 0);
              ([| 0; 2; -2 |], Eq, 0);
              ([| 1; 0; 0 |], Le, 4);
            ],
          16 );
      ]
  in
  List.iter
    (fun (name, problem, expected) ->
      let fell = ref false in
      let r = Ilp.Simplex.solve ~on_fallback:(fun () -> fell := true) problem in
      check_rat (name ^ ": optimum") (R.of_int expected) (objective_of r);
      check_rat (name ^ ": exact optimum") (R.of_int expected)
        (objective_of (Ilp.Simplex.solve_exact problem));
      check_bool (name ^ ": float path") false !fell)
    cases

(* Tying rows that close a cycle with a nonzero rhs reduce to 0 = 2. *)
let test_presolve_empty_row_infeasible () =
  let problem =
    lp 3 [| 1; 1; 1 |]
      Ilp.Simplex.
        [
          ([| 1; -1; 0 |], Eq, 0);
          ([| 0; 1; -1 |], Eq, 0);
          ([| 1; 0; -1 |], Eq, 2);
          ([| 1; 0; 0 |], Le, 4);
        ]
  in
  check_bool "infeasible" true (Ilp.Simplex.solve problem = Ilp.Simplex.Infeasible);
  check_bool "exact infeasible" true
    (Ilp.Simplex.solve_exact problem = Ilp.Simplex.Infeasible)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_problem_pp () =
  let p = Ilp.Problem.create () in
  let x = Ilp.Problem.var p "x_f" in
  Ilp.Problem.add_le ~label:(lazy "loop bound") p [ (1, x) ] 7;
  Ilp.Problem.set_objective p [ (42, x) ];
  let rendered = Fmt.to_to_string Ilp.Problem.pp p in
  check_bool "mentions variable" true (contains_substring rendered "x_f");
  check_bool "mentions label" true (contains_substring rendered "loop bound");
  (* The full rendering of a problem with more variables than one
     allocation of the name table holds. *)
  let q = Ilp.Problem.create () in
  let v = Array.init 40 (fun i -> Ilp.Problem.var q (Fmt.str "v%d" i)) in
  Ilp.Problem.add_eq ~label:(lazy "flow") q [ (1, v.(0)); (-1, v.(17)) ] 0;
  Ilp.Problem.add_ge q [ (3, v.(39)); (1, v.(16)) ] 2;
  Ilp.Problem.add_le ~label:(lazy "cap") q [ (2, v.(38)) ] 5;
  Ilp.Problem.set_objective q [ (5, v.(0)); (1, v.(39)) ];
  Alcotest.(check string)
    "rendering"
    "maximize 5 v0 + v39\nsubject to:\n  v0 + -1 v17 = 0    ; flow\n\
    \  3 v39 + v16 >= 2\n  2 v38 <= 5    ; cap\n"
    (Fmt.to_to_string Ilp.Problem.pp q);
  (* A name is its string followed by its indices, "_"-separated. *)
  Alcotest.(check (list string))
    "indexed names" [ "x7"; "d3_4"; "d_entry" ]
    (List.map (Ilp.Problem.name q)
       [
         Ilp.Problem.var ~index:[ 7 ] q "x";
         Ilp.Problem.var ~index:[ 3; 4 ] q "d";
         Ilp.Problem.var q "d_entry";
       ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ilp"
    [
      ( "rat",
        Alcotest.
          [
            test_case "basics" `Quick test_rat_basics;
            test_case "overflow" `Quick test_rat_overflow;
            test_case "min_int is overflow" `Quick test_rat_min_int;
          ]
        @ qsuite [ test_rat_field_laws; test_rat_order_antisym ] );
      ( "simplex",
        Alcotest.
          [
            test_case "basic" `Quick test_simplex_basic;
            test_case "fractional vertex" `Quick test_simplex_fractional;
            test_case "infeasible" `Quick test_simplex_infeasible;
            test_case "unbounded" `Quick test_simplex_unbounded;
            test_case "equality" `Quick test_simplex_equality;
            test_case "negative rhs" `Quick test_simplex_negative_rhs;
            test_case "degenerate" `Quick test_simplex_degenerate;
            test_case "fallbacks exercised" `Quick test_fallbacks_exercised;
          ]
        @ qsuite [ test_solve_vs_exact ] );
      ( "certificate",
        Alcotest.test_case "accepts optima" `Quick test_certificate_accepts
        :: List.map
             (fun ((name, _) as m) ->
               Alcotest.test_case ("rejects " ^ name) `Quick (test_mutation m))
             certificate_mutations );
      ( "branch-bound",
        Alcotest.
          [
            test_case "integrality" `Quick test_bb_integrality;
            test_case "fallback count" `Quick test_bb_fallback_stats;
          ]
        @ qsuite [ test_bb_vs_brute_force; test_lp_bounds_ilp ] );
      ( "presolve",
        Alcotest.
          [
            test_case "planted chains match exact" `Quick test_presolve_planted;
            test_case "rows that must not merge" `Quick test_presolve_no_merge;
            test_case "0 = b stays infeasible" `Quick
              test_presolve_empty_row_infeasible;
          ] );
      ( "problem",
        Alcotest.[ test_case "pretty printing" `Quick test_problem_pp ] );
    ]
