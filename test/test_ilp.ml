(* Tests for the exact-rational LP/ILP solver: unit cases with known optima
   plus randomized cross-checks against brute-force enumeration. *)

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

let test_simplex_basic () =
  (* max x + y s.t. x <= 2, y <= 3 -> 5 *)
  let r =
    Ilp.Simplex.solve
      (lp 2 [| 1; 1 |]
         [
           ([| 1; 0 |], Ilp.Simplex.Le, 2); ([| 0; 1 |], Ilp.Simplex.Le, 3);
         ])
  in
  check_rat "optimum" (R.of_int 5) (objective_of r)

let test_simplex_fractional () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4,y=0 -> 12;
     tighter: 2x + y <= 5 as well -> x=5/2? include to get fractional *)
  let r =
    Ilp.Simplex.solve
      (lp 2 [| 3; 2 |]
         [
           ([| 1; 1 |], Ilp.Simplex.Le, 4);
           ([| 1; 3 |], Ilp.Simplex.Le, 6);
           ([| 2; 1 |], Ilp.Simplex.Le, 5);
         ])
  in
  (* Optimum at 2x+y=5 intersect x+3y=6: x=9/5, y=7/5, objective 41/5. *)
  check_rat "fractional-path optimum" (R.make 41 5) (objective_of r)

let test_simplex_infeasible () =
  let r =
    Ilp.Simplex.solve
      (lp 1 [| 1 |]
         [ ([| 1 |], Ilp.Simplex.Le, 1); ([| 1 |], Ilp.Simplex.Ge, 2) ])
  in
  check_bool "infeasible" true (r = Ilp.Simplex.Infeasible)

let test_simplex_unbounded () =
  let r = Ilp.Simplex.solve (lp 1 [| 1 |] [ ([| -1 |], Ilp.Simplex.Le, 0) ]) in
  check_bool "unbounded" true (r = Ilp.Simplex.Unbounded)

let test_simplex_equality () =
  (* max x + 2y s.t. x + y = 3, x <= 2 -> x in [0,2], y = 3-x, obj = 6-x
     -> max at x=0: 6 *)
  let r =
    Ilp.Simplex.solve
      (lp 2 [| 1; 2 |]
         [ ([| 1; 1 |], Ilp.Simplex.Eq, 3); ([| 1; 0 |], Ilp.Simplex.Le, 2) ])
  in
  check_rat "equality optimum" (R.of_int 6) (objective_of r)

let test_simplex_negative_rhs () =
  (* x >= 1 written as -x <= -1; max -x -> -1 *)
  let r = Ilp.Simplex.solve (lp 1 [| -1 |] [ ([| -1 |], Ilp.Simplex.Le, -1) ]) in
  check_rat "negative rhs handled" (R.of_int (-1)) (objective_of r)

let test_simplex_degenerate () =
  (* Degenerate vertex: redundant constraints meeting at the optimum. *)
  let r =
    Ilp.Simplex.solve
      (lp 2 [| 1; 1 |]
         [
           ([| 1; 0 |], Ilp.Simplex.Le, 1);
           ([| 0; 1 |], Ilp.Simplex.Le, 1);
           ([| 1; 1 |], Ilp.Simplex.Le, 2);
           ([| 2; 1 |], Ilp.Simplex.Le, 3);
         ])
  in
  check_rat "degenerate optimum" (R.of_int 2) (objective_of r)

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

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_problem_pp () =
  let p = Ilp.Problem.create () in
  let x = Ilp.Problem.var p "x_f" in
  Ilp.Problem.add_le ~label:"loop bound" p [ (1, x) ] 7;
  Ilp.Problem.set_objective p [ (42, x) ];
  let rendered = Fmt.to_to_string Ilp.Problem.pp p in
  check_bool "mentions variable" true (contains_substring rendered "x_f");
  check_bool "mentions label" true (contains_substring rendered "loop bound")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ilp"
    [
      ( "rat",
        Alcotest.
          [
            test_case "basics" `Quick test_rat_basics;
            test_case "overflow" `Quick test_rat_overflow;
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
          ] );
      ( "branch-bound",
        Alcotest.[ test_case "integrality" `Quick test_bb_integrality ]
        @ qsuite [ test_bb_vs_brute_force; test_lp_bounds_ilp ] );
      ( "problem",
        Alcotest.[ test_case "pretty printing" `Quick test_problem_pp ] );
    ]
