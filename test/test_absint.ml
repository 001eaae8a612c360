(* Tests for the abstract interpreter: soundness of the interval ×
   congruence domain against concrete evaluation, lattice laws the
   fixpoint relies on, per-edge branch refinement, interval-valued
   induction analysis, and the end-to-end derivation/audit of the
   Section 5.2 constraints, down to the IPET comparison of manual vs
   derived constraint sets. *)

module L = Tac.Lang
module VD = Tac.Value_domain
module AI = Tac.Absint
module DC = Wcet.Derive_constraints

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- domain soundness: exhaustive small-range enumeration --- *)

(* Every interval [lo, hi] with -4 <= lo <= hi <= 4, plus a few
   congruence-carrying elements. *)
let small_elements =
  let ranges = ref [] in
  for lo = -4 to 4 do
    for hi = lo to 4 do
      ranges := VD.range lo hi :: !ranges
    done
  done;
  VD.make ~lo:(VD.Fin (-4)) ~hi:(VD.Fin 4) ~modulus:2 ~residue:0
  :: VD.make ~lo:(VD.Fin (-3)) ~hi:(VD.Fin 3) ~modulus:3 ~residue:1
  :: !ranges

let members v = List.filter (VD.contains v) [ -4; -3; -2; -1; 0; 1; 2; 3; 4 ]

let for_all_pairs f =
  List.iter (fun a -> List.iter (fun b -> f a b) small_elements) small_elements

let test_lattice_laws () =
  for_all_pairs (fun a b ->
      let j = VD.join a b in
      check_bool "a <= join a b" true (VD.leq a j);
      check_bool "b <= join a b" true (VD.leq b j);
      let m = VD.meet a b in
      check_bool "meet a b <= a" true (VD.leq m a);
      check_bool "meet a b <= b" true (VD.leq m b);
      (* widen old next (old <= next) covers next *)
      let w = VD.widen a j in
      check_bool "join a b <= widen a (join a b)" true (VD.leq j w));
  (* join is monotone in each argument *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if VD.leq a b then
                check_bool "join monotone" true
                  (VD.leq (VD.join a c) (VD.join b c)))
            small_elements)
        small_elements)
    [ VD.range 0 2; VD.range (-3) 1; VD.const 2; VD.bot ]

let test_widen_stabilises () =
  (* Iterating x -> widen x (join x (x+1)) from [0,0] must reach a
     fixpoint in a bounded number of steps (the termination argument of
     the ascending phase). *)
  let step x = VD.widen x (VD.join x (VD.add x (VD.const 1))) in
  let rec go x n =
    if n > 10 then Alcotest.fail "widening did not stabilise"
    else
      let x' = step x in
      if VD.equal x x' then n else go x' (n + 1)
  in
  let steps = go (VD.const 0) 0 in
  check_bool "stabilised in a few steps" true (steps <= 3)

let concrete_op = function
  | "add" -> ( + )
  | "sub" -> ( - )
  | "mul" -> ( * )
  | "div" -> fun x y -> if y = 0 then 0 else x / y
  | "and" -> ( land )
  | "or" -> ( lor )
  | "xor" -> ( lxor )
  | _ -> assert false

let abstract_op = function
  | "add" -> VD.add
  | "sub" -> VD.sub
  | "mul" -> VD.mul
  | "div" -> VD.div
  | "and" -> VD.logand
  | "or" -> VD.logor
  | "xor" -> VD.logxor
  | _ -> assert false

let test_transfer_soundness () =
  List.iter
    (fun name ->
      let c = concrete_op name and a = abstract_op name in
      for_all_pairs (fun va vb ->
          let r = a va vb in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  check_bool
                    (Fmt.str "%s: %d in %s %s %s" name (c x y) (VD.to_string va)
                       name (VD.to_string vb))
                    true
                    (VD.contains r (c x y)))
                (members vb))
            (members va)))
    [ "add"; "sub"; "mul"; "div"; "and"; "or"; "xor" ]

let test_shift_soundness () =
  (* Non-negative shift counts; Lang masks counts to [0, 62]. *)
  let vals = [ VD.range 0 4; VD.range (-4) 4; VD.const 3; VD.range 1 2 ] in
  let counts = [ VD.const 0; VD.const 2; VD.range 0 3; VD.range 1 4 ] in
  List.iter
    (fun va ->
      List.iter
        (fun vb ->
          let shl = VD.shl va vb and shr = VD.shr va vb in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  check_bool "shl sound" true
                    (VD.contains shl (L.eval_binop L.Shl x y));
                  check_bool "shr sound" true
                    (VD.contains shr (L.eval_binop L.Shr x y)))
                (members vb))
            (members va))
        counts)
    vals

let test_congruence () =
  let evens = VD.make ~lo:(VD.Fin 0) ~hi:(VD.Fin 10) ~modulus:2 ~residue:0 in
  check_bool "contains 4" true (VD.contains evens 4);
  check_bool "excludes 5" false (VD.contains evens 5);
  (* disjoint congruence classes meet to bottom *)
  let odds = VD.congruent ~modulus:2 ~residue:1 in
  check_bool "evens /\\ odds = bot" true (VD.is_bot (VD.meet evens odds));
  (* reduction rounds endpoints into the class *)
  (match VD.bounds (VD.make ~lo:(VD.Fin 1) ~hi:(VD.Fin 9) ~modulus:2 ~residue:0) with
  | Some (VD.Fin lo, VD.Fin hi) ->
      check_int "rounded lo" 2 lo;
      check_int "rounded hi" 8 hi
  | _ -> Alcotest.fail "expected finite bounds");
  (* x ≡ 1 (mod 3) joined with x ≡ 1 (mod 6) stays periodic *)
  match
    VD.congruence
      (VD.join (VD.congruent ~modulus:3 ~residue:1) (VD.congruent ~modulus:6 ~residue:1))
  with
  | Some (m, r) ->
      check_int "join modulus" 3 m;
      check_int "join residue" 1 r
  | None -> Alcotest.fail "join of congruences is not bot"

let test_refine () =
  let v = VD.range 0 10 and w = VD.range 3 5 in
  (match VD.bounds (VD.refine VD.Lt v w) with
  | Some (_, VD.Fin hi) -> check_int "x < [3,5] caps at 4" 4 hi
  | _ -> Alcotest.fail "expected finite hi");
  (match VD.bounds (VD.refine VD.Ge v w) with
  | Some (VD.Fin lo, _) -> check_int "x >= [3,5] floors at 3" 3 lo
  | _ -> Alcotest.fail "expected finite lo");
  check_bool "x < 0 infeasible from [0,10]" true
    (VD.is_bot (VD.refine VD.Lt v (VD.const 0)));
  check_int "definitely: [0,2] < [3,5]" 1
    (match VD.definitely VD.Lt (VD.range 0 2) w with Some true -> 1 | _ -> 0);
  check_int "definitely: [6,8] < [3,5] is false" 1
    (match VD.definitely VD.Lt (VD.range 6 8) w with Some false -> 1 | _ -> 0)

(* --- branch refinement through the interpreter --- *)

let diamond ~lo ~hi =
  {
    L.entry = "entry";
    params = [ { L.name = "x"; lo; hi } ];
    blocks =
      [
        { L.label = "entry"; instrs = []; term = L.Branch (L.Le, L.Reg "x", L.Imm 2, "low", "high") };
        { L.label = "low"; instrs = []; term = L.Jump "tail" };
        { L.label = "high"; instrs = []; term = L.Jump "tail" };
        { L.label = "tail"; instrs = []; term = L.Halt };
      ];
  }

let test_branch_refinement () =
  let ai = AI.analyse (diamond ~lo:0 ~hi:10) in
  (match VD.bounds (AI.reg_value ai ~block:"low" "x.0") with
  | Some (_, VD.Fin hi) -> check_int "low arm: x <= 2" 2 hi
  | _ -> Alcotest.fail "low arm not refined");
  (match VD.bounds (AI.reg_value ai ~block:"high" "x.0") with
  | Some (VD.Fin lo, _) -> check_int "high arm: x >= 3" 3 lo
  | _ -> Alcotest.fail "high arm not refined");
  (* the join at the tail restores the full range *)
  match VD.bounds (AI.reg_value ai ~block:"tail" "x.0") with
  | Some (VD.Fin lo, VD.Fin hi) ->
      check_int "tail lo" 0 lo;
      check_int "tail hi" 10 hi
  | _ -> Alcotest.fail "tail not tracked"

let test_infeasible_edge () =
  (* x in [0,2] makes the high arm dead. *)
  let ai = AI.analyse (diamond ~lo:0 ~hi:2) in
  check_bool "high edge infeasible" false
    (AI.edge_feasible ai ~src:"entry" ~dst:"high");
  check_bool "high block unreachable" false (AI.reachable ai "high");
  check_bool "low edge feasible" true (AI.edge_feasible ai ~src:"entry" ~dst:"low")

(* --- loop trip bounds --- *)

let countup ~lo ~hi =
  {
    L.entry = "entry";
    params = [ { L.name = "n"; lo; hi } ];
    blocks =
      [
        { L.label = "entry"; instrs = [ L.Assign ("i", L.Imm 0) ]; term = L.Jump "header" };
        { L.label = "header"; instrs = []; term = L.Branch (L.Lt, L.Reg "i", L.Reg "n", "body", "exit") };
        {
          L.label = "body";
          instrs = [ L.Binop ("i", L.Add, L.Reg "i", L.Imm 1) ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

(* The capability-decode shape: a decrement whose step is itself an
   interval (bits consumed per level in [1, 8]), which syntactic counter
   analysis cannot bound. *)
let decode_like =
  {
    L.entry = "entry";
    params = [ { L.name = "level_bits"; lo = 1; hi = 8 } ];
    blocks =
      [
        { L.label = "entry"; instrs = [ L.Assign ("bits", L.Imm 32) ]; term = L.Jump "header" };
        { L.label = "header"; instrs = []; term = L.Branch (L.Gt, L.Reg "bits", L.Imm 0, "body", "exit") };
        {
          L.label = "body";
          instrs = [ L.Binop ("bits", L.Sub, L.Reg "bits", L.Reg "level_bits") ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

let test_trip_bounds () =
  let ai = AI.analyse (countup ~lo:0 ~hi:10) in
  check_int "count-up trips" 10
    (match AI.trip_bound ai ~header:"header" with Some t -> t | None -> -1);
  check_int "header visit bound" 11
    (match AI.block_visit_bound ai "header" with Some b -> b | None -> -1);
  check_int "body visit bound" 10
    (match AI.block_visit_bound ai "body" with Some b -> b | None -> -1);
  check_int "exit visits once" 1
    (match AI.block_visit_bound ai "exit" with Some b -> b | None -> -1);
  let st = AI.stats ai in
  check_bool "widening fired" true (st.AI.widenings > 0);
  check_bool "narrowing ran" true (st.AI.narrowings > 0)

let test_interval_step_trip () =
  (* worst case: 32 iterations of -1 steps; visits = 33, matching the
     kernel's annotated decode bound. *)
  let ai = AI.analyse decode_like in
  check_int "decode-like trips" 32
    (match AI.trip_bound ai ~header:"header" with Some t -> t | None -> -1);
  check_int "decode-like header visits" 33
    (match AI.block_visit_bound ai "header" with Some b -> b | None -> -1)

let test_memory_carried_abstains () =
  (* Trip count through a Load: the analysis must return no bound. *)
  let p =
    {
      L.entry = "entry";
      params = [];
      blocks =
        [
          { L.label = "entry"; instrs = [ L.Load ("cur", L.Imm 0) ]; term = L.Jump "header" };
          { L.label = "header"; instrs = []; term = L.Branch (L.Ne, L.Reg "cur", L.Imm 0, "body", "exit") };
          {
            L.label = "body";
            instrs = [ L.Load ("cur", L.Reg "cur") ];
            term = L.Jump "header";
          };
          { L.label = "exit"; instrs = []; term = L.Halt };
        ];
    }
  in
  let ai = AI.analyse p in
  check_bool "no trip bound through loads" true
    (AI.trip_bound ai ~header:"header" = None)

(* Test reference: the most header visits over every input valuation of
   the full program, by direct interpretation. *)
let max_visits program ~header =
  let best = ref 0 in
  ignore
    (Tac.Interp.for_all_inputs program (fun inputs ->
         let _, trace = Tac.Interp.run program ~inputs in
         best := max !best (Tac.Interp.visits trace header);
         true));
  !best

let test_kernel_loops_cross_check () =
  (* At these small sizes the exhaustive reference is cheap: the chain
     must match it on every catalogue loop, and only the memory-carried
     badge scan may need the model checker to get there. *)
  let module K = Sel4_rt.Kernel_loops in
  let results = K.catalogue ~max_frame_bytes:4096 ~chunk:512 in
  List.iter
    (fun (r : K.result) ->
      let name = r.K.spec.K.name in
      Alcotest.(check (option int))
        (Fmt.str "chain = exhaustive maximum on %s" name)
        (Some (max_visits r.K.spec.K.program ~header:r.K.spec.K.header))
        r.K.computed;
      check_bool
        (Fmt.str "%s: model checking only for the badge scan" name)
        (String.starts_with ~prefix:"badge_scan" name)
        (r.K.method_used = K.Model_checking))
    results;
  check_int "five loops catalogued" 5 (List.length results)

(* --- constraint derivation and audit --- *)

let delivery_like : DC.model =
  let b label instrs term = { L.label; instrs; term } in
  {
    DC.dm_name = "delivery";
    dm_func = "f";
    dm_program =
      {
        L.entry = "entry";
        params = [ { L.name = "t"; lo = 0; hi = 1 } ];
        blocks =
          [
            b "entry" [] (L.Jump "s1");
            b "s1" [] (L.Branch (L.Eq, L.Reg "t", L.Imm 0, "a1", "b1"));
            b "a1" [] (L.Jump "m");
            b "b1" [] (L.Jump "m");
            b "m" [] (L.Jump "s2");
            b "s2" [] (L.Branch (L.Eq, L.Reg "t", L.Imm 0, "a2", "b2"));
            b "a2" [] (L.Jump "x");
            b "b2" [] (L.Jump "x");
            b "x" [] L.Halt;
          ];
      };
    dm_labels = [ ("a1", "A1"); ("b1", "B1"); ("a2", "A2"); ("b2", "B2") ];
    dm_calls_bound = 1;
  }

let has_constraint report c =
  List.exists (fun (c', _) -> c' = c) report.DC.rep_derived

let test_derive_rules () =
  let r = DC.derive [ delivery_like ] in
  (* cross arms conflict; aligned arms are consistent *)
  check_bool "A1 conflicts B1" true
    (has_constraint r (Wcet.User_constraint.conflicts ~func:"f" "A1" "B1"));
  check_bool "A1 conflicts B2" true
    (has_constraint r (Wcet.User_constraint.conflicts ~func:"f" "A1" "B2"));
  check_bool "A1 consistent A2" true
    (has_constraint r (Wcet.User_constraint.consistent ~func:"f" "A1" "A2"));
  check_bool "B1 consistent B2" true
    (has_constraint r (Wcet.User_constraint.consistent ~func:"f" "B1" "B2"));
  (* nothing relates the aligned arms as conflicting *)
  check_bool "no A1/A2 conflict" false
    (has_constraint r (Wcet.User_constraint.conflicts ~func:"f" "A1" "A2"));
  check_int "four conflicts + two consistents" 6 (List.length r.DC.rep_derived)

(* The same two branches with [t] redefined between them: the guards are
   syntactically identical but read different values, so equal guards
   must not relate the arms (with t = 0 the run takes a1 and b2). *)
let redefined_guard : DC.model =
  let program =
    {
      delivery_like.DC.dm_program with
      L.blocks =
        List.map
          (fun (blk : L.block) ->
            if blk.L.label <> "m" then blk
            else { blk with L.instrs = [ L.Assign ("t", L.Imm 1) ] })
          delivery_like.DC.dm_program.L.blocks;
    }
  in
  { delivery_like with DC.dm_name = "redefined"; dm_program = program }

let test_redefined_guard () =
  let program = redefined_guard.DC.dm_program in
  let _, trace = Tac.Interp.run program ~inputs:[ ("t", 0) ] in
  check_int "concrete t=0 runs a1" 1 (Tac.Interp.visits trace "a1");
  check_int "concrete t=0 skips a2" 0 (Tac.Interp.visits trace "a2");
  let r = DC.derive [ redefined_guard ] in
  check_bool "no equal-guards constraint" false
    (List.exists
       (fun (_, d) -> d.DC.dv_rule = DC.Equal_guards)
       r.DC.rep_derived);
  check_bool "A1 not consistent with A2" false
    (has_constraint r (Wcet.User_constraint.consistent ~func:"f" "A1" "A2"))

let verdict_of report c =
  match
    List.find_opt (fun l -> l.DC.al_constraint = c) report.DC.rep_audit
  with
  | Some l -> Some l.DC.al_verdict
  | None -> None

let test_audit_verdicts () =
  let manual =
    [
      (* provable: subsumed by the equal-guards derivation *)
      Wcet.User_constraint.consistent ~func:"f" "A1" "A2";
      (* false: A1 and B2 never execute together *)
      Wcet.User_constraint.consistent ~func:"f" "A1" "B2";
      (* out of scope: no model covers function g *)
      Wcet.User_constraint.conflicts ~func:"g" "p" "q";
    ]
  in
  let r = DC.audit ~models:[ delivery_like ] ~manual in
  check_bool "consistent A1 A2 proved" true
    (verdict_of r (Wcet.User_constraint.consistent ~func:"f" "A1" "A2")
    = Some DC.Proved);
  check_bool "consistent A1 B2 refuted" true
    (verdict_of r (Wcet.User_constraint.consistent ~func:"f" "A1" "B2")
    = Some DC.Refuted);
  check_bool "unmapped function unknown" true
    (verdict_of r (Wcet.User_constraint.conflicts ~func:"g" "p" "q")
    = Some DC.Unknown);
  (* the refutation carries a concrete witness *)
  match List.find_opt (fun l -> l.DC.al_verdict = DC.Refuted) r.DC.rep_audit with
  | Some l -> check_bool "witness recorded" true (String.length l.DC.al_evidence > 0)
  | None -> Alcotest.fail "no refuted line"

let test_loop_cap_derivation () =
  let cap_model : DC.model =
    {
      DC.dm_name = "stale";
      dm_func = "choose";
      dm_program = countup ~lo:0 ~hi:7;
      dm_labels = [ ("body", "ch_stale") ];
      dm_calls_bound = 2;
    }
  in
  let r = DC.derive [ cap_model ] in
  (* per-invocation bound 7, times the declared two invocations *)
  check_bool "global cap scaled by calls bound" true
    (has_constraint r
       (Wcet.User_constraint.executes_at_most ~func:"choose" "ch_stale" 14))

(* --- kernel model: every manual constraint proved, derived set matches --- *)

let test_kernel_audit_complete () =
  let r = Sel4_rt.Kernel_model.constraint_report ~main:"syscall" () in
  check_int "all three manual constraints audited" 3
    (List.length r.DC.rep_audit);
  List.iter
    (fun l ->
      check_bool
        (Fmt.str "proved: %a" Wcet.User_constraint.pp l.DC.al_constraint)
        true
        (l.DC.al_verdict = DC.Proved))
    r.DC.rep_audit;
  check_int "seven derived constraints" 7 (List.length r.DC.rep_derived)

let test_ipet_manual_vs_derived () =
  let spec =
    Sel4_rt.Kernel_model.spec Sel4.Build.improved Sel4_rt.Kernel_model.Syscall
  in
  check_bool "spec carries derived constraints" true (spec.Wcet.Ipet.derived <> []);
  let prepared = Wcet.Ipet.prepare ~config:Hw.Config.default spec in
  let wcet sources =
    (Wcet.Ipet.analyse_prepared ~sources prepared).Wcet.Ipet.wcet
  in
  let unconstrained = wcet `None in
  let manual = wcet `Manual in
  let derived = wcet `Derived in
  let combined = wcet `All in
  check_bool "manual tightens the bound" true (manual < unconstrained);
  check_int "derived alone reproduces the manual bound" manual derived;
  check_int "combined equals manual (derived subsume it)" manual combined

let () =
  Alcotest.run "absint"
    [
      ( "domain",
        [
          Alcotest.test_case "lattice laws" `Quick test_lattice_laws;
          Alcotest.test_case "widening stabilises" `Quick test_widen_stabilises;
          Alcotest.test_case "transfer soundness" `Slow test_transfer_soundness;
          Alcotest.test_case "shift soundness" `Quick test_shift_soundness;
          Alcotest.test_case "congruence" `Quick test_congruence;
          Alcotest.test_case "refinement" `Quick test_refine;
        ] );
      ( "interp",
        [
          Alcotest.test_case "branch refinement" `Quick test_branch_refinement;
          Alcotest.test_case "infeasible edge" `Quick test_infeasible_edge;
          Alcotest.test_case "trip bounds" `Quick test_trip_bounds;
          Alcotest.test_case "interval-step trip" `Quick test_interval_step_trip;
          Alcotest.test_case "memory-carried abstains" `Quick
            test_memory_carried_abstains;
          Alcotest.test_case "kernel loops cross-check" `Quick
            test_kernel_loops_cross_check;
        ] );
      ( "derive",
        [
          Alcotest.test_case "rules" `Quick test_derive_rules;
          Alcotest.test_case "redefined guard" `Quick test_redefined_guard;
          Alcotest.test_case "audit verdicts" `Quick test_audit_verdicts;
          Alcotest.test_case "loop cap" `Quick test_loop_cap_derivation;
          Alcotest.test_case "kernel audit" `Quick test_kernel_audit_complete;
          Alcotest.test_case "ipet manual vs derived" `Slow
            test_ipet_manual_vs_derived;
        ] );
    ]
