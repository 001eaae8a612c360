(* Tests for the loop-bound machinery: LTL finite-trace semantics, the
   bounded model checker with binary search, and the one bound chain
   ({!Sel4_rt.Kernel_loops.compute_bound}) on counter loops.  The paper's
   claims (Section 5.3): counter loops are bounded statically; the
   slice+model-check pipeline bounds the rest. *)

module L = Tac.Lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option int))

(* --- LTL --- *)

let test_ltl_basics () =
  let ge n = Loopbound.Ltl.prop (Fmt.str ">=%d" n) (fun s -> s >= n) in
  check_bool "G holds" true
    (Loopbound.Ltl.check_trace Loopbound.Ltl.(always (ge 1)) [ 1; 2; 3 ]);
  check_bool "G fails" false
    (Loopbound.Ltl.check_trace Loopbound.Ltl.(always (ge 2)) [ 2; 1; 3 ]);
  check_bool "F finds" true
    (Loopbound.Ltl.check_trace Loopbound.Ltl.(eventually (ge 3)) [ 1; 2; 3 ]);
  check_bool "X at last is false" false
    (Loopbound.Ltl.check_trace Loopbound.Ltl.(next (ge 0)) [ 5 ]);
  check_bool "until" true
    (Loopbound.Ltl.check_trace
       Loopbound.Ltl.(until (ge 1) (ge 9))
       [ 1; 2; 9; 0 ]);
  check_bool "until needs the goal" false
    (Loopbound.Ltl.check_trace
       Loopbound.Ltl.(until (ge 1) (ge 9))
       [ 1; 2; 3 ]);
  check_bool "empty trace satisfies G" true
    (Loopbound.Ltl.check_trace Loopbound.Ltl.(always (ge 5)) [])

(* --- programs under test --- *)

let countup ?(step = 1) ~lo ~hi () =
  {
    L.entry = "entry";
    params = [ { L.name = "n"; lo; hi } ];
    blocks =
      [
        {
          L.label = "entry";
          instrs = [ L.Assign ("i", L.Imm 0) ];
          term = L.Jump "header";
        };
        {
          L.label = "header";
          instrs = [];
          term = L.Branch (L.Lt, L.Reg "i", L.Reg "n", "body", "exit");
        };
        {
          L.label = "body";
          instrs = [ L.Binop ("i", L.Add, L.Reg "i", L.Imm step) ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

let countdown ~from_ =
  {
    L.entry = "entry";
    params = [];
    blocks =
      [
        {
          L.label = "entry";
          instrs = [ L.Assign ("i", L.Imm from_) ];
          term = L.Jump "header";
        };
        {
          L.label = "header";
          instrs = [];
          term = L.Branch (L.Gt, L.Reg "i", L.Imm 0, "body", "exit");
        };
        {
          L.label = "body";
          instrs = [ L.Binop ("i", L.Sub, L.Reg "i", L.Imm 1) ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

(* Loop whose exit depends on memory: the interval analysis must give up,
   the model checker still bounds it (matches the paper's split). *)
let memory_loop ~limit =
  {
    L.entry = "entry";
    params = [];
    blocks =
      [
        {
          L.label = "entry";
          instrs =
            [ L.Store (L.Imm 0, L.Imm limit); L.Assign ("i", L.Imm 0) ];
          term = L.Jump "header";
        };
        {
          L.label = "header";
          instrs = [ L.Load ("lim", L.Imm 0) ];
          term = L.Branch (L.Lt, L.Reg "i", L.Reg "lim", "body", "exit");
        };
        {
          L.label = "body";
          instrs = [ L.Binop ("i", L.Add, L.Reg "i", L.Imm 1) ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

(* --- model checker --- *)

let test_verify () =
  let program = countup ~lo:0 ~hi:8 () in
  check_bool "bound 9 verified" true
    (Loopbound.Checker.verify program ~header:"header" ~bound:9
    = Loopbound.Checker.Verified);
  (match Loopbound.Checker.verify program ~header:"header" ~bound:8 with
  | Loopbound.Checker.Violated witness ->
      check_int "witness is the worst input" 8 (List.assoc "n" witness)
  | v -> Alcotest.failf "expected violation, got %a" Loopbound.Checker.pp_verdict v);
  ()

let test_find_bound_exact () =
  let program = countup ~lo:0 ~hi:8 () in
  check_opt "binary search finds 9" (Some 9)
    (Loopbound.Checker.find_bound program ~header:"header");
  check_int "matches ground truth" 9
    (Loopbound.Checker.max_observed program ~header:"header")

let test_find_bound_diverging () =
  let forever =
    {
      L.entry = "spin";
      params = [];
      blocks = [ { L.label = "spin"; instrs = []; term = L.Jump "spin" } ];
    }
  in
  check_opt "diverging loop unbounded" None
    (Loopbound.Checker.find_bound ~max_steps:1000 ~upper:64 forever
       ~header:"spin")

let test_find_bound_memory_loop () =
  check_opt "memory loop bounded by the checker" (Some 8)
    (Loopbound.Checker.find_bound (memory_loop ~limit:7) ~header:"header")

(* --- counter loops through the chain --- *)

module K = Sel4_rt.Kernel_loops

(* [compute_bound] on a test program; the annotation only sizes the
   checker's search ([upper = 4 * annotated]). *)
let chain program =
  K.compute_bound
    { K.name = "test"; program; header = "header"; annotated = 64 }

let check_chain msg expected method_used program =
  let r = chain program in
  check_opt msg (Some expected) r.K.computed;
  check_bool (msg ^ ": method") true (r.K.method_used = method_used)

let test_counter_basic () =
  check_chain "i < n, step 1, n <= 8" 9 K.Abstract_interpretation
    (countup ~lo:0 ~hi:8 ())

let test_counter_step () =
  (* i < n, i += 3, n <= 8: iterations = ceil(8/3) = 3, visits = 4. *)
  check_chain "step 3" 4 K.Abstract_interpretation
    (countup ~step:3 ~lo:0 ~hi:8 ())

let test_counter_countdown () =
  check_chain "count down from 5" 6 K.Abstract_interpretation
    (countdown ~from_:5)

let test_counter_gives_up_on_memory () =
  let program = memory_loop ~limit:7 in
  check_opt "memory loop: interval analysis abstains" None
    (Tac.Absint.trip_bound (Tac.Absint.analyse program) ~header:"header");
  check_chain "memory loop: the checker bounds it" 8 K.Model_checking program

let test_counter_agrees_with_checker () =
  (* Both methods are exact on these loops, so they must agree ([hi = 0]
     reaches the checker through the chain). *)
  List.iter
    (fun program ->
      Alcotest.(check (option int))
        "chain = checker"
        (Loopbound.Checker.find_bound program ~header:"header")
        (chain program).K.computed)
    [
      countup ~lo:0 ~hi:0 ();
      countup ~lo:0 ~hi:6 ();
      countup ~step:2 ~lo:0 ~hi:7 ();
      countdown ~from_:9;
    ]

(* Random counter loops: the chain always bounds them, and its bound
   dominates the exhaustive ground truth.  At [hi = 0] the body is
   unreachable and the interval analysis abstains; the model checker must
   then give the exact bound. *)
let gen_loop =
  QCheck.Gen.(
    let* step = int_range 1 4 in
    let* hi = int_range 0 12 in
    return (step, hi))

let test_counter_sound_random =
  QCheck.Test.make ~count:100 ~name:"counter bound dominates ground truth"
    (QCheck.make
       ~print:(fun (s, h) -> Fmt.str "step=%d hi=%d" s h)
       gen_loop)
    (fun (step, hi) ->
      let program = countup ~step ~lo:0 ~hi () in
      let truth = Loopbound.Checker.max_observed program ~header:"header" in
      let r = chain program in
      match r.K.computed with
      | None -> false (* this family must always be bounded *)
      | Some bound ->
          bound >= truth
          && (hi > 0 || (r.K.method_used = K.Model_checking && bound = truth)))

(* Sliced model checking: slicing must not change the bound.  The slice
   preserves every branch decision, so on every input the sliced SSA
   visits the header exactly as often as the full program does. *)
let test_slice_then_check () =
  List.iter
    (fun (name, program, header, kept) ->
      let sliced, stats = Tac.Slice.compute (Tac.Ssa.convert program) in
      check_int (name ^ ": instructions kept") kept stats.Tac.Slice.kept_instrs;
      check_bool (name ^ ": sliced visits = full visits on every input") true
        (Tac.Interp.for_all_inputs program (fun inputs ->
             let _, trace = Tac.Interp.run program ~inputs in
             let counts = Tac.Ssa.run sliced ~inputs in
             Option.value ~default:0 (Hashtbl.find_opt counts header)
             = Tac.Interp.visits trace header)))
    [
      ("memory_loop", memory_loop ~limit:7, "header", 4);
      (let s = K.badge_scan_loop ~max_waiters:12 in
       ("badge_scan", s.K.program, s.K.header, 7));
    ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "loopbound"
    [
      ("ltl", Alcotest.[ test_case "finite-trace semantics" `Quick test_ltl_basics ]);
      ( "checker",
        Alcotest.
          [
            test_case "verify" `Quick test_verify;
            test_case "binary search exact" `Quick test_find_bound_exact;
            test_case "diverging" `Quick test_find_bound_diverging;
            test_case "memory loop" `Quick test_find_bound_memory_loop;
          ] );
      ( "counter",
        Alcotest.
          [
            test_case "basic" `Quick test_counter_basic;
            test_case "non-unit step" `Quick test_counter_step;
            test_case "countdown" `Quick test_counter_countdown;
            test_case "abstains on memory" `Quick test_counter_gives_up_on_memory;
            test_case "agrees with checker" `Quick test_counter_agrees_with_checker;
            test_case "slice then check" `Quick test_slice_then_check;
          ]
        @ qsuite [ test_counter_sound_random ] );
    ]
