(* Tests for the one loop-bound chain
   ({!Sel4_rt.Kernel_loops.compute_bound}): counter loops are bounded
   statically by the interval analysis; the rest by slicing the loop and
   model-checking the slice over every input (Section 5.3).  The ground
   truth is an exhaustive interpretation of the full, unsliced program. *)

module L = Tac.Lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option int))

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

(* --- the chain --- *)

module K = Sel4_rt.Kernel_loops

(* [compute_bound] on a test program; the annotation only caps the model
   check (at [4 * annotated] header visits). *)
let chain ?(header = "header") ?(annotated = 64) program =
  K.compute_bound { K.name = "test"; program; header; annotated }

let check_chain msg expected method_used program =
  let r = chain program in
  check_opt msg (Some expected) r.K.computed;
  check_bool (msg ^ ": method") true (r.K.method_used = method_used)

(* --- the model-checking fallback --- *)

let test_memory_loop () =
  let program = memory_loop ~limit:7 in
  check_chain "memory loop bounded by the checker" 8 K.Model_checking program;
  check_int "matches ground truth" 8 (max_visits program ~header:"header")

let test_diverging () =
  let forever =
    {
      L.entry = "spin";
      params = [];
      blocks = [ { L.label = "spin"; instrs = []; term = L.Jump "spin" } ];
    }
  in
  let r = chain ~header:"spin" ~annotated:16 forever in
  check_opt "diverging loop unbounded" None r.K.computed;
  check_bool "the annotation stands" true
    (r.K.method_used = K.Annotation_only)

let test_cap () =
  (* 8 header visits: within four times an annotation of 2, beyond four
     times an annotation of 1. *)
  let program = memory_loop ~limit:7 in
  check_opt "8 <= 4 * 2 is bounded" (Some 8)
    (chain ~annotated:2 program).K.computed;
  let r = chain ~annotated:1 program in
  check_opt "8 > 4 * 1 gives up" None r.K.computed;
  check_bool "the annotation stands" true
    (r.K.method_used = K.Annotation_only)

(* --- counter loops --- *)

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
  (* Both methods are exact on these loops, so the chain must agree with
     the exhaustive check of the full program ([hi = 0] reaches the model
     checker through the chain). *)
  List.iter
    (fun program ->
      Alcotest.(check (option int))
        "chain = exhaustive check"
        (Some (max_visits program ~header:"header"))
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
      let truth = max_visits program ~header:"header" in
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
      ( "checker",
        Alcotest.
          [
            test_case "diverging" `Quick test_diverging;
            test_case "memory loop" `Quick test_memory_loop;
            test_case "4x cap" `Quick test_cap;
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
