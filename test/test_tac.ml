(* Tests for the TAC mini-language: interpreter, SSA construction and
   slicing.  The key properties mirror what the paper's Section 5.3
   pipeline relies on: SSA preserves semantics, and a slice taken for the
   branch conditions preserves every block visit count. *)

module L = Tac.Lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* count-up loop:
     entry: i := 0; acc := 0; goto header
     header: if i < n goto body else exit
     body: acc := acc + i; mem[i] := acc; i := i + 1; goto header
     exit: halt *)
let countup ~lo ~hi =
  {
    L.entry = "entry";
    params = [ { L.name = "n"; lo; hi } ];
    blocks =
      [
        {
          L.label = "entry";
          instrs = [ L.Assign ("i", L.Imm 0); L.Assign ("acc", L.Imm 0) ];
          term = L.Jump "header";
        };
        {
          L.label = "header";
          instrs = [];
          term = L.Branch (L.Lt, L.Reg "i", L.Reg "n", "body", "exit");
        };
        {
          L.label = "body";
          instrs =
            [
              L.Binop ("acc", L.Add, L.Reg "acc", L.Reg "i");
              L.Store (L.Reg "i", L.Reg "acc");
              L.Binop ("i", L.Add, L.Reg "i", L.Imm 1);
            ];
          term = L.Jump "header";
        };
        { L.label = "exit"; instrs = []; term = L.Halt };
      ];
  }

let test_interp_basics () =
  let program = countup ~lo:0 ~hi:10 in
  let state, trace = Tac.Interp.run program ~inputs:[ ("n", 5) ] in
  check_int "loop ran n times" 5 (Tac.Interp.visits trace "body");
  check_int "header tested n+1 times" 6 (Tac.Interp.visits trace "header");
  check_int "acc = 0+1+2+3+4" 10 (Hashtbl.find state.Tac.Interp.regs "acc");
  check_int "mem[4] stored" 10 (Hashtbl.find state.Tac.Interp.memory 4);
  check_bool "halted" true trace.Tac.Interp.halted

let test_interp_step_limit () =
  let forever =
    {
      L.entry = "spin";
      params = [];
      blocks = [ { L.label = "spin"; instrs = []; term = L.Jump "spin" } ];
    }
  in
  Alcotest.check_raises "diverges" Tac.Interp.Step_limit (fun () ->
      ignore (Tac.Interp.run ~max_steps:100 forever ~inputs:[]))

let test_validate () =
  let bad =
    {
      L.entry = "a";
      params = [];
      blocks = [ { L.label = "a"; instrs = []; term = L.Jump "nowhere" } ];
    }
  in
  check_bool "malformed rejected" true
    (try
       L.validate bad;
       false
     with L.Malformed _ -> true)

(* --- SSA --- *)

let ssa_defs (t : Tac.Ssa.t) =
  List.concat_map
    (fun (b : Tac.Ssa.ssa_block) ->
      List.map (fun (p : Tac.Ssa.phi) -> p.Tac.Ssa.dest) b.Tac.Ssa.phis
      @ List.concat_map L.defs_of_instr b.Tac.Ssa.instrs)
    t.Tac.Ssa.blocks

let test_ssa_single_assignment () =
  let ssa = Tac.Ssa.convert (countup ~lo:0 ~hi:10) in
  let defs = ssa_defs ssa in
  let sorted = List.sort compare defs in
  let rec no_dups = function
    | a :: b :: _ when a = b -> false
    | _ :: rest -> no_dups rest
    | [] -> true
  in
  check_bool "each register assigned once" true (no_dups sorted)

let test_ssa_phi_at_header () =
  let ssa = Tac.Ssa.convert (countup ~lo:0 ~hi:10) in
  let header =
    List.find (fun (b : Tac.Ssa.ssa_block) -> b.label = "header") ssa.blocks
  in
  (* i and acc both flow around the loop: two phis at the header. *)
  check_int "phis at loop header" 2 (List.length header.Tac.Ssa.phis);
  List.iter
    (fun (p : Tac.Ssa.phi) ->
      check_int "two sources" 2 (List.length p.Tac.Ssa.sources))
    header.Tac.Ssa.phis

let visits_tbl_to_sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let test_ssa_preserves_visits () =
  let program = countup ~lo:0 ~hi:10 in
  let ssa = Tac.Ssa.convert program in
  for n = 0 to 10 do
    let _, trace = Tac.Interp.run program ~inputs:[ ("n", n) ] in
    let ssa_visits = Tac.Ssa.run ssa ~inputs:[ ("n", n) ] in
    Alcotest.(check (list (pair string int)))
      (Fmt.str "visits agree for n=%d" n)
      (visits_tbl_to_sorted trace.Tac.Interp.visits)
      (visits_tbl_to_sorted ssa_visits)
  done

(* --- random structured TAC programs --- *)

let reg_pool = [| "a"; "b"; "c"; "i"; "j" |]

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> L.Reg reg_pool.(i)) (int_bound (Array.length reg_pool - 1));
        map (fun n -> L.Imm n) (int_range (-8) 8);
      ])

let gen_simple_instr =
  QCheck.Gen.(
    let* dst = int_bound (Array.length reg_pool - 1) in
    let* op = oneofl [ L.Add; L.Sub; L.Mul; L.And; L.Or; L.Xor ] in
    let* a = gen_operand in
    let* b = gen_operand in
    oneof
      [
        return (L.Binop (reg_pool.(dst), op, a, b));
        return (L.Assign (reg_pool.(dst), a));
        (let* addr = int_range 0 15 in
         return (L.Store (L.Imm addr, a)));
        (let* addr = int_range 0 15 in
         return (L.Load (reg_pool.(dst), L.Imm addr)));
      ])

type construct =
  | Straight of L.instr list
  | IfElse of L.cmp * L.operand * L.operand * L.instr list * L.instr list
  | CountLoop of int * L.instr list  (* trips, body extras *)

let gen_construct =
  QCheck.Gen.(
    let* kind = int_range 0 2 in
    match kind with
    | 0 ->
        let* instrs = list_size (int_range 1 4) gen_simple_instr in
        return (Straight instrs)
    | 1 ->
        let* c = oneofl [ L.Eq; L.Ne; L.Lt; L.Le; L.Gt; L.Ge ] in
        let* a = gen_operand in
        let* b = gen_operand in
        let* t = list_size (int_range 0 3) gen_simple_instr in
        let* e = list_size (int_range 0 3) gen_simple_instr in
        return (IfElse (c, a, b, t, e))
    | _ ->
        let* trips = int_range 0 5 in
        let* body = list_size (int_range 0 3) gen_simple_instr in
        return (CountLoop (trips, body)))

let gen_constructs = QCheck.Gen.(list_size (int_range 1 5) gen_construct)

(* Loop counters use dedicated registers (never in [reg_pool]) so that the
   random body cannot interfere with termination. *)
let build_program constructs =
  let blocks = ref [] in
  let counter = ref 0 in
  let fresh p =
    incr counter;
    Fmt.str "%s%d" p !counter
  in
  let emit label instrs term = blocks := { L.label; instrs; term } :: !blocks in
  let rec chain label = function
    | [] ->
        emit label [] L.Halt
    | Straight instrs :: rest ->
        let next = fresh "blk" in
        emit label instrs (L.Jump next);
        chain next rest
    | IfElse (c, a, b, t, e) :: rest ->
        let lt = fresh "then" and le = fresh "else" and j = fresh "join" in
        emit label [] (L.Branch (c, a, b, lt, le));
        emit lt t (L.Jump j);
        emit le e (L.Jump j);
        chain j rest
    | CountLoop (trips, body) :: rest ->
        let k = fresh "k" in
        let pre = fresh "pre" and h = fresh "hdr" and bd = fresh "body" in
        let after = fresh "after" in
        emit label [] (L.Jump pre);
        emit pre [ L.Assign (k, L.Imm 0) ] (L.Jump h);
        emit h [] (L.Branch (L.Lt, L.Reg k, L.Imm trips, bd, after));
        emit bd (body @ [ L.Binop (k, L.Add, L.Reg k, L.Imm 1) ]) (L.Jump h);
        chain after rest
  in
  chain "entry" constructs;
  {
    L.entry = "entry";
    params =
      [ { L.name = "a"; lo = 0; hi = 2 }; { L.name = "b"; lo = 0; hi = 2 } ];
    blocks = List.rev !blocks;
  }

let print_constructs cs = Fmt.str "%d constructs" (List.length cs)

let test_ssa_equivalence_random =
  QCheck.Test.make ~count:200 ~name:"SSA preserves visit counts"
    (QCheck.make ~print:print_constructs gen_constructs)
    (fun constructs ->
      let program = build_program constructs in
      let ssa = Tac.Ssa.convert program in
      Tac.Interp.for_all_inputs program (fun inputs ->
          let _, trace = Tac.Interp.run program ~inputs in
          let ssa_visits = Tac.Ssa.run ssa ~inputs in
          visits_tbl_to_sorted trace.Tac.Interp.visits
          = visits_tbl_to_sorted ssa_visits))

let test_slice_preserves_visits_random =
  QCheck.Test.make ~count:200 ~name:"slice preserves control flow"
    (QCheck.make ~print:print_constructs gen_constructs)
    (fun constructs ->
      let program = build_program constructs in
      let ssa = Tac.Ssa.convert program in
      let sliced, _stats = Tac.Slice.compute ssa in
      Tac.Interp.for_all_inputs program (fun inputs ->
          let full = Tac.Ssa.run ssa ~inputs in
          let cut = Tac.Ssa.run sliced ~inputs in
          visits_tbl_to_sorted full = visits_tbl_to_sorted cut))

let test_slice_removes_dead_code () =
  (* The accumulator and the store in [countup] do not influence control
     flow, so the slice must drop them. *)
  let ssa = Tac.Ssa.convert (countup ~lo:0 ~hi:10) in
  let _, stats = Tac.Slice.compute ssa in
  check_bool "slice strictly smaller" true
    (stats.Tac.Slice.kept_instrs < stats.Tac.Slice.total_instrs);
  (* i := 0, i + 1 must be kept (2 of the 5 instructions). *)
  check_int "kept exactly the counter chain" 2 stats.Tac.Slice.kept_instrs

let test_slice_keeps_stores_for_loads () =
  (* A branch depending on a load must keep stores. *)
  let program =
    {
      L.entry = "e";
      params = [];
      blocks =
        [
          {
            L.label = "e";
            instrs =
              [
                L.Store (L.Imm 0, L.Imm 7);
                L.Assign ("dead", L.Imm 3);
                L.Load ("x", L.Imm 0);
              ];
            term = L.Branch (L.Eq, L.Reg "x", L.Imm 7, "t", "f");
          };
          { L.label = "t"; instrs = []; term = L.Halt };
          { L.label = "f"; instrs = []; term = L.Halt };
        ];
    }
  in
  let ssa = Tac.Ssa.convert program in
  let sliced, stats = Tac.Slice.compute ssa in
  check_int "store and load kept, dead assign dropped" 2
    stats.Tac.Slice.kept_instrs;
  let visits = Tac.Ssa.run sliced ~inputs:[] in
  check_int "takes the true branch" 1
    (try Hashtbl.find visits "t" with Not_found -> 0)

(* The store's address is a parameter the slicer cannot separate from the
   loaded address, so the store must survive even though it may target a
   different location: dropping it would flip the branch when p = 0. *)
let test_slice_conservative_store_aliasing () =
  let program =
    {
      L.entry = "e";
      params = [ { L.name = "p"; lo = 0; hi = 1 } ];
      blocks =
        [
          {
            L.label = "e";
            instrs =
              [
                L.Store (L.Reg "p", L.Imm 7);
                L.Binop ("unused", L.Add, L.Reg "p", L.Imm 1);
                L.Load ("x", L.Imm 0);
              ];
            term = L.Branch (L.Eq, L.Reg "x", L.Imm 7, "t", "f");
          };
          { L.label = "t"; instrs = []; term = L.Halt };
          { L.label = "f"; instrs = []; term = L.Halt };
        ];
    }
  in
  let ssa = Tac.Ssa.convert program in
  let sliced, stats = Tac.Slice.compute ssa in
  check_int "kept the store and the load, dropped the arithmetic" 2
    stats.Tac.Slice.kept_instrs;
  check_bool "visit counts preserved on every input" true
    (Tac.Interp.for_all_inputs program (fun inputs ->
         let full = Tac.Ssa.run ssa ~inputs in
         let cut = Tac.Ssa.run sliced ~inputs in
         visits_tbl_to_sorted full = visits_tbl_to_sorted cut))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "tac"
    [
      ( "interp",
        Alcotest.
          [
            test_case "count-up loop" `Quick test_interp_basics;
            test_case "step limit" `Quick test_interp_step_limit;
            test_case "validation" `Quick test_validate;
          ] );
      ( "ssa",
        Alcotest.
          [
            test_case "single assignment" `Quick test_ssa_single_assignment;
            test_case "phi placement" `Quick test_ssa_phi_at_header;
            test_case "visit preservation" `Quick test_ssa_preserves_visits;
          ]
        @ qsuite [ test_ssa_equivalence_random ] );
      ( "slice",
        Alcotest.
          [
            test_case "removes dead code" `Quick test_slice_removes_dead_code;
            test_case "keeps stores for loads" `Quick test_slice_keeps_stores_for_loads;
            test_case "conservative about store aliasing" `Quick
              test_slice_conservative_store_aliasing;
          ]
        @ qsuite [ test_slice_preserves_visits_random ] );
    ]
