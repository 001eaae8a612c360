(* The kernel's loops, re-expressed in the TAC mini-language so their
   iteration bounds can be computed mechanically (Section 5.3) instead of
   asserted by hand.

   Each entry pairs a loop program with the kernel parameter that bounds
   it; the WCET skeletons consume the computed bounds.  Loops the interval
   analysis cannot handle (the paper's memory-carried loops) fall back to
   the slicing + model-checking pipeline. *)

module L = Tac.Lang

type loop_spec = {
  name : string;
  program : L.program;
  header : string;
  (* The bound the kernel source annotates: the fallback when neither
     method bounds the loop. *)
  annotated : int;
}

(* Clearing an object of up to [max_bytes] in [chunk]-byte steps:
   for (off = 0; off < size; off += chunk). *)
let clear_loop ~max_bytes ~chunk =
  {
    name = Fmt.str "clear_object(%d/%d)" max_bytes chunk;
    program =
      {
        L.entry = "entry";
        params = [ { L.name = "size"; lo = 0; hi = max_bytes } ];
        blocks =
          [
            {
              L.label = "entry";
              instrs = [ L.Assign ("off", L.Imm 0) ];
              term = L.Jump "header";
            };
            {
              L.label = "header";
              instrs = [];
              term = L.Branch (L.Lt, L.Reg "off", L.Reg "size", "body", "exit");
            };
            {
              L.label = "body";
              instrs = [ L.Binop ("off", L.Add, L.Reg "off", L.Imm chunk) ];
              term = L.Jump "header";
            };
            { L.label = "exit"; instrs = []; term = L.Halt };
          ];
      };
    header = "header";
    annotated = ((max_bytes + chunk - 1) / chunk) + 1;
  }

(* Capability-address decode: while (bits_left > 0) bits_left -= level_bits.
   In the Figure 7 worst case every level consumes one bit. *)
let decode_loop =
  {
    name = "cspace_decode";
    program =
      {
        L.entry = "entry";
        params = [ { L.name = "level_bits"; lo = 1; hi = 8 } ];
        blocks =
          [
            {
              L.label = "entry";
              instrs = [ L.Assign ("bits", L.Imm 32) ];
              term = L.Jump "header";
            };
            {
              L.label = "header";
              instrs = [];
              term = L.Branch (L.Gt, L.Reg "bits", L.Imm 0, "body", "exit");
            };
            {
              L.label = "body";
              instrs = [ L.Binop ("bits", L.Sub, L.Reg "bits", L.Reg "level_bits") ];
              term = L.Jump "header";
            };
            { L.label = "exit"; instrs = []; term = L.Halt };
          ];
      };
    header = "header";
    annotated = 33;
  }

(* The scheduler's priority scan (Figure 3): for (prio = 255; prio >= 0;
   prio--). *)
let priority_scan_loop =
  {
    name = "priority_scan";
    program =
      {
        L.entry = "entry";
        params = [];
        blocks =
          [
            {
              L.label = "entry";
              instrs = [ L.Assign ("prio", L.Imm 255) ];
              term = L.Jump "header";
            };
            {
              L.label = "header";
              instrs = [];
              term = L.Branch (L.Ge, L.Reg "prio", L.Imm 0, "body", "exit");
            };
            {
              L.label = "body";
              instrs = [ L.Binop ("prio", L.Sub, L.Reg "prio", L.Imm 1) ];
              term = L.Jump "header";
            };
            { L.label = "exit"; instrs = []; term = L.Halt };
          ];
      };
    header = "header";
    annotated = 257;
  }

(* ASID allocation scan (Section 3.6): the free-slot search over a pool,
   with the occupancy read from memory.  The early exit depends on memory,
   but the search index is a plain counter, so the interval analysis bounds
   it (the pool is scaled down to keep the tests' exhaustive checks small;
   the real pool is 1024 entries). *)
let asid_search_loop ~pool_size =
  {
    name = Fmt.str "asid_search(%d)" pool_size;
    program =
      {
        L.entry = "setup";
        params = [ { L.name = "used"; lo = 0; hi = pool_size } ];
        blocks =
          [
            (* mem[i] = 1 for i < used: the occupied prefix. *)
            {
              L.label = "setup";
              instrs = [ L.Assign ("i", L.Imm 0) ];
              term = L.Jump "fill";
            };
            {
              L.label = "fill";
              instrs = [];
              term = L.Branch (L.Lt, L.Reg "i", L.Reg "used", "fill_body", "entry");
            };
            {
              L.label = "fill_body";
              instrs =
                [
                  L.Store (L.Reg "i", L.Imm 1);
                  L.Binop ("i", L.Add, L.Reg "i", L.Imm 1);
                ];
              term = L.Jump "fill";
            };
            {
              L.label = "entry";
              instrs = [ L.Assign ("j", L.Imm 0) ];
              term = L.Jump "header";
            };
            {
              L.label = "header";
              instrs = [];
              term =
                L.Branch (L.Ge, L.Reg "j", L.Imm pool_size, "fail", "check");
            };
            {
              L.label = "check";
              instrs = [ L.Load ("occ", L.Reg "j") ];
              term = L.Branch (L.Eq, L.Reg "occ", L.Imm 0, "found", "next");
            };
            {
              L.label = "next";
              instrs = [ L.Binop ("j", L.Add, L.Reg "j", L.Imm 1) ];
              term = L.Jump "header";
            };
            { L.label = "found"; instrs = []; term = L.Halt };
            { L.label = "fail"; instrs = []; term = L.Halt };
          ];
      };
    header = "header";
    annotated = pool_size + 1;
  }

(* The badged-abort scan of Section 3.4: walk the endpoint's wait list —
   a linked list in memory — up to the end marker captured when the abort
   began.  The trip count is carried entirely through loads, so the
   interval analysis must abstain and the bound comes from slicing + model
   checking, which is precisely the split the paper describes. *)
let badge_scan_loop ~max_waiters =
  {
    name = Fmt.str "badge_scan(%d)" max_waiters;
    program =
      {
        L.entry = "setup";
        params = [ { L.name = "n"; lo = 0; hi = max_waiters } ];
        blocks =
          [
            (* Build the list 1 -> 2 -> ... -> n -> 0 in memory. *)
            {
              L.label = "setup";
              instrs = [ L.Assign ("i", L.Imm 1) ];
              term = L.Jump "fill";
            };
            {
              L.label = "fill";
              instrs = [];
              term = L.Branch (L.Gt, L.Reg "i", L.Reg "n", "start", "fill_body");
            };
            {
              L.label = "fill_body";
              instrs =
                [
                  L.Binop ("next", L.Add, L.Reg "i", L.Imm 1);
                  L.Store (L.Reg "i", L.Reg "next");
                  L.Binop ("i", L.Add, L.Reg "i", L.Imm 1);
                ];
              term = L.Jump "fill";
            };
            (* Terminate the list, then scan from the head. *)
            {
              L.label = "start";
              instrs =
                [ L.Store (L.Reg "n", L.Imm 0); L.Assign ("cur", L.Imm 0) ];
              term = L.Branch (L.Ge, L.Imm 0, L.Reg "n", "exit", "head");
            };
            {
              L.label = "head";
              instrs = [ L.Assign ("cur", L.Imm 1) ];
              term = L.Jump "header";
            };
            {
              L.label = "header";
              instrs = [];
              term = L.Branch (L.Ne, L.Reg "cur", L.Imm 0, "body", "exit");
            };
            {
              L.label = "body";
              instrs = [ L.Load ("cur", L.Reg "cur") ];
              term = L.Jump "header";
            };
            { L.label = "exit"; instrs = []; term = L.Halt };
          ];
      };
    header = "header";
    annotated = max_waiters + 1;
  }

type method_used = Abstract_interpretation | Model_checking | Annotation_only

type result = {
  spec : loop_spec;
  computed : int option;
  method_used : method_used;
  slice_stats : Tac.Slice.stats option;
}

(* The paper's chain (Section 5.3).  The abstract interpreter's
   induction-variable analysis bounds the counter loops, interval-valued
   steps included (the decode loop); its per-entry body-iteration count is
   converted to header visits, the model checker's convention.  Where it
   abstains (memory-carried trip counts) the loop is sliced and the slice
   model-checked: one run per input valuation, keeping the most header
   visits.  The inputs are exhausted, so that maximum is the least N for
   which "the header runs at most N times" holds on every execution: what
   a binary search over a yes/no oracle would find, in one pass.  A run
   that diverges, or a count above four times the annotation, gives up,
   and the annotation stands. *)
let compute_bound (spec : loop_spec) =
  let result ?slice_stats method_used computed =
    { spec; computed; method_used; slice_stats }
  in
  let ai = Tac.Absint.analyse spec.program in
  match Tac.Absint.trip_bound ai ~header:spec.header with
  | Some trips -> result Abstract_interpretation (Some (trips + 1))
  | None ->
      let sliced, stats = Tac.Slice.compute (Tac.Absint.ssa ai) in
      let most = ref 0 in
      let bounded =
        Tac.Interp.for_all_inputs spec.program (fun inputs ->
            match Tac.Ssa.run ~max_steps:200_000 sliced ~inputs with
            | exception Tac.Interp.Step_limit -> false
            | visits ->
                Hashtbl.find_opt visits spec.header
                |> Option.iter (fun n -> most := max !most n);
                !most <= 4 * spec.annotated)
      in
      if bounded then result ~slice_stats:stats Model_checking (Some !most)
      else result Annotation_only None

let bound_of r =
  match r.computed with Some b -> b | None -> r.spec.annotated

let bound spec = bound_of (compute_bound spec)

(* The two loops that take no kernel parameter, analysed once when the
   module is initialised: before any domain starts, and never written
   again, so every spec and report shares them without a guard. *)
let decode = compute_bound decode_loop
let priority_scan = compute_bound priority_scan_loop

(* Every kernel loop, for the [loopbounds] section, the WCET tour and the
   tests; the IPET reads the same three it builds.  The clear loop is
   scaled to the analysis scenario's largest object.  The interval
   analysis bounds the ASID search at any pool size; the pool stays at 16
   so the tests' exhaustive references over the catalogue stay small. *)
let catalogue ~max_frame_bytes ~chunk =
  [
    compute_bound (clear_loop ~max_bytes:max_frame_bytes ~chunk);
    decode;
    priority_scan;
    compute_bound (asid_search_loop ~pool_size:16);
    compute_bound (badge_scan_loop ~max_waiters:12);
  ]

let pp_method ppf = function
  | Abstract_interpretation -> Fmt.string ppf "abstract interpretation"
  | Model_checking -> Fmt.string ppf "slice + model checking"
  | Annotation_only -> Fmt.string ppf "manual annotation"

let pp_result ppf r =
  Fmt.pf ppf "%-24s annotated=%-6d computed=%-6s via %a%s" r.spec.name
    r.spec.annotated
    (match r.computed with Some b -> string_of_int b | None -> "-")
    pp_method r.method_used
    (match r.slice_stats with
    | Some s ->
        Fmt.str " (slice kept %d/%d instrs)" s.Tac.Slice.kept_instrs
          s.Tac.Slice.total_instrs
    | None -> "")
