(* Tests for the WCET analysis pipeline.

   The headline property (mirroring Section 5.4 of the paper) is soundness:
   for randomly generated structured programs, the IPET bound computed with
   the conservative cache model must dominate the cycle count observed by
   executing the same program on the detailed 4-way-LRU hardware model. *)

module F = Cfg.Flowgraph
module T = Wcet.Timing

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Sound per-miss charge of the analysis: memory latency + dirty eviction
   (60 + 30 = 90 with the L2 off). *)
let mem = Hw.Config.worst_miss_cycles Hw.Config.default

(* --- abstract cache --- *)

let test_abstract_cache () =
  let c = Wcet.Abstract_cache.create ~line_size:32 ~sets:128 ~pinned_lines:[] in
  check_bool "initially unknown" false (Wcet.Abstract_cache.must_hit c 0x1000);
  Wcet.Abstract_cache.access c 0x1000;
  check_bool "guaranteed after access" true
    (Wcet.Abstract_cache.must_hit c 0x1000);
  check_bool "same line guaranteed" true
    (Wcet.Abstract_cache.must_hit c 0x101f);
  (* Conflicting line (stride 128 sets * 32 B = 4 KiB) evicts in the 1-way
     model. *)
  Wcet.Abstract_cache.access c (0x1000 + 4096);
  check_bool "conflict evicts" false (Wcet.Abstract_cache.must_hit c 0x1000);
  Wcet.Abstract_cache.clobber c;
  check_bool "clobber forgets" false
    (Wcet.Abstract_cache.must_hit c (0x1000 + 4096))

let test_abstract_cache_join () =
  let a = Wcet.Abstract_cache.create ~line_size:32 ~sets:128 ~pinned_lines:[] in
  let b = Wcet.Abstract_cache.create ~line_size:32 ~sets:128 ~pinned_lines:[] in
  (* 0x1000 and 0x1040 map to different sets (0 and 2) and so coexist. *)
  Wcet.Abstract_cache.access a 0x1000;
  Wcet.Abstract_cache.access a 0x1040;
  Wcet.Abstract_cache.access b 0x1000;
  Wcet.Abstract_cache.join ~into:a b;
  check_bool "common line kept" true (Wcet.Abstract_cache.must_hit a 0x1000);
  check_bool "one-sided line dropped" false
    (Wcet.Abstract_cache.must_hit a 0x1040);
  check_bool "joined into a" true (Wcet.Abstract_cache.equal a b)

let test_abstract_cache_pinned () =
  let c =
    Wcet.Abstract_cache.create ~line_size:32 ~sets:128 ~pinned_lines:[ 0x5000 ]
  in
  check_bool "pinned always hits" true (Wcet.Abstract_cache.must_hit c 0x5010);
  Wcet.Abstract_cache.clobber c;
  check_bool "pinned survives clobber" true
    (Wcet.Abstract_cache.must_hit c 0x5000)

(* --- cache analysis on straight-line code --- *)

let block_payload ?(accesses = []) ~base ~instrs () =
  T.make ~accesses ~base ~instrs ()

let analyse_default ?pinned_code fn =
  Wcet.Cache_analysis.analyse ~config:Hw.Config.default ?pinned_code
    ~preds:(F.preds fn) fn

let test_block_cost_straightline () =
  (* Two blocks in sequence; the second re-reads the same static address
     and re-executes the same code line. *)
  let b = F.Builder.create "straight" in
  let p0 =
    block_payload ~base:0x0 ~instrs:4
      ~accesses:[ T.Static { addr = 0x8000; write = false } ]
      ()
  in
  let p1 =
    block_payload ~base:0x0 ~instrs:4
      ~accesses:[ T.Static { addr = 0x8000; write = false } ]
      ()
  in
  let n0 = F.Builder.add b ~label:"first" p0 in
  let n1 = F.Builder.add b ~label:"second" p1 in
  F.Builder.edge b n0 n1;
  let fn = F.Builder.finish b in
  let res = analyse_default fn in
  let c0 = Wcet.Cache_analysis.cost res n0 in
  let c1 = Wcet.Cache_analysis.cost res n1 in
  (* First block: 4 instrs + 1 fetch-line miss + 1 data miss. *)
  check_int "cold block cost" (4 + mem + mem) c0.Wcet.Cache_analysis.cycles;
  (* Second block: everything guaranteed: 4 instrs + 1-cycle data hit. *)
  check_int "warm block cost" (4 + 1) c1.Wcet.Cache_analysis.cycles;
  check_int "warm fetch hits" 1 c1.Wcet.Cache_analysis.fetch_hits

let test_dynamic_access_clobbers () =
  let b = F.Builder.create "dyn" in
  let p0 =
    block_payload ~base:0x0 ~instrs:1
      ~accesses:
        [
          T.Static { addr = 0x8000; write = false };
          T.Dynamic { write = true; count = 1 };
          T.Static { addr = 0x8000; write = false };
        ]
      ()
  in
  let n0 = F.Builder.add b ~label:"only" p0 in
  ignore n0;
  let fn = F.Builder.finish b in
  let res = analyse_default fn in
  let c = Wcet.Cache_analysis.cost res 0 in
  (* The second static access must be a miss again: the dynamic write
     clobbered the must-state. *)
  check_int "data misses" 3 c.Wcet.Cache_analysis.data_misses;
  check_int "data hits" 0 c.Wcet.Cache_analysis.data_hits

let test_pinned_code_cost () =
  let b = F.Builder.create "pin" in
  let p0 = block_payload ~base:0x0 ~instrs:8 () in
  ignore (F.Builder.add b ~label:"only" p0);
  let fn = F.Builder.finish b in
  let cold = analyse_default fn in
  let pinned = analyse_default ~pinned_code:[ 0x0 ] fn in
  check_int "cold pays fetch" (8 + mem)
    (Wcet.Cache_analysis.cost cold 0).Wcet.Cache_analysis.cycles;
  check_int "pinned avoids fetch" 8
    (Wcet.Cache_analysis.cost pinned 0).Wcet.Cache_analysis.cycles

(* A block with several successors, one of them a join: the join's
   meet must not narrow the branch block's out-state, which a later
   successor reads afterwards.  [e] loads a line, [a] clobbers
   the data cache on the way to the join [j], and [s], reached from [e]
   alone, must still hit the line. *)
let test_join_leaves_predecessors () =
  let b = F.Builder.create "critical" in
  let load = T.Static { addr = 0x8000; write = false } in
  let e =
    F.Builder.add b ~label:"e"
      (block_payload ~base:0x0 ~instrs:1 ~accesses:[ load ] ())
  in
  let a =
    F.Builder.add b ~label:"a"
      (block_payload ~base:0x40 ~instrs:1
         ~accesses:[ T.Dynamic { write = true; count = 1 } ]
         ())
  in
  let j = F.Builder.add b ~label:"j" (block_payload ~base:0x80 ~instrs:1 ()) in
  let s =
    F.Builder.add b ~label:"s"
      (block_payload ~base:0xc0 ~instrs:1 ~accesses:[ load ] ())
  in
  F.Builder.edge b e s;
  F.Builder.edge b e j;
  F.Builder.edge b e a;
  F.Builder.edge b a j;
  let fn = F.Builder.finish b in
  (* The worklist visits [a], then [j], then [s]. *)
  Alcotest.(check (list int))
    "successor order" [ a; j; s ] (F.block fn e).F.succs;
  let res = analyse_default fn in
  check_int "s hits the line e loaded" 1
    (Wcet.Cache_analysis.cost res s).Wcet.Cache_analysis.data_hits;
  check_bool "every block as the reference" true
    (Ref_cache.analyse ~config:Hw.Config.default fn
    = res.Wcet.Cache_analysis.costs)

(* --- IPET end-to-end on a hand-analysable program --- *)

(* main: entry -> header; header -> body -> header (bounded); header -> exit.
   All code on distinct lines so costs are independent. *)
let loop_program ~bound:_ =
  let b = F.Builder.create "main" in
  let entry = F.Builder.add b ~label:"entry" (block_payload ~base:0x000 ~instrs:2 ()) in
  let header = F.Builder.add b ~label:"header" (block_payload ~base:0x040 ~instrs:1 ()) in
  let body =
    F.Builder.add b ~label:"body"
      (block_payload ~base:0x080 ~instrs:3
         ~accesses:[ T.Dynamic { write = false; count = 1 } ]
         ())
  in
  let exit_ = F.Builder.add b ~label:"exit" (block_payload ~base:0x0c0 ~instrs:2 ()) in
  F.Builder.edge b entry header;
  F.Builder.edge b header body;
  F.Builder.edge b body header;
  F.Builder.edge b header exit_;
  { F.funcs = [ F.Builder.finish b ]; main = "main" }

let ipet_loop ~bound ~declared =
  Wcet.Ipet.analyse ~config:Hw.Config.default
    {
      Wcet.Ipet.program = loop_program ~bound;
      bounds = [ { Wcet.Ipet.func = "main"; header = "header"; bound = declared } ];
      constraints = [];
      derived = [];
    }

let test_ipet_loop_bound () =
  let r = ipet_loop ~bound:4 ~declared:4 in
  (* With miss = worst-case access charge: entry pays 2 instrs + one
     fetch-line miss.  The header is entered both from entry and from the
     body whose fetch state differs, so the must-join drops the header line
     and every header visit pays the fetch miss plus the 5-cycle branch.
     Each body visit pays fetch miss + dynamic data miss.  The exit pays
     2 instrs + fetch miss. *)
  let expected =
    (2 + mem) + (4 * (1 + mem + 5)) + (3 * (3 + mem + mem)) + (2 + mem)
  in
  check_int "loop WCET" expected r.Wcet.Ipet.wcet

let test_ipet_counts () =
  let r = ipet_loop ~bound:4 ~declared:4 in
  let counts = r.Wcet.Ipet.block_counts in
  check_int "entry once" 1 counts.(0);
  check_int "header bound times" 4 counts.(1);
  check_int "body bound-1 times" 3 counts.(2);
  check_int "exit once" 1 counts.(3)

let test_ipet_unbounded_loop () =
  check_bool "raises" true
    (try
       ignore (ipet_loop ~bound:4 ~declared:4).Wcet.Ipet.wcet;
       ignore
         (Wcet.Ipet.analyse ~config:Hw.Config.default
            {
              Wcet.Ipet.program = loop_program ~bound:4;
              bounds = [];
              constraints = [];
      derived = [];
            });
       false
     with Wcet.Ipet.Unbounded_loop _ -> true)

(* Diamond with an expensive and a cheap arm; a conflicts-with constraint
   can exclude the expensive arm from the bound. *)
let diamond_program () =
  let b = F.Builder.create "main" in
  let entry = F.Builder.add b ~label:"entry" (block_payload ~base:0x000 ~instrs:1 ()) in
  let costly =
    F.Builder.add b ~label:"costly"
      (block_payload ~base:0x040 ~instrs:10
         ~accesses:[ T.Dynamic { write = false; count = 5 } ]
         ())
  in
  let cheap = F.Builder.add b ~label:"cheap" (block_payload ~base:0x080 ~instrs:1 ()) in
  let join = F.Builder.add b ~label:"join" (block_payload ~base:0x0c0 ~instrs:1 ()) in
  let tail =
    F.Builder.add b ~label:"tail"
      (block_payload ~base:0x100 ~instrs:2
         ~accesses:[ T.Dynamic { write = false; count = 2 } ]
         ())
  in
  let out = F.Builder.add b ~label:"out" (block_payload ~base:0x140 ~instrs:1 ()) in
  F.Builder.edge b entry costly;
  F.Builder.edge b entry cheap;
  F.Builder.edge b costly join;
  F.Builder.edge b cheap join;
  F.Builder.edge b join tail;
  F.Builder.edge b join out;
  F.Builder.edge b tail out;
  { F.funcs = [ F.Builder.finish b ]; main = "main" }

let test_ipet_conflict_constraint () =
  let base =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      { Wcet.Ipet.program = diamond_program (); bounds = []; constraints = []; derived = [] }
  in
  let constrained =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      {
        Wcet.Ipet.program = diamond_program ();
        bounds = [];
        constraints = [ Wcet.User_constraint.conflicts ~func:"main" "costly" "tail" ];
        derived = [];
      }
  in
  check_bool "constraint lowers the bound" true
    (constrained.Wcet.Ipet.wcet < base.Wcet.Ipet.wcet);
  (* The unconstrained worst case takes both costly and tail. *)
  check_int "unconstrained takes costly" 1 base.Wcet.Ipet.block_counts.(1);
  check_int "unconstrained takes tail" 1 base.Wcet.Ipet.block_counts.(4)

let test_ipet_consistent_constraint () =
  let constrained =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      {
        Wcet.Ipet.program = diamond_program ();
        bounds = [];
        constraints =
          [ Wcet.User_constraint.consistent ~func:"main" "cheap" "tail" ];
        derived = [];
      }
  in
  (* Consistent(cheap, tail): taking tail now requires the cheap arm. *)
  let counts = constrained.Wcet.Ipet.block_counts in
  check_bool "cheap iff tail" true (counts.(2) = counts.(4))

let test_executes_at_most_rejects_negative () =
  Alcotest.check_raises "negative count"
    (Invalid_argument
       "User_constraint.executes_at_most: negative count -1 for main.body")
    (fun () ->
      ignore (Wcet.User_constraint.executes_at_most ~func:"main" "body" (-1)));
  (* zero is a legal (if brutal) cap *)
  ignore (Wcet.User_constraint.executes_at_most ~func:"main" "body" 0)

let test_ipet_executes_at_most () =
  let r =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      {
        Wcet.Ipet.program = loop_program ~bound:4;
        bounds = [ { Wcet.Ipet.func = "main"; header = "header"; bound = 4 } ];
        constraints =
          [ Wcet.User_constraint.executes_at_most ~func:"main" "body" 1 ];
        derived = [];
      }
  in
  check_int "body capped" 1 r.Wcet.Ipet.block_counts.(2)

let test_ipet_forced_path () =
  let free =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      { Wcet.Ipet.program = diamond_program (); bounds = []; constraints = []; derived = [] }
  in
  let forced =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      ~forced:[ ("main", "costly", 0); ("main", "tail", 0) ]
      { Wcet.Ipet.program = diamond_program (); bounds = []; constraints = []; derived = [] }
  in
  check_bool "forced path is cheaper" true
    (forced.Wcet.Ipet.wcet < free.Wcet.Ipet.wcet);
  check_int "costly excluded" 0 forced.Wcet.Ipet.block_counts.(1)

(* A label that names no block of an inlined function is a mistake, not
   a constraint to drop; one on a function the program does not inline
   is dropped. *)
let test_ipet_unknown_label () =
  let analyse ?forced constraints =
    Wcet.Ipet.analyse ~config:Hw.Config.default ?forced
      {
        Wcet.Ipet.program = diamond_program ();
        bounds = [];
        constraints;
        derived = [];
      }
  in
  let raises what ?forced constraints =
    Alcotest.check_raises what
      (Invalid_argument "Ipet: function main has no block costy") (fun () ->
        ignore (analyse ?forced constraints))
  in
  raises "conflicts"
    [ Wcet.User_constraint.conflicts ~func:"main" "costy" "tail" ];
  raises "consistent"
    [ Wcet.User_constraint.consistent ~func:"main" "tail" "costy" ];
  raises "executes at most"
    [ Wcet.User_constraint.executes_at_most ~func:"main" "costy" 1 ];
  raises "forced" ~forced:[ ("main", "costy", 0) ] [];
  let free = analyse [] in
  let elsewhere =
    analyse ~forced:[ ("h", "costy", 0) ]
      [ Wcet.User_constraint.conflicts ~func:"h" "costly" "costy" ]
  in
  check_int "a function outside the program is dropped" free.Wcet.Ipet.wcet
    elsewhere.Wcet.Ipet.wcet

(* Per-context constraints: a callee invoked from two sites gets separate
   constraint instances, as the paper's virtual inlining requires. *)
let test_ipet_context_sensitivity () =
  let callee =
    let b = F.Builder.create "g" in
    let e = F.Builder.add b ~label:"g_entry" (block_payload ~base:0x200 ~instrs:1 ()) in
    let costly =
      F.Builder.add b ~label:"g_costly"
        (block_payload ~base:0x240 ~instrs:1
           ~accesses:[ T.Dynamic { write = false; count = 10 } ]
           ())
    in
    let cheap = F.Builder.add b ~label:"g_cheap" (block_payload ~base:0x280 ~instrs:1 ()) in
    let x = F.Builder.add b ~label:"g_exit" (block_payload ~base:0x2c0 ~instrs:1 ()) in
    F.Builder.edge b e costly;
    F.Builder.edge b e cheap;
    F.Builder.edge b costly x;
    F.Builder.edge b cheap x;
    F.Builder.finish b
  in
  let caller =
    let b = F.Builder.create "main" in
    let c1 = F.Builder.add b ~label:"call1" ~call:"g" (block_payload ~base:0x000 ~instrs:1 ()) in
    let c2 = F.Builder.add b ~label:"call2" ~call:"g" (block_payload ~base:0x040 ~instrs:1 ()) in
    let fin = F.Builder.add b ~label:"fin" (block_payload ~base:0x080 ~instrs:1 ()) in
    F.Builder.edge b c1 c2;
    F.Builder.edge b c2 fin;
    F.Builder.finish b
  in
  let program = { F.funcs = [ caller; callee ]; main = "main" } in
  let free =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      { Wcet.Ipet.program = program; bounds = []; constraints = []; derived = [] }
  in
  let constrained =
    Wcet.Ipet.analyse ~config:Hw.Config.default
      {
        Wcet.Ipet.program = program;
        bounds = [];
        constraints =
          [ Wcet.User_constraint.conflicts ~func:"g" "g_costly" "g_costly" ];
        derived = [];
      }
  in
  (* conflicts(costly, costly) forbids the costly arm entirely, separately
     in each of the two inlined instances: 2 * 10 dynamic misses saved. *)
  check_bool "both instances constrained" true
    (free.Wcet.Ipet.wcet - constrained.Wcet.Ipet.wcet >= 2 * 10 * mem)

(* --- soundness: computed >= observed on random structured programs --- *)

type construct =
  | Straight of T.t
  | Branch of T.t * T.t  (* then / else arms joined after *)
  | Loop of int * T.t * T.t  (* trip count, header, body *)

let gen_payload =
  QCheck.Gen.(
    let* base_line = int_range 0 255 in
    let* instrs = int_range 1 16 in
    let* n_static = int_range 0 3 in
    let* statics =
      list_repeat n_static
        (let* word = int_range 0 511 in
         let* write = bool in
         return (T.Static { addr = 0x10000 + (word * 8); write }))
    in
    let* dyn = int_range 0 2 in
    let accesses =
      statics @ if dyn = 0 then [] else [ T.Dynamic { write = true; count = dyn } ]
    in
    return (T.make ~accesses ~base:(base_line * 32) ~instrs ()))

let gen_construct =
  QCheck.Gen.(
    let* kind = int_range 0 2 in
    match kind with
    | 0 ->
        let* p = gen_payload in
        return (Straight p)
    | 1 ->
        let* a = gen_payload in
        let* b = gen_payload in
        return (Branch (a, b))
    | _ ->
        let* k = int_range 1 6 in
        let* h = gen_payload in
        let* b = gen_payload in
        return (Loop (k, h, b)))

let gen_program = QCheck.Gen.(list_size (int_range 1 8) gen_construct)

(* Build the CFG for a construct list; returns (program, loop bounds). *)
let build_structured constructs =
  let b = F.Builder.create "main" in
  let bounds = ref [] in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Fmt.str "%s%d" prefix !counter
  in
  let start = F.Builder.add b ~label:"start" (T.make ~base:0 ~instrs:1 ()) in
  let tail = ref start in
  List.iter
    (fun construct ->
      match construct with
      | Straight p ->
          let n = F.Builder.add b ~label:(fresh "s") p in
          F.Builder.edge b !tail n;
          tail := n
      | Branch (p1, p2) ->
          let n1 = F.Builder.add b ~label:(fresh "bt") p1 in
          let n2 = F.Builder.add b ~label:(fresh "bf") p2 in
          let j = F.Builder.add b ~label:(fresh "j") (T.make ~base:0x7000 ~instrs:1 ()) in
          F.Builder.edge b !tail n1;
          F.Builder.edge b !tail n2;
          F.Builder.edge b n1 j;
          F.Builder.edge b n2 j;
          tail := j
      | Loop (k, ph, pb) ->
          let label = fresh "h" in
          let h = F.Builder.add b ~label ph in
          let body = F.Builder.add b ~label:(fresh "lb") pb in
          let out = F.Builder.add b ~label:(fresh "lo") (T.make ~base:0x7100 ~instrs:1 ()) in
          F.Builder.edge b !tail h;
          F.Builder.edge b h body;
          F.Builder.edge b body h;
          F.Builder.edge b h out;
          (* header visits per entry = k + 1 (k iterations + final test) *)
          bounds := { Wcet.Ipet.func = "main"; header = label; bound = k + 1 } :: !bounds;
          tail := out)
    constructs;
  ( { F.funcs = [ F.Builder.finish b ]; main = "main" },
    !bounds )

(* Execute the structured program on the detailed hardware model, taking
   branch arms according to [decide], running every loop to its full trip
   count.  Returns observed cycles. *)
let execute ~config ~decide constructs =
  let cpu = Hw.Cpu.create config in
  Hw.Machine.pollute (Hw.Cpu.machine cpu) ~seed:7;
  let dyn_counter = ref 0 in
  let run_payload ?(branch = false) (p : T.t) =
    Hw.Cpu.exec cpu ~base:p.T.base ~count:p.T.instrs;
    List.iter
      (fun access ->
        match access with
        | T.Static { addr; write } ->
            if write then Hw.Cpu.store cpu addr else Hw.Cpu.load cpu addr
        | T.Dynamic { write; count } ->
            for _ = 1 to count do
              incr dyn_counter;
              let addr = 0x40000 + (!dyn_counter * 4096 mod 32768) in
              if write then Hw.Cpu.store cpu addr else Hw.Cpu.load cpu addr
            done)
      p.T.accesses;
    if branch then Hw.Cpu.branch cpu ~pc:p.T.base ~taken:true
  in
  run_payload (T.make ~base:0 ~instrs:1 ());
  List.iteri
    (fun i construct ->
      match construct with
      | Straight p -> run_payload p
      | Branch (p1, p2) ->
          (* The pre-branch block pays the branch; approximate by charging
             it on the chosen arm's entry (the analysis charges it on the
             block with two successors, which is the previous block; either
             way one branch cost is paid). *)
          Hw.Cpu.branch cpu ~pc:0x7000 ~taken:true;
          run_payload (if decide i then p1 else p2)
      | Loop (k, ph, pb) ->
          for _ = 1 to k do
            run_payload ~branch:true ph;
            run_payload pb
          done;
          run_payload ~branch:true ph;
          run_payload (T.make ~base:0x7100 ~instrs:1 ()))
    constructs;
  Hw.Cpu.cycles cpu

let print_constructs cs =
  Fmt.str "%d constructs: %s" (List.length cs)
    (String.concat ","
       (List.map
          (function
            | Straight _ -> "S"
            | Branch _ -> "B"
            | Loop (k, _, _) -> Fmt.str "L%d" k)
          cs))

let test_soundness =
  QCheck.Test.make ~count:100 ~name:"IPET bound dominates observed execution"
    (QCheck.make ~print:print_constructs gen_program)
    (fun constructs ->
      let program, bounds = build_structured constructs in
      let result =
        Wcet.Ipet.analyse ~config:Hw.Config.default
          { Wcet.Ipet.program = program; bounds; constraints = []; derived = [] }
      in
      (* Try several branch decision vectors, including all-true/all-false. *)
      List.for_all
        (fun decide ->
          execute ~config:Hw.Config.default ~decide constructs
          <= result.Wcet.Ipet.wcet)
        [
          (fun _ -> true);
          (fun _ -> false);
          (fun i -> i mod 2 = 0);
          (fun i -> i mod 3 = 0);
        ])

let test_soundness_l2_locked =
  (* The Section 8 configuration: the generated programs' code region is
     locked into the L2, so analysed fetch misses cost an L2 hit — and
     the bound must still dominate execution. *)
  QCheck.Test.make ~count:50 ~name:"soundness holds with code locked into L2"
    (QCheck.make ~print:print_constructs gen_program)
    (fun constructs ->
      let config =
        Hw.Config.with_l2_lock ~base:0 ~bytes:0x8000 Hw.Config.with_l2
      in
      let program, bounds = build_structured constructs in
      let result =
        Wcet.Ipet.analyse ~config
          { Wcet.Ipet.program = program; bounds; constraints = []; derived = [] }
      in
      execute ~config ~decide:(fun i -> i mod 2 = 1) constructs
      <= result.Wcet.Ipet.wcet)

let test_soundness_l2 =
  QCheck.Test.make ~count:50 ~name:"soundness holds with the L2 enabled"
    (QCheck.make ~print:print_constructs gen_program)
    (fun constructs ->
      let program, bounds = build_structured constructs in
      let result =
        Wcet.Ipet.analyse ~config:Hw.Config.with_l2
          { Wcet.Ipet.program = program; bounds; constraints = []; derived = [] }
      in
      execute ~config:Hw.Config.with_l2 ~decide:(fun _ -> true) constructs
      <= result.Wcet.Ipet.wcet)

(* --- the in-place fixpoint against the naive one --- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* An arbitrary CFG over the structured generator's payloads: any block
   may branch to any other, so there are critical edges, irreducible
   loops, self-loops and unreachable blocks. *)
let gen_cfg =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* payloads = list_repeat n gen_payload in
    let* succs =
      list_repeat n (list_size (int_range 0 3) (int_range 0 (n - 1)))
    in
    let* pins = list_size (int_range 0 3) (int_range 0 255) in
    return (payloads, List.map (List.sort_uniq compare) succs, pins))

let print_cfg (payloads, succs, pins) =
  Fmt.str "%d blocks, succs %a, pinned lines %a" (List.length payloads)
    Fmt.(Dump.list (Dump.list int))
    succs
    Fmt.(Dump.list int)
    pins

let test_reference_random =
  QCheck.Test.make ~count:300
    ~name:"in place matches the reference on random CFGs"
    (QCheck.make ~print:print_cfg gen_cfg)
    (fun (payloads, succs, pins) ->
      let b = F.Builder.create "random" in
      let ids =
        List.mapi
          (fun i p -> F.Builder.add b ~label:(Fmt.str "b%d" i) p)
          payloads
      in
      List.iter2
        (fun a ss -> List.iter (fun s -> F.Builder.edge b a s) ss)
        ids succs;
      let fn = F.Builder.finish b in
      let pinned_code = List.map (fun l -> l * 32) pins
      and pinned_data = List.map (fun l -> 0x10000 + (l * 32)) pins in
      List.for_all
        (fun config ->
          let got =
            Wcet.Cache_analysis.analyse ~config ~pinned_code ~pinned_data
              ~preds:(F.preds fn) fn
          in
          Ref_cache.analyse ~config ~pinned_code ~pinned_data fn
          = got.Wcet.Cache_analysis.costs)
        [ Hw.Config.default; Hw.Config.with_l2 ])

(* --- the kernel model's specs: reference fixpoint and allocation --- *)

module KM = Sel4_rt.Kernel_model

let model_builds =
  [
    ("original", Sel4.Build.original);
    ("improved", Sel4.Build.improved);
    ("lazy", { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Lazy });
    ("benno", { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Benno });
  ]

let pp_cost ppf (c : Wcet.Cache_analysis.block_cost) =
  Fmt.pf ppf "cycles=%d fetch=%d/%d data=%d/%d" c.cycles c.fetch_misses
    c.fetch_hits c.data_misses c.data_hits

(* Every block's cost from the in-place fixpoint equals the naive
   copy-per-visit one in [Ref_cache], for every default spec (4 builds x
   4 entries) with the L2 off and on, unpinned and pinned. *)
let test_reference_fixpoint () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun entry ->
          let fn =
            (Cfg.Inline.inline (KM.spec build entry).Wcet.Ipet.program)
              .Cfg.Inline.fn
          in
          let preds = F.preds fn in
          List.iter
            (fun (l2, pin) ->
              let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
              let config = ctx.Sel4_rt.Analysis_ctx.config in
              let pinned_code = ctx.pins.code and pinned_data = ctx.pins.data in
              let got =
                Wcet.Cache_analysis.analyse ~config ~pinned_code ~pinned_data
                  ~preds fn
              in
              let want =
                Ref_cache.analyse ~config ~pinned_code ~pinned_data fn
              in
              Array.iteri
                (fun b w ->
                  let g = Wcet.Cache_analysis.cost got b in
                  if g <> w then
                    Alcotest.failf
                      "%s/%s l2=%b pin=%b block %d: %a, reference %a" name
                      (KM.entry_name entry) l2 pin b pp_cost g pp_cost w)
                want)
            [ (false, false); (false, true); (true, false); (true, true) ])
        KM.entry_points)
    model_builds

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* The ILP build formats no variable name and the cache fixpoint reuses
   its states: on the improved build's syscall prefix, at most 250 minor
   words per ILP variable (formatting each name cost about 480) and 1,200
   per block of the cache analysis (a copy per visit cost about 1,750). *)
let test_allocation () =
  let spec = KM.spec Sel4.Build.improved KM.Syscall in
  let config = Hw.Config.default in
  let prepared = Wcet.Ipet.prepare ~config spec in
  ignore (Wcet.Ipet.ilp prepared);
  let (problem, _), words = minor_words (fun () -> Wcet.Ipet.ilp prepared) in
  let per_var = words /. float (Ilp.Problem.num_vars problem) in
  check_bool
    (Fmt.str "Ipet.ilp: %.0f minor words per variable, at most 250" per_var)
    true (per_var <= 250.);
  let fn = (Cfg.Inline.inline spec.Wcet.Ipet.program).Cfg.Inline.fn in
  let preds = F.preds fn in
  let analyse () = Wcet.Cache_analysis.analyse ~config ~preds fn in
  ignore (analyse ());
  let _, words = minor_words analyse in
  let per_block = words /. float (F.num_blocks fn) in
  check_bool
    (Fmt.str "Cache_analysis.analyse: %.0f minor words per block, at most 1200"
       per_block)
    true (per_block <= 1200.)

let () =
  Alcotest.run "wcet"
    [
      ( "abstract-cache",
        Alcotest.
          [
            test_case "must analysis" `Quick test_abstract_cache;
            test_case "join" `Quick test_abstract_cache_join;
            test_case "pinned" `Quick test_abstract_cache_pinned;
          ] );
      ( "cache-analysis",
        Alcotest.
          [
            test_case "straight line" `Quick test_block_cost_straightline;
            test_case "dynamic clobbers" `Quick test_dynamic_access_clobbers;
            test_case "pinned code" `Quick test_pinned_code_cost;
            test_case "a join leaves its predecessors alone" `Quick
              test_join_leaves_predecessors;
          ]
        @ qsuite [ test_reference_random ] );
      ( "ipet",
        Alcotest.
          [
            test_case "loop bound" `Quick test_ipet_loop_bound;
            test_case "block counts" `Quick test_ipet_counts;
            test_case "unbounded loop" `Quick test_ipet_unbounded_loop;
            test_case "conflicts" `Quick test_ipet_conflict_constraint;
            test_case "consistent" `Quick test_ipet_consistent_constraint;
            test_case "executes at most" `Quick test_ipet_executes_at_most;
            test_case "negative cap rejected" `Quick
              test_executes_at_most_rejects_negative;
            test_case "forced path" `Quick test_ipet_forced_path;
            test_case "unknown label" `Quick test_ipet_unknown_label;
            test_case "context sensitivity" `Quick test_ipet_context_sensitivity;
          ] );
      ( "soundness",
        qsuite [ test_soundness; test_soundness_l2; test_soundness_l2_locked ] );
      ( "kernel-model",
        Alcotest.
          [
            test_case "fixpoint matches the reference" `Quick
              test_reference_fixpoint;
            test_case "allocation" `Quick test_allocation;
          ] );
    ]
