(* End-to-end tests of the reproduction pipeline: the timing skeletons,
   the adversarial workloads, pinning, and the response-time driver.

   The headline property ties the whole repository together: for every
   kernel entry point, build and hardware configuration, the IPET bound
   computed from the timing skeletons dominates what the executable
   kernel is observed to take under the adversarial workloads. *)

module KM = Sel4_rt.Kernel_model
module RT = Sel4_rt.Response_time
module Actx = Sel4_rt.Analysis_ctx
module W = Sel4_rt.Workloads

let improved = Sel4.Build.improved
let original = Sel4.Build.original
let ctx_of config build = Actx.make ~config ~build ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let configs = [ ("L2 off", Hw.Config.default); ("L2 on", Hw.Config.with_l2) ]

(* --- soundness: computed >= observed, everywhere --- *)

let test_soundness_all_entries () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun entry ->
          let ctx = ctx_of config improved in
          let computed = RT.computed_cycles ctx entry in
          let observed = W.observed ~runs:5 ctx entry in
          check_bool
            (Fmt.str "%s, %s: computed %d >= observed %d" (KM.entry_name entry)
               cname computed observed)
            true (computed >= observed))
        KM.entry_points)
    configs

let test_soundness_round_robin () =
  (* The ARM1136's actual replacement policy: the one-way conservative
     bound must still dominate round-robin execution (Section 5.1's
     soundness argument). *)
  let config =
    { Hw.Config.default with Hw.Config.replacement = Hw.Config.Round_robin }
  in
  List.iter
    (fun entry ->
      let computed =
        RT.computed_cycles (ctx_of Hw.Config.default improved) entry
      in
      let observed = W.observed ~runs:5 (ctx_of config improved) entry in
      check_bool
        (Fmt.str "%s under round-robin: %d >= %d" (KM.entry_name entry)
           computed observed)
        true (computed >= observed))
    KM.entry_points

let test_soundness_original_build () =
  (* The before-kernel's syscall bound must also dominate its own worst
     observation (same workload; the operations just run unpreempted). *)
  let ctx = ctx_of Hw.Config.default original in
  let computed = RT.computed_cycles ctx KM.Syscall in
  let observed = W.observed ~runs:3 ctx KM.Syscall in
  check_bool
    (Fmt.str "original syscall: %d >= %d" computed observed)
    true (computed >= observed)

(* --- forced paths (Figure 8) --- *)

let test_forced_path_between_observed_and_wcet () =
  let ctx = ctx_of Hw.Config.default improved in
  List.iter
    (fun entry ->
      let wcet = RT.computed_cycles ctx entry in
      let forced = RT.computed_for_path ctx entry in
      let observed = W.observed ~runs:5 ctx entry in
      check_bool
        (Fmt.str "%s: observed %d <= forced %d <= wcet %d"
           (KM.entry_name entry) observed forced wcet)
        true
        (observed <= forced && forced <= wcet))
    KM.entry_points

(* --- the paper's headline shapes --- *)

let test_before_after_factor () =
  let before = RT.computed_cycles (ctx_of Hw.Config.default original) KM.Syscall in
  let after = RT.computed_cycles (ctx_of Hw.Config.default improved) KM.Syscall in
  let factor = float_of_int before /. float_of_int after in
  (* Paper: 11.6x.  Accept the right order of magnitude. *)
  check_bool
    (Fmt.str "syscall factor %.1f in [5, 25]" factor)
    true
    (factor >= 5.0 && factor <= 25.0)

let test_l2_raises_computed_lowers_little_observed () =
  List.iter
    (fun entry ->
      let c_off = RT.computed_cycles (ctx_of Hw.Config.default improved) entry in
      let c_on = RT.computed_cycles (ctx_of Hw.Config.with_l2 improved) entry in
      check_bool
        (Fmt.str "%s: computed rises with L2 (%d -> %d)" (KM.entry_name entry)
           c_off c_on)
        true (c_on > c_off))
    KM.entry_points

let test_pinning_reduces_wcet () =
  let selection = Sel4_rt.Pinning.select improved in
  let pins =
    {
      Actx.code = selection.Sel4_rt.Pinning.code_lines;
      data = selection.Sel4_rt.Pinning.data_lines;
    }
  in
  let pinned_ctx =
    Actx.make
      ~config:(Hw.Config.with_pinning Hw.Config.default)
      ~pins ~build:improved ()
  in
  List.iter
    (fun entry ->
      let plain = RT.computed_cycles (ctx_of Hw.Config.default improved) entry in
      let pinned = RT.computed_cycles pinned_ctx entry in
      check_bool
        (Fmt.str "%s: pinning helps (%d -> %d)" (KM.entry_name entry) plain
           pinned)
        true (pinned <= plain))
    KM.entry_points;
  (* The interrupt path benefits the most, as in Table 1. *)
  let gain entry =
    let plain = RT.computed_cycles (ctx_of Hw.Config.default improved) entry in
    let pinned = RT.computed_cycles pinned_ctx entry in
    float_of_int (plain - pinned) /. float_of_int plain
  in
  check_bool "interrupt gains more than syscall" true
    (gain KM.Interrupt > gain KM.Syscall)

let test_response_bound_is_sum () =
  let ctx = ctx_of Hw.Config.default improved in
  check_int "response = syscall + interrupt"
    (RT.computed_cycles ctx KM.Syscall + RT.computed_cycles ctx KM.Interrupt)
    (RT.interrupt_response_bound ctx)

(* --- workloads --- *)

let test_workload_invariants () =
  (* The adversarial scenarios leave the kernel in a consistent state. *)
  List.iter
    (fun entry ->
      let s =
        Sel4_rt.Workloads.scenario (ctx_of Hw.Config.default improved) entry
      in
      let _ = Sel4_rt.Workloads.measure_once s ~seed:3 in
      match Sel4.Invariants.check_result s.Sel4_rt.Workloads.env.Sel4.Boot.k with
      | Ok () -> ()
      | Error ms ->
          Alcotest.failf "%s scenario: invariant violated: %s"
            (KM.entry_name entry) (String.concat "; " ms))
    KM.entry_points

let test_deep_cspace_depth_matters () =
  (* Figure 7: decode cost strictly grows with depth. *)
  let cost depth =
    let params =
      { KM.default_params with KM.decode_depth = depth; KM.extra_caps = 0 }
    in
    W.observed ~runs:3 (Actx.make ~params ~build:improved ()) KM.Syscall
  in
  let c1 = cost 1 and c8 = cost 8 and c32 = cost 32 in
  check_bool (Fmt.str "monotone %d < %d < %d" c1 c8 c32) true
    (c1 < c8 && c8 < c32)

let test_observed_deterministic_per_seed () =
  let run () =
    let s =
      Sel4_rt.Workloads.scenario (ctx_of Hw.Config.default improved) KM.Interrupt
    in
    snd (Sel4_rt.Workloads.measure_once s ~seed:7)
  in
  check_int "same seed, same cycles" (run ()) (run ())

(* --- the constraint story (Section 6) --- *)

let test_constraints_tighten_syscall_bound () =
  let config = Hw.Config.default in
  let spec = KM.spec improved KM.Syscall in
  let unconstrained =
    Wcet.Ipet.analyse ~config
      { spec with Wcet.Ipet.constraints = []; derived = [] }
  in
  let constrained = Wcet.Ipet.analyse ~config spec in
  check_bool
    (Fmt.str "constraints tighten the bound (%d -> %d)"
       unconstrained.Wcet.Ipet.wcet constrained.Wcet.Ipet.wcet)
    true
    (constrained.Wcet.Ipet.wcet < unconstrained.Wcet.Ipet.wcet)

(* --- loop-bound integration --- *)

let test_kernel_loop_bounds () =
  List.iter
    (fun (r : Sel4_rt.Kernel_loops.result) ->
      match r.Sel4_rt.Kernel_loops.computed with
      | Some bound ->
          check_int
            (Fmt.str "%s: computed = annotated"
               r.Sel4_rt.Kernel_loops.spec.Sel4_rt.Kernel_loops.name)
            r.Sel4_rt.Kernel_loops.spec.Sel4_rt.Kernel_loops.annotated bound
      | None ->
          Alcotest.failf "%s: no bound computed"
            r.Sel4_rt.Kernel_loops.spec.Sel4_rt.Kernel_loops.name)
    (Sel4_rt.Experiments.loop_bounds ())

(* --- pinning mechanics --- *)

let test_pin_selection_fits_way () =
  let s = Sel4_rt.Pinning.select improved in
  let config = Hw.Config.default in
  check_bool "code lines fit one way" true
    (List.length s.Sel4_rt.Pinning.code_lines <= config.Hw.Config.l1_sets);
  check_bool "data lines fit one way" true
    (List.length s.Sel4_rt.Pinning.data_lines <= config.Hw.Config.l1_sets);
  (* At most one line per set (a locked way holds one line per set). *)
  let one_per_set lines =
    let sets = List.map (fun l -> l / 32 mod config.Hw.Config.l1_sets) lines in
    List.length sets = List.length (List.sort_uniq compare sets)
  in
  check_bool "one code line per set" true (one_per_set s.Sel4_rt.Pinning.code_lines);
  check_bool "one data line per set" true (one_per_set s.Sel4_rt.Pinning.data_lines)

let test_pinned_lines_survive_workload () =
  let selection = Sel4_rt.Pinning.select improved in
  let config = Hw.Config.with_pinning Hw.Config.default in
  let s = Sel4_rt.Workloads.scenario (ctx_of config improved) KM.Syscall in
  let machine = Hw.Cpu.machine s.Sel4_rt.Workloads.cpu in
  Sel4_rt.Pinning.install selection machine;
  let _ = Sel4_rt.Workloads.measure_once s ~seed:11 in
  List.iter
    (fun line ->
      check_bool
        (Fmt.str "pinned I-line %#x still cached" line)
        true
        (Hw.Cache.probe (Hw.Machine.icache machine) line))
    selection.Sel4_rt.Pinning.code_lines

(* --- the shared PRNG --- *)

let test_prng_deterministic () =
  let a = Sel4_rt.Prng.create 42 and b = Sel4_rt.Prng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sel4_rt.Prng.next64 a = Sel4_rt.Prng.next64 b)
  done;
  let c = Sel4_rt.Prng.create 43 in
  check_bool "different seed, different stream" false
    (Sel4_rt.Prng.next64 a = Sel4_rt.Prng.next64 c)

let test_prng_ranges () =
  let r = Sel4_rt.Prng.create 7 in
  for _ = 1 to 1000 do
    let i = Sel4_rt.Prng.int r 10 in
    check_bool "int in range" true (i >= 0 && i < 10);
    let f = Sel4_rt.Prng.float r in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done;
  check_int "bound <= 0 yields 0" 0 (Sel4_rt.Prng.int r 0)

let test_prng_split_at_pure () =
  let parent = Sel4_rt.Prng.create 11 in
  ignore (Sel4_rt.Prng.next64 parent);
  let before = Sel4_rt.Prng.state parent in
  let c3 = Sel4_rt.Prng.split_at parent 3 in
  let c3' = Sel4_rt.Prng.split_at parent 3 in
  check_bool "split_at does not advance the parent" true
    (Sel4_rt.Prng.state parent = before);
  for _ = 1 to 20 do
    check_bool "same child index, same stream" true
      (Sel4_rt.Prng.next64 c3 = Sel4_rt.Prng.next64 c3')
  done;
  let c4 = Sel4_rt.Prng.split_at parent 4 in
  check_bool "distinct child indices diverge" false
    (Sel4_rt.Prng.next64 (Sel4_rt.Prng.split_at parent 3)
    = Sel4_rt.Prng.next64 c4)

let test_prng_split_independent_of_draws () =
  (* The i-th child depends only on the parent state at the split, not on
     how many other children were split off before it. *)
  let p1 = Sel4_rt.Prng.create 5 and p2 = Sel4_rt.Prng.create 5 in
  ignore (Sel4_rt.Prng.split_at p1 0);
  ignore (Sel4_rt.Prng.split_at p1 1);
  let a = Sel4_rt.Prng.split_at p1 9 and b = Sel4_rt.Prng.split_at p2 9 in
  for _ = 1 to 20 do
    check_bool "child 9 identical" true
      (Sel4_rt.Prng.next64 a = Sel4_rt.Prng.next64 b)
  done

let () =
  Alcotest.run "core"
    [
      ( "soundness",
        Alcotest.
          [
            test_case "computed >= observed (all)" `Slow test_soundness_all_entries;
            test_case "original build" `Quick test_soundness_original_build;
            test_case "round-robin replacement" `Quick test_soundness_round_robin;
            test_case "forced path bracketed" `Slow
              test_forced_path_between_observed_and_wcet;
          ] );
      ( "shapes",
        Alcotest.
          [
            test_case "before/after factor" `Quick test_before_after_factor;
            test_case "L2 raises computed" `Quick
              test_l2_raises_computed_lowers_little_observed;
            test_case "pinning reduces WCET" `Slow test_pinning_reduces_wcet;
            test_case "response bound is a sum" `Quick test_response_bound_is_sum;
          ] );
      ( "workloads",
        Alcotest.
          [
            test_case "invariants preserved" `Quick test_workload_invariants;
            test_case "depth matters" `Quick test_deep_cspace_depth_matters;
            test_case "deterministic per seed" `Quick
              test_observed_deterministic_per_seed;
          ] );
      ( "analysis",
        Alcotest.
          [
            test_case "constraints tighten" `Quick
              test_constraints_tighten_syscall_bound;
            test_case "kernel loop bounds" `Quick test_kernel_loop_bounds;
          ] );
      ( "pinning",
        Alcotest.
          [
            test_case "selection fits way" `Quick test_pin_selection_fits_way;
            test_case "pins survive workload" `Quick
              test_pinned_lines_survive_workload;
          ] );
      ( "prng",
        Alcotest.
          [
            test_case "deterministic per seed" `Quick test_prng_deterministic;
            test_case "ranges" `Quick test_prng_ranges;
            test_case "split_at is pure" `Quick test_prng_split_at_pure;
            test_case "split independent of draws" `Quick
              test_prng_split_independent_of_draws;
          ] );
    ]
