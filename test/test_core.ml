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

(* --- the kernel model's structure --- *)

(* Every spec the analysis can be asked for, over the builds the CLI
   names, the four entries and three parameter sets. *)
let model_builds =
  [
    ("original", original);
    ("improved", improved);
    ("lazy", { improved with Sel4.Build.sched = Sel4.Build.Lazy });
    ("benno", { improved with Sel4.Build.sched = Sel4.Build.Benno });
  ]

let model_params =
  [
    ("default", KM.default_params);
    ("preemptible_call", { KM.default_params with KM.preemptible_call = true });
    ("decode_depth=1", { KM.default_params with KM.decode_depth = 1 });
  ]

let model_specs () =
  List.concat_map
    (fun (bname, build) ->
      List.concat_map
        (fun (pname, params) ->
          List.map
            (fun entry ->
              ( Fmt.str "%s/%s/%s" bname (KM.entry_main entry) pname,
                params,
                build,
                entry,
                KM.spec ~params build entry ))
            KM.entry_points)
        model_params)
    model_builds

(* The spec as text: blocks in id order with their payloads and
   successors, the bounds as a set, the constraints in order. *)
let render_spec (s : Wcet.Ipet.spec) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let pp_access ppf = function
    | Wcet.Timing.Static { addr; write } -> Fmt.pf ppf "s%#x%b" addr write
    | Wcet.Timing.Dynamic { write; count } -> Fmt.pf ppf "d%d%b" count write
  in
  add "main %s\n" s.Wcet.Ipet.program.Cfg.Flowgraph.main;
  List.iter
    (fun (fn : Wcet.Timing.t Cfg.Flowgraph.fn) ->
      add "fn %s entry %d\n" fn.name fn.entry;
      Array.iter
        (fun (blk : Wcet.Timing.t Cfg.Flowgraph.block) ->
          add "%d %s call=%s %s [%s] branch=%s -> %s\n" blk.id blk.label
            (Option.value ~default:"-" blk.call)
            (Fmt.str "%a" Wcet.Timing.pp blk.payload)
            (Fmt.str "%a" Fmt.(list ~sep:sp pp_access) blk.payload.accesses)
            (match blk.payload.branch with
            | None -> "-"
            | Some t -> string_of_bool t)
            (String.concat "," (List.map string_of_int blk.succs)))
        fn.blocks)
    s.program.funcs;
  List.iter
    (fun (func, header, bound) -> add "bound %s/%s %d\n" func header bound)
    (List.sort_uniq Stdlib.compare
       (List.map
          (fun (l : Wcet.Ipet.loop_bound) -> (l.func, l.header, l.bound))
          s.bounds));
  List.iter
    (fun c -> add "manual %s\n" (Fmt.str "%a" Wcet.User_constraint.pp c))
    s.constraints;
  List.iter
    (fun (c, (d : Wcet.Derive_constraints.derivation)) ->
      add "derived %s %s %s %s\n"
        (Fmt.str "%a" Wcet.User_constraint.pp c)
        d.dv_model
        (Wcet.Derive_constraints.rule_name d.dv_rule)
        d.dv_note)
    s.derived;
  Buffer.contents b

(* Pinned fingerprints of every spec: a change to a block, an edge, a
   bound or a constraint fails here, naming the spec it moved. *)
let model_digests =
  [
    ("original/syscall/default", "4e78044c89b227f8bacc9b9fe9b134fc");
    ("original/interrupt/default", "529f0076be64b5fe783919659b9402d2");
    ("original/page_fault/default", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("original/undef/default", "7f8029df59cb53ee6670e06327267f73");
    ("original/syscall/preemptible_call", "1b9b0c81316a78aeb3e598dda5664bfc");
    ("original/interrupt/preemptible_call", "529f0076be64b5fe783919659b9402d2");
    ("original/page_fault/preemptible_call", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("original/undef/preemptible_call", "7f8029df59cb53ee6670e06327267f73");
    ("original/syscall/decode_depth=1", "4e78044c89b227f8bacc9b9fe9b134fc");
    ("original/interrupt/decode_depth=1", "529f0076be64b5fe783919659b9402d2");
    ("original/page_fault/decode_depth=1", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("original/undef/decode_depth=1", "7f8029df59cb53ee6670e06327267f73");
    ("improved/syscall/default", "e1b1ce7a83bf6ed15d59affa92b41176");
    ("improved/interrupt/default", "8ee4a70453a3eef8644c945e0fe701fc");
    ("improved/page_fault/default", "3de1f662cc58e61d9fa69a9dca7e432d");
    ("improved/undef/default", "031162546356a24d4d8ca73732dbfdbc");
    ("improved/syscall/preemptible_call", "bd41975c11873e46b851b67619e301e4");
    ("improved/interrupt/preemptible_call", "8ee4a70453a3eef8644c945e0fe701fc");
    ("improved/page_fault/preemptible_call", "3de1f662cc58e61d9fa69a9dca7e432d");
    ("improved/undef/preemptible_call", "031162546356a24d4d8ca73732dbfdbc");
    ("improved/syscall/decode_depth=1", "e1b1ce7a83bf6ed15d59affa92b41176");
    ("improved/interrupt/decode_depth=1", "8ee4a70453a3eef8644c945e0fe701fc");
    ("improved/page_fault/decode_depth=1", "3de1f662cc58e61d9fa69a9dca7e432d");
    ("improved/undef/decode_depth=1", "031162546356a24d4d8ca73732dbfdbc");
    ("lazy/syscall/default", "a274ce5c44637f87b39d5238e6b79458");
    ("lazy/interrupt/default", "529f0076be64b5fe783919659b9402d2");
    ("lazy/page_fault/default", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("lazy/undef/default", "7f8029df59cb53ee6670e06327267f73");
    ("lazy/syscall/preemptible_call", "80d667fde5cf863f0bfdcb5111c34f5f");
    ("lazy/interrupt/preemptible_call", "529f0076be64b5fe783919659b9402d2");
    ("lazy/page_fault/preemptible_call", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("lazy/undef/preemptible_call", "7f8029df59cb53ee6670e06327267f73");
    ("lazy/syscall/decode_depth=1", "a274ce5c44637f87b39d5238e6b79458");
    ("lazy/interrupt/decode_depth=1", "529f0076be64b5fe783919659b9402d2");
    ("lazy/page_fault/decode_depth=1", "2021c9b8f5fe46d66d5fce4b019d5dd0");
    ("lazy/undef/decode_depth=1", "7f8029df59cb53ee6670e06327267f73");
    ("benno/syscall/default", "7b1a79d9433183ee81140254757e1611");
    ("benno/interrupt/default", "24d8058dad7e9cf5c23e63179e4db91e");
    ("benno/page_fault/default", "ffd0810c0facb6ec6c166ea07172a43b");
    ("benno/undef/default", "106c35a12e90c89e10f9c51e0d489f8e");
    ("benno/syscall/preemptible_call", "a7d25f7276bdd684f961c52e87c55b94");
    ("benno/interrupt/preemptible_call", "24d8058dad7e9cf5c23e63179e4db91e");
    ("benno/page_fault/preemptible_call", "ffd0810c0facb6ec6c166ea07172a43b");
    ("benno/undef/preemptible_call", "106c35a12e90c89e10f9c51e0d489f8e");
    ("benno/syscall/decode_depth=1", "7b1a79d9433183ee81140254757e1611");
    ("benno/interrupt/decode_depth=1", "24d8058dad7e9cf5c23e63179e4db91e");
    ("benno/page_fault/decode_depth=1", "ffd0810c0facb6ec6c166ea07172a43b");
    ("benno/undef/decode_depth=1", "106c35a12e90c89e10f9c51e0d489f8e");
  ]

let test_model_fingerprints () =
  let actual =
    List.map
      (fun (name, _, _, _, s) -> (name, Digest.to_hex (Digest.string (render_spec s))))
      (model_specs ())
  in
  if actual <> model_digests then begin
    List.iter (fun (n, d) -> Fmt.epr "    (%S, %S);@." n d) actual;
    Alcotest.fail "kernel-model fingerprints moved (actual values above)"
  end

(* Every name the model states resolves to the structure it builds: a
   bound per natural-loop header and nothing else, and every block label
   a constraint, decision model or realisable path names exists in its
   function. *)
let test_model_names_resolve () =
  List.iter
    (fun (name, params, build, entry, (s : Wcet.Ipet.spec)) ->
      let fn func =
        match
          List.find_opt
            (fun (f : _ Cfg.Flowgraph.fn) -> f.name = func)
            s.program.funcs
        with
        | Some f -> f
        | None -> Alcotest.failf "%s: no function %s" name func
      in
      let has_block func label =
        Array.exists
          (fun (b : _ Cfg.Flowgraph.block) -> b.label = label)
          (fn func).blocks
      in
      let resolves what func label =
        check_bool (Fmt.str "%s: %s %s/%s names a block" name what func label)
          true (has_block func label)
      in
      List.iter
        (fun (f : Wcet.Timing.t Cfg.Flowgraph.fn) ->
          let headers =
            List.map
              (fun h -> f.blocks.(h).label)
              (Cfg.Loops.headers (Cfg.Loops.compute f))
          in
          List.iter
            (fun h ->
              check_int
                (Fmt.str "%s: loop header %s/%s has one bound" name f.name h)
                1
                (List.length
                   (List.filter
                      (fun (l : Wcet.Ipet.loop_bound) ->
                        l.func = f.name && l.header = h)
                      s.bounds)))
            headers;
          List.iter
            (fun (l : Wcet.Ipet.loop_bound) ->
              if l.func = f.name then
                check_bool
                  (Fmt.str "%s: bound %s/%s is a loop header" name l.func
                     l.header)
                  true (List.mem l.header headers))
            s.bounds)
        s.program.funcs;
      List.iter
        (fun (l : Wcet.Ipet.loop_bound) -> ignore (fn l.func))
        s.bounds;
      List.iter
        (function
          | Wcet.User_constraint.Conflicts_with { func; a; b }
          | Wcet.User_constraint.Consistent_with { func; a; b } ->
              resolves "constraint" func a;
              resolves "constraint" func b
          | Wcet.User_constraint.Executes_at_most { func; block; _ } ->
              resolves "constraint" func block)
        (s.constraints @ List.map fst s.derived);
      List.iter
        (fun (m : Wcet.Derive_constraints.model) ->
          List.iter
            (fun (_, label) -> resolves "decision model" m.dm_func label)
            m.dm_labels)
        (KM.decision_models params build ~main:(KM.entry_main entry));
      List.iter
        (fun (func, label, _) -> resolves "realisable path" func label)
        (KM.realisable_path ~params entry))
    (model_specs ())

(* The 16 default specs: 4 builds × 4 entries. *)
let build_default_specs () =
  List.iter
    (fun (_, build) ->
      List.iter (fun entry -> ignore (KM.spec build entry)) KM.entry_points)
    model_builds

(* Building a spec allocates as much the hundredth time as the first:
   nothing the loop-bound and derivation chain keeps between builds
   grows with the programs it has seen.  Allocation is deterministic, so
   the batches must match exactly; no major collection runs between
   them, so state kept for dead programs would show. *)
let test_spec_allocation_flat () =
  let batch () =
    let before = Gc.minor_words () in
    for _ = 1 to 25 do
      build_default_specs ()
    done;
    Gc.minor_words () -. before
  in
  build_default_specs ();
  let first = batch () in
  let last = ref first in
  for _ = 2 to 4 do
    last := batch ()
  done;
  Alcotest.(check (float 0.)) "minor words, last batch vs first" first !last

(* The analyses that take no parameter run once per process: a spec
   runs the loop-bound chain only for the clear loop, and the derivation
   only for the lazy scheduler's stale model, so an improved-build
   interrupt and syscall spec make one [kernel_model.loop_bounds]
   observation and no fixpoint iteration between them.  The 16 default
   specs stay under a ceiling of minor words per set. *)
let test_parameter_free_once () =
  Obs.Metrics.reset ();
  ignore (KM.spec improved KM.Interrupt);
  ignore (KM.spec improved KM.Syscall);
  let snap = Obs.Metrics.snapshot () in
  check_int "kernel_model.loop_bounds observations (the clear loop)" 1
    (List.assoc "kernel_model.loop_bounds" snap.Obs.Metrics.s_histograms)
      .Obs.Metrics.hs_count;
  check_int "absint.iterations" 0
    (List.assoc "absint.iterations" snap.Obs.Metrics.s_counters);
  build_default_specs ();
  let before = Gc.minor_words () in
  build_default_specs ();
  let words = Gc.minor_words () -. before in
  if words > 300_000. then
    Alcotest.failf
      "the 16 default specs allocate %.0f minor words (at most 300,000)" words

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
      ( "kernel-model",
        Alcotest.
          [
            test_case "fingerprints" `Quick test_model_fingerprints;
            test_case "names resolve" `Quick test_model_names_resolve;
            test_case "spec allocation is flat" `Quick
              test_spec_allocation_flat;
            test_case "parameter-free analyses run once" `Quick
              test_parameter_free_once;
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
