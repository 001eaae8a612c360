(* A tour of the WCET analysis pipeline (Section 5).

   Runs the full static analysis for the interrupt entry point — loop
   bounds, virtual inlining, must-cache analysis, ILP — and prints what
   each stage produced, ending with the worst-case path and the
   computed-vs-observed comparison.

     dune exec examples/wcet_tour.exe *)

let () =
  let config = Hw.Config.default in
  let build = Sel4.Build.improved in
  let ctx = Sel4_rt.Analysis_ctx.make ~config ~build () in

  Fmt.pr
    "1. Automatically computed loop bounds (interval analysis, then slicing \
     + model checking)@.";
  List.iter
    (fun r -> Fmt.pr "   %a@." Sel4_rt.Kernel_loops.pp_result r)
    (Sel4_rt.Experiments.loop_bounds ());

  Fmt.pr "@.2. IPET analysis of the interrupt entry point@.";
  let result =
    Sel4_rt.Response_time.computed ctx Sel4_rt.Kernel_model.Interrupt
  in
  Fmt.pr "   ILP: %d variables, %d constraints, %d branch-and-bound nodes@."
    result.Wcet.Ipet.ilp_vars result.Wcet.Ipet.ilp_constraints
    result.Wcet.Ipet.bb_nodes;
  Fmt.pr "   WCET bound: %d cycles (%.1f us at 532 MHz)@." result.Wcet.Ipet.wcet
    (Hw.Config.cycles_to_us config result.Wcet.Ipet.wcet);
  Fmt.pr "@.   Worst-case path (block, executions, cycles per visit):@.";
  List.iter
    (fun (label, count, cycles) ->
      Fmt.pr "     %-40s x%-4d %6d@." label count cycles)
    (Wcet.Ipet.worst_path result);

  Fmt.pr "@.3. Adversarial measurement on the executable kernel@.";
  let observed =
    Sel4_rt.Workloads.observed ~runs:10 ctx Sel4_rt.Kernel_model.Interrupt
  in
  Fmt.pr "   observed worst case: %d cycles; computed/observed = %.2f@."
    observed
    (float_of_int result.Wcet.Ipet.wcet /. float_of_int observed);

  Fmt.pr "@.4. The same analysis with cache pinning (Section 4)@.";
  let selection = Sel4_rt.Pinning.select build in
  Fmt.pr "   %a@." Sel4_rt.Pinning.pp selection;
  let pinned =
    Sel4_rt.Response_time.computed
      (Sel4_rt.Analysis_ctx.make
         ~config:(Hw.Config.with_pinning config)
         ~pins:
           {
             Sel4_rt.Analysis_ctx.code = selection.Sel4_rt.Pinning.code_lines;
             data = selection.Sel4_rt.Pinning.data_lines;
           }
         ~build ())
      Sel4_rt.Kernel_model.Interrupt
  in
  Fmt.pr "   WCET bound with pinning: %d cycles (%.0f%% lower)@."
    pinned.Wcet.Ipet.wcet
    (100.0
    *. float_of_int (result.Wcet.Ipet.wcet - pinned.Wcet.Ipet.wcet)
    /. float_of_int result.Wcet.Ipet.wcet);

  Fmt.pr "@.5. Interrupt response bound (syscall WCET + interrupt WCET)@.";
  Fmt.pr "   %.1f us@."
    (Hw.Config.cycles_to_us config
       (Sel4_rt.Response_time.interrupt_response_bound ctx))
