(* sel4rt: command-line front end for the response-time toolkit.

     sel4rt wcet     --entry syscall --build improved --l2 --pin --path
     sel4rt analyse  [kernel_entry|syscall|...] --build improved  (JSON)
     sel4rt observe  --entry interrupt --runs 25 --l2
     sel4rt response --build improved --l2
     sel4rt explain  [kernel_entry|syscall|...] --format folded
     sel4rt sim      --smoke --forensics --forensics-out DIR
     sel4rt repro [section ...]        (the paper's tables and figures)
     sel4rt serve    --stdio | --socket PATH
     sel4rt loops
     sel4rt pins

   Every [--json] path and the serve protocol speak the same unified
   envelope (Serve.Envelope) over the same typed queries (Serve.Query);
   the subcommands below are thin clients of that API. *)

open Cmdliner

let entry_conv =
  let parse = function
    | "syscall" -> Ok Sel4_rt.Kernel_model.Syscall
    | "interrupt" | "irq" -> Ok Sel4_rt.Kernel_model.Interrupt
    | "fault" | "pagefault" -> Ok Sel4_rt.Kernel_model.Page_fault
    | "undefined" | "undef" -> Ok Sel4_rt.Kernel_model.Undefined_instruction
    | s -> Error (`Msg (Fmt.str "unknown entry point %S" s))
  in
  let print ppf e = Fmt.string ppf (Sel4_rt.Kernel_model.entry_name e) in
  Arg.conv (parse, print)

let build_conv =
  let parse = function
    | "improved" | "after" -> Ok Sel4.Build.improved
    | "original" | "before" -> Ok Sel4.Build.original
    | "benno" -> Ok { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Benno }
    | "lazy" -> Ok { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Lazy }
    | s -> Error (`Msg (Fmt.str "unknown build %S" s))
  in
  Arg.conv (parse, fun ppf b -> Sel4.Build.pp ppf b)

let entry_arg =
  Arg.(
    value
    & opt entry_conv Sel4_rt.Kernel_model.Syscall
    & info [ "entry"; "e" ] ~docv:"ENTRY"
        ~doc:"Kernel entry point: syscall, interrupt, fault or undefined.")

let build_arg =
  Arg.(
    value
    & opt build_conv Sel4.Build.improved
    & info [ "build"; "b" ] ~docv:"BUILD"
        ~doc:"Kernel build: improved (after), original (before), benno, lazy.")

let l2_arg =
  Arg.(value & flag & info [ "l2" ] ~doc:"Enable the unified L2 cache.")

let pin_arg =
  Arg.(
    value & flag
    & info [ "pin" ] ~doc:"Reserve one L1 way and pin the interrupt path.")

let path_arg =
  Arg.(value & flag & info [ "path" ] ~doc:"Print the worst-case path.")

let runs_arg =
  Arg.(
    value & opt int 25
    & info [ "runs" ] ~docv:"N" ~doc:"Polluted-cache measurement repetitions.")

(* Shared by every JSON subcommand: print the one-line envelope and map
   a non-ok status onto a non-zero exit. *)
let emit_envelope (line, status) =
  print_string line;
  if status <> Serve.Envelope.Ok then exit 1

let target_conv =
  let parse s =
    match Serve.Query.target_of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf t -> Fmt.string ppf (Serve.Query.target_name t))

let target_arg =
  Arg.(
    value
    & pos 0 target_conv Serve.Query.Kernel_entry
    & info [] ~docv:"TARGET"
        ~doc:
          "What to analyse: kernel_entry (the full interrupt-response \
           bound: syscall path + interrupt path) or a single entry point — \
           syscall, interrupt, fault, undefined.")

let analyse_cmd =
  let run target build l2 pin =
    emit_envelope
      (Serve.Query.respond (Serve.Query.Analyse { target; build; l2; pin }))
  in
  Cmd.v
    (Cmd.info "analyse"
       ~doc:
         "Compute a WCET or interrupt-response bound and emit it as one \
          envelope line of JSON — the machine-readable twin of $(b,wcet) \
          and $(b,response), and exactly what one $(b,serve) analyse query \
          returns.  Warm disk-cache runs produce byte-identical payloads.")
    Term.(const run $ target_arg $ build_arg $ l2_arg $ pin_arg)

let wcet_cmd =
  let run entry build l2 pin path =
    let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
    let config = ctx.Sel4_rt.Analysis_ctx.config in
    let result = Sel4_rt.Response_time.computed ctx entry in
    Fmt.pr "%s, %a@." (Sel4_rt.Kernel_model.entry_name entry) Sel4.Build.pp build;
    Fmt.pr "hardware: %a@." Hw.Config.pp config;
    Fmt.pr "WCET bound: %d cycles (%.1f us)@." result.Wcet.Ipet.wcet
      (Hw.Config.cycles_to_us config result.Wcet.Ipet.wcet);
    Fmt.pr "ILP: %d variables, %d constraints, %d nodes, %d LP solves, %.2fs@."
      result.Wcet.Ipet.ilp_vars result.Wcet.Ipet.ilp_constraints
      result.Wcet.Ipet.bb_nodes result.Wcet.Ipet.lp_solves
      result.Wcet.Ipet.elapsed_s;
    if path then begin
      Fmt.pr "worst-case path:@.";
      List.iter
        (fun (label, count, cycles) ->
          Fmt.pr "  %-44s x%-5d %7d cycles/visit@." label count cycles)
        (Wcet.Ipet.worst_path result)
    end
  in
  Cmd.v
    (Cmd.info "wcet" ~doc:"Compute a WCET bound for a kernel entry point.")
    Term.(const run $ entry_arg $ build_arg $ l2_arg $ pin_arg $ path_arg)

let observe_cmd =
  let run entry build l2 runs =
    let ctx = Sel4_rt.Pinning.context ~l2 build in
    let config = ctx.Sel4_rt.Analysis_ctx.config in
    let observed = Sel4_rt.Response_time.observed ~runs ctx entry in
    Fmt.pr "%s, %a, %d runs@." (Sel4_rt.Kernel_model.entry_name entry)
      Sel4.Build.pp build runs;
    Fmt.pr "observed worst case: %d cycles (%.1f us)@." observed
      (Hw.Config.cycles_to_us config observed)
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Measure the observed worst case under adversarial workloads.")
    Term.(const run $ entry_arg $ build_arg $ l2_arg $ runs_arg)

let response_cmd =
  let run build l2 pin =
    let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
    let config = ctx.Sel4_rt.Analysis_ctx.config in
    let bound = Sel4_rt.Response_time.interrupt_response_bound ctx in
    Fmt.pr "worst-case interrupt response (%a): %d cycles (%.1f us)@."
      Sel4.Build.pp build bound
      (Hw.Config.cycles_to_us config bound)
  in
  Cmd.v
    (Cmd.info "response"
       ~doc:
         "Compute the worst-case interrupt response bound (longest kernel \
          path plus the interrupt path).")
    Term.(const run $ build_arg $ l2_arg $ pin_arg)

(* --- explain: block-by-block decomposition of a WCET bound --- *)

let explain_cmd =
  let run func build l2 pin format out =
    let target =
      match Serve.Query.target_of_string func with
      | Ok t -> t
      | Error _ ->
          Fmt.epr
            "unknown function %S (kernel_entry, syscall, interrupt, fault, \
             undefined)@."
            func;
          exit 1
    in
    match format with
    | `Json ->
        (* The machine-readable path is one serve query: profile payload
           inside the envelope, non-exact decomposition = fail status. *)
        let line, status =
          Serve.Query.respond (Serve.Query.Explain { target; build; l2; pin })
        in
        (match out with
        | None -> print_string line
        | Some path ->
            let oc = open_out path in
            output_string oc line;
            close_out oc;
            Fmt.pr "wrote %s@." path);
        if status <> Serve.Envelope.Ok then begin
          Fmt.epr "internal error: decomposition does not sum to the bound@.";
          exit 2
        end
    | (`Text | `Folded) as format -> (
        let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
        let profile =
          match target with
          | Serve.Query.Kernel_entry ->
              Sel4_rt.Response_time.interrupt_response_profile ctx
          | Serve.Query.Entry e -> Sel4_rt.Response_time.profile ctx e
        in
        if not (Obs.Bound_profile.exact profile) then begin
          Fmt.epr "internal error: decomposition does not sum to the bound@.";
          exit 2
        end;
        let rendered =
          match format with
          | `Text -> Fmt.str "%a" Obs.Bound_profile.pp profile
          | `Folded -> Obs.Bound_profile.to_folded profile
        in
        match out with
        | None -> print_string rendered
        | Some path ->
            let oc = open_out path in
            output_string oc rendered;
            close_out oc;
            Fmt.pr "wrote %s (%d rows, bound %d cycles)@." path
              (List.length profile.Obs.Bound_profile.p_rows)
              (Obs.Bound_profile.total profile))
  in
  let func_arg =
    Arg.(
      value & pos 0 string "kernel_entry"
      & info [] ~docv:"FUNC"
          ~doc:
            "What to explain: kernel_entry (the full interrupt-response \
             bound: syscall path + interrupt path), or a single entry point \
             — syscall, interrupt, fault, undefined.")
  in
  let format_conv =
    let parse = function
      | "text" | "table" -> Ok `Text
      | "folded" | "flamegraph" -> Ok `Folded
      | "json" -> Ok `Json
      | s -> Error (`Msg (Fmt.str "unknown format %S (text, folded, json)" s))
    in
    let print ppf f =
      Fmt.string ppf
        (match f with `Text -> "text" | `Folded -> "folded" | `Json -> "json")
    in
    Arg.conv (parse, print)
  in
  let format_arg =
    Arg.(
      value & opt format_conv `Text
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:
            "Output format: text (per-block table), folded (flamegraph.pl \
             folded-stack lines, one frame path per block and cost \
             component), or json.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the profile to FILE.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Decompose a WCET bound block by block: the optimal IPET basis \
          rendered as per-block cycle contributions split into execution, \
          cache-stall and pipeline components, with the binding \
          flow/loop/infeasible-path constraints that shaped the optimum.  \
          The rows sum to the bound exactly.")
    Term.(
      const run $ func_arg $ build_arg $ l2_arg $ pin_arg $ format_arg
      $ out_arg)

let repro_cmd =
  let sections =
    [
      ("table1", fun () -> Sel4_rt.Experiments.(print_table1 (table1 ())));
      ("table2", fun () -> Sel4_rt.Experiments.(print_table2 (table2 ())));
      ("fig7", fun () -> Sel4_rt.Experiments.(print_fig7 (fig7 ())));
      ("fig8", fun () -> Sel4_rt.Experiments.(print_fig8 (fig8 ())));
      ("fig9", fun () -> Sel4_rt.Experiments.(print_fig9 (fig9 ())));
      ("sched", fun () -> Sel4_rt.Experiments.(print_sched (sched_ablation ())));
      ( "loopbounds",
        fun () -> Sel4_rt.Experiments.(print_loop_bounds (loop_bounds ())) );
      ( "analysis",
        fun () -> Sel4_rt.Experiments.(print_analysis_cost (analysis_cost ())) );
      ( "constraints",
        fun () ->
          Sel4_rt.Experiments.(print_constraint_modes (constraint_modes ())) );
      ("summary", fun () -> Sel4_rt.Experiments.(print_summary (summary ())));
      ("l2lock", fun () -> Sel4_rt.Experiments.(print_l2_lock (l2_lock ())));
      ( "callpreempt",
        fun () -> Sel4_rt.Experiments.(print_call_preempt (call_preempt ())) );
      ( "fastpath",
        fun () -> Sel4_rt.Experiments.(print_fastpath (fastpath_ablation ())) );
      ( "replacement",
        fun () -> Sel4_rt.Experiments.(print_replacement (replacement ())) );
    ]
  in
  let run names =
    let names = if names = [] then List.map fst sections else names in
    List.iter
      (fun name ->
        match List.assoc_opt name sections with
        | Some f ->
            Fmt.pr "==== %s ====@." name;
            f ()
        | None ->
            Fmt.epr "unknown section %s (available: %s)@." name
              (String.concat ", " (List.map fst sections));
            exit 1)
      names
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Regenerate the paper's tables and figures (all, or by name).")
    Term.(
      const run
      $ Arg.(value & pos_all string [] & info [] ~docv:"SECTION"))

let constraints_cmd =
  let main_of = function
    | "syscall" -> Ok "syscall"
    | "interrupt" | "irq" -> Ok "interrupt"
    | "fault" | "pagefault" | "page_fault" -> Ok "page_fault"
    | "undefined" | "undef" -> Ok "undef"
    | s -> Error s
  in
  let run func =
    let mains =
      match func with
      | Some f -> (
          match main_of f with
          | Ok m -> [ m ]
          | Error s ->
              Fmt.epr
                "unknown entry function %S (syscall, interrupt, fault, \
                 undefined)@."
                s;
              exit 1)
      | None ->
          List.map Sel4_rt.Kernel_model.entry_main
            Sel4_rt.Kernel_model.entry_points
    in
    List.iter
      (fun main ->
        Fmt.pr "==== %s ====@." main;
        let report = Sel4_rt.Kernel_model.constraint_report ~main () in
        Fmt.pr "%a@." Wcet.Derive_constraints.pp_report report)
      mains
  in
  let func_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FUNC"
          ~doc:
            "Entry function to audit: syscall, interrupt, fault or \
             undefined.  Default: all of them.")
  in
  Cmd.v
    (Cmd.info "constraints"
       ~doc:
         "Derive the Section 5.2 infeasible-path constraints from the TAC \
          decision models and audit every manual constraint \
          (proved/refuted/unknown, with evidence).")
    Term.(const run $ func_arg)

let loops_cmd =
  let run () =
    Sel4_rt.Experiments.(print_loop_bounds (loop_bounds ()))
  in
  Cmd.v
    (Cmd.info "loops" ~doc:"Compute the kernel loop bounds (Section 5.3).")
    Term.(const run $ const ())

(* --- trace: run a scenario with the cycle-accurate event tracer on --- *)

type trace_scenario = Quickstart | Entry of Sel4_rt.Kernel_model.entry_point

let scenario_conv =
  let parse = function
    | "quickstart" -> Ok Quickstart
    | "syscall" -> Ok (Entry Sel4_rt.Kernel_model.Syscall)
    | "interrupt" | "irq" -> Ok (Entry Sel4_rt.Kernel_model.Interrupt)
    | "fault" | "pagefault" -> Ok (Entry Sel4_rt.Kernel_model.Page_fault)
    | "undefined" | "undef" ->
        Ok (Entry Sel4_rt.Kernel_model.Undefined_instruction)
    | s -> Error (`Msg (Fmt.str "unknown scenario %S" s))
  in
  let print ppf = function
    | Quickstart -> Fmt.string ppf "quickstart"
    | Entry e -> Fmt.string ppf (Sel4_rt.Kernel_model.entry_name e)
  in
  Arg.conv (parse, print)

let format_conv =
  let parse = function
    | "chrome" | "json" -> Ok `Chrome
    | "text" | "timeline" -> Ok `Text
    | s -> Error (`Msg (Fmt.str "unknown format %S (chrome or text)" s))
  in
  let print ppf f =
    Fmt.string ppf (match f with `Chrome -> "chrome" | `Text -> "text")
  in
  Arg.conv (parse, print)

(* The examples/quickstart.ml sequence — boot, IPC ping-pong, interrupt
   delivery — with the tracer attached from the first boot instruction. *)
let run_quickstart_traced ~config buf =
  let module K = Sel4.Kernel in
  let module B = Sel4.Boot in
  let cpu = Hw.Cpu.create config in
  Hw.Cpu.set_trace_buffer cpu buf;
  let env = B.boot ~cpu Sel4.Build.improved in
  let expect what = function
    | K.Completed -> ()
    | _ -> failwith ("quickstart trace: " ^ what ^ " failed")
  in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let server = B.spawn_thread env ~priority:150 ~dest:11 in
  let client = B.spawn_thread env ~priority:120 ~dest:12 in
  B.make_runnable env server;
  B.make_runnable env client;
  K.force_run env.B.k server;
  expect "recv" (K.kernel_entry env.B.k (K.Ev_recv { ep = 10 }));
  K.force_run env.B.k client;
  client.Sel4.Ktypes.regs.(0) <- 0xCAFE;
  expect "call"
    (K.kernel_entry env.B.k
       (K.Ev_call { ep = 10; badge_hint = 0; msg_len = 2; extra_caps = [] }));
  expect "reply"
    (K.kernel_entry env.B.k (K.Ev_reply_recv { ep = 10; msg_len = 1 }));
  let _irq_ep = B.spawn_endpoint env ~dest:20 in
  let handler = B.spawn_thread env ~priority:200 ~dest:21 in
  B.make_runnable env handler;
  K.force_run env.B.k env.B.root_tcb;
  expect "irq setup"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_irq_handler { line = 7; ep = 20 })));
  K.force_run env.B.k handler;
  expect "handler recv" (K.kernel_entry env.B.k (K.Ev_recv { ep = 20 }));
  K.force_run env.B.k env.B.root_tcb;
  K.raise_irq env.B.k 7;
  expect "interrupt" (K.kernel_entry env.B.k K.Ev_interrupt);
  Hw.Cpu.clear_trace_buffer cpu

let trace_cmd =
  let run scenario build l2 seed format capacity out =
    let ctx = Sel4_rt.Pinning.context ~l2 build in
    let config = ctx.Sel4_rt.Analysis_ctx.config in
    let buf = Obs.Trace.create ?capacity () in
    (match scenario with
    | Quickstart -> run_quickstart_traced ~config buf
    | Entry entry -> (
        match Sel4_rt.Workloads.run_traced ~buf ~seed ctx entry with
        | Sel4.Kernel.Failed e, _ ->
            Fmt.epr "scenario failed: %s@." e;
            exit 1
        | (Sel4.Kernel.Completed | Sel4.Kernel.Preempted), _ -> ()));
    (* Overflow is visible, never silent: the ring keeps the newest events
       and the count of evicted ones is also surfaced as the
       [trace.dropped] metrics counter. *)
    if Obs.Trace.dropped buf > 0 then
      Fmt.epr
        "warning: trace ring overflowed — %d oldest events dropped (capacity \
         %d; raise with --capacity)@."
        (Obs.Trace.dropped buf) (Obs.Trace.capacity buf);
    let rendered =
      match format with
      | `Chrome ->
          Obs.Json.to_string
            (Obs.Trace.to_chrome_json ~cycles_per_us:config.Hw.Config.clock_mhz
               buf)
          ^ "\n"
      | `Text -> Fmt.str "%a" Obs.Trace.pp_timeline buf
    in
    match out with
    | None -> print_string rendered
    | Some path ->
        let oc = open_out path in
        output_string oc rendered;
        close_out oc;
        Fmt.pr "wrote %s (%d events, %d dropped)@." path
          (Obs.Trace.length buf) (Obs.Trace.dropped buf)
  in
  let scenario_arg =
    Arg.(
      value
      & pos 0 scenario_conv Quickstart
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario to trace: quickstart (the examples/quickstart.ml \
             sequence), or an adversarial worst-case entry — syscall, \
             interrupt, fault, undefined.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Cache-pollution seed.")
  in
  let format_arg =
    Arg.(
      value & opt format_conv `Text
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:
            "Output format: text (human-readable timeline) or chrome \
             (trace_event JSON, loadable in Perfetto / chrome://tracing).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Trace ring capacity in events (default 65536).  When a scenario \
             emits more, the ring keeps the newest N and a warning with the \
             dropped count goes to stderr (also counted by the \
             $(b,trace.dropped) metric).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the trace to FILE.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with the cycle-accurate kernel tracer attached and \
          export the event timeline.")
    Term.(
      const run $ scenario_arg $ build_arg $ l2_arg $ seed_arg $ format_arg
      $ capacity_arg $ out_arg)

let metrics_cmd =
  let run l2 runs json =
    (* Exercise the full pipeline once per entry point — IPET stage spans,
       analysis-cache counters, pool stats — plus one observed workload for
       the hardware counters, then dump the registry. *)
    let ctx = Sel4_rt.Pinning.context ~l2 Sel4.Build.improved in
    List.iter
      (fun entry -> ignore (Sel4_rt.Response_time.computed ctx entry))
      Sel4_rt.Kernel_model.entry_points;
    ignore
      (Sel4_rt.Response_time.observed ~runs ctx Sel4_rt.Kernel_model.Interrupt);
    if json then
      emit_envelope (Serve.Query.respond Serve.Query.Metrics)
    else Fmt.pr "%a@." (fun ppf -> Obs.Metrics.pp ppf) (Obs.Metrics.snapshot ())
  in
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N" ~doc:"Observed-workload repetitions.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Dump the registry as JSON instead of the readable table.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the analysis pipeline and dump the metrics registry (counters, \
          gauges, stage-span histograms) — a readable table by default, JSON \
          with $(b,--json).")
    Term.(const run $ l2_arg $ runs_arg $ json_arg)

let inject_cmd =
  let run smoke seed l2 json =
    if json then
      emit_envelope
        (Serve.Query.respond (Serve.Query.Inject { smoke; seed; l2 }))
    else begin
      let ctx = Sel4_rt.Pinning.context ~l2 Sel4.Build.improved in
      let report = Inject.run_campaign ~smoke ~seed ctx in
      Fmt.pr "%a@." Inject.pp_report report;
      if not (Inject.ok report) then exit 1
    end
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Small workloads and few random schedules: the fast fixed-seed \
             CI configuration.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed for the multi-interrupt schedules.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the machine-readable campaign report (same envelope as \
             $(b,sel4rt explore --json)) instead of the readable table.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Exhaustive preemption-point fault-injection campaign: replay every \
          long-running operation injecting timer interrupts at each polled \
          preemption point, check the invariant catalogue and restart \
          progress after every kernel exit, and differentially compare final \
          states across scheduler variants. Exits non-zero on any failure.")
    Term.(const run $ smoke_arg $ seed_arg $ l2_arg $ json_arg)

let race_cmd =
  let run smoke json =
    if json then
      emit_envelope (Serve.Query.respond (Serve.Query.Race { smoke }))
    else begin
      let report = Race.audit ~smoke Sel4_rt.Analysis_ctx.default in
      Fmt.pr "%a@." Race.pp_matrix ();
      Fmt.pr "%a@." Race.pp_og ();
      Fmt.pr "%a@." Race.pp_audit report;
      if not (Race.audit_ok report) then exit 1
    end
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Audit against the small injection workloads (the CI run).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full analysis (sections, matrix, Owicki-Gries rows, \
             audit) as JSON.")
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Static interference analysis over preemption-delimited sections: \
          print the declared read/write footprints, the pairwise \
          interference matrix, the Owicki-Gries progress-measure report, \
          and audit the declarations against recorded accesses by replaying \
          every long-running operation preempted at every poll. Exits \
          non-zero if any recorded access escapes its declared footprint.")
    Term.(const run $ smoke_arg $ json_arg)

(* Inputs the library rejects with [Invalid_argument] (an unknown
   scenario name, an explore depth below 1) are usage errors: report them
   and exit 2, not as an uncaught exception. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    Fmt.epr "sel4rt: %s@." msg;
    exit 2

let explore_cmd =
  let run smoke depth json =
    if json then
      emit_envelope (Serve.Query.respond (Serve.Query.Explore { smoke; depth }))
    else begin
      let report =
        or_usage_error (fun () ->
            Explore.run ~smoke ?depth Sel4_rt.Analysis_ctx.default)
      in
      Fmt.pr "%a@." Explore.pp_report report;
      if not (Explore.ok report) then exit 1
    end
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Depth-2 ep-delete scenario only: the fast CI configuration.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Maximum preemptions (and client actions) per schedule (default \
             3, or 2 under $(b,--smoke)).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the machine-readable report (same envelope as $(b,sel4rt \
             inject --json)) instead of the readable table.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "DPOR schedule explorer: systematically enumerate multi-preemption \
          schedules that run interfering client actions in the windows the \
          preemptions open, prune schedules whose actions provably commute \
          (static interference analysis), deduplicate final states by \
          canonical digest, and judge every explored schedule with the \
          injection oracles. Exits non-zero on any oracle failure.")
    Term.(const run $ smoke_arg $ depth_arg $ json_arg)

let sim_cmd =
  let run smoke seed entries only inv_every collect forensics forensics_out
      cores shielded compare =
    let only = match only with [] -> None | l -> Some l in
    ignore (or_usage_error (fun () -> Sim.select_scenarios only));
    if cores > 1 || compare then begin
      (* The SMP engine: per-core worlds coupled through the IPI fabric.
         [--cores 1] without [--compare] stays on the single-core campaign
         below, whose stdout is covered by the byte-identity contract. *)
      if forensics || forensics_out <> None then
        Fmt.epr
          "warning: --forensics applies to the single-core campaign only; \
           ignored under --cores > 1@.";
      if compare then begin
        let shielded_rep, spread_rep, cmp =
          Smp.Soak.run_compare ~seed ?entries ~smoke ~cores:(max 2 cores) ()
        in
        Fmt.pr "%a@." Smp.Soak.pp_report shielded_rep;
        Fmt.pr "%a@." Smp.Soak.pp_report spread_rep;
        Fmt.pr "%a@." Smp.Soak.pp_comparison cmp;
        if
          not
            (shielded_rep.Smp.Soak.rp_ok && spread_rep.Smp.Soak.rp_ok
           && cmp.Smp.Soak.cmp_tail_lower)
        then exit 1
      end
      else begin
        let policy =
          if shielded then Smp.Topology.Shielded else Smp.Topology.Spread
        in
        let report =
          Smp.Soak.run ~seed ?entries ~smoke ?inv_every ?only ~cores ~policy ()
        in
        Fmt.pr "%a@." Smp.Soak.pp_report report;
        if not report.Smp.Soak.rp_ok then exit 1
      end;
      exit 0
    end;
    let report, th =
      if not (forensics || forensics_out <> None) then
        Sim.run_campaign_timed ~smoke ~seed ?entries ?only ?inv_every ~collect
          ()
      else begin
        let report, th, f =
          Sim.run_campaign_forensics ~smoke ~seed ?entries ?only ?inv_every ()
        in
        (* Forensic output goes to stderr / files: stdout stays the
           byte-identical campaign report. *)
        Fmt.epr "%a@." Obs.Tail_report.pp f.Sim.fo_tail;
        List.iter (fun g -> Fmt.epr "%a@." Obs.Gap_report.pp g) f.Sim.fo_gaps;
        Option.iter
          (fun dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let write name contents =
              let path = Filename.concat dir name in
              let oc = open_out path in
              output_string oc contents;
              close_out oc;
              Fmt.epr "wrote %s@." path
            in
            let write_json name v = write name (Obs.Json.to_string v ^ "\n") in
            write_json "sim_tail.json" (Obs.Tail_report.to_json f.Sim.fo_tail);
            write_json "sim_gap.json" (Obs.Gap_report.to_json f.Sim.fo_gaps);
            List.iter
              (fun (label, p) ->
                write
                  ("bound_profile_" ^ label ^ ".folded")
                  (Obs.Bound_profile.to_folded p))
              f.Sim.fo_profiles;
            List.iter
              (fun (stem, json) -> write_json (stem ^ ".trace.json") json)
              (Obs.Tail_report.chrome_traces f.Sim.fo_tail))
          forensics_out;
        (report, th)
      end
    in
    Fmt.pr "%a@." Sim.pp_report report;
    (* Wall-clock economics go to stderr: stdout is covered by the
       byte-identity contract (fixed seed => fixed bytes). *)
    Fmt.epr "%a@." Sim.pp_throughput th;
    if not report.Sim.rp_ok then exit 1
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Short runs (1500 kernel entries each): the fast fixed-seed CI \
             configuration.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed for workload traffic and device arrivals.")
  in
  let entries_arg =
    Arg.(
      value & opt (some int) None
      & info [ "entries" ] ~docv:"N"
          ~doc:"Kernel entries per scenario/build run (default 52000).")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Restrict to the named scenario (repeatable).")
  in
  let inv_every_arg =
    Arg.(
      value & opt (some int) None
      & info [ "inv-every" ] ~docv:"N"
          ~doc:
            "Run the invariant catalogue every N entries (0 = off; default \
             512, or 0 under $(b,--smoke)).  Checks charge no simulated \
             cycles, so the period never changes the report.")
  in
  let collect_arg =
    Arg.(
      value & flag
      & info [ "collect" ]
          ~doc:
            "Collect all shard results before merging instead of the \
             constant-memory streaming fold (same report bytes; for \
             differential testing).")
  in
  let forensics_arg =
    Arg.(
      value & flag
      & info [ "forensics" ]
          ~doc:
            "Flight-record the worst deliveries: after the campaign, replay \
             the implicated shards with the tracer attached and print the \
             tail report (worst windows attributed to kernel sections) and \
             the gap report (bound decomposition vs. observed worst case) to \
             stderr.  The stdout report stays byte-identical.")
  in
  let forensics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "forensics-out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--forensics): also write sim_tail.json, sim_gap.json, \
             per-build folded bound profiles and one Chrome trace per \
             captured worst delivery into DIR (implies $(b,--forensics)).")
  in
  let cores_arg =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Number of modelled cores.  1 (default) runs the single-core \
             campaign (byte-identical to previous releases); above 1, the \
             SMP engine runs per-core schedulers coupled through the IPI \
             fabric and checks every delivery against the per-core bound \
             (single-core bound + remote-interference term).")
  in
  let shielded_arg =
    Arg.(
      value & flag
      & info [ "shielded" ]
          ~doc:
            "With $(b,--cores) > 1: route every device line to core 0 and \
             all tenant workload to the remaining cores (core 0 receives no \
             IPIs either).  Default is the spread policy (line l to core l \
             mod N, tenants round-robin).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Run the shielded and spread policies at the same seed and \
             budget and report the tail comparison; exits non-zero unless \
             both runs pass their gates and the shielded core's observed \
             p99.9 and max are strictly lower.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Stochastic soak campaign: seeded multi-tenant syscall traffic plus \
          virtual devices asserting interrupts, run for large kernel-entry \
          counts across the scheduler variants and pinning, validating every \
          observed interrupt response latency against the computed WCET \
          bound. Deterministic for a fixed seed regardless of the domain \
          count. Exits non-zero if any latency exceeds its bound or an \
          invariant check fails.")
    Term.(
      const run $ smoke_arg $ seed_arg $ entries_arg $ only_arg $ inv_every_arg
      $ collect_arg $ forensics_arg $ forensics_out_arg $ cores_arg
      $ shielded_arg $ compare_arg)

let serve_cmd =
  let run socket stdio =
    ignore stdio;
    match socket with
    | Some path ->
        Fmt.epr "sel4rt serve: listening on %s@." path;
        Serve.Server.serve_socket path
    | None -> exit (Serve.Server.serve_stdio ())
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at PATH (one thread per \
             connection) instead of serving stdin/stdout.")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve newline-delimited JSON queries on stdin/stdout until EOF \
             (the default).  Exits non-zero if any query line was \
             malformed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived analysis service: accept newline-delimited JSON queries \
          (analyse, explain, metrics, sim, inject, race, explore) and answer \
          each with one envelope line.  Queries share the in-process \
          analysis caches, the Domain pool and the on-disk \
          content-addressed result cache, so repeated bounds come back \
          without a single ILP solve.")
    Term.(const run $ socket_arg $ stdio_arg)

let pins_cmd =
  let run build =
    let s = Sel4_rt.Pinning.select build in
    Fmt.pr "%a@." Sel4_rt.Pinning.pp s;
    Fmt.pr "I-cache lines:@.";
    List.iter (fun l -> Fmt.pr "  %#010x@." l) s.Sel4_rt.Pinning.code_lines;
    Fmt.pr "D-cache lines:@.";
    List.iter (fun l -> Fmt.pr "  %#010x@." l) s.Sel4_rt.Pinning.data_lines
  in
  Cmd.v
    (Cmd.info "pins" ~doc:"Show the trace-derived cache-pinning selection.")
    Term.(const run $ build_arg)

let () =
  (* Every subcommand shares the persistent result cache (set
     SEL4RT_NO_DISK_CACHE to opt out, SEL4RT_CACHE_DIR to relocate). *)
  Serve.Disk_cache.install ();
  let info =
    Cmd.info "sel4rt" ~version:"1.0.0"
      ~doc:
        "Worst-case interrupt response analysis for a verifiable protected \
         microkernel (EuroSys'12 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            wcet_cmd;
            analyse_cmd;
            serve_cmd;
            observe_cmd;
            response_cmd;
            explain_cmd;
            repro_cmd;
            constraints_cmd;
            loops_cmd;
            pins_cmd;
            trace_cmd;
            metrics_cmd;
            inject_cmd;
            race_cmd;
            explore_cmd;
            sim_cmd;
          ]))
