(* sel4rt: command-line front end for the response-time toolkit.

     sel4rt analyse  [kernel_entry|syscall|...] --build improved --path
     sel4rt explain  [kernel_entry|syscall|...] --format folded
     sel4rt sim      --smoke --cores 4 --shielded | --forensics
     sel4rt race | explore | metrics   [--json]
     sel4rt observe  --entry interrupt --runs 25 --l2
     sel4rt repro [section ...]        (the paper's tables and figures)
     sel4rt serve    --stdio | --socket PATH
     sel4rt trace | constraints | pins

   The query-backed subcommands (analyse, explain, metrics, race,
   explore, and sim without forensics) are thin clients of Serve.Query:
   they parse their flags into one request, execute it once, print its
   text report or the envelope a serve query answers, and exit on its
   status.  Every subcommand exits 0 when it ran and its gate held, 1
   when a gate failed, and 2 on an error or a usage error. *)

open Cmdliner
module Q = Serve.Query

let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)), print)

let target_conv =
  conv_of Q.target_of_string (fun ppf t -> Fmt.string ppf (Q.target_name t))

(* A single entry point: any target but kernel_entry. *)
let entry_of_string s =
  match Q.target_of_string s with
  | Ok (Q.Entry e) -> Ok e
  | Ok Q.Kernel_entry -> Error "kernel_entry is not a single entry point"
  | Error msg -> Error msg

let entry_name e = Q.target_name (Q.Entry e)
let entry_conv =
  conv_of entry_of_string (fun ppf e -> Fmt.string ppf (entry_name e))

let build_conv =
  conv_of Q.build_of_string (fun ppf b -> Fmt.string ppf (Q.build_name b))

let target_arg =
  Arg.(
    value
    & pos 0 target_conv Q.Kernel_entry
    & info [] ~docv:"TARGET"
        ~doc:
          "What to analyse: kernel_entry (the full interrupt-response \
           bound: syscall path + interrupt path) or a single entry point — \
           syscall, interrupt, fault, undefined.")

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

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the one-line JSON envelope a $(b,serve) query answers \
           instead of the text report.")

let out_arg what =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:("Write the " ^ what ^ " to FILE."))

let write out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc

(* --- the query path --- *)

let exit_status = function
  | Serve.Envelope.Ok -> exit 0
  | Serve.Envelope.Fail -> exit 1
  | Serve.Envelope.Error -> exit 2

let usage_error msg =
  Fmt.epr "sel4rt: %s@." msg;
  exit 2

let exec req =
  match Q.exec req with Ok r -> r | Error msg -> usage_error msg

(* [--json]: exactly the envelope line serve answers. *)
let respond ?out req =
  let line, status = Q.respond req in
  write out line;
  Option.iter (Fmt.pr "wrote %s@.") out;
  exit_status status

(* Text: the report, then anything [epilogue] adds, then the exit. *)
let report ?(epilogue = ignore) r =
  Fmt.pr "%a@?" Q.pp r;
  epilogue r;
  exit_status (Q.status r)

let query ?epilogue ~json req =
  if json then respond req else report ?epilogue (exec req)

(* Every command documents the exit map above, not cmdliner's default. *)
let cmd_info =
  Cmd.info
    ~exits:
      Cmd.Exit.
        [
          info 0 ~doc:"when the command ran and its gate, if any, held.";
          info 1 ~doc:"when a gate failed.";
          info 2 ~doc:"on an error or a command-line usage error.";
        ]

let analyse_cmd =
  let run target build l2 pin path json =
    if path && (json || target = Q.Kernel_entry) then
      usage_error "--path lists one entry point's worst-case path, as text";
    query ~json (Q.Analyse { target; build; l2; pin }) ~epilogue:(function
      | Q.Bound { ipet = Some ipet; _ } when path ->
          Fmt.pr "worst-case path:@.";
          List.iter
            (fun (label, count, cycles) ->
              Fmt.pr "  %-44s x%-5d %7d cycles/visit@." label count cycles)
            (Wcet.Ipet.worst_path ipet)
      | _ -> ())
  in
  let path_arg =
    Arg.(
      value & flag
      & info [ "path" ] ~doc:"Print an entry point's worst-case path.")
  in
  Cmd.v
    (cmd_info "analyse"
       ~doc:
         "Compute a WCET bound for one kernel entry point, or the worst-case \
          interrupt-response bound (the longest kernel path plus the \
          interrupt path).  With $(b,--json), the envelope one $(b,serve) \
          analyse query returns; warm disk-cache runs produce byte-identical \
          payloads.")
    Term.(
      const run $ target_arg $ build_arg $ l2_arg $ pin_arg $ path_arg
      $ json_arg)

let observe_cmd =
  let run entry build l2 runs =
    let ctx = Sel4_rt.Pinning.context ~l2 build in
    let config = ctx.Sel4_rt.Analysis_ctx.config in
    let observed = Sel4_rt.Workloads.observed ~runs ctx entry in
    Fmt.pr "%s, %a, %d runs@." (Sel4_rt.Kernel_model.entry_name entry)
      Sel4.Build.pp build runs;
    Fmt.pr "observed worst case: %d cycles (%.1f us)@." observed
      (Hw.Config.cycles_to_us config observed)
  in
  let entry_arg =
    Arg.(
      value
      & opt entry_conv Sel4_rt.Kernel_model.Syscall
      & info [ "entry"; "e" ] ~docv:"ENTRY"
          ~doc:"Kernel entry point: syscall, interrupt, fault or undefined.")
  in
  let runs_arg =
    Arg.(
      value & opt int 25
      & info [ "runs" ] ~docv:"N"
          ~doc:"Polluted-cache measurement repetitions.")
  in
  Cmd.v
    (cmd_info "observe"
       ~doc:"Measure the observed worst case under adversarial workloads.")
    Term.(const run $ entry_arg $ build_arg $ l2_arg $ runs_arg)

(* --- explain: block-by-block decomposition of a WCET bound --- *)

let explain_cmd =
  let run target build l2 pin format out =
    let req = Q.Explain { target; build; l2; pin } in
    match format with
    | `Json -> respond ?out req
    | (`Text | `Folded) as format -> (
        match exec req with
        | Q.Profile p as r ->
            write out
              (match format with
              | `Text -> Fmt.str "%a" Q.pp r
              | `Folded -> Obs.Bound_profile.to_folded p);
            Option.iter
              (fun path ->
                Fmt.pr "wrote %s (%d rows, bound %d cycles)@." path
                  (List.length p.Obs.Bound_profile.p_rows)
                  (Obs.Bound_profile.total p))
              out;
            exit_status (Q.status r)
        | _ -> assert false)
  in
  let format_conv =
    Arg.enum
      [
        ("text", `Text); ("table", `Text); ("folded", `Folded);
        ("flamegraph", `Folded); ("json", `Json);
      ]
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
  Cmd.v
    (cmd_info "explain"
       ~doc:
         "Decompose a WCET bound block by block: the optimal IPET basis \
          rendered as per-block cycle contributions split into execution, \
          cache-stall and pipeline components, with the binding \
          flow/loop/infeasible-path constraints that shaped the optimum.  \
          The rows sum to the bound exactly.")
    Term.(
      const run $ target_arg $ build_arg $ l2_arg $ pin_arg $ format_arg
      $ out_arg "profile")

let repro_cmd =
  let sections = Sel4_rt.Experiments.sections in
  let run names =
    let names = if names = [] then List.map fst sections else names in
    List.iter
      (fun name ->
        match List.assoc_opt name sections with
        | Some f ->
            Fmt.pr "==== %s ====@." name;
            f ()
        | None ->
            usage_error
              (Fmt.str "unknown section %s (available: %s)" name
                 (String.concat ", " (List.map fst sections))))
      names
  in
  Cmd.v
    (cmd_info "repro"
       ~doc:"Regenerate the paper's tables and figures (all, or by name).")
    Term.(
      const run
      $ Arg.(value & pos_all string [] & info [] ~docv:"SECTION"))

let constraints_cmd =
  let run entry =
    let entries =
      match entry with
      | Some e -> [ e ]
      | None -> Sel4_rt.Kernel_model.entry_points
    in
    List.iter
      (fun entry ->
        let main = Sel4_rt.Kernel_model.entry_main entry in
        Fmt.pr "==== %s ====@." main;
        let report = Sel4_rt.Kernel_model.constraint_report ~main () in
        Fmt.pr "%a@." Wcet.Derive_constraints.pp_report report)
      entries
  in
  let entry_arg =
    Arg.(
      value
      & pos 0 (some entry_conv) None
      & info [] ~docv:"ENTRY"
          ~doc:
            "Entry function to audit: syscall, interrupt, fault or \
             undefined.  Default: all of them.")
  in
  Cmd.v
    (cmd_info "constraints"
       ~doc:
         "Derive the Section 5.2 infeasible-path constraints from the TAC \
          decision models and audit every manual constraint \
          (proved/refuted/unknown, with evidence).")
    Term.(const run $ entry_arg)

(* --- trace: run a scenario with the cycle-accurate event tracer on --- *)

let scenario_conv =
  conv_of
    (function
      | "quickstart" -> Ok `Quickstart
      | s -> Result.map (fun e -> `Entry e) (entry_of_string s))
    (fun ppf -> function
      | `Quickstart -> Fmt.string ppf "quickstart"
      | `Entry e -> Fmt.string ppf (entry_name e))

let trace_format_conv =
  Arg.enum
    [
      ("text", `Text); ("timeline", `Text); ("chrome", `Chrome);
      ("json", `Chrome);
    ]

(* The examples/quickstart.ml sequence — boot, IPC ping-pong, interrupt
   delivery — with the tracer attached from the first boot instruction. *)
let run_quickstart_traced ~config build buf =
  let module K = Sel4.Kernel in
  let module B = Sel4.Boot in
  let cpu = Hw.Cpu.create config in
  Hw.Cpu.set_trace_buffer cpu buf;
  let env = B.boot ~cpu build in
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
    | `Quickstart -> run_quickstart_traced ~config build buf
    | `Entry entry -> (
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
    write out
      (match format with
      | `Chrome ->
          Obs.Json.to_string
            (Obs.Trace.to_chrome_json ~cycles_per_us:config.Hw.Config.clock_mhz
               buf)
          ^ "\n"
      | `Text -> Fmt.str "%a" Obs.Trace.pp_timeline buf);
    Option.iter
      (fun path ->
        Fmt.pr "wrote %s (%d events, %d dropped)@." path (Obs.Trace.length buf)
          (Obs.Trace.dropped buf))
      out
  in
  let scenario_arg =
    Arg.(
      value
      & pos 0 scenario_conv `Quickstart
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
      value & opt trace_format_conv `Text
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
  Cmd.v
    (cmd_info "trace"
       ~doc:
         "Run a scenario with the cycle-accurate kernel tracer attached and \
          export the event timeline.")
    Term.(
      const run $ scenario_arg $ build_arg $ l2_arg $ seed_arg $ format_arg
      $ capacity_arg $ out_arg "trace")

let metrics_cmd =
  let run l2 runs json =
    (* Exercise the full pipeline once per entry point — IPET stage spans,
       analysis-cache counters, pool stats — plus one observed workload for
       the hardware counters, then dump the registry. *)
    let build = Sel4.Build.improved in
    List.iter
      (fun e ->
        let target = Q.Entry e in
        ignore (exec (Q.Analyse { target; build; l2; pin = false })))
      Sel4_rt.Kernel_model.entry_points;
    ignore
      (Sel4_rt.Workloads.observed ~runs
         (Sel4_rt.Pinning.context ~l2 build)
         Sel4_rt.Kernel_model.Interrupt);
    query ~json Q.Metrics
  in
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N" ~doc:"Observed-workload repetitions.")
  in
  Cmd.v
    (cmd_info "metrics"
       ~doc:
         "Run the analysis pipeline and dump the metrics registry (counters, \
          gauges, stage-span histograms) — a readable table by default, JSON \
          with $(b,--json).")
    Term.(const run $ l2_arg $ runs_arg $ json_arg)

let race_cmd =
  let run smoke json = query ~json (Q.Race { smoke }) in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Audit against the small operation workloads (the CI run).")
  in
  Cmd.v
    (cmd_info "race"
       ~doc:
         "Static interference analysis over preemption-delimited sections: \
          print the declared read/write footprints, the pairwise \
          interference matrix, the Owicki-Gries progress-measure report, \
          and audit the declarations against recorded accesses by replaying \
          every long-running operation preempted at every poll. Exits \
          non-zero if any recorded access escapes its declared footprint.")
    Term.(const run $ smoke_arg $ json_arg)

let explore_cmd =
  let run smoke depth json = query ~json (Q.Explore { smoke; depth }) in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Small operation workloads for the sweep and DPOR depth 2: the \
             fast configuration.")
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
  Cmd.v
    (cmd_info "explore"
       ~doc:
         "Preemption-schedule campaign over the four long-running \
          operations: uninterrupted baselines, a preemption at every \
          polled point alone and all at once, and DPOR over schedules that \
          run interfering client actions in the windows the preemptions \
          open, pruning those whose actions provably commute (static \
          interference analysis). Every schedule runs under the three \
          scheduler variants with the invariant catalogue, strict \
          restart progress and final-state agreement checked; failures \
          are shrunk to 1-minimal schedules. Exits non-zero on any \
          failure.")
    Term.(const run $ smoke_arg $ depth_arg $ json_arg)

(* The forensics campaign is not a query: it writes to stderr and files
   around the same report the [sim] query prints. *)
let run_forensics ~smoke ~seed ?entries ?only ?inv_every forensics_out =
  match
    Sim.run_campaign_forensics ~smoke ~seed ?entries ?only ?inv_every ()
  with
  | exception Invalid_argument msg -> usage_error msg
  | report, th, f ->
      Fmt.epr "%a@." Obs.Tail_report.pp f.Sim.fo_tail;
      List.iter (fun g -> Fmt.epr "%a@." Obs.Gap_report.pp g) f.Sim.fo_gaps;
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let write name contents =
            let path = Filename.concat dir name in
            write (Some path) contents;
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
      Q.Soak (report, th)

let sim_cmd =
  let run smoke seed entries scenarios inv_every forensics forensics_out cores
      shielded compare =
    let forensics = forensics || forensics_out <> None in
    if shielded && (cores = 1 || compare) then
      usage_error "--shielded needs --cores above 1 and no --compare";
    if forensics && (cores <> 1 || compare) then
      usage_error "--forensics records the single-core campaign only";
    let req =
      if cores = 1 && not compare then
        Q.Sim { smoke; seed; entries; scenarios; inv_every }
      else
        (* A comparison needs two cores: plain --compare runs on two. *)
        let cores = if compare && cores = 1 then 2 else cores in
        Q.Smp
          {
            smoke;
            seed;
            entries;
            cores;
            shielded;
            compare;
            scenarios;
            inv_every;
          }
    in
    (* Wall-clock economics go to stderr: stdout is covered by the
       byte-identity contract (fixed seed => fixed bytes). *)
    report
      ~epilogue:(function
        | Q.Soak (_, th) -> Fmt.epr "%a@." Sim.pp_throughput th | _ -> ())
      (if not forensics then exec req
       else begin
         Result.iter_error usage_error (Q.validate req);
         let only = match scenarios with [] -> None | l -> Some l in
         run_forensics ~smoke ~seed ?entries ?only ?inv_every forensics_out
       end)
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
  let scenario_arg =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Restrict to the named scenario (repeatable; not with \
             $(b,--compare)).")
  in
  let inv_every_arg =
    Arg.(
      value & opt (some int) None
      & info [ "inv-every" ] ~docv:"N"
          ~doc:
            "Run the invariant catalogue every N entries (0 = off; default \
             512, or 0 under $(b,--smoke)).  Checks charge no simulated \
             cycles, so the period never changes the report.  Not with \
             $(b,--compare).")
  in
  let forensics_arg =
    Arg.(
      value & flag
      & info [ "forensics" ]
          ~doc:
            "Flight-record the worst deliveries of the single-core campaign: \
             after the campaign, replay the implicated shards with the \
             tracer attached and print the tail report (worst windows \
             attributed to kernel sections) and the gap report (bound \
             decomposition vs. observed worst case) to stderr.  The stdout \
             report stays byte-identical.")
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
             campaign; above 1, the SMP engine runs per-core schedulers \
             coupled through the IPI fabric and checks every delivery \
             against the per-core bound (single-core bound + \
             remote-interference term).")
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
             budget (on 2 cores unless $(b,--cores) says more) and report \
             the tail comparison; exits non-zero unless both runs pass \
             their gates and the shielded core's observed p99.9 and max are \
             strictly lower.")
  in
  Cmd.v
    (cmd_info "sim"
       ~doc:
         "Stochastic soak campaign: seeded multi-tenant syscall traffic plus \
          virtual devices asserting interrupts, run for large kernel-entry \
          counts across the scheduler variants and pinning, validating every \
          observed interrupt response latency against the computed WCET \
          bound. Deterministic for a fixed seed regardless of the domain \
          count. Exits non-zero if any latency exceeds its bound or an \
          invariant check fails.")
    Term.(
      const run $ smoke_arg $ seed_arg $ entries_arg $ scenario_arg
      $ inv_every_arg $ forensics_arg $ forensics_out_arg $ cores_arg
      $ shielded_arg $ compare_arg)

let serve_cmd =
  let run socket stdio =
    ignore stdio;
    match socket with
    | Some path ->
        Fmt.epr "sel4rt serve: listening on %s@." path;
        Serve.Server.serve_socket path
    | None ->
        if not (Serve.Server.serve_channels stdin stdout) then
          exit_status Serve.Envelope.Error
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
             (the default).  Exits 2 if any query line was malformed.")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Long-lived analysis service: accept newline-delimited JSON queries \
          (analyse, explain, metrics, sim, smp, race, explore) and answer \
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
    (cmd_info "pins" ~doc:"Show the trace-derived cache-pinning selection.")
    Term.(const run $ build_arg)

let () =
  (* Every subcommand shares the persistent result cache (set
     SEL4RT_NO_DISK_CACHE to opt out, SEL4RT_CACHE_DIR to relocate). *)
  Serve.Disk_cache.install ();
  let info =
    cmd_info "sel4rt" ~version:"1.0.0"
      ~doc:
        "Worst-case interrupt response analysis for a verifiable protected \
         microkernel (EuroSys'12 reproduction)."
  in
  (* A command line cmdliner rejects is a usage error like any other. *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [
              analyse_cmd;
              serve_cmd;
              observe_cmd;
              explain_cmd;
              repro_cmd;
              constraints_cmd;
              pins_cmd;
              trace_cmd;
              metrics_cmd;
              race_cmd;
              explore_cmd;
              sim_cmd;
            ])
     with
    | Ok _ -> 0
    | Error _ -> 2)
