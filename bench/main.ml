(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- run every section
     dune exec bench/main.exe <section> ...   -- run selected sections
     dune exec bench/main.exe -- --json <section> ...
         -- additionally time each section, rerun them serially with the
            analysis cache disabled, and write speedup, cache statistics
            and per-entry ILP metrics to BENCH_wcet.json

   Sections (one per paper artefact, see DESIGN.md's experiment index):
     table1   Table 1  - WCET with/without cache pinning
     table2   Table 2  - before/after WCET, computed vs observed, L2 off/on
     fig7     Fig. 7   - capability-decode depth sweep (observed)
     fig8     Fig. 8   - hardware-model overestimation on forced paths
     fig9     Fig. 9   - observed effect of L2 cache and branch predictor
     sched    Sections 3.1-3.2 - scheduler ablation (lazy/Benno/bitmap)
     loopbounds Section 5.3   - automatically computed loop bounds
     analysis Section 6.3     - ILP sizes, solver effort, constraint effect
     constraints Section 5.2  - WCET under manual vs derived constraints
     summary  Section 6       - headline numbers
     sim      stochastic soak: observed IRQ latency vs the computed bound
     smp      multicore soak: shielded vs spread IRQ affinity at 4 cores
     micro    Bechamel microbenchmarks of the core data structures *)

let run_table1 () = Sel4_rt.Experiments.(print_table1 (table1 ()))

(* The latest table2 rows, kept for the --json report (observed-WCET
   provenance). *)
let table2_rows : Sel4_rt.Experiments.table2_row list ref = ref []

let run_table2 () =
  let rows = Sel4_rt.Experiments.table2 () in
  table2_rows := rows;
  Sel4_rt.Experiments.print_table2 rows
let run_fig7 () = Sel4_rt.Experiments.(print_fig7 (fig7 ()))
let run_fig8 () = Sel4_rt.Experiments.(print_fig8 (fig8 ()))
let run_fig9 () = Sel4_rt.Experiments.(print_fig9 (fig9 ()))
let run_sched () = Sel4_rt.Experiments.(print_sched (sched_ablation ()))
let run_loopbounds () = Sel4_rt.Experiments.(print_loop_bounds (loop_bounds ()))
let run_analysis () = Sel4_rt.Experiments.(print_analysis_cost (analysis_cost ()))

let run_constraints () =
  Sel4_rt.Experiments.(print_constraint_modes (constraint_modes ()))
let run_summary () = Sel4_rt.Experiments.(print_summary (summary ()))
let run_l2lock () = Sel4_rt.Experiments.(print_l2_lock (l2_lock ()))
let run_callpreempt () = Sel4_rt.Experiments.(print_call_preempt (call_preempt ()))
let run_fastpath () = Sel4_rt.Experiments.(print_fastpath (fastpath_ablation ()))
let run_replacement () = Sel4_rt.Experiments.(print_replacement (replacement ()))

(* The latest fault-injection report, kept for the --json summary. *)
let inject_report : Inject.report option ref = ref None

let run_inject () =
  let report = Inject.run_campaign ~smoke:true (Sel4_rt.Analysis_ctx.default) in
  inject_report := Some report;
  Fmt.pr "%a@." Inject.pp_report report

(* The latest race-audit and schedule-exploration reports, kept for the
   --json summary: the explore counters feed the BENCH_wcet.json explore
   object and the perf-ledger record. *)
let race_report : Race.audit_report option ref = ref None
let explore_report : Explore.report option ref = ref None

let run_race () =
  let report = Race.audit ~smoke:true Sel4_rt.Analysis_ctx.default in
  race_report := Some report;
  Fmt.pr "%a@." Race.pp_matrix ();
  Fmt.pr "%a@." Race.pp_og ();
  Fmt.pr "%a@." Race.pp_audit report

let run_explore () =
  let report = Explore.run ~smoke:true Sel4_rt.Analysis_ctx.default in
  explore_report := Some report;
  Fmt.pr "%a@." Explore.pp_report report

(* The latest soak-campaign report and its wall-clock economics, kept for
   the --json summary, plus the worst-delivery forensics (tail flight
   recorder, bound decomposition and gap reports). *)
let sim_report : (Sim.report * Sim.throughput) option ref = ref None
let sim_forensics : Sim.forensics option ref = ref None

let run_sim () =
  let report, th, forensics = Sim.run_campaign_forensics ~smoke:true () in
  sim_report := Some (report, th);
  sim_forensics := Some forensics;
  Fmt.pr "%a@." Sim.pp_report report;
  Fmt.pr "%a@." Obs.Tail_report.pp forensics.Sim.fo_tail;
  List.iter (fun g -> Fmt.pr "%a@." Obs.Gap_report.pp g) forensics.Sim.fo_gaps;
  Fmt.pr "%a@." Sim.pp_throughput th

(* The latest SMP shielded-vs-spread runs, kept for the --json summary:
   the smp object in BENCH_wcet.json records the IPI accounting and the
   tail comparison so CI can gate on zero per-core bound violations and
   on the shielded core keeping the strictly lower tail. *)
let smp_reports :
    (Smp.Soak.report * Smp.Soak.report * Smp.Soak.comparison) option ref =
  ref None

let run_smp () =
  let shielded, spread, cmp = Smp.Soak.run_compare ~smoke:true ~cores:4 () in
  smp_reports := Some (shielded, spread, cmp);
  Fmt.pr "%a@." Smp.Soak.pp_report shielded;
  Fmt.pr "%a@." Smp.Soak.pp_report spread;
  Fmt.pr "%a@." Smp.Soak.pp_comparison cmp

(* --- Bechamel microbenchmarks --- *)

let micro_tests () =
  let open Bechamel in
  let cache_test =
    let cache = Hw.Cache.create ~line_size:32 ~sets:128 ~ways:4 () in
    let counter = ref 0 in
    Test.make ~name:"l1-cache-access"
      (Staged.stage (fun () ->
           incr counter;
           ignore (Hw.Cache.access cache ~write:false (!counter * 32 mod 65536))))
  in
  let sched_test variant name =
    let build = { Sel4.Build.improved with Sel4.Build.sched = variant } in
    let env = Sel4.Boot.boot build in
    let threads =
      List.init 16 (fun i ->
          Sel4.Boot.spawn_thread env ~priority:(64 + i) ~dest:(20 + i))
    in
    List.iter (Sel4.Boot.make_runnable env) threads;
    let ctx = Sel4.Kernel.ctx env.Sel4.Boot.k in
    let sched = env.Sel4.Boot.k.Sel4.Kernel.sched in
    Test.make ~name:("choose-thread-" ^ name)
      (Staged.stage (fun () -> ignore (Sel4.Sched.choose_thread ctx sched)))
  in
  let fastpath_test =
    let module K = Sel4.Kernel in
    let module B = Sel4.Boot in
    let env = B.boot Sel4.Build.improved in
    let _ep = B.spawn_endpoint env ~dest:10 in
    let server = B.spawn_thread env ~priority:150 ~dest:11 in
    let client = B.spawn_thread env ~priority:120 ~dest:12 in
    B.make_runnable env server;
    B.make_runnable env client;
    K.force_run env.B.k server;
    ignore (K.kernel_entry env.B.k (K.Ev_recv { ep = 10 }));
    Test.make ~name:"ipc-call-reply-roundtrip"
      (Staged.stage (fun () ->
           K.force_run env.B.k client;
           ignore
             (K.kernel_entry env.B.k
                (K.Ev_call
                   { ep = 10; badge_hint = 0; msg_len = 2; extra_caps = [] }));
           K.force_run env.B.k server;
           ignore
             (K.kernel_entry env.B.k (K.Ev_reply_recv { ep = 10; msg_len = 1 }))))
  in
  let ilp_test =
    (* Bypass the analysis cache: the point is to measure the pipeline, not
       a table lookup. *)
    Test.make ~name:"ipet-interrupt-analysis"
      (Staged.stage (fun () ->
           ignore
             (Wcet.Ipet.analyse ~config:Hw.Config.default
                (Sel4_rt.Kernel_model.spec Sel4.Build.improved
                   Sel4_rt.Kernel_model.Interrupt))))
  in
  Test.make_grouped ~name:"micro"
    [
      cache_test;
      sched_test Sel4.Build.Lazy "lazy";
      sched_test Sel4.Build.Benno "benno";
      sched_test Sel4.Build.Benno_bitmap "bitmap";
      fastpath_test;
      ilp_test;
    ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pr "@.Bechamel microbenchmarks (wall-clock of the simulator itself)@.";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Fmt.pr "  %-40s %12.1f ns/run@." name ns
      | _ -> Fmt.pr "  %-40s %12s@." name "-")
    rows

let sections =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("sched", run_sched);
    ("loopbounds", run_loopbounds);
    ("analysis", run_analysis);
    ("constraints", run_constraints);
    ("summary", run_summary);
    ("l2lock", run_l2lock);
    ("callpreempt", run_callpreempt);
    ("fastpath", run_fastpath);
    ("replacement", run_replacement);
    ("inject", run_inject);
    ("race", run_race);
    ("explore", run_explore);
    ("sim", run_sim);
    ("smp", run_smp);
    ("micro", run_micro);
  ]

(* --- driver --- *)

let section_fn name =
  match List.assoc_opt name sections with
  | Some f -> f
  | None ->
      Fmt.epr "unknown section %s; available: %s@." name
        (String.concat " " (List.map fst sections));
      exit 1

(* Run [f] with the standard formatter's output discarded (the serial
   baseline rerun recomputes every section; its output is redundant). *)
let silenced f =
  let fmt = Format.std_formatter in
  Format.pp_print_flush fmt ();
  let saved = Format.pp_get_formatter_out_functions fmt () in
  Format.pp_set_formatter_out_functions fmt
    {
      Format.out_string = (fun _ _ _ -> ());
      out_flush = (fun () -> ());
      out_newline = (fun () -> ());
      out_spaces = (fun _ -> ());
      out_indent = (fun _ -> ());
    };
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush fmt ();
      Format.pp_set_formatter_out_functions fmt saved)
    f

let timed f =
  let started = Wcet.Clock.now_s () in
  f ();
  Wcet.Clock.now_s () -. started

(* A run (or section) is "warm" when any result came from the persistent
   disk cache rather than an in-process solve; the three counters
   partition lookups, so cold solves are exactly [misses]. *)
let cache_mode_of (stats : Sel4_rt.Analysis_cache.stats) =
  if stats.Sel4_rt.Analysis_cache.disk_hits > 0 then "warm" else "cold"

module Json = Obs.Json

let seconds v = Json.Fixed (6, v)

let cache_stats_json (stats : Sel4_rt.Analysis_cache.stats) =
  let open Json in
  Obj
    [
      ("mode", Str (cache_mode_of stats));
      ("hits", int stats.Sel4_rt.Analysis_cache.hits);
      ("disk_hits", int stats.Sel4_rt.Analysis_cache.disk_hits);
      ("misses", int stats.Sel4_rt.Analysis_cache.misses);
      ("hit_rate", Fixed (6, Sel4_rt.Analysis_cache.hit_rate stats));
      ("prefix_hits", int stats.Sel4_rt.Analysis_cache.prefix_hits);
      ("prefix_misses", int stats.Sel4_rt.Analysis_cache.prefix_misses);
    ]

let provenance_json (p : Sel4_rt.Workloads.provenance) =
  let open Json in
  Obj
    [
      ("workload", Str p.Sel4_rt.Workloads.workload);
      ("worst_seed", int p.Sel4_rt.Workloads.worst_seed);
      ("section", Str p.Sel4_rt.Workloads.section);
      ("section_cycles", int p.Sel4_rt.Workloads.section_cycles);
      ("cycles_to_preempt", option int p.Sel4_rt.Workloads.cycles_to_preempt);
      ("stall_cycles", int p.Sel4_rt.Workloads.stall_cycles);
      ("compute_cycles", int p.Sel4_rt.Workloads.compute_cycles);
    ]

let table2_cell_json (c : Sel4_rt.Experiments.table2_cell) =
  let open Json in
  Obj
    [
      ("computed", int c.Sel4_rt.Experiments.computed);
      ("observed", int c.Sel4_rt.Experiments.observed);
      ("provenance", provenance_json c.Sel4_rt.Experiments.prov);
    ]

(* The explorer's schedule counters summed over its scenarios: in the
   bench report and in the ledger. *)
let explore_totals (r : Explore.report) =
  let sum g =
    Json.int (List.fold_left (fun a s -> a + g s) 0 r.Explore.x_scens)
  in
  [
    ("explored", sum (fun s -> s.Explore.e_explored));
    ("pruned", sum (fun s -> s.Explore.e_pruned));
    ("deduped", sum (fun s -> s.Explore.e_deduped));
    ("digest_classes", sum (fun s -> s.Explore.e_digest_classes));
    ("failures", sum (fun s -> List.length s.Explore.e_failures));
  ]

let write_json ~path ~elapsed_s ~section_times ~engine_wall_s
    ~serial_fresh_wall_s ~(stats : Sel4_rt.Analysis_cache.stats) ~domains
    ~requested_domains ~recommended_domains ~warning ~analysis_rows
    ~constraint_rows ~table2_rows ~inject_rep ~race_rep ~explore_rep ~sim_rep
    ~sim_forensics ~smp_rep =
  let open Json in
  (* An optional section: present only when its bench section ran. *)
  let section name f = function None -> [] | Some x -> [ (name, f x) ] in
  let sections =
    list
      (fun (name, wall, sstats) ->
        Obj
          [
            ("name", Str name); ("wall_s", seconds wall);
            ("cache", cache_stats_json sstats);
          ])
      section_times
  in
  let table2 =
    match table2_rows with
    | [] -> []
    | rows ->
        [
          ( "table2",
            list
              (fun (r : Sel4_rt.Experiments.table2_row) ->
                Obj
                  [
                    ( "entry",
                      Str
                        (Sel4_rt.Kernel_model.entry_name
                           r.Sel4_rt.Experiments.t2_entry) );
                    ( "l2_off",
                      table2_cell_json r.Sel4_rt.Experiments.after_l2_off );
                    ("l2_on", table2_cell_json r.Sel4_rt.Experiments.after_l2_on);
                  ])
              rows );
        ]
  in
  let inject (r : Inject.report) =
    let ops = r.Inject.r_ops in
    let fold f = List.fold_left f 0 ops in
    Obj
      [
        ("seed", int r.Inject.r_seed); ("smoke", Bool r.Inject.r_smoke);
        ("campaigns", int (List.length ops));
        ("runs", int r.Inject.r_total_runs);
        ("points_covered", int (fold (fun a o -> a + o.Inject.o_points)));
        ("max_restarts", int (fold (fun a o -> max a o.Inject.o_max_restarts)));
        ( "failures",
          int (fold (fun a o -> a + List.length o.Inject.o_failures)) );
        ( "ops",
          list
            (fun (o : Inject.op_report) ->
              Obj
                [
                  ("op", Str (Inject.op_name o.Inject.o_op));
                  ("points", int o.Inject.o_points); ("runs", int o.Inject.o_runs);
                  ("max_restarts", int o.Inject.o_max_restarts);
                  ("failures", int (List.length o.Inject.o_failures));
                ])
            ops );
      ]
  in
  let explore (r : Explore.report) =
    let universe =
      List.fold_left (fun a s -> a + s.Explore.e_universe) 0 r.Explore.x_scens
    in
    Obj
      ([
         ("smoke", Bool r.Explore.x_smoke); ("depth", int r.Explore.x_depth);
         ("runs", int r.Explore.x_total_runs); ("universe", int universe);
       ]
      @ explore_totals r
      @ [
          ( "audit_violations",
            option
              (fun (a : Race.audit_report) ->
                int (List.length a.Race.ar_violations))
              race_rep );
          ( "ops",
            list
              (fun (s : Explore.scen_report) ->
                Obj
                  [
                    ("op", Str s.Explore.e_scenario);
                    ("polls", int s.Explore.e_polls);
                    ("universe", int s.Explore.e_universe);
                    ("explored", int s.Explore.e_explored);
                    ("pruned", int s.Explore.e_pruned);
                    ("deduped", int s.Explore.e_deduped);
                    ("digest_classes", int s.Explore.e_digest_classes);
                    ("failures", int (List.length s.Explore.e_failures));
                  ])
              r.Explore.x_scens );
        ])
  in
  (* Summary counters only; the full per-scenario per-core tables are
     available from `sel4rt sim --cores N` (Smp.Soak.report_json). *)
  let smp ((sh : Smp.Soak.report), (sp : Smp.Soak.report), cmp) =
    let policy_obj (r : Smp.Soak.report) =
      Obj
        [
          ("policy", Str (Smp.Topology.policy_name r.Smp.Soak.rp_policy));
          ("cores", int r.Smp.Soak.rp_cores);
          ("entries_per_core", int r.Smp.Soak.rp_entries_per_core);
          ("deliveries", int r.Smp.Soak.rp_deliveries);
          ("ipi_sent", int r.Smp.Soak.rp_ipi_sent);
          ("ipi_delivered", int r.Smp.Soak.rp_ipi_delivered);
          ("ipi_cancelled", int r.Smp.Soak.rp_ipi_cancelled);
          ("ipi_coalesced", int r.Smp.Soak.rp_ipi_coalesced);
          ("violations", int r.Smp.Soak.rp_violations);
          ("invariant_failures", int r.Smp.Soak.rp_invariant_failures);
          ("ok", Bool r.Smp.Soak.rp_ok);
        ]
    in
    Obj
      [
        ("base_bound", int sh.Smp.Soak.rp_base_bound);
        ("shielded", policy_obj sh); ("spread", policy_obj sp);
        ("comparison", Smp.Soak.comparison_to_json cmp);
      ]
  in
  (* The worst-delivery flight recorder and the bound/observation gap
     alignment; the tail entries carry window sizes, not the raw event
     streams (those go to per-delivery Chrome trace files via `sel4rt sim
     --forensics-out`). *)
  let forensics (f : Sim.forensics) =
    Obj
      [
        ("tail", Obs.Tail_report.to_json f.Sim.fo_tail);
        ("gaps", Obs.Gap_report.to_json f.Sim.fo_gaps);
        ( "profiles",
          Obj
            (List.map
               (fun (label, p) -> (label, Obs.Bound_profile.to_json p))
               f.Sim.fo_profiles) );
      ]
  in
  let analysis =
    list
      (fun (r : Sel4_rt.Experiments.analysis_cost_row) ->
        Obj
          [
            ( "entry",
              Str (Sel4_rt.Kernel_model.entry_name r.Sel4_rt.Experiments.ac_entry)
            );
            ("ilp_vars", int r.Sel4_rt.Experiments.ilp_vars);
            ("ilp_constraints", int r.Sel4_rt.Experiments.ilp_constraints);
            ("bb_nodes", int r.Sel4_rt.Experiments.bb_nodes);
            ("lp_solves", int r.Sel4_rt.Experiments.lp_solves);
            ("elapsed_s", seconds r.Sel4_rt.Experiments.elapsed_s);
            ("wcet", int r.Sel4_rt.Experiments.constrained_wcet);
          ])
      analysis_rows
  in
  let constraints =
    list
      (fun (r : Sel4_rt.Experiments.constraint_mode_row) ->
        Obj
          [
            ( "entry",
              Str (Sel4_rt.Kernel_model.entry_name r.Sel4_rt.Experiments.cm_entry)
            );
            ("unconstrained", int r.Sel4_rt.Experiments.cm_unconstrained);
            ("manual", int r.Sel4_rt.Experiments.cm_manual);
            ("derived", int r.Sel4_rt.Experiments.cm_derived);
            ("combined", int r.Sel4_rt.Experiments.cm_combined);
            ( "wcet_delta",
              int
                (r.Sel4_rt.Experiments.cm_unconstrained
                - r.Sel4_rt.Experiments.cm_combined) );
            ("n_manual", int r.Sel4_rt.Experiments.cm_n_manual);
            ("n_derived", int r.Sel4_rt.Experiments.cm_n_derived);
            ("proved", int r.Sel4_rt.Experiments.cm_proved);
            ("refuted", int r.Sel4_rt.Experiments.cm_refuted);
            ("unknown", int r.Sel4_rt.Experiments.cm_unknown);
          ])
      constraint_rows
  in
  let payload =
    Obj
      ([
         ("sections", sections); ("engine_wall_s", seconds engine_wall_s);
         ("serial_fresh_wall_s", seconds serial_fresh_wall_s);
       ]
      (* Omitted (not zeroed) on single-domain runs: see
         Serve.Envelope.speedup_field. *)
      @ section "speedup" Fun.id
          (Serve.Envelope.speedup_field ~domains ~engine_wall_s
             ~serial_fresh_wall_s)
      @ [
          ("domains", int domains);
          ("requested_domains", option int requested_domains);
          ("recommended_domains", int recommended_domains);
          ("warning", option (fun w -> Str w) warning);
          ("cache_mode", Str (cache_mode_of stats));
          ("cache", cache_stats_json stats);
          ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
        ]
      @ table2
      @ section "inject" inject inject_rep
      @ section "explore" explore explore_rep
      @ section "sim"
          (fun (r, th) -> Sim.campaign_to_json r th)
          sim_rep
      @ section "smp" smp smp_rep
      @ section "forensics" forensics sim_forensics
      @ [ ("analysis", analysis); ("constraints", constraints) ])
  in
  let oc = open_out path in
  output_string oc
    (to_string (Serve.Envelope.to_json ~status:Serve.Envelope.Ok ~elapsed_s payload)
    ^ "\n");
  close_out oc

(* --- perf ledger: one JSON line per `bench --json` run --- *)

(* Current commit without shelling out: CI exports GITHUB_SHA; a local
   checkout is resolved through .git/HEAD. *)
let current_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when String.trim sha <> "" -> String.trim sha
  | _ -> (
      let read_line_of path =
        if Sys.file_exists path then (
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None))
        else None
      in
      match read_line_of ".git/HEAD" with
      | Some head when String.length head > 5 && String.sub head 0 5 = "ref: "
        -> (
          let r = String.trim (String.sub head 5 (String.length head - 5)) in
          match read_line_of (Filename.concat ".git" r) with
          | Some sha -> sha
          | None -> "unknown")
      | Some sha -> sha
      | None -> "unknown")

(* The ledger is append-only: one record per run with the wall-clock
   economics and every computed bound, so CI can diff consecutive records
   and fail on throughput regressions or silent bound drift. *)
let append_history ~path ~engine_wall_s ~serial_fresh_wall_s
    ~(stats : Sel4_rt.Analysis_cache.stats) ~sim_rep ~explore_rep ~smp_rep =
  let open Json in
  let soak =
    match sim_rep with
    | None -> [ ("soak_entries_per_sec", Null); ("bounds", Obj []) ]
    | Some ((r : Sim.report), (th : Sim.throughput)) ->
        let bounds =
          List.fold_left
            (fun acc rr ->
              if List.mem_assoc rr.Sim.rr_build acc then acc
              else acc @ [ (rr.Sim.rr_build, int rr.Sim.rr_bound) ])
            [] r.Sim.rp_runs
        in
        [
          ("soak_entries_per_sec", Fixed (1, th.Sim.th_entries_per_sec));
          ( "soak_minor_words_per_entry",
            Fixed (2, th.Sim.th_minor_words_per_entry) );
          ("bounds", Obj bounds);
        ]
  in
  let explore r = Obj (explore_totals r) in
  let smp ((sh : Smp.Soak.report), (sp : Smp.Soak.report), cmp) =
    let both f = int (f sh + f sp) in
    Obj
      [
        ("ipi_sent", both (fun r -> r.Smp.Soak.rp_ipi_sent));
        ("ipi_delivered", both (fun r -> r.Smp.Soak.rp_ipi_delivered));
        ("ipi_cancelled", both (fun r -> r.Smp.Soak.rp_ipi_cancelled));
        ("ipi_coalesced", both (fun r -> r.Smp.Soak.rp_ipi_coalesced));
        ("violations", both (fun r -> r.Smp.Soak.rp_violations));
        ("shielded_p999", int cmp.Smp.Soak.cmp_shielded.Sim.ls_p999);
        ("shielded_max", int cmp.Smp.Soak.cmp_shielded.Sim.ls_max);
        ("spread_p999", int cmp.Smp.Soak.cmp_spread.Sim.ls_p999);
        ("spread_max", int cmp.Smp.Soak.cmp_spread.Sim.ls_max);
        ("shielded_tail_lower", Bool cmp.Smp.Soak.cmp_tail_lower);
      ]
  in
  let record =
    Obj
      ([
         ("commit", Str (current_commit ()));
         ("engine_wall_s", seconds engine_wall_s);
         ("serial_fresh_wall_s", seconds serial_fresh_wall_s);
         (* Cold and warm runs both land in the ledger, labelled: comparing
            consecutive records only makes sense within one mode. *)
         ("cache_mode", Str (cache_mode_of stats));
         ( "cache",
           Obj
             [
               ("hits", int stats.Sel4_rt.Analysis_cache.hits);
               ("disk_hits", int stats.Sel4_rt.Analysis_cache.disk_hits);
               ("misses", int stats.Sel4_rt.Analysis_cache.misses);
             ] );
       ]
      @ soak
      @ [
          ("explore", option explore explore_rep); ("smp", option smp smp_rep);
        ])
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (to_string record ^ "\n");
  close_out oc

let () =
  (* The persistent result cache makes repeat bench runs warm-start
     (SEL4RT_NO_DISK_CACHE opts out; the serial-fresh baseline below
     bypasses the whole memo path, disk included). *)
  Serve.Disk_cache.install ();
  let started_s = Wcet.Clock.now_s () in
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  let json = List.mem "--json" flags in
  (match List.filter (fun fl -> fl <> "--json") flags with
  | [] -> ()
  | fl :: _ ->
      Fmt.epr "unknown flag %s (only --json is supported)@." fl;
      exit 1);
  let requested = match names with [] -> List.map fst sections | _ -> names in
  (* Each section starts with fresh hit/miss counters, so the --json report
     can attribute cache behaviour per section; the cumulative view is the
     per-section sum. *)
  let section_times =
    List.map
      (fun name ->
        let f = section_fn name in
        Fmt.pr "==== %s ====@." name;
        Sel4_rt.Analysis_cache.reset_stats ();
        let wall = timed f in
        (name, wall, Sel4_rt.Analysis_cache.stats ()))
      requested
  in
  if json then begin
    let engine_wall_s =
      List.fold_left (fun a (_, t, _) -> a +. t) 0.0 section_times
    in
    let stats =
      List.fold_left
        (fun (a : Sel4_rt.Analysis_cache.stats) (_, _, (s : Sel4_rt.Analysis_cache.stats)) ->
          {
            Sel4_rt.Analysis_cache.hits = a.Sel4_rt.Analysis_cache.hits + s.Sel4_rt.Analysis_cache.hits;
            disk_hits = a.Sel4_rt.Analysis_cache.disk_hits + s.Sel4_rt.Analysis_cache.disk_hits;
            misses = a.Sel4_rt.Analysis_cache.misses + s.Sel4_rt.Analysis_cache.misses;
            prefix_hits = a.Sel4_rt.Analysis_cache.prefix_hits + s.Sel4_rt.Analysis_cache.prefix_hits;
            prefix_misses = a.Sel4_rt.Analysis_cache.prefix_misses + s.Sel4_rt.Analysis_cache.prefix_misses;
          })
        { Sel4_rt.Analysis_cache.hits = 0; disk_hits = 0; misses = 0; prefix_hits = 0; prefix_misses = 0 }
        section_times
    in
    (* The pool size is resolved once per process: SEL4RT_DOMAINS when set,
       otherwise the runtime's recommendation (capped at 8). *)
    let domains = Sel4_rt.Parallel.size (Sel4_rt.Parallel.default ()) in
    let requested_domains =
      Option.bind (Sys.getenv_opt "SEL4RT_DOMAINS") (fun s ->
          int_of_string_opt (String.trim s))
    in
    let recommended_domains = Domain.recommended_domain_count () in
    (* The ILP-size rows are cached by now, so this re-query is free. *)
    let analysis_rows = Sel4_rt.Experiments.analysis_cost () in
    let constraint_rows = Sel4_rt.Experiments.constraint_modes () in
    (* Serial fresh baseline: same sections, one domain, no memoisation. *)
    Sel4_rt.Parallel.set_serial true;
    Sel4_rt.Analysis_cache.set_enabled false;
    let serial_fresh_wall_s =
      silenced (fun () ->
          List.fold_left (fun acc name -> acc +. timed (section_fn name)) 0.0 requested)
    in
    Sel4_rt.Analysis_cache.set_enabled true;
    Sel4_rt.Parallel.set_serial false;
    let warning =
      if domains <= 1 then
        Some
          "parallel and serial baselines both ran on a single domain; the \
           speedup figure does not measure parallelism"
      else None
    in
    (match warning with Some w -> Fmt.epr "warning: %s@." w | None -> ());
    let path = "BENCH_wcet.json" in
    write_json ~path
      ~elapsed_s:(Wcet.Clock.now_s () -. started_s)
      ~section_times ~engine_wall_s ~serial_fresh_wall_s ~stats ~domains
      ~requested_domains ~recommended_domains ~warning ~analysis_rows
      ~constraint_rows ~table2_rows:!table2_rows ~inject_rep:!inject_report
      ~race_rep:!race_report ~explore_rep:!explore_report ~sim_rep:!sim_report
      ~sim_forensics:!sim_forensics ~smp_rep:!smp_reports;
    append_history ~path:"BENCH_history.jsonl" ~engine_wall_s
      ~serial_fresh_wall_s ~stats ~sim_rep:!sim_report
      ~explore_rep:!explore_report ~smp_rep:!smp_reports;
    Fmt.pr "@.engine: %.3fs  serial fresh: %.3fs  speedup: %s  cache \
            %s, hit rate: %.0f%%  (%s)@."
      engine_wall_s serial_fresh_wall_s
      (if domains <= 1 then "n/a (single domain)"
       else Fmt.str "%.1fx" (serial_fresh_wall_s /. engine_wall_s))
      (cache_mode_of stats)
      (100.0 *. Sel4_rt.Analysis_cache.hit_rate stats)
      path
  end
