(* The paper's evaluation, section by section.  Each section computes one
   table or figure serially, one row per kernel entry point, and prints it
   in the paper's layout.  Absolute numbers differ from the paper
   (different substrate), but the shapes — who wins, by what factor, where
   the pessimism comes from — are the reproduction targets recorded in
   EXPERIMENTS.md.  Every computed bound goes through the analysis cache,
   so sections that share an analysis solve it once. *)

let improved = Sel4.Build.improved
let original = Sel4.Build.original

let us = Hw.Config.cycles_to_us
let entries = Kernel_model.entry_points
let name = Kernel_model.entry_name
let computed = Response_time.computed_cycles

let percent part whole = 100.0 *. float_of_int part /. float_of_int whole

(* --- Table 1: WCET with and without cache pinning --- *)

let table1 () =
  let plain = Pinning.context improved in
  let pinned = Pinning.context ~pin:true improved in
  let config = Hw.Config.default in
  Fmt.pr "@.Table 1: improvement in computed WCET from cache pinning@.";
  Fmt.pr "%-24s %14s %14s %8s@." "Event handler" "Without pinning"
    "With pinning" "% gain";
  List.iter
    (fun entry ->
      let without_pinning = computed plain entry in
      let with_pinning = computed pinned entry in
      Fmt.pr "%-24s %12.1f us %12.1f us %7.0f%%@." (name entry)
        (us config without_pinning) (us config with_pinning)
        (percent (without_pinning - with_pinning) without_pinning))
    entries

(* --- Table 2: WCET before and after the changes, L2 off and on --- *)

let table2 () =
  let runs = 15 in
  let off = Hw.Config.default and on = Hw.Config.with_l2 in
  let before_off = Analysis_ctx.make ~build:original () in
  let after_off = Analysis_ctx.make ~build:improved () in
  let after_on = Analysis_ctx.make ~config:on ~build:improved () in
  let rows =
    List.map
      (fun entry ->
        let before = computed before_off entry in
        let off_computed = computed after_off entry in
        (* where the L2-off worst case came from: pollution seed, worst
           non-preemptible section, stall/compute split *)
        let off_observed, prov =
          Workloads.observed_traced ~runs after_off entry
        in
        let on_computed = computed after_on entry in
        let on_observed = Workloads.observed ~runs after_on entry in
        ( entry, before, (off_computed, off_observed),
          (on_computed, on_observed), prov ))
      entries
  in
  let ratio (c, o) = float_of_int c /. float_of_int o in
  Fmt.pr "@.Table 2: WCET per kernel entry point, before and after@.";
  Fmt.pr "%-22s | %10s | %10s %10s %6s | %10s %10s %6s@." "Event handler"
    "Before" "Computed" "Observed" "Ratio" "Computed" "Observed" "Ratio";
  Fmt.pr "%-22s | %10s | %21s %6s  | %21s %6s@." "" "L2 off" "after, L2 off" ""
    "after, L2 on" "";
  List.iter
    (fun (entry, before, after_off, after_on, _) ->
      Fmt.pr "%-22s | %8.1fus | %8.1fus %8.1fus %6.2f | %8.1fus %8.1fus %6.2f@."
        (name entry) (us off before)
        (us off (fst after_off)) (us off (snd after_off)) (ratio after_off)
        (us on (fst after_on)) (us on (snd after_on)) (ratio after_on))
    rows;
  Fmt.pr "Observed worst-case provenance (L2 off):@.";
  List.iter
    (fun (_, _, _, _, prov) -> Fmt.pr "  %a@." Workloads.pp_provenance prov)
    rows

(* --- Figure 7 scenario: decode depth sweep --- *)

let fig7 () =
  Fmt.pr "@.Figure 7 scenario: observed syscall cost vs capability-space depth@.";
  Fmt.pr "%8s %14s@." "Depth" "Cycles";
  List.iter
    (fun depth ->
      (* Shallow spaces cannot host the full complement of extra caps. *)
      let params =
        {
          Kernel_model.default_params with
          Kernel_model.decode_depth = depth;
          Kernel_model.extra_caps =
            min Kernel_model.default_params.Kernel_model.extra_caps
              (max 0 (depth - 1));
        }
      in
      Fmt.pr "%8d %14d@." depth
        (Workloads.observed ~runs:8
           (Analysis_ctx.make ~params ~build:improved ())
           Kernel_model.Syscall))
    [ 1; 2; 4; 8; 16; 32 ]

(* --- Figure 8: overestimation of the hardware model on forced paths --- *)

let fig8 () =
  let off = Analysis_ctx.make ~build:improved () in
  let on = Analysis_ctx.make ~config:Hw.Config.with_l2 ~build:improved () in
  let overestimation ctx entry =
    let predicted = Response_time.computed_for_path ctx entry in
    let observed = Workloads.observed ~runs:15 ctx entry in
    percent (predicted - observed) observed
  in
  Fmt.pr "@.Figure 8: overestimation of the hardware model (forced paths)@.";
  Fmt.pr "%-24s %12s %12s@." "Path" "L2 off" "L2 on";
  List.iter
    (fun entry ->
      let l2_off = overestimation off entry in
      let l2_on = overestimation on entry in
      Fmt.pr "%-24s %11.0f%% %11.0f%%@." (name entry) l2_off l2_on)
    entries

(* --- Figure 9: observed effect of the L2 cache and branch predictor --- *)

let fig9 () =
  let observed config entry =
    Workloads.observed ~runs:15
      (Analysis_ctx.make ~config ~build:improved ())
      entry
  in
  Fmt.pr "@.Figure 9: observed worst cases, normalised to the baseline@.";
  Fmt.pr "%-24s %9s %9s %9s %9s@." "Path" "Baseline" "+L2" "+B-pred" "+both";
  List.iter
    (fun entry ->
      let baseline = observed Hw.Config.baseline entry in
      let n config =
        float_of_int (observed config entry) /. float_of_int baseline
      in
      let l2 = n Hw.Config.with_l2 in
      let bpred = n Hw.Config.with_branch_predictor in
      let both = n Hw.Config.with_l2_and_branch_predictor in
      Fmt.pr "%-24s %9.2f %9.2f %9.2f %9.2f@." (name entry) 1.0 l2 bpred both)
    entries

(* --- Scheduler ablation (Sections 3.1-3.2) --- *)

(* Cost of the scheduling decision that has to clean up [parked] stale
   blocked threads under lazy scheduling (they sit behind a runnable
   worker until it is suspended). *)
let sched_decision_cycles build ~parked =
  let module K = Sel4.Kernel in
  let module B = Sel4.Boot in
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu build in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let w = B.spawn_thread env ~priority:140 ~dest:11 in
  B.make_runnable env w;
  let threads =
    List.init parked (fun i -> B.spawn_thread env ~priority:140 ~dest:(20 + i))
  in
  List.iter (B.make_runnable env) threads;
  List.iter
    (fun t ->
      K.force_run env.B.k t;
      match
        K.kernel_entry env.B.k
          (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true })
      with
      | K.Completed -> ()
      | _ -> failwith "sched ablation: send failed")
    threads;
  K.force_run env.B.k env.B.root_tcb;
  (match
     K.kernel_entry env.B.k (K.Ev_invoke (K.Inv_tcb_suspend { target = 11 }))
   with
  | K.Completed -> ()
  | _ -> failwith "sched ablation: suspend failed");
  let before = K.cycles env.B.k in
  K.raise_irq env.B.k K.timer_irq;
  ignore (K.kernel_entry env.B.k K.Ev_interrupt);
  K.cycles env.B.k - before

let sched_ablation () =
  Fmt.pr "@.Scheduler ablation: timer-tick scheduling cost vs parked threads@.";
  Fmt.pr "%8s %12s %12s %14s@." "Parked" "Lazy" "Benno" "Benno+bitmap";
  List.iter
    (fun parked ->
      let cycles s =
        sched_decision_cycles { improved with Sel4.Build.sched = s } ~parked
      in
      let lazy_cycles = cycles Sel4.Build.Lazy in
      let benno_cycles = cycles Sel4.Build.Benno in
      let bitmap_cycles = sched_decision_cycles improved ~parked in
      Fmt.pr "%8d %12d %12d %14d@." parked lazy_cycles benno_cycles
        bitmap_cycles)
    (* capped by root-CNode capacity: slots 20.. hold the parked threads *)
    [ 0; 16; 64; 200 ]

(* --- Loop bounds (Section 5.3) --- *)

let loop_bounds () =
  Kernel_loops.catalogue
    ~max_frame_bytes:(1 lsl Kernel_model.default_params.Kernel_model.max_frame_bits)
    ~chunk:improved.Sel4.Build.preempt_chunk

let loopbounds () =
  Fmt.pr "@.Automatically computed loop bounds (Section 5.3)@.";
  List.iter (fun r -> Fmt.pr "  %a@." Kernel_loops.pp_result r) (loop_bounds ())

(* --- Analysis cost and the constraint-iteration story (Section 6.3) --- *)

let analysis () =
  let ctx = Analysis_ctx.default in
  Fmt.pr "@.Analysis cost per entry point (Section 6.3 analogue)@.";
  Fmt.pr "%-24s %6s %7s %6s %6s %8s %12s %12s@." "Entry" "vars" "cstrs"
    "nodes" "LPs" "time" "no-cstr WCET" "final WCET";
  List.iter
    (fun entry ->
      let r = Analysis_cache.computed ctx entry in
      (* before the manual constraints *)
      let unconstrained = Analysis_cache.computed ~sources:`None ctx entry in
      Fmt.pr "%-24s %6d %7d %6d %6d %7.2fs %12d %12d@." (name entry)
        r.Wcet.Ipet.ilp_vars r.Wcet.Ipet.ilp_constraints r.Wcet.Ipet.bb_nodes
        r.Wcet.Ipet.lp_solves r.Wcet.Ipet.elapsed_s
        unconstrained.Wcet.Ipet.wcet r.Wcet.Ipet.wcet)
    entries

(* --- WCET by constraint source: the Section 5.2 manual set vs the
   constraints Derive_constraints extracts from the decision models.
   Combined = manual + non-duplicate derived (the spec default). --- *)

let constraints () =
  let ctx = Analysis_ctx.default in
  let wcet ?sources entry =
    (Analysis_cache.computed ?sources ctx entry).Wcet.Ipet.wcet
  in
  Fmt.pr "@.WCET by constraint source (manual Section 5.2 vs derived)@.";
  Fmt.pr "%-24s %12s %12s %12s %12s %5s %5s %11s@." "Entry" "none" "manual"
    "derived" "combined" "#man" "#drv" "P/R/U";
  List.iter
    (fun entry ->
      let report =
        Kernel_model.constraint_report ~main:(Kernel_model.entry_main entry) ()
      in
      let audit = report.Wcet.Derive_constraints.rep_audit in
      let verdicts v =
        List.length
          (List.filter
             (fun (l : Wcet.Derive_constraints.audit_line) ->
               l.Wcet.Derive_constraints.al_verdict = v)
             audit)
      in
      Fmt.pr "%-24s %12d %12d %12d %12d %5d %5d %5d/%d/%d@." (name entry)
        (wcet ~sources:`None entry) (wcet ~sources:`Manual entry)
        (wcet ~sources:`Derived entry) (wcet entry) (List.length audit)
        (List.length report.Wcet.Derive_constraints.rep_derived)
        (verdicts Wcet.Derive_constraints.Proved)
        (verdicts Wcet.Derive_constraints.Refuted)
        (verdicts Wcet.Derive_constraints.Unknown))
    entries

(* --- IPC fastpath (Section 6.1) --- *)

(* Warm ping-pong: the cycles of one client call of [msg_len] words after
   five warm-up round trips.  A 2-word call takes the fastpath; lengthening
   the message past the fastpath limit forces the slowpath. *)
let warm_call_cycles msg_len =
  let module K = Sel4.Kernel in
  let module B = Sel4.Boot in
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let server = B.spawn_thread env ~priority:150 ~dest:11 in
  let client = B.spawn_thread env ~priority:120 ~dest:12 in
  B.make_runnable env server;
  B.make_runnable env client;
  let entry tcb ev =
    K.force_run env.B.k tcb;
    ignore (K.kernel_entry env.B.k ev)
  in
  entry server (K.Ev_recv { ep = 10 });
  for _ = 1 to 5 do
    entry client
      (K.Ev_call { ep = 10; badge_hint = 0; msg_len; extra_caps = [] });
    entry server (K.Ev_reply_recv { ep = 10; msg_len = 1 })
  done;
  let before = K.cycles env.B.k in
  entry client (K.Ev_call { ep = 10; badge_hint = 0; msg_len; extra_caps = [] });
  K.cycles env.B.k - before

(* "fastpaths ... improve the performance of common IPC operations by an
   order of magnitude" is about cold caches; warm, the structural gap is
   what we show here. *)
let fastpath () =
  let fast = warm_call_cycles 2 in
  let slow = warm_call_cycles 5 in
  Fmt.pr "@.IPC fastpath ablation (Section 6.1)@.";
  Fmt.pr "  fastpath call (2 words):  %4d cycles (paper: 200-250)@." fast;
  Fmt.pr "  slowpath call (5 words):  %4d cycles (%.1fx)@." slow
    (float_of_int slow /. float_of_int fast)

(* --- Summary (Section 6 headline numbers) --- *)

let summary () =
  let fastpath_cycles = warm_call_cycles 2 in
  let before_ctx = Analysis_ctx.make ~build:original () in
  let after_ctx = Analysis_ctx.make ~build:improved () in
  let after_l2 = Analysis_ctx.make ~config:Hw.Config.with_l2 ~build:improved () in
  let syscall_factor =
    float_of_int (computed before_ctx Kernel_model.Syscall)
    /. float_of_int (computed after_ctx Kernel_model.Syscall)
  in
  let response_off = Response_time.interrupt_response_bound after_ctx in
  let response_on = Response_time.interrupt_response_bound after_l2 in
  let interrupt_observed, interrupt_prov =
    Workloads.observed_traced after_ctx Kernel_model.Interrupt
  in
  Fmt.pr "@.Headline results (Section 6)@.";
  Fmt.pr "  IPC fastpath: %d cycles (paper: 200-250)@." fastpath_cycles;
  Fmt.pr "  System-call WCET improvement, before/after: %.1fx (paper: 11.6x)@."
    syscall_factor;
  Fmt.pr "  Worst-case interrupt response: %.1f us (L2 off), %.1f us (L2 on)@."
    (us Hw.Config.default response_off)
    (us Hw.Config.with_l2 response_on);
  Fmt.pr "  (paper: 356 us L2 off, 481 us L2 on)@.";
  Fmt.pr "  Observed interrupt path: %d cycles [%a]@." interrupt_observed
    Workloads.pp_provenance interrupt_prov

(* --- L2 kernel lockdown (Section 8 future work) --- *)

let l2lock () =
  let locked_config =
    Hw.Config.with_l2_lock ~base:Sel4.Layout.text_base
      ~bytes:Sel4.Layout.text_bytes Hw.Config.with_l2
  in
  let plain = Analysis_ctx.make ~config:Hw.Config.with_l2 ~build:improved () in
  let locked = Analysis_ctx.make ~config:locked_config ~build:improved () in
  Fmt.pr "@.Section 8 extension: kernel text locked into the L2 cache@.";
  Fmt.pr "%-24s %12s %12s %12s@." "Entry" "L2 on" "L2 locked" "Observed";
  List.iter
    (fun entry ->
      let l2_plain = computed plain entry in
      let l2_locked = computed locked entry in
      let observed = Workloads.observed ~runs:10 locked entry in
      Fmt.pr "%-24s %12d %12d %12d@." (name entry) l2_plain l2_locked observed)
    entries;
  let bound = Response_time.interrupt_response_bound locked in
  Fmt.pr
    "Interrupt response bound with the kernel locked in: %d cycles (%.1f us)@."
    bound (us locked_config bound);
  Fmt.pr "(The paper conjectures ~50,000 cycles is attainable this way.)@."

(* --- Section 6.1 ablation: preemptible atomic send-receive --- *)

(* "The execution time of this operation could be almost halved ... by
   inserting a preemption point between the send and receive phases." *)
let callpreempt () =
  let syscall params =
    computed (Analysis_ctx.make ~params ~build:improved ()) Kernel_model.Syscall
  in
  let atomic = syscall Kernel_model.default_params in
  let preemptible =
    syscall
      { Kernel_model.default_params with Kernel_model.preemptible_call = true }
  in
  Fmt.pr "@.Section 6.1 ablation: preemption point between IPC phases@.";
  Fmt.pr "  atomic send-receive WCET:      %d cycles@." atomic;
  Fmt.pr "  with inter-phase preemption:   %d cycles (%.0f%% of atomic)@."
    preemptible (percent preemptible atomic);
  Fmt.pr "  (the paper predicts the operation could be almost halved)@."

(* --- Replacement-policy comparison (Section 5.1) --- *)

(* The ARM1136 replaces round-robin, which the paper's tools cannot model
   directly; the one-way conservative analysis is sound for either policy.
   Here both executions run under the same bound. *)
let replacement () =
  let lru = Analysis_ctx.make ~build:improved () in
  let rr =
    Analysis_ctx.make
      ~config:
        { Hw.Config.default with Hw.Config.replacement = Hw.Config.Round_robin }
      ~build:improved ()
  in
  Fmt.pr "@.Replacement policy (Section 5.1): observed under LRU vs round-robin@.";
  Fmt.pr "%-24s %10s %12s %12s@." "Entry" "LRU" "Round-robin" "Bound";
  List.iter
    (fun entry ->
      let lru_observed = Workloads.observed ~runs:10 lru entry in
      let rr_observed = Workloads.observed ~runs:10 rr entry in
      Fmt.pr "%-24s %10d %12d %12d@." (name entry) lru_observed rr_observed
        (computed lru entry))
    entries;
  Fmt.pr "(the one-way conservative model is sound for both policies)@."

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("sched", sched_ablation);
    ("loopbounds", loopbounds);
    ("analysis", analysis);
    ("constraints", constraints);
    ("summary", summary);
    ("l2lock", l2lock);
    ("callpreempt", callpreempt);
    ("fastpath", fastpath);
    ("replacement", replacement);
  ]
