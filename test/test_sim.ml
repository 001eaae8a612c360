(* The soak simulator: the validation gate holds on a small campaign, and
   a campaign is a pure function of its seed — byte-identical whether the
   shards run serially or across domains. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One small two-scenario campaign, reused across the tests below (the
   engine is deterministic, so recomputing it is just wall-clock). *)
let small ?pool ?seed () =
  fst
    (Sim.run_campaign_timed ?pool ?seed ~entries:1_200
       ~only:[ "ipc_pingpong"; "untyped_churn" ]
       ())

let test_gate_holds () =
  let r = small () in
  check_bool "campaign ok" true r.Sim.rp_ok;
  check_int "two scenarios x four builds" 8 (List.length r.Sim.rp_runs);
  List.iter
    (fun rr ->
      check_int
        (Fmt.str "%s/%s entries" rr.Sim.rr_scenario rr.Sim.rr_build)
        1_200 rr.Sim.rr_entries;
      check_bool "no violations" true (rr.Sim.rr_violations = []);
      check_bool "no invariant failures" true
        (rr.Sim.rr_invariant_failures = []);
      check_bool "interrupts delivered" true (rr.Sim.rr_deliveries > 0);
      check_bool "bound positive" true (rr.Sim.rr_bound > 0))
    r.Sim.rp_runs

let test_latency_stats_ordered () =
  let r = small () in
  List.iter
    (fun rr ->
      let s = rr.Sim.rr_latency in
      if s.Sim.ls_count > 0 then begin
        check_bool "min <= p50" true (s.Sim.ls_min <= s.Sim.ls_p50);
        check_bool "p50 <= p90" true (s.Sim.ls_p50 <= s.Sim.ls_p90);
        check_bool "p90 <= p99" true (s.Sim.ls_p90 <= s.Sim.ls_p99);
        check_bool "p99 <= p99.9" true (s.Sim.ls_p99 <= s.Sim.ls_p999);
        check_bool "p99.9 <= max" true (s.Sim.ls_p999 <= s.Sim.ls_max);
        check_bool "max within bound" true (s.Sim.ls_max <= rr.Sim.rr_bound);
        check_int "bucket counts sum to count" s.Sim.ls_count
          (List.fold_left (fun a (_, c) -> a + c) 0 s.Sim.ls_buckets)
      end)
    r.Sim.rp_runs

let test_same_seed_identical () =
  let a = Sim.report_json (small ()) in
  let b = Sim.report_json (small ()) in
  check_bool "same seed, identical report" true (a = b);
  let c = Sim.report_json (small ~seed:1 ()) in
  check_bool "different seed, different traffic" true (a <> c)

let test_serial_equals_parallel () =
  let serial =
    Sim.report_json (small ~pool:(Sel4_rt.Parallel.create ~domains:1 ()) ())
  in
  let parallel = Sim.report_json (small ()) in
  check_bool "byte-identical across domain counts" true (serial = parallel)

let test_scheduler_differential () =
  (* Same seed, same scenarios: every scheduler variant and the pinned
     build must pass the gate, and the per-build bounds must reflect the
     paper's ordering (lazy >= benno >= bitmap >= bitmap+pin). *)
  let r = small () in
  let bound_of label =
    match
      List.find_opt (fun rr -> rr.Sim.rr_build = label) r.Sim.rp_runs
    with
    | Some rr -> rr.Sim.rr_bound
    | None -> Alcotest.failf "missing build %s" label
  in
  check_bool "lazy bound dominates benno" true
    (bound_of "lazy" >= bound_of "benno");
  check_bool "benno bound dominates bitmap" true
    (bound_of "benno" >= bound_of "benno_bitmap");
  check_bool "pinning tightens the bound" true
    (bound_of "benno_bitmap" >= bound_of "benno_bitmap+pin")

(* The determinism contract, pinned to bytes: the seed-42 smoke report
   committed in sim_smoke_report.golden.json must be reproduced exactly,
   whatever the domain count, shard-merge strategy or invariant sampling
   period.  Any optimisation of the kernel-entry hot path that changes
   cache evolution, cycle accounting or PRNG order fails this test. *)
(* Declared as a dune dep, so it sits next to the built test binary
   (which is where [dune runtest] runs; [dune exec] may run elsewhere). *)
let golden_fixture =
  let beside_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "sim_smoke_report.golden.json"
  in
  if Sys.file_exists beside_exe then beside_exe
  else "sim_smoke_report.golden.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_smoke_report () =
  let golden = read_file golden_fixture in
  let actual = Sim.report_json (fst (Sim.run_campaign_timed ~smoke:true ())) in
  check_bool "seed-42 smoke report matches the committed golden bytes" true
    (actual = golden)

(* "stream equals collect": the streaming ordered fold merges shards in
   submission order whatever order they finish in, so a pool of four
   domains must give the same bytes as a pool of one, which runs the
   shards one after another. *)
let test_one_equals_four_domains () =
  let report domains =
    let pool = Sel4_rt.Parallel.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Sel4_rt.Parallel.shutdown pool)
      (fun () -> Sim.report_json (small ~pool ()))
  in
  check_bool "1 domain = 4 domains" true (report 1 = report 4)

(* Invariant checks charge no simulated cycles: the sampling period must
   never leak into the report bytes. *)
let test_inv_every_invisible () =
  let json inv_every =
    Sim.report_json
      (fst
         (Sim.run_campaign_timed ~entries:1_200 ~only:[ "ipc_pingpong" ]
            ~inv_every ()))
  in
  check_bool "inv-every 64 = inv-every 512" true (json 64 = json 512);
  check_bool "inv-every off = inv-every 512" true (json 0 = json 512)

(* Forensics is pure observation: pass 1 tracks the worst deliveries
   without drawing from the PRNG or charging cycles, pass 2 replays in
   separate shard instances — so the smoke report must stay byte-identical
   to the committed golden fixture with forensics enabled. *)
let test_forensics_golden_identity () =
  let golden = read_file golden_fixture in
  let report, _, forensics = Sim.run_campaign_forensics ~smoke:true () in
  check_bool "forensics leaves the smoke report byte-identical" true
    (Sim.report_json report = golden);
  let tail = forensics.Sim.fo_tail in
  check_bool "tail report non-empty" true
    (tail.Obs.Tail_report.t_deliveries <> []);
  List.iter
    (fun (d : Obs.Tail_report.delivery) ->
      check_bool "window captured" true (d.Obs.Tail_report.d_window <> []);
      check_bool "sections sum to latency" true
        (List.fold_left
           (fun a (_, c) -> a + c)
           0 d.Obs.Tail_report.d_sections
        = d.Obs.Tail_report.d_latency);
      check_bool "delivery event inside window" true
        (List.exists
           (fun (e : Obs.Trace.event) ->
             match e.Obs.Trace.kind with
             | Obs.Trace.Irq_deliver { line; latency } ->
                 line = d.Obs.Tail_report.d_line
                 && latency = d.Obs.Tail_report.d_latency
                 && e.Obs.Trace.at = d.Obs.Tail_report.d_delivered_at
             | _ -> false)
           d.Obs.Tail_report.d_window))
    tail.Obs.Tail_report.t_deliveries

(* The replayed worst window must agree with pass 1's measurements, and
   the gap report must align it against the bound decomposition. *)
let test_forensics_gap_alignment () =
  let report, _, forensics =
    Sim.run_campaign_forensics ~entries:1_200
      ~only:[ "ipc_pingpong"; "untyped_churn" ]
      ()
  in
  check_bool "one gap per run" true
    (List.length forensics.Sim.fo_gaps = List.length report.Sim.rp_runs);
  List.iter
    (fun (g : Obs.Gap_report.t) ->
      let rr =
        List.find
          (fun rr ->
            rr.Sim.rr_scenario = g.Obs.Gap_report.g_scenario
            && rr.Sim.rr_build = g.Obs.Gap_report.g_build)
          report.Sim.rp_runs
      in
      check_int "gap bound = run bound" rr.Sim.rr_bound
        g.Obs.Gap_report.g_bound;
      check_int "gap observed = run single-outstanding max"
        rr.Sim.rr_latency.Sim.ls_max g.Obs.Gap_report.g_observed_max;
      check_int "headroom arithmetic"
        (g.Obs.Gap_report.g_bound - g.Obs.Gap_report.g_observed_max)
        g.Obs.Gap_report.g_headroom;
      check_bool "charged funcs cover the bound" true
        (List.fold_left
           (fun a (f : Obs.Gap_report.func_gap) ->
             a + f.Obs.Gap_report.g_bound_cycles)
           0 g.Obs.Gap_report.g_funcs
        = g.Obs.Gap_report.g_bound);
      check_bool "unexecuted cycles consistent" true
        (List.fold_left
           (fun a (f : Obs.Gap_report.func_gap) ->
             if f.Obs.Gap_report.g_executed then a
             else a + f.Obs.Gap_report.g_bound_cycles)
           0 g.Obs.Gap_report.g_funcs
        = g.Obs.Gap_report.g_unexecuted_cycles))
    forensics.Sim.fo_gaps;
  (* every build variant got a decomposition, and each sums to its bound *)
  List.iter
    (fun (label, p) ->
      let rr = List.find (fun rr -> rr.Sim.rr_build = label) report.Sim.rp_runs in
      check_bool
        (Fmt.str "profile %s exact" label)
        true
        (Obs.Bound_profile.exact p);
      check_int
        (Fmt.str "profile %s total = bound" label)
        rr.Sim.rr_bound
        (Obs.Bound_profile.total p))
    forensics.Sim.fo_profiles

let test_report_json_shape () =
  let r = small () in
  let json = Sim.report_json r in
  check_bool "has seed" true
    (String.length json > 2 && json.[0] = '{');
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
        scan 0
      in
      check_bool (Fmt.str "json mentions %s" needle) true found)
    [
      "\"ok\": true";
      "\"scenario\": \"ipc_pingpong\"";
      "\"build\": \"benno_bitmap+pin\"";
      "\"p99\"";
      "\"margin_percent\"";
      "\"buckets\"";
    ]

let () =
  Alcotest.run "sim"
    [
      ( "soak",
        Alcotest.
          [
            test_case "gate holds" `Quick test_gate_holds;
            test_case "latency stats ordered" `Quick test_latency_stats_ordered;
            test_case "same seed identical" `Quick test_same_seed_identical;
            test_case "serial equals parallel" `Slow test_serial_equals_parallel;
            test_case "scheduler differential" `Quick test_scheduler_differential;
            test_case "golden smoke report" `Slow test_golden_smoke_report;
            test_case "stream equals collect" `Slow
              test_one_equals_four_domains;
            test_case "inv-every invisible" `Quick test_inv_every_invisible;
            test_case "forensics golden identity" `Slow
              test_forensics_golden_identity;
            test_case "forensics gap alignment" `Slow
              test_forensics_gap_alignment;
            test_case "report json shape" `Quick test_report_json_shape;
          ] );
    ]
