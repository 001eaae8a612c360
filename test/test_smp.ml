(* The SMP model: per-core worlds coupled through the IPI fabric.  The
   engine is deterministic at every core count, affinity routing never
   leaks a line onto a non-affine core, the shielded core's bound and
   observed tail sit strictly below the unshielded ones, and the fabric's
   delivery invariant (every accepted IPI delivered or cancelled)
   closes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let small ?(seed = 7) ~cores ~policy () =
  Smp.Soak.run ~seed ~entries:400 ~smoke:true ~cores ~policy ()

(* --- topology and routing --- *)

let test_routing_exhaustive () =
  List.iter
    (fun cores ->
      List.iter
        (fun policy ->
          let topo = Smp.Topology.make ~cores ~policy in
          for line = 0 to Sel4.Kernel.num_irqs - 1 do
            let c = Smp.Topology.route_line topo ~line in
            check_bool "routed core in range" true (c >= 0 && c < cores);
            match policy with
            | Smp.Topology.Shielded ->
                check_int "shielded routes everything to core 0" 0 c
            | Smp.Topology.Spread ->
                check_int "spread routes modulo" (line mod cores) c
          done;
          (* tenant placement: only tenant cores, all tenants placed *)
          let tenant_cores = Smp.Topology.tenant_cores topo in
          List.iter
            (fun total ->
              let counts = Smp.Topology.place_tenants topo ~total in
              check_int "all tenants placed" total
                (Array.fold_left ( + ) 0 counts);
              Array.iteri
                (fun c n ->
                  if n > 0 then
                    check_bool "tenants only on tenant cores" true
                      (List.mem c tenant_cores))
                counts)
            [ 0; 1; 3; 4; 6; 17 ];
          if policy = Smp.Topology.Shielded && cores > 1 then begin
            check_bool "core 0 shielded from tenants" true
              (not (List.mem 0 tenant_cores));
            check_bool "core 0 receives no IPIs" true
              (not (Smp.Topology.receives_ipis topo ~core:0))
          end)
        [ Smp.Topology.Spread; Smp.Topology.Shielded ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Run-level version of the same property: a core's world only contains
   the device lines the topology routes to it, so no delivery can ever
   land elsewhere (devices are bound inside the per-core kernel). *)
let test_routing_in_reports () =
  List.iter
    (fun policy ->
      let r = small ~cores:4 ~policy () in
      List.iter
        (fun sr ->
          Array.iter
            (fun cr ->
              List.iter
                (fun line ->
                  let topo = Smp.Topology.make ~cores:4 ~policy in
                  check_int "line on its affine core"
                    (Smp.Topology.route_line topo ~line)
                    cr.Smp.Soak.cr_core)
                cr.Smp.Soak.cr_lines)
            sr.Smp.Soak.sr_cores)
        r.Smp.Soak.rp_scenarios)
    [ Smp.Topology.Spread; Smp.Topology.Shielded ]

(* --- determinism --- *)

let test_determinism () =
  List.iter
    (fun (cores, policy) ->
      let a = small ~cores ~policy () in
      let b = small ~cores ~policy () in
      check_string
        (Fmt.str "same seed, same report (%d cores, %s)" cores
           (Smp.Topology.policy_name policy))
        (Smp.Soak.report_json a) (Smp.Soak.report_json b))
    [
      (1, Smp.Topology.Spread);
      (2, Smp.Topology.Spread);
      (4, Smp.Topology.Spread);
      (4, Smp.Topology.Shielded);
    ]

(* --- the single-core degenerate case --- *)

let test_single_core_degenerate () =
  let r = small ~cores:1 ~policy:Smp.Topology.Spread () in
  check_int "no IPIs on one core" 0 r.Smp.Soak.rp_ipi_sent;
  check_int "no coalesced IPIs either" 0 r.Smp.Soak.rp_ipi_coalesced;
  List.iter
    (fun sr ->
      Array.iter
        (fun cr ->
          let b = cr.Smp.Soak.cr_bound in
          check_int "no send term" 0 b.Smp.Bound.b_send;
          check_int "no recv term" 0 b.Smp.Bound.b_recv;
          check_int "no contention term" 0 b.Smp.Bound.b_contention;
          check_int "bound degenerates to the single-core bound"
            r.Smp.Soak.rp_base_bound b.Smp.Bound.b_total)
        sr.Smp.Soak.sr_cores)
    r.Smp.Soak.rp_scenarios

(* --- per-core bounds --- *)

let test_bound_ordering () =
  let base = 50_000 in
  let sh = Smp.Topology.make ~cores:4 ~policy:Smp.Topology.Shielded in
  let sp = Smp.Topology.make ~cores:4 ~policy:Smp.Topology.Spread in
  let b_sh0 = Smp.Bound.per_core sh ~base ~core:0 in
  let b_sh1 = Smp.Bound.per_core sh ~base ~core:1 in
  let b_sp0 = Smp.Bound.per_core sp ~base ~core:0 in
  check_int "shielded core has no inbound-IPI term" 0 b_sh0.Smp.Bound.b_recv;
  check_bool "tenant core pays the inbound term" true
    (b_sh1.Smp.Bound.b_recv > 0);
  check_bool "shielded core bound strictly below its spread counterpart" true
    (b_sh0.Smp.Bound.b_total < b_sp0.Smp.Bound.b_total);
  check_bool "every multicore bound exceeds the base" true
    (b_sh0.Smp.Bound.b_total > base);
  check_bool "contention term from the interference matrix" true
    (b_sp0.Smp.Bound.b_contention
    = List.length (Smp.Bound.interfering_pairs ())
      * Sel4.Costs.remote_line_transfer_cycles)

(* --- the fabric delivery invariant --- *)

let test_fabric_accounting () =
  let f = Smp.Fabric.create ~cores:3 in
  check_bool "accepted" true (Smp.Fabric.send f ~src:0 ~dst:1 Smp.Fabric.Resched);
  check_bool "second send coalesces" false
    (Smp.Fabric.send f ~src:2 ~dst:1 Smp.Fabric.Resched);
  check_bool "different kind is independent" true
    (Smp.Fabric.send f ~src:0 ~dst:1 Smp.Fabric.Tlb_shootdown);
  check_bool "different dst is independent" true
    (Smp.Fabric.send f ~src:0 ~dst:2 Smp.Fabric.Resched);
  check_int "sent" 3 (Smp.Fabric.sent f);
  check_int "coalesced" 1 (Smp.Fabric.coalesced f);
  check_int "in flight" 3 (Smp.Fabric.in_flight f);
  check_bool "mid-run check passes with traffic in flight" true
    (Result.is_ok (Smp.Fabric.check ~final:false f));
  check_bool "final check fails with traffic in flight" true
    (Result.is_error (Smp.Fabric.check ~final:true f));
  Smp.Fabric.note_delivered f ~dst:1 Smp.Fabric.Resched;
  check_bool "slot free again after delivery" true
    (Smp.Fabric.send f ~src:2 ~dst:1 Smp.Fabric.Resched);
  Smp.Fabric.note_delivered f ~dst:1 Smp.Fabric.Resched;
  Smp.Fabric.note_delivered f ~dst:1 Smp.Fabric.Tlb_shootdown;
  check_int "cancel sweeps the rest" 1 (Smp.Fabric.cancel_outstanding f ~dst:2);
  check_bool "final invariant closes" true
    (Result.is_ok (Smp.Fabric.check ~final:true f));
  check_int "delivered + cancelled = sent" (Smp.Fabric.sent f)
    (Smp.Fabric.delivered f + Smp.Fabric.cancelled f)

(* --- migration/affinity invariants --- *)

let test_affinity_invariant_bites () =
  let k = Sel4.Kernel.create ~cpu_id:2 Sel4.Build.improved in
  Sel4.Invariants.check_affinity k;
  (* break it: claim the running thread belongs to another core *)
  k.Sel4.Kernel.current.Sel4.Ktypes.tcb_affinity <- 0;
  check_bool "wrong-core thread detected" true
    (match Sel4.Invariants.check_affinity k with
    | () -> false
    | exception Sel4.Invariants.Violation _ -> true)

let test_smp_soak_invariants_clean () =
  let r =
    Smp.Soak.run ~seed:11 ~entries:400 ~smoke:true ~inv_every:50 ~cores:4
      ~policy:Smp.Topology.Shielded ()
  in
  check_int "no invariant failures under sampling" 0
    r.Smp.Soak.rp_invariant_failures;
  check_int "no bound violations" 0 r.Smp.Soak.rp_violations;
  check_bool "fabric closed" true
    (List.for_all
       (fun sr -> sr.Smp.Soak.sr_fabric_error = None)
       r.Smp.Soak.rp_scenarios)

(* --- cross-core traffic actually flows --- *)

let test_ipis_flow () =
  let r = small ~cores:4 ~policy:Smp.Topology.Spread () in
  check_bool "IPIs were sent" true (r.Smp.Soak.rp_ipi_sent > 0);
  check_bool "IPIs were delivered" true (r.Smp.Soak.rp_ipi_delivered > 0);
  check_int "delivery invariant: sent = delivered + cancelled"
    r.Smp.Soak.rp_ipi_sent
    (r.Smp.Soak.rp_ipi_delivered + r.Smp.Soak.rp_ipi_cancelled);
  (* shielded: core 0 sends but never receives *)
  let s = small ~cores:4 ~policy:Smp.Topology.Shielded () in
  check_bool "shielded run sends IPIs" true (s.Smp.Soak.rp_ipi_sent > 0);
  List.iter
    (fun sr ->
      check_int "shielded core receives no IPIs" 0
        sr.Smp.Soak.sr_cores.(0).Smp.Soak.cr_ipi_delivered)
    s.Smp.Soak.rp_scenarios

(* --- the headline: shielding buys tail latency --- *)

let test_shielded_tail_lower () =
  let shielded, spread, cmp =
    Smp.Soak.run_compare ~seed:42 ~entries:1_200 ~smoke:true ~cores:4 ()
  in
  check_bool "shielded run ok" true shielded.Smp.Soak.rp_ok;
  check_bool "spread run ok" true spread.Smp.Soak.rp_ok;
  check_bool "tails populated" true
    (cmp.Smp.Soak.cmp_shielded.Sim.ls_count > 0
    && cmp.Smp.Soak.cmp_spread.Sim.ls_count > 0);
  check_bool "shielded p99.9 and max strictly lower" true
    cmp.Smp.Soak.cmp_tail_lower

(* The SMP engine's output pinned to bytes, as the single-core soak is
   by sim_smoke_report.golden.json: the seed-42 smoke shielded and spread
   reports on 4 cores plus their comparison.  The fixture is a dune dep,
   so it sits next to the built test binary. *)
let golden_fixture =
  let name = "smp_smoke_report.golden.json" in
  let beside_exe = Filename.concat (Filename.dirname Sys.executable_name) name in
  if Sys.file_exists beside_exe then beside_exe else name

let test_golden_smoke_report () =
  let golden =
    In_channel.with_open_bin golden_fixture In_channel.input_all
  in
  let shielded, spread, cmp =
    Smp.Soak.run_compare ~seed:42 ~smoke:true ~cores:4 ()
  in
  let actual =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("shielded", Smp.Soak.report_to_json shielded);
           ("spread", Smp.Soak.report_to_json spread);
           ("comparison", Smp.Soak.comparison_to_json cmp);
         ])
  in
  check_bool "seed-42 smoke 4-core reports match the committed golden bytes"
    true (actual = golden)

let () =
  Alcotest.run "smp"
    [
      ( "topology",
        Alcotest.
          [
            test_case "routing exhaustive" `Quick test_routing_exhaustive;
            test_case "routing in reports" `Quick test_routing_in_reports;
          ] );
      ( "soak",
        Alcotest.
          [
            test_case "deterministic at 1/2/4 cores" `Quick test_determinism;
            test_case "single-core degenerate" `Quick
              test_single_core_degenerate;
            test_case "invariants clean under sampling" `Quick
              test_smp_soak_invariants_clean;
            test_case "ipis flow" `Quick test_ipis_flow;
            test_case "shielded tail lower" `Slow test_shielded_tail_lower;
            test_case "golden smoke report" `Slow test_golden_smoke_report;
          ] );
      ( "bound",
        Alcotest.[ test_case "per-core ordering" `Quick test_bound_ordering ] );
      ( "fabric",
        Alcotest.[ test_case "delivery accounting" `Quick test_fabric_accounting ] );
      ( "invariants",
        Alcotest.
          [ test_case "affinity check bites" `Quick test_affinity_invariant_bites ]
      );
    ]
