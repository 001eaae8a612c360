module K = Sel4.Kernel
module Costs = Sel4.Costs
module Prng = Sel4_rt.Prng
module Analysis_ctx = Sel4_rt.Analysis_ctx
module Response_time = Sel4_rt.Response_time
module Kernel_model = Sel4_rt.Kernel_model

type core_run = {
  cr_core : int;
  cr_parked : bool;
  cr_tenants : int;
  cr_lines : int list;
  cr_bound : Bound.t;
  cr_entries : int;
  cr_deliveries : int;
  cr_queued : int;
  cr_ipi_delivered : int;
  cr_latency : Sim.latency_stats;
  cr_hist : (int * int) list;
  cr_violations : Sim.violation list;
  cr_inv : string list;
}

type scenario_run = {
  sr_scenario : string;
  sr_cores : core_run array;
  sr_ipi_sent : int;
  sr_ipi_coalesced : int;
  sr_ipi_delivered : int;
  sr_ipi_cancelled : int;
  sr_fabric_error : string option;
}

type report = {
  rp_seed : int;
  rp_cores : int;
  rp_policy : Topology.policy;
  rp_entries_per_core : int;
  rp_base_bound : int;
  rp_irq_wcet : int;
  rp_scenarios : scenario_run list;
  rp_deliveries : int;
  rp_ipi_sent : int;
  rp_ipi_delivered : int;
  rp_ipi_cancelled : int;
  rp_ipi_coalesced : int;
  rp_violations : int;
  rp_invariant_failures : int;
  rp_ok : bool;
}

let stats_of_pairs pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, c) ->
      Hashtbl.replace tbl v (c + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    pairs;
  Sim.stats_of_hist tbl

(* One scenario on one topology: build the per-core worlds, interleave
   them in cycle order, couple them through the fabric. *)
let run_scenario ~(topo : Topology.t) ~entries ~inv_every ~base_bound ~irq_wcet
    ~(rng : Prng.t) (sc : Sim.scenario) =
  let cores = topo.Topology.cores in
  let fabric = Fabric.create ~cores in
  let counts = Topology.place_tenants topo ~total:sc.Sim.sc_tenants in
  let bounds = Array.init cores (fun c -> Bound.per_core topo ~base:base_bound ~core:c) in
  let lines_of c =
    List.filter_map
      (fun (d : Sim.device) ->
        if Topology.route_line topo ~line:d.Sim.dev_line = c then
          Some d.Sim.dev_line
        else None)
      sc.Sim.sc_devices
  in
  (* Per-step observation buffers: only one world steps at a time, so a
     single shared pair suffices.  [recv_buf] holds IPI kinds the stepped
     core just took; [nudge_count] counts its device deliveries (each one
     sends a Resched nudge to the next tenant core). *)
  let recv_buf = ref [] in
  let nudge_count = ref 0 in
  let ipi_delivered = Array.make cores 0 in
  let parked = Array.make cores false in
  let worlds = Array.make cores None in
  Array.iteri
    (fun c _ ->
      let tenants = counts.(c) in
      let devices =
        List.filter
          (fun (d : Sim.device) ->
            Topology.route_line topo ~line:d.Sim.dev_line = c)
          sc.Sim.sc_devices
      in
      if tenants = 0 && devices = [] then parked.(c) <- true
      else begin
        let workload =
          if tenants = 0 then Sim.Notification_storm else sc.Sim.sc_workload
        in
        let core_sc =
          {
            Sim.sc_name = Fmt.str "%s@core%d" sc.Sim.sc_name c;
            sc_workload = workload;
            sc_tenants = tenants;
            sc_devices = devices;
          }
        in
        let on_delivery ~line ~latency:_ ~cycle:_ =
          match Fabric.kind_of_line line with
          | Some k ->
              recv_buf := k :: !recv_buf;
              ipi_delivered.(c) <- ipi_delivered.(c) + 1
          | None -> incr nudge_count
        in
        worlds.(c) <-
          Some
            (Sim.make_world ~cpu_id:c ~on_delivery ~build:Sel4.Build.improved
               ~config:Hw.Config.default ~selection:None ~scenario:core_sc
               ~entries ~bound:bounds.(c).Bound.b_total ~irq_wcet ~inv_every
               ~rng:(Prng.split_at rng (1000 + c)) ())
      end)
    worlds;
  let live c = match worlds.(c) with Some _ -> true | None -> false in
  let world c =
    match worlds.(c) with Some w -> w | None -> assert false
  in
  let finished = Array.make cores false in
  Array.iteri (fun c p -> if p then finished.(c) <- true) parked;
  (* IPI targeting: live tenant cores other than the source.  The
     shielded core is never a tenant core, so it is never a target. *)
  let targets =
    Array.init cores (fun src ->
        Array.of_list
          (List.filter (fun c -> c <> src && live c) (Topology.tenant_cores topo)))
  in
  let rr = Array.make cores 0 in
  (* TLB-shootdown broadcasts: only from live cores running an
     address-space-mutating workload, at a fixed period per source that
     comfortably exceeds any per-core bound — so at most one broadcast
     can land inside a response window. *)
  let max_bound =
    Array.fold_left (fun a b -> max a b.Bound.b_total) 0 bounds
  in
  let shoot_period = max 500_000 (8 * max_bound) in
  let shoots = Array.make cores false in
  Array.iteri
    (fun c _ ->
      shoots.(c) <-
        live c && counts.(c) > 0
        && Topology.sends_shootdowns topo ~core:c
        && Array.length targets.(c) > 0
        && (match sc.Sim.sc_workload with
           | Sim.Vspace_churn | Sim.Untyped_churn -> true
           | _ -> false))
    shoots;
  let next_shoot = Array.make cores max_int in
  Array.iteri
    (fun c on ->
      if on then next_shoot.(c) <- Sim.world_cycles (world c) + shoot_period)
    shoots;
  let outs = Array.make cores None in
  let n_live = ref 0 in
  Array.iteri (fun c _ -> if live c then incr n_live) worlds;
  let n_done = ref 0 in
  (* Deliver an accepted IPI: assert the kind's line on the destination
     kernel so it lands [ipi_wire_cycles] after the send on the global
     timeline (at least one destination cycle out).  A destination that
     already finished its run leaves the IPI outstanding; the final sweep
     cancels it — the fabric invariant accounts for both fates. *)
  let put_on_wire ~src ~dst kind =
    if not finished.(dst) then begin
      let now_src = Sim.world_cycles (world src) in
      let now_dst = Sim.world_cycles (world dst) in
      let delay = max 1 (now_src + Costs.ipi_wire_cycles - now_dst) in
      K.schedule_irq (Sim.world_kernel (world dst)) (Fabric.line_of kind) ~delay
    end
  in
  while !n_done < !n_live do
    (* lowest cycle count among unfinished worlds, ties to lowest id *)
    let best = ref (-1) in
    for c = cores - 1 downto 0 do
      if not finished.(c) then
        if
          !best < 0
          || Sim.world_cycles (world c) <= Sim.world_cycles (world !best)
        then best := c
    done;
    let c = !best in
    let w = world c in
    recv_buf := [];
    nudge_count := 0;
    Sim.world_step w;
    let cpu = Sim.world_cpu w in
    (* Inbound IPIs this step: consume them in the fabric and charge the
       receive vector (plus the shootdown handler body) on this core. *)
    List.iter
      (fun kind ->
        Fabric.note_delivered fabric ~dst:c kind;
        let cost =
          Costs.ipi_receive_instrs
          + match kind with
            | Fabric.Tlb_shootdown -> Costs.tlb_shootdown_instrs
            | Fabric.Resched -> 0
        in
        Hw.Cpu.tick cpu cost)
      (List.rev !recv_buf);
    (* Periodic shootdown broadcast from address-space-churning cores. *)
    if shoots.(c) then
      while Sim.world_cycles w >= next_shoot.(c) do
        Array.iter
          (fun dst ->
            Hw.Cpu.tick cpu Costs.ipi_send_instrs;
            if Fabric.send fabric ~src:c ~dst Fabric.Tlb_shootdown then
              put_on_wire ~src:c ~dst Fabric.Tlb_shootdown)
          targets.(c);
        next_shoot.(c) <- next_shoot.(c) + shoot_period
      done;
    (* One Resched nudge per device delivery, round-robin over the other
       tenant cores (the woken worker lives elsewhere). *)
    if Array.length targets.(c) > 0 then
      for _ = 1 to !nudge_count do
        let cand = targets.(c) in
        let dst = cand.(rr.(c) mod Array.length cand) in
        rr.(c) <- rr.(c) + 1;
        Hw.Cpu.tick cpu Costs.ipi_send_instrs;
        if Fabric.send fabric ~src:c ~dst Fabric.Resched then
          put_on_wire ~src:c ~dst Fabric.Resched
      done;
    if Sim.world_done w then begin
      finished.(c) <- true;
      outs.(c) <- Some (Sim.world_finish w);
      incr n_done
    end
  done;
  (* Final sweep: anything still outstanding was sent toward a core whose
     run ended first — cancel it so the delivery invariant closes. *)
  for dst = 0 to cores - 1 do
    ignore (Fabric.cancel_outstanding fabric ~dst)
  done;
  let fabric_error =
    match Fabric.check ~final:true fabric with
    | Ok () -> None
    | Error m -> Some m
  in
  let core_runs =
    Array.init cores (fun c ->
        let out = outs.(c) in
        let so_or d f = match out with Some o -> f o | None -> d in
        {
          cr_core = c;
          cr_parked = parked.(c);
          cr_tenants = counts.(c);
          cr_lines = lines_of c;
          cr_bound = bounds.(c);
          cr_entries = so_or 0 (fun o -> o.Sim.so_entries);
          cr_deliveries = so_or 0 (fun o -> o.Sim.so_deliveries);
          cr_queued = so_or 0 (fun o -> o.Sim.so_queued);
          cr_ipi_delivered = ipi_delivered.(c);
          cr_latency = stats_of_pairs (so_or [] (fun o -> o.Sim.so_hist));
          cr_hist = so_or [] (fun o -> o.Sim.so_hist);
          cr_violations = so_or [] (fun o -> o.Sim.so_violations);
          cr_inv = so_or [] (fun o -> o.Sim.so_inv);
        })
  in
  {
    sr_scenario = sc.Sim.sc_name;
    sr_cores = core_runs;
    sr_ipi_sent = Fabric.sent fabric;
    sr_ipi_coalesced = Fabric.coalesced fabric;
    sr_ipi_delivered = Fabric.delivered fabric;
    sr_ipi_cancelled = Fabric.cancelled fabric;
    sr_fabric_error = fabric_error;
  }

let run ?(seed = 42) ?entries ?(smoke = false) ?inv_every ?only ~cores ~policy
    () =
  let entries =
    match entries with Some n -> n | None -> if smoke then 1_500 else 12_000
  in
  let inv_every =
    match inv_every with
    | Some n -> max 0 n
    | None -> if smoke then 256 else 512
  in
  let topo = Topology.make ~cores ~policy in
  let chosen = Sim.select_scenarios only in
  (* Same analysis inputs as the single-core campaign's benno_bitmap
     variant: the per-core bounds extend this base. *)
  let actx =
    Analysis_ctx.make ~config:Hw.Config.default ~pins:Analysis_ctx.no_pins
      ~build:Sel4.Build.improved ()
  in
  let base_bound = Response_time.interrupt_response_bound actx in
  let irq_wcet = Response_time.computed_cycles actx Kernel_model.Interrupt in
  let root = Prng.create seed in
  let scen_runs =
    List.mapi
      (fun i sc ->
        run_scenario ~topo ~entries ~inv_every ~base_bound ~irq_wcet
          ~rng:(Prng.split_at root i) sc)
      chosen
  in
  let sum f = List.fold_left (fun a sr -> a + f sr) 0 scen_runs in
  let sum_cores f =
    sum (fun sr -> Array.fold_left (fun a cr -> a + f cr) 0 sr.sr_cores)
  in
  let deliveries = sum_cores (fun cr -> cr.cr_deliveries) in
  let violations = sum_cores (fun cr -> List.length cr.cr_violations) in
  let inv_failures = sum_cores (fun cr -> List.length cr.cr_inv) in
  let fabric_ok = List.for_all (fun sr -> sr.sr_fabric_error = None) scen_runs in
  let report =
    {
      rp_seed = seed;
      rp_cores = cores;
      rp_policy = policy;
      rp_entries_per_core = entries;
      rp_base_bound = base_bound;
      rp_irq_wcet = irq_wcet;
      rp_scenarios = scen_runs;
      rp_deliveries = deliveries;
      rp_ipi_sent = sum (fun sr -> sr.sr_ipi_sent);
      rp_ipi_delivered = sum (fun sr -> sr.sr_ipi_delivered);
      rp_ipi_cancelled = sum (fun sr -> sr.sr_ipi_cancelled);
      rp_ipi_coalesced = sum (fun sr -> sr.sr_ipi_coalesced);
      rp_violations = violations;
      rp_invariant_failures = inv_failures;
      rp_ok = violations = 0 && inv_failures = 0 && fabric_ok;
    }
  in
  let c name = Obs.Metrics.counter name in
  Obs.Metrics.incr ~by:report.rp_ipi_sent (c "smp.ipi.sent");
  Obs.Metrics.incr ~by:report.rp_ipi_delivered (c "smp.ipi.delivered");
  Obs.Metrics.incr ~by:report.rp_ipi_cancelled (c "smp.ipi.cancelled");
  Obs.Metrics.incr ~by:report.rp_ipi_coalesced (c "smp.ipi.coalesced");
  Obs.Metrics.incr ~by:report.rp_deliveries (c "smp.deliveries");
  Obs.Metrics.incr ~by:report.rp_violations (c "smp.violations");
  List.iter
    (fun sr ->
      Array.iter
        (fun cr ->
          Obs.Metrics.incr ~by:cr.cr_deliveries
            (c (Fmt.str "smp.core%d.deliveries" cr.cr_core));
          Obs.Metrics.incr ~by:cr.cr_ipi_delivered
            (c (Fmt.str "smp.core%d.ipi_delivered" cr.cr_core)))
        sr.sr_cores)
    scen_runs;
  report

type comparison = {
  cmp_cores : int;
  cmp_shielded : Sim.latency_stats;
  cmp_spread : Sim.latency_stats;
  cmp_tail_lower : bool;
}

let run_compare ?(seed = 42) ?entries ?(smoke = false) ~cores () =
  let shielded = run ~seed ?entries ~smoke ~cores ~policy:Topology.Shielded () in
  let spread = run ~seed ?entries ~smoke ~cores ~policy:Topology.Spread () in
  (* Exact merged tails: the per-core exact histograms, pooled. *)
  let merge report ~keep =
    stats_of_pairs
      (List.concat_map
         (fun sr ->
           Array.to_list sr.sr_cores
           |> List.concat_map (fun cr -> if keep cr then cr.cr_hist else []))
         report.rp_scenarios)
  in
  let sh = merge shielded ~keep:(fun cr -> cr.cr_core = 0) in
  let sp = merge spread ~keep:(fun cr -> cr.cr_lines <> []) in
  let cmp =
    {
      cmp_cores = cores;
      cmp_shielded = sh;
      cmp_spread = sp;
      cmp_tail_lower =
        sh.Sim.ls_count > 0 && sp.Sim.ls_count > 0
        && sh.Sim.ls_p999 < sp.Sim.ls_p999
        && sh.Sim.ls_max < sp.Sim.ls_max;
    }
  in
  (shielded, spread, cmp)

(* ---- rendering ---- *)

let stats_to_json (s : Sim.latency_stats) =
  let open Obs.Json in
  Obj
    [
      ("count", int s.Sim.ls_count); ("min", int s.Sim.ls_min);
      ("p50", int s.Sim.ls_p50); ("p90", int s.Sim.ls_p90);
      ("p99", int s.Sim.ls_p99); ("p999", int s.Sim.ls_p999);
      ("max", int s.Sim.ls_max);
    ]

let report_to_json r =
  let open Obs.Json in
  let ipi ~sent ~coalesced ~delivered ~cancelled =
    Obj
      [
        ("sent", int sent); ("coalesced", int coalesced);
        ("delivered", int delivered); ("cancelled", int cancelled);
      ]
  in
  let core cr =
    Obj
      [
        ("core", int cr.cr_core); ("parked", Bool cr.cr_parked);
        ("tenants", int cr.cr_tenants); ("lines", list int cr.cr_lines);
        ("bound", Bound.to_json cr.cr_bound); ("entries", int cr.cr_entries);
        ("deliveries", int cr.cr_deliveries); ("queued", int cr.cr_queued);
        ("ipi_delivered", int cr.cr_ipi_delivered);
        ("violations", int (List.length cr.cr_violations));
        ("invariant_failures", int (List.length cr.cr_inv));
        ("latency", stats_to_json cr.cr_latency);
      ]
  in
  let scenario sr =
    Obj
      [
        ("scenario", Str sr.sr_scenario);
        ( "ipi",
          ipi ~sent:sr.sr_ipi_sent ~coalesced:sr.sr_ipi_coalesced
            ~delivered:sr.sr_ipi_delivered ~cancelled:sr.sr_ipi_cancelled );
        ("fabric_error", option (fun m -> Str m) sr.sr_fabric_error);
        ("cores", list core (Array.to_list sr.sr_cores));
      ]
  in
  Obj
    [
      ("engine", Str "smp_soak"); ("seed", int r.rp_seed);
      ("cores", int r.rp_cores);
      ("policy", Str (Topology.policy_name r.rp_policy));
      ("entries_per_core", int r.rp_entries_per_core);
      ("base_bound", int r.rp_base_bound); ("irq_wcet", int r.rp_irq_wcet);
      ( "ipi",
        ipi ~sent:r.rp_ipi_sent ~coalesced:r.rp_ipi_coalesced
          ~delivered:r.rp_ipi_delivered ~cancelled:r.rp_ipi_cancelled );
      ("deliveries", int r.rp_deliveries); ("violations", int r.rp_violations);
      ("invariant_failures", int r.rp_invariant_failures);
      ("scenarios", list scenario r.rp_scenarios); ("ok", Bool r.rp_ok);
    ]

let report_json r = Obs.Json.to_string (report_to_json r)

let comparison_to_json cmp =
  let open Obs.Json in
  Obj
    [
      ("cores", int cmp.cmp_cores); ("shielded", stats_to_json cmp.cmp_shielded);
      ("spread", stats_to_json cmp.cmp_spread);
      ("shielded_tail_lower", Bool cmp.cmp_tail_lower);
    ]

let pp_report ppf r =
  Fmt.pf ppf "SMP soak: %d core(s), policy %s, seed %d, %d entries/core@."
    r.rp_cores
    (Topology.policy_name r.rp_policy)
    r.rp_seed r.rp_entries_per_core;
  Fmt.pf ppf "IPIs: %d sent (+%d coalesced), %d delivered, %d cancelled@."
    r.rp_ipi_sent r.rp_ipi_coalesced r.rp_ipi_delivered r.rp_ipi_cancelled;
  List.iter
    (fun sr ->
      Fmt.pf ppf "%s%s@." sr.sr_scenario
        (match sr.sr_fabric_error with
        | None -> ""
        | Some m -> "  FABRIC: " ^ m);
      Fmt.pf ppf "  %-5s %-7s %-6s %-8s %-6s %8s %8s %8s %9s %5s@." "core"
        "tenants" "lines" "deliv" "ipi" "p50" "p99" "p99.9" "bound" "viol";
      Array.iter
        (fun cr ->
          if cr.cr_parked then Fmt.pf ppf "  %-5d (parked)@." cr.cr_core
          else
            Fmt.pf ppf "  %-5d %-7d %-6d %-8d %-6d %8d %8d %8d %9d %5d@."
              cr.cr_core cr.cr_tenants
              (List.length cr.cr_lines)
              cr.cr_deliveries cr.cr_ipi_delivered cr.cr_latency.Sim.ls_p50
              cr.cr_latency.Sim.ls_p99 cr.cr_latency.Sim.ls_p999
              cr.cr_bound.Bound.b_total
              (List.length cr.cr_violations))
        sr.sr_cores)
    r.rp_scenarios;
  Fmt.pf ppf "%s@."
    (if r.rp_ok then
       "OK (all per-core latencies within the per-core bounds; every IPI \
        delivered or cancelled)"
     else "FAILED")

let pp_comparison ppf cmp =
  Fmt.pf ppf
    "shielded core tail vs spread (%d cores): p99.9 %d vs %d, max %d vs %d — \
     %s@."
    cmp.cmp_cores cmp.cmp_shielded.Sim.ls_p999 cmp.cmp_spread.Sim.ls_p999
    cmp.cmp_shielded.Sim.ls_max cmp.cmp_spread.Sim.ls_max
    (if cmp.cmp_tail_lower then "shielded strictly lower"
     else "NOT strictly lower")
