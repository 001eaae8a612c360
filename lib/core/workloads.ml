(* Adversarial workloads: the best-effort recreation of worst cases on the
   executable kernel, per Section 5.4 of the paper.

   Caches are polluted with dirty lines before every measured entry; the
   worst observed value over several polluted runs is reported (the paper
   took the maximum of 100,000 executions; the seeds here exercise
   distinct cache eviction patterns, which is what matters in a
   deterministic simulator). *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

type scenario = {
  env : B.env;
  cpu : Hw.Cpu.t;
  measured_event : K.event;
  victim : tcb;  (* the thread that traps for the measured event *)
}

(* Build the Figure 7 capability space: a chain of radix-1 CNodes, one
   decode level per address bit.  Slot 0 of each node points at the next
   level; slot 1 can hold a leaf capability reachable at a distinct
   address. *)
let build_deep_cspace env ~depth =
  let k = env.B.k in
  let nodes =
    List.init depth (fun _ ->
        let dest = K.new_root_slot k in
        match
          Sel4.Untyped_ops.retype (K.ctx k)
            ~fresh_id:(fun () -> K.fresh_id k)
            ~register:(K.register k) ~ut_slot:env.B.ut_slot (Cnode_object 1)
            ~count:1 ~dest_slots:[ dest ]
        with
        | Sel4.Untyped_ops.Done [ Cnode_cap { cnode; _ } ] -> cnode
        | _ -> failwith "deep cspace: retype failed")
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
        a.cn_slots.(0).cap <- Cnode_cap { cnode = b; guard = 0; guard_bits = 0 };
        K.incref k a.cn_slots.(0).cap;
        link rest
    | _ -> ()
  in
  link nodes;
  let root =
    match nodes with
    | first :: _ -> Cnode_cap { cnode = first; guard = 0; guard_bits = 0 }
    | [] -> failwith "deep cspace: no nodes"
  in
  (root, Array.of_list nodes)

(* Place a leaf capability at the cptr that decodes through [levels]
   levels of the chain: all-zero path, final bit selecting slot 1. *)
let place_leaf k nodes ~level cap =
  let node = nodes.(level) in
  node.cn_slots.(1).cap <- cap;
  K.incref k cap;
  (* Decoding consumes address bits from the top: level [i] of the radix-1
     chain consumes bit [31 - i], so selecting slot 1 at this level means
     setting exactly that bit.  Resolution stops at the leaf (a non-CNode
     capability), whatever the chain depth. *)
  1 lsl (31 - level)

(* The worst-case system call: an atomic send with a full-length message
   and granted capabilities, every capability address decoding through the
   full-depth space, delivered to a waiting (badged) receiver. *)
let worst_syscall (ctx : Analysis_ctx.t) =
  let params = ctx.Analysis_ctx.params in
  let cpu = Hw.Cpu.create ctx.Analysis_ctx.config in
  let env = B.boot ~cpu ctx.Analysis_ctx.build in
  let k = env.B.k in
  let ep = B.spawn_endpoint env ~dest:10 in
  ignore ep;
  let server = B.spawn_thread env ~priority:150 ~dest:11 in
  let client = B.spawn_thread env ~priority:120 ~dest:12 in
  B.make_runnable env server;
  B.make_runnable env client;
  let root, nodes = build_deep_cspace env ~depth:params.Kernel_model.decode_depth in
  (* Leaf caps: the endpoint (badged) at the deepest slot, plus the extra
     caps to grant at the next levels up. *)
  let ep_cap = env.B.root_cnode.cn_slots.(10).cap in
  let badged =
    match ep_cap with
    | Endpoint_cap c -> Endpoint_cap { c with badge = 42 }
    | _ -> failwith "no endpoint"
  in
  let ep_cptr = place_leaf k nodes ~level:(Array.length nodes - 1) badged in
  let extra_cptrs =
    List.init params.Kernel_model.extra_caps (fun i ->
        place_leaf k nodes
          ~level:(Array.length nodes - 2 - i)
          ep_cap)
  in
  client.cspace_root <- root;
  server.recv_slot <- Some (env.B.root_cnode.cn_slots.(60));
  (* Server waits. *)
  K.force_run k server;
  (match K.kernel_entry k (K.Ev_recv { ep = 10 }) with
  | K.Completed -> ()
  | _ -> failwith "server recv failed");
  K.force_run k client;
  for i = 0 to params.Kernel_model.msg_words - 1 do
    client.regs.(i) <- i
  done;
  {
    env;
    cpu;
    measured_event =
      K.Ev_call
        {
          ep = ep_cptr;
          badge_hint = 0;
          msg_len = params.Kernel_model.msg_words;
          extra_caps = extra_cptrs;
        };
    victim = client;
  }

(* Worst interrupt: handler registered and waiting, polluted caches. *)
let worst_interrupt (ctx : Analysis_ctx.t) =
  let cpu = Hw.Cpu.create ctx.Analysis_ctx.config in
  let env = B.boot ~cpu ctx.Analysis_ctx.build in
  let k = env.B.k in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let handler = B.spawn_thread env ~priority:200 ~dest:11 in
  B.make_runnable env handler;
  (match
     K.run_to_completion k
       (K.Ev_invoke (K.Inv_irq_handler { line = 5; ep = 10 }))
   with
  | K.Completed -> ()
  | _ -> failwith "irq handler setup failed");
  K.force_run k handler;
  (match K.kernel_entry k (K.Ev_recv { ep = 10 }) with
  | K.Completed -> ()
  | _ -> failwith "handler recv failed");
  K.force_run k env.B.root_tcb;
  { env; cpu; measured_event = K.Ev_interrupt; victim = env.B.root_tcb }

(* Worst fault: fault-handler endpoint addressed through the full-depth
   capability space (one decode, as the paper notes for these entry
   points), pager waiting. *)
let worst_fault (ctx : Analysis_ctx.t) ~event =
  let params = ctx.Analysis_ctx.params in
  let cpu = Hw.Cpu.create ctx.Analysis_ctx.config in
  let env = B.boot ~cpu ctx.Analysis_ctx.build in
  let k = env.B.k in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let pager = B.spawn_thread env ~priority:200 ~dest:11 in
  B.make_runnable env pager;
  (* The fault handler endpoint hides at the bottom of a full-depth
     capability space, so each fault pays the one worst-case decode. *)
  let root, nodes = build_deep_cspace env ~depth:params.Kernel_model.decode_depth in
  let ep_cap = env.B.root_cnode.cn_slots.(10).cap in
  let handler_cptr =
    place_leaf env.B.k nodes ~level:(Array.length nodes - 1) ep_cap
  in
  env.B.root_tcb.cspace_root <- root;
  env.B.root_tcb.fault_handler_cptr <- Some handler_cptr;
  K.force_run k pager;
  (match K.kernel_entry k (K.Ev_recv { ep = 10 }) with
  | K.Completed -> ()
  | _ -> failwith "pager recv failed");
  K.force_run k env.B.root_tcb;
  { env; cpu; measured_event = event; victim = env.B.root_tcb }

let scenario ctx entry =
  match entry with
  | Kernel_model.Syscall -> worst_syscall ctx
  | Kernel_model.Interrupt -> worst_interrupt ctx
  | Kernel_model.Page_fault ->
      worst_fault ctx ~event:(K.Ev_page_fault { vaddr = 0xdead000 })
  | Kernel_model.Undefined_instruction ->
      worst_fault ctx ~event:K.Ev_undefined_instruction

(* Measure one kernel entry with polluted caches; the scenario is reused
   across seeds (only cache contents vary). *)
let measure_once scenario ~seed =
  let k = scenario.env.B.k in
  (match scenario.measured_event with
  | K.Ev_interrupt -> K.raise_irq k 5
  | _ -> ());
  K.force_run k scenario.victim;
  Hw.Machine.pollute (Hw.Cpu.machine scenario.cpu) ~seed;
  let before = Hw.Cpu.cycles scenario.cpu in
  let outcome = K.kernel_entry k scenario.measured_event in
  let cycles = Hw.Cpu.cycles scenario.cpu - before in
  (outcome, cycles)

exception
  Scenario_failed of { entry : string; seed : int; reason : string }

let () =
  Printexc.register_printer (function
    | Scenario_failed { entry; seed; reason } ->
        Some (Fmt.str "Scenario_failed(entry=%s seed=%d: %s)" entry seed reason)
    | _ -> None)

(* Fold one run's hardware counters into the global metrics registry, so
   `sel4rt metrics` and perfbench report total simulated work. *)
let note_hw_metrics cpu =
  let c = Hw.Cpu.counters cpu in
  let add name v = Obs.Metrics.incr ~by:v (Obs.Metrics.counter name) in
  add "hw.instructions" c.Hw.Cpu.instructions;
  add "hw.loads" c.Hw.Cpu.loads;
  add "hw.stores" c.Hw.Cpu.stores;
  add "hw.branches" c.Hw.Cpu.branches;
  add "hw.cycles" c.Hw.Cpu.cycles;
  add "hw.stall_cycles" (Hw.Cpu.stall_cycles cpu)

let check_outcome entry ~seed outcome =
  match outcome with
  | K.Failed e ->
      raise
        (Scenario_failed
           { entry = Kernel_model.entry_name entry; seed; reason = e })
  | K.Completed | K.Preempted -> ()

let check_runs fn runs =
  if runs < 1 then
    invalid_arg (Fmt.str "Workloads.%s: runs must be at least 1" fn)

(* Observed worst case: maximum over polluted runs.  Every run must leave
   the system able to repeat the measurement, so the syscall scenario
   rebuilds the rendezvous between runs. *)
let observed ?(runs = 25) ctx entry =
  check_runs "observed" runs;
  let worst = ref 0 in
  for seed = 1 to runs do
    let s = scenario ctx entry in
    let outcome, cycles = measure_once s ~seed in
    check_outcome entry ~seed outcome;
    note_hw_metrics s.cpu;
    if cycles > !worst then worst := cycles
  done;
  !worst

(* --- traced measurement and latency attribution --- *)

type provenance = {
  workload : string;
  worst_seed : int;
  section : string;
  section_cycles : int;
  cycles_to_preempt : int option;
  stall_cycles : int;
  compute_cycles : int;
}

let pp_provenance ppf p =
  Fmt.pf ppf "%s seed=%d section=%s (%d cycles%a, stall=%d compute=%d)"
    p.workload p.worst_seed p.section p.section_cycles
    (fun ppf -> function
      | None -> ()
      | Some c -> Fmt.pf ppf ", %d to preempt" c)
    p.cycles_to_preempt p.stall_cycles p.compute_cycles

(* Run one scenario with an event trace attached.  Emission charges
   nothing, so the cycle count is identical to an untraced run. *)
let run_traced ~buf ~seed ctx entry =
  let s = scenario ctx entry in
  Hw.Cpu.set_trace_buffer s.cpu buf;
  let outcome, cycles = measure_once s ~seed in
  Hw.Cpu.clear_trace_buffer s.cpu;
  note_hw_metrics s.cpu;
  (outcome, cycles)

(* Attribute one run: for the interrupt entry, break down the delivery
   latency; for the other entries, find the longest stretch between
   preemption opportunities. *)
let attribute entry events =
  match entry with
  | Kernel_model.Interrupt -> (
      match List.rev (Obs.Attrib.irq_breakdowns events) with
      | bd :: _ ->
          Some
            ( bd.Obs.Attrib.section,
              bd.Obs.Attrib.latency,
              bd.Obs.Attrib.cycles_to_preempt,
              bd.Obs.Attrib.stall_cycles,
              bd.Obs.Attrib.compute_cycles )
      | [] -> None)
  | _ -> (
      match Obs.Attrib.longest_nonpreemptible events with
      | Some sec ->
          Some
            ( sec.Obs.Attrib.sec_label,
              sec.Obs.Attrib.sec_cycles,
              None,
              sec.Obs.Attrib.sec_stall,
              sec.Obs.Attrib.sec_cycles - sec.Obs.Attrib.sec_stall )
      | None -> None)

(* Observed worst case with provenance: same maximum as {!observed} (the
   trace buffer never charges cycles), plus the attribution of the worst
   run — which section it sat in, how far the next preemption point was,
   and the stall/compute split. *)
let observed_traced ?(runs = 25) ctx entry =
  check_runs "observed_traced" runs;
  let name = Kernel_model.entry_name entry in
  let worst = ref 0 in
  let prov =
    ref
      {
        workload = name;
        worst_seed = 0;
        section = "unknown";
        section_cycles = 0;
        cycles_to_preempt = None;
        stall_cycles = 0;
        compute_cycles = 0;
      }
  in
  for seed = 1 to runs do
    let s = scenario ctx entry in
    let buf = Obs.Trace.create () in
    Hw.Cpu.set_trace_buffer s.cpu buf;
    let outcome, cycles = measure_once s ~seed in
    Hw.Cpu.clear_trace_buffer s.cpu;
    note_hw_metrics s.cpu;
    check_outcome entry ~seed outcome;
    if cycles > !worst || seed = 1 then begin
      if cycles > !worst then worst := cycles;
      match attribute entry (Obs.Trace.events buf) with
      | Some (section, section_cycles, cycles_to_preempt, stall, compute) ->
          prov :=
            {
              workload = name;
              worst_seed = seed;
              section;
              section_cycles;
              cycles_to_preempt;
              stall_cycles = stall;
              compute_cycles = compute;
            }
      | None -> prov := { !prov with worst_seed = seed }
    end
  done;
  (!worst, !prov)
