(* Deterministic discrete-event soak engine.

   One campaign = scenarios x build variants.  Each run is sharded into
   fixed-size slices of kernel entries; a shard boots a fresh kernel,
   spawns the scenario's tenants and virtual devices, and then simply
   plays user level: whatever thread the kernel scheduler left on the CPU
   issues the next event of its program.  Devices are interval timers
   armed through [Kernel.schedule_irq]; every delivery's observed
   response latency (from the line's own assert cycle) is collected via
   the kernel's delivery hook and checked against the computed WCET
   bound.

   Shard count and shard PRNG streams depend only on (seed, entries) —
   never on the domain count — and shard results merge in submission
   order, so campaign output is byte-identical for any parallelism. *)

open Sel4.Ktypes
module B = Sel4.Boot
module K = Sel4.Kernel
module Build = Sel4.Build
module Invariants = Sel4.Invariants
module Prng = Sel4_rt.Prng
module Parallel = Sel4_rt.Parallel
module Analysis_ctx = Sel4_rt.Analysis_ctx
module Response_time = Sel4_rt.Response_time
module Kernel_model = Sel4_rt.Kernel_model
module Pinning = Sel4_rt.Pinning

type arrival =
  | Periodic of int
  | Poisson of int
  | Bursty of { period : int; burst : int; spacing : int }

type device = { dev_line : int; dev_arrival : arrival }

type workload =
  | Ipc_pingpong
  | Notification_storm
  | Cnode_storm
  | Untyped_churn
  | Vspace_churn

type scenario = {
  sc_name : string;
  sc_workload : workload;
  sc_tenants : int;
  sc_devices : device list;
}

(* The standard soak mix.  Inter-arrival times are chosen so interrupts
   land inside kernel entries of every length class; two devices per
   scenario (where meaningful) exercise the multi-IRQ queueing path. *)
let scenarios =
  [
    {
      sc_name = "ipc_pingpong";
      sc_workload = Ipc_pingpong;
      sc_tenants = 6;
      sc_devices =
        [
          { dev_line = 1; dev_arrival = Periodic 21_001 };
          { dev_line = 2; dev_arrival = Poisson 34_000 };
        ];
    };
    {
      sc_name = "ntfn_storm";
      sc_workload = Notification_storm;
      sc_tenants = 6;
      sc_devices =
        [
          { dev_line = 1; dev_arrival = Periodic 15_013 };
          {
            dev_line = 3;
            dev_arrival = Bursty { period = 120_000; burst = 4; spacing = 2_500 };
          };
        ];
    };
    {
      sc_name = "cnode_storm";
      sc_workload = Cnode_storm;
      sc_tenants = 4;
      sc_devices = [ { dev_line = 2; dev_arrival = Poisson 26_000 } ];
    };
    {
      sc_name = "untyped_churn";
      sc_workload = Untyped_churn;
      sc_tenants = 4;
      sc_devices =
        [
          { dev_line = 1; dev_arrival = Periodic 17_989 };
          {
            dev_line = 4;
            dev_arrival = Bursty { period = 90_000; burst = 3; spacing = 3_000 };
          };
        ];
    };
    {
      sc_name = "vspace_churn";
      sc_workload = Vspace_churn;
      sc_tenants = 3;
      sc_devices =
        [
          { dev_line = 2; dev_arrival = Poisson 23_000 };
          { dev_line = 5; dev_arrival = Periodic 40_009 };
        ];
    };
  ]

(* An unknown name is an error: a selection that matched nothing would
   run an empty campaign and report it ok. *)
let select_scenarios = function
  | None -> scenarios
  | Some names ->
      List.iter
        (fun n ->
          if not (List.exists (fun s -> s.sc_name = n) scenarios) then
            invalid_arg
              (Fmt.str "unknown scenario %S (known: %s)" n
                 (String.concat ", " (List.map (fun s -> s.sc_name) scenarios))))
        names;
      List.filter (fun s -> List.mem s.sc_name names) scenarios

(* --- statistics --- *)

type latency_stats = {
  ls_count : int;
  ls_sum : int;
  ls_min : int;
  ls_p50 : int;
  ls_p90 : int;
  ls_p99 : int;
  ls_p999 : int;
  ls_max : int;
  ls_buckets : (int * int) list;
}

let empty_stats =
  {
    ls_count = 0;
    ls_sum = 0;
    ls_min = 0;
    ls_p50 = 0;
    ls_p90 = 0;
    ls_p99 = 0;
    ls_p999 = 0;
    ls_max = 0;
    ls_buckets = [];
  }

(* Metrics bucket convention: exponent k covers (2^(k-1), 2^k]. *)
let bucket_of v =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  if v <= 0 then min_int else bits (v - 1)

(* Exact latency statistics from a value -> count histogram.  Reproduces
   what sorting the expanded sample and indexing it would give, value for
   value: the percentile is the element at 0-based rank
   [min (n-1) (max 0 (ceil (p * n) - 1))] of the sorted expansion, found
   by walking cumulative counts.  Memory is O(distinct values) — the soak
   engine never materialises the per-delivery latency list. *)
let stats_of_hist tbl =
  let pairs =
    List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [])
  in
  match pairs with
  | [] -> empty_stats
  | (first, _) :: _ ->
      let n = List.fold_left (fun a (_, c) -> a + c) 0 pairs in
      let arr = Array.of_list pairs in
      let q p =
        let rank =
          min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1))
        in
        let rec walk i cum =
          let v, c = arr.(i) in
          if rank < cum + c then v else walk (i + 1) (cum + c)
        in
        walk 0 0
      in
      let buckets = Hashtbl.create 16 in
      List.iter
        (fun (v, c) ->
          let k = bucket_of v in
          Hashtbl.replace buckets k
            (c + Option.value ~default:0 (Hashtbl.find_opt buckets k)))
        pairs;
      {
        ls_count = n;
        ls_sum = List.fold_left (fun a (v, c) -> a + (v * c)) 0 pairs;
        ls_min = first;
        ls_p50 = q 0.5;
        ls_p90 = q 0.9;
        ls_p99 = q 0.99;
        ls_p999 = q 0.999;
        ls_max = fst arr.(Array.length arr - 1);
        ls_buckets =
          List.sort compare
            (Hashtbl.fold (fun k c acc -> (k, c) :: acc) buckets []);
      }

type violation = {
  v_line : int;
  v_latency : int;
  v_queued : int;
  v_allowed : int;
}

type run_result = {
  rr_scenario : string;
  rr_build : string;
  rr_pinned : bool;
  rr_entries : int;
  rr_preempted : int;
  rr_restarts : int;
  rr_failed : int;
  rr_deliveries : int;
  rr_queued_deliveries : int;
  rr_bound : int;
  rr_irq_wcet : int;
  rr_latency : latency_stats;
  rr_violations : violation list;
  rr_invariant_failures : string list;
}

type report = {
  rp_seed : int;
  rp_entries_per_run : int;
  rp_total_entries : int;
  rp_total_deliveries : int;
  rp_runs : run_result list;
  rp_ok : bool;
}

let margin_percent rr =
  if rr.rr_latency.ls_count = 0 || rr.rr_bound = 0 then 100.0
  else
    100.0
    *. float_of_int (rr.rr_bound - rr.rr_latency.ls_max)
    /. float_of_int rr.rr_bound

(* --- per-shard world --- *)

type dev_state = {
  d_line : int;
  d_arrival : arrival;
  d_rng : Prng.t;
  mutable d_burst_left : int;
}

let next_delay d =
  match d.d_arrival with
  | Periodic p -> p
  | Poisson mean ->
      let u = Prng.float d.d_rng in
      max 500 (int_of_float (-.log (1.0 -. u) *. float_of_int mean))
  | Bursty { period; burst; spacing } ->
      if d.d_burst_left > 0 then begin
        d.d_burst_left <- d.d_burst_left - 1;
        spacing
      end
      else begin
        d.d_burst_left <- max 0 (burst - 1);
        period
      end

(* One thread's user-level program: called whenever the kernel scheduler
   leaves that thread on the CPU, returns the next event it traps with. *)
type actor = { a_tcb : tcb; a_next : unit -> K.event }

(* Aggregated shard result: the shard reduces its own deliveries to counts,
   a latency histogram and any violations (checked at delivery time against
   the bound passed in), so merging is O(distinct latencies) and a campaign
   never holds per-delivery data for more than the shard in flight. *)
type shard_out = {
  so_entries : int;
  so_preempted : int;
  so_restarts : int;
  so_failed : int;
  so_deliveries : int;
  so_queued : int;  (* deliveries with at least one other in their window *)
  so_hist : (int * int) list;
      (* latency -> count of single-outstanding deliveries, sorted *)
  so_violations : violation list;  (* chronological *)
  so_inv : string list;
  so_minor_words : float;  (* minor-heap words allocated by this shard *)
  so_worst : (int * int * int * int) list;
      (* forensics only ([worst_n] > 0): the shard's worst deliveries as
         (latency, line, delivered cycle, 0-based entry index), latency
         descending, ties kept in observation order.  [report_json] never
         reads this, so it cannot perturb report bytes. *)
}

(* Tenant priorities: spread over [30, 79], deterministic in the index,
   never colliding with the root orchestrator (5) or the device interrupt
   handlers (150+). *)
let tenant_priority i = 30 + (i * 17 mod 50)

let frames_per_vspace_tenant = 4

exception Setup_failure of string

(* A steppable shard: the whole per-shard setup (kernel boot, devices,
   tenants, delivery plumbing) packaged behind a step/finish interface so
   a caller can interleave the execution of several worlds — the SMP
   soak steps N per-core worlds in global cycle order.  [run_shard] below
   is exactly [make_world] driven to completion, so the single-core path
   is untouched. *)
type world = {
  w_cpu : Hw.Cpu.t;
  w_kernel : K.t;
  w_entries : int;
  w_step : unit -> unit;
  w_entries_done : unit -> int;
  w_finish : unit -> shard_out;
}

let make_world ?(worst_n = 0) ?(cpu_id = 0) ?trace ?on_delivery ~build ~config
    ~selection ~scenario ~entries ~bound ~irq_wcet ~inv_every ~(rng : Prng.t) ()
    =
  let minor0 = Gc.minor_words () in
  let cpu = Hw.Cpu.create config in
  (* Flight-recorder replay: attach the caller's ring before any kernel
     activity.  Trace emission charges no simulated cycles, so the shard's
     behaviour is identical with or without it. *)
  Option.iter (Hw.Cpu.set_trace_buffer cpu) trace;
  (match selection with
  | Some sel -> Pinning.install sel (Hw.Cpu.machine cpu)
  | None -> ());
  let env = B.boot ~cpu ~cpu_id ~root_priority:5 build in
  let k = env.B.k in
  let next_slot = ref B.first_free_slot in
  let alloc_slot () =
    let s = !next_slot in
    incr next_slot;
    if s >= Array.length env.B.root_cnode.cn_slots then
      raise (Setup_failure "root cnode exhausted");
    s
  in
  let as_root ev =
    K.force_run k env.B.root_tcb;
    match K.run_to_completion k ev with
    | K.Completed -> ()
    | K.Preempted -> raise (Setup_failure "setup preempted")
    | K.Failed e -> raise (Setup_failure e)
  in
  (* Devices: one notification + one high-priority handler thread per
     line, bound through the real IRQ-control path. *)
  let devices =
    List.mapi
      (fun j d ->
        let ntfn_slot = alloc_slot () in
        let _ = B.spawn_notification env ~dest:ntfn_slot in
        as_root
          (K.Ev_invoke
             (K.Inv_bind_irq_notification
                { line = d.dev_line; ntfn = B.cptr ntfn_slot }));
        let handler = B.spawn_thread env ~priority:(150 + j) ~dest:(alloc_slot ()) in
        B.make_runnable env handler;
        K.force_run k handler;
        (match K.kernel_entry k (K.Ev_wait { ntfn = B.cptr ntfn_slot }) with
        | K.Completed -> ()
        | K.Preempted | K.Failed _ -> raise (Setup_failure "handler wait"));
        let dev =
          {
            d_line = d.dev_line;
            d_arrival = d.dev_arrival;
            d_rng = Prng.split_at rng (100 + j);
            d_burst_left = 0;
          }
        in
        (dev, { a_tcb = handler; a_next = (fun () -> K.Ev_wait { ntfn = B.cptr ntfn_slot }) }))
      scenario.sc_devices
  in
  let dev_states = List.map fst devices in
  let handler_actors = List.map snd devices in
  (* Tenants, per workload. *)
  let tenant_actors =
    match scenario.sc_workload with
    | Ipc_pingpong ->
        (* Pairs: even index = server (reply-recv loop), odd = client
           (call loop) on the pair's endpoint. *)
        let pairs = max 1 (scenario.sc_tenants / 2) in
        List.concat
          (List.init pairs (fun p ->
               let ep_slot = alloc_slot () in
               let _ = B.spawn_endpoint env ~dest:ep_slot in
               let server =
                 B.spawn_thread env ~priority:(tenant_priority (2 * p))
                   ~dest:(alloc_slot ())
               in
               let client =
                 B.spawn_thread env
                   ~priority:(tenant_priority ((2 * p) + 1))
                   ~dest:(alloc_slot ())
               in
               B.make_runnable env server;
               B.make_runnable env client;
               let crng = Prng.split_at rng (2 * p) in
               [
                 {
                   a_tcb = server;
                   a_next =
                     (fun () -> K.Ev_reply_recv { ep = B.cptr ep_slot; msg_len = 1 });
                 };
                 {
                   a_tcb = client;
                   a_next =
                     (fun () ->
                       K.Ev_call
                         {
                           ep = B.cptr ep_slot;
                           badge_hint = 0;
                           msg_len = 1 + Prng.int crng 4;
                           extra_caps = [];
                         });
                 };
               ]))
    | Notification_storm ->
        let words = 3 in
        let ntfn_slots = List.init words (fun _ -> alloc_slot ()) in
        List.iter (fun s -> ignore (B.spawn_notification env ~dest:s)) ntfn_slots;
        let ntfn_arr = Array.of_list ntfn_slots in
        List.init scenario.sc_tenants (fun i ->
            let t =
              B.spawn_thread env ~priority:(tenant_priority i)
                ~dest:(alloc_slot ())
            in
            B.make_runnable env t;
            let trng = Prng.split_at rng i in
            let signaler = i mod 2 = 0 in
            {
              a_tcb = t;
              a_next =
                (fun () ->
                  let ntfn = B.cptr ntfn_arr.(Prng.int trng words) in
                  if signaler then
                    if Prng.int trng 4 = 0 then K.Ev_poll { ntfn }
                    else K.Ev_signal { ntfn }
                  else
                    match Prng.int trng 3 with
                    | 0 -> K.Ev_wait { ntfn }
                    | 1 -> K.Ev_poll { ntfn }
                    | _ -> K.Ev_signal { ntfn });
            })
    | Cnode_storm ->
        let ep_slot = alloc_slot () in
        let _ = B.spawn_endpoint env ~dest:ep_slot in
        List.init scenario.sc_tenants (fun i ->
            let t =
              B.spawn_thread env ~priority:(tenant_priority i)
                ~dest:(alloc_slot ())
            in
            B.make_runnable env t;
            let s0 = alloc_slot () and s1 = alloc_slot () and s2 = alloc_slot () in
            let phase = ref 0 in
            {
              a_tcb = t;
              a_next =
                (fun () ->
                  let p = !phase in
                  phase := (p + 1) mod 5;
                  let slots = env.B.root_cnode.cn_slots in
                  match p with
                  | 0 ->
                      K.Ev_invoke
                        (K.Inv_copy
                           {
                             src = B.cptr ep_slot;
                             dest_slot = slots.(s0);
                             badge = Some (1 + i);
                           })
                  | 1 ->
                      K.Ev_invoke
                        (K.Inv_copy
                           {
                             src = B.cptr ep_slot;
                             dest_slot = slots.(s1);
                             badge = Some (100 + i);
                           })
                  | 2 ->
                      K.Ev_invoke
                        (K.Inv_move { src = B.cptr s1; dest_slot = slots.(s2) })
                  | 3 -> K.Ev_invoke (K.Inv_delete { target = B.cptr s0 })
                  | _ -> K.Ev_invoke (K.Inv_delete { target = B.cptr s2 }));
            })
    | Untyped_churn ->
        List.init scenario.sc_tenants (fun i ->
            let t =
              B.spawn_thread env ~priority:(tenant_priority i)
                ~dest:(alloc_slot ())
            in
            B.make_runnable env t;
            let s0 = alloc_slot ()
            and s1 = alloc_slot ()
            and s2 = alloc_slot ()
            and s3 = alloc_slot () in
            let phase = ref 0 in
            {
              a_tcb = t;
              a_next =
                (fun () ->
                  let p = !phase in
                  phase := (p + 1) mod 7;
                  let slots = env.B.root_cnode.cn_slots in
                  let retype obj_type dest_slots =
                    K.Ev_invoke
                      (K.Inv_retype
                         { ut = B.ut_cptr; obj_type; count = List.length dest_slots; dest_slots })
                  in
                  match p with
                  | 0 -> retype Endpoint_object [ slots.(s0); slots.(s1) ]
                  | 1 -> retype Notification_object [ slots.(s2) ]
                  | 2 -> retype (Frame_object 12) [ slots.(s3) ]
                  | 3 -> K.Ev_invoke (K.Inv_delete { target = B.cptr s0 })
                  | 4 -> K.Ev_invoke (K.Inv_delete { target = B.cptr s1 })
                  | 5 -> K.Ev_invoke (K.Inv_delete { target = B.cptr s2 })
                  | _ -> K.Ev_invoke (K.Inv_delete { target = B.cptr s3 }));
            })
    | Vspace_churn ->
        (* One ASID pool shared by the shard; a page directory, page
           table and four small frames per tenant.  The cyclic program
           maps and unmaps frames and periodically deletes the page
           table with live mappings — the §3.6 preemptible teardown —
           then rebuilds it through the real retype path. *)
        let pool_slot = alloc_slot () in
        as_root
          (K.Ev_invoke
             (K.Inv_make_asid_pool
                {
                  ut = B.ut_cptr;
                  dest_slot = env.B.root_cnode.cn_slots.(pool_slot);
                  top_index = 0;
                }));
        List.init scenario.sc_tenants (fun i ->
            let t =
              B.spawn_thread env ~priority:(tenant_priority i)
                ~dest:(alloc_slot ())
            in
            B.make_runnable env t;
            let pd_slot = alloc_slot () and pt_slot = alloc_slot () in
            let frame_slots =
              List.init frames_per_vspace_tenant (fun _ -> alloc_slot ())
            in
            let slots = env.B.root_cnode.cn_slots in
            ignore
              (B.retype_syscall env Page_directory_object ~count:1 ~dest:pd_slot);
            as_root
              (K.Ev_invoke
                 (K.Inv_assign_asid
                    { pool = B.cptr pool_slot; pd = B.cptr pd_slot }));
            ignore (B.retype_syscall env Page_table_object ~count:1 ~dest:pt_slot);
            List.iter
              (fun s -> ignore (B.retype_syscall env (Frame_object 12) ~count:1 ~dest:s))
              frame_slots;
            let base = 0x1000_0000 * (i + 1) in
            let f = Array.of_list frame_slots in
            let phase = ref 0 in
            let map_pt () =
              K.Ev_invoke
                (K.Inv_map_page_table
                   { pt = B.cptr pt_slot; pd = B.cptr pd_slot; vaddr = base })
            in
            let map_f j =
              K.Ev_invoke
                (K.Inv_map_frame
                   {
                     frame = B.cptr f.(j);
                     pd = B.cptr pd_slot;
                     vaddr = base + (j * 0x1000);
                   })
            in
            let unmap_f j = K.Ev_invoke (K.Inv_unmap_frame { frame = B.cptr f.(j) }) in
            {
              a_tcb = t;
              a_next =
                (fun () ->
                  let p = !phase in
                  phase := (p + 1) mod 11;
                  match p with
                  | 0 -> map_pt ()
                  | 1 -> map_f 0
                  | 2 -> map_f 1
                  | 3 -> map_f 2
                  | 4 -> unmap_f 0
                  | 5 -> map_f 3
                  | 6 -> unmap_f 1
                  (* f2 and f3 still mapped: the delete below does real
                     teardown work. *)
                  | 7 -> K.Ev_invoke (K.Inv_delete { target = B.cptr pt_slot })
                  | 8 -> unmap_f 2
                  | 9 -> unmap_f 3
                  | _ ->
                      K.Ev_invoke
                        (K.Inv_retype
                           {
                             ut = B.ut_cptr;
                             obj_type = Page_table_object;
                             count = 1;
                             dest_slots = [ slots.(pt_slot) ];
                           }));
            })
  in
  let root_actor = { a_tcb = env.B.root_tcb; a_next = (fun () -> K.Ev_yield) } in
  let actors = (root_actor :: handler_actors) @ tenant_actors in
  (* Flat per-entry dispatch: tcb id -> user program and tcb id -> restart
     event, in arrays sized by the post-setup id watermark (every thread
     the scheduler can leave on the CPU exists by now).  The per-entry
     path below allocates nothing: no closures, no options, no list
     traffic — entries run back-to-back on the minor heap's fast path. *)
  let yield_ev () = K.Ev_yield in
  let n_ids = k.K.next_id in
  let programs = Array.make n_ids yield_ev in
  List.iter (fun a -> programs.(a.a_tcb.tcb_id) <- a.a_next) actors;
  let restart_ev : K.event option array = Array.make n_ids None in
  (* Arm every device once; thereafter each re-arms at its own delivery. *)
  let arm d = K.schedule_irq k d.d_line ~delay:(next_delay d) in
  List.iter arm dev_states;
  let dev_by_line = Array.make K.num_irqs None in
  List.iter (fun d -> dev_by_line.(d.d_line) <- Some d) dev_states;
  (* Deliveries land in preallocated parallel buffers (at most one per
     line per entry) and are reduced after the entry returns. *)
  let deliv_cap = K.num_irqs in
  let deliv_line = Array.make deliv_cap 0 in
  let deliv_lat = Array.make deliv_cap 0 in
  let deliv_cyc = Array.make deliv_cap 0 in
  let deliv_n = ref 0 in
  K.set_irq_delivery_hook k
    (Some
       (fun line latency ->
         let i = !deliv_n in
         assert (i < deliv_cap);
         deliv_line.(i) <- line;
         deliv_lat.(i) <- latency;
         deliv_cyc.(i) <- K.cycles k;
         deliv_n := i + 1));
  (* Response-window ring: cycle stamps of the 64 most recent deliveries.
     [min_int] marks an empty slot and can never satisfy the window
     predicate, so a partially filled ring counts exactly like the short
     list it replaces. *)
  let recent = Array.make 64 min_int in
  let recent_pos = ref 0 in
  (* Worst-K tracking (forensics pass 1): a small sorted-descending array
     of (latency, line, delivered cycle, entry index).  Pure observation —
     no PRNG draws, no cycle charges — so enabling it cannot change the
     report.  Strict-greater insertion keeps the first-observed delivery
     ahead of later equals. *)
  let worst = Array.make (max worst_n 1) (min_int, 0, 0, 0) in
  let worst_len = ref 0 in
  let note_worst latency line cyc entry =
    let full = !worst_len = worst_n in
    if (not full) || latency > (let l, _, _, _ = worst.(worst_n - 1) in l) then begin
      let pos = ref (if full then worst_n - 1 else !worst_len) in
      if not full then incr worst_len;
      while !pos > 0 && (let l, _, _, _ = worst.(!pos - 1) in latency > l) do
        worst.(!pos) <- worst.(!pos - 1);
        decr pos
      done;
      worst.(!pos) <- (latency, line, cyc, entry)
    end
  in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let deliveries = ref 0 in
  let queued_deliveries = ref 0 in
  let violations = ref [] in
  let failed = ref 0 in
  let inv = ref [] in
  let inv_count = ref 0 in
  let entries_done = ref 0 in
  let sample_invariants () =
    if !inv_count < 8 then
      match Invariants.check_result k with
      | Ok () -> ()
      | Error vs ->
          (* Fingerprint the canonical kernel state (Sel4.Digest) so a
             sampled violation pins down *which* state broke — two runs
             reporting the same message can be told apart, and a replay
             reaching the same fingerprint is known to be faithful.
             Failure-only: passing runs never format a digest, so report
             bytes are unchanged. *)
          let state = Digest.to_hex (Digest.string (Sel4.Digest.of_kernel k)) in
          let msgs =
            List.map
              (fun v ->
                Fmt.str "%s entry %d [state %s]: %s" scenario.sc_name
                  !entries_done state v)
              vs
          in
          inv := !inv @ msgs;
          inv_count := !inv_count + List.length msgs
  in
  let run_entry issuer_id ev =
    if issuer_id >= 0 then restart_ev.(issuer_id) <- None;
    (match K.kernel_entry k ev with
    | K.Completed -> ()
    | K.Preempted -> if issuer_id >= 0 then restart_ev.(issuer_id) <- Some ev
    | K.Failed _ -> incr failed);
    incr entries_done;
    let nd = !deliv_n in
    if nd > 0 then begin
      for di = 0 to nd - 1 do
        let line = deliv_line.(di) in
        let latency = deliv_lat.(di) in
        let cyc = deliv_cyc.(di) in
        let asserted = cyc - latency in
        let queued = ref 0 in
        for ri = 0 to 63 do
          let c = recent.(ri) in
          if c > asserted && c < cyc then incr queued
        done;
        let queued = !queued in
        recent.(!recent_pos) <- cyc;
        recent_pos := (!recent_pos + 1) land 63;
        incr deliveries;
        if worst_n > 0 then note_worst latency line cyc (!entries_done - 1);
        let allowed = bound + (queued * irq_wcet) in
        if latency > allowed then
          violations :=
            { v_line = line; v_latency = latency; v_queued = queued; v_allowed = allowed }
            :: !violations;
        if queued > 0 then incr queued_deliveries
        else begin
          match Hashtbl.find_opt hist latency with
          | Some c -> Hashtbl.replace hist latency (c + 1)
          | None -> Hashtbl.add hist latency 1
        end;
        (match dev_by_line.(line) with Some d -> arm d | None -> ());
        (* External observer (the SMP fabric): pure observation from the
           world's own point of view — the callback runs after the entry,
           outside kernel execution, and the single-core path passes
           [None], so report bytes cannot change. *)
        match on_delivery with
        | Some f -> f ~line ~latency ~cycle:cyc
        | None -> ()
      done;
      deliv_n := 0
    end;
    if inv_every > 0 && !entries_done mod inv_every = 0 then sample_invariants ()
  in
  let step () =
    if K.has_pending_irq k then run_entry (-1) K.Ev_interrupt
    else
      let cur = k.K.current in
      if cur == k.K.idle then begin
        (match K.next_armed_irq k with
        | Some (fire, _) ->
            let now = K.cycles k in
            if fire > now then Hw.Cpu.tick cpu (fire - now)
        | None -> List.iter arm dev_states);
        run_entry (-1) K.Ev_interrupt
      end
      else
        let id = cur.tcb_id in
        let ev =
          match restart_ev.(id) with Some ev -> ev | None -> programs.(id) ()
        in
        run_entry id ev
  in
  let finish () =
    if inv_every > 0 then sample_invariants ();
    K.set_irq_delivery_hook k None;
    {
      so_entries = !entries_done;
      so_preempted = K.preempted_events k;
      so_restarts = k.K.syscall_restarts;
      so_failed = !failed;
      so_deliveries = !deliveries;
      so_queued = !queued_deliveries;
      so_hist =
        List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) hist []);
      so_violations = List.rev !violations;
      so_inv = !inv;
      so_minor_words = Gc.minor_words () -. minor0;
      so_worst = List.init !worst_len (fun i -> worst.(i));
    }
  in
  {
    w_cpu = cpu;
    w_kernel = k;
    w_entries = entries;
    w_step = step;
    w_entries_done = (fun () -> !entries_done);
    w_finish = finish;
  }

let world_step w = w.w_step ()
let world_done w = w.w_entries_done () >= w.w_entries
let world_cycles w = Hw.Cpu.cycles w.w_cpu
let world_cpu w = w.w_cpu
let world_kernel w = w.w_kernel
let world_entries_done w = w.w_entries_done ()
let world_finish w = w.w_finish ()

(* A shard runs on its context's build and hardware, with the context's
   pins (if any) locked into the cache. *)
let run_shard ?worst_n ?trace ~(actx : Analysis_ctx.t) ~scenario ~entries
    ~bound ~irq_wcet ~inv_every ~(rng : Prng.t) () =
  let selection =
    if actx.pins = Analysis_ctx.no_pins then None
    else Some { Pinning.code_lines = actx.pins.code; data_lines = actx.pins.data }
  in
  let w =
    make_world ?worst_n ?trace ~build:actx.build ~config:actx.config ~selection
      ~scenario ~entries ~bound ~irq_wcet ~inv_every ~rng ()
  in
  while not (world_done w) do
    world_step w
  done;
  world_finish w

(* --- campaign --- *)

let shard_size = 4096

let shard_sizes entries =
  let rec go n = if n <= shard_size then [ n ] else shard_size :: go (n - shard_size) in
  if entries <= 0 then [] else go entries

type run_spec = {
  rs_index : int;
  rs_label : string;
  rs_actx : Analysis_ctx.t;
  rs_scenario : scenario;
  rs_bound : int;
  rs_irq_wcet : int;
}

let build_variants =
  [
    ("lazy", { Build.improved with Build.sched = Build.Lazy }, false);
    ("benno", { Build.improved with Build.sched = Build.Benno }, false);
    ("benno_bitmap", Build.improved, false);
    ("benno_bitmap+pin", Build.improved, true);
  ]

(* Per-run accumulator: shard outputs merge into it in submission order
   (streaming), so its contents — and the report built from it — are
   independent of how shards were scheduled across domains. *)
type run_acc = {
  mutable ac_entries : int;
  mutable ac_preempted : int;
  mutable ac_restarts : int;
  mutable ac_failed : int;
  mutable ac_deliveries : int;
  mutable ac_queued : int;
  ac_hist : (int, int) Hashtbl.t;
  mutable ac_violations_rev : violation list;
  mutable ac_inv_rev : string list;
}

let fresh_acc () =
  {
    ac_entries = 0;
    ac_preempted = 0;
    ac_restarts = 0;
    ac_failed = 0;
    ac_deliveries = 0;
    ac_queued = 0;
    ac_hist = Hashtbl.create 64;
    ac_violations_rev = [];
    ac_inv_rev = [];
  }

let merge_shard acc (out : shard_out) =
  acc.ac_entries <- acc.ac_entries + out.so_entries;
  acc.ac_preempted <- acc.ac_preempted + out.so_preempted;
  acc.ac_restarts <- acc.ac_restarts + out.so_restarts;
  acc.ac_failed <- acc.ac_failed + out.so_failed;
  acc.ac_deliveries <- acc.ac_deliveries + out.so_deliveries;
  acc.ac_queued <- acc.ac_queued + out.so_queued;
  List.iter
    (fun (v, c) ->
      match Hashtbl.find_opt acc.ac_hist v with
      | Some c0 -> Hashtbl.replace acc.ac_hist v (c0 + c)
      | None -> Hashtbl.add acc.ac_hist v c)
    out.so_hist;
  acc.ac_violations_rev <- List.rev_append out.so_violations acc.ac_violations_rev;
  acc.ac_inv_rev <- List.rev_append out.so_inv acc.ac_inv_rev

let finish_acc spec acc =
  {
    rr_scenario = spec.rs_scenario.sc_name;
    rr_build = spec.rs_label;
    rr_pinned = spec.rs_actx.pins <> Analysis_ctx.no_pins;
    rr_entries = acc.ac_entries;
    rr_preempted = acc.ac_preempted;
    rr_restarts = acc.ac_restarts;
    rr_failed = acc.ac_failed;
    rr_deliveries = acc.ac_deliveries;
    rr_queued_deliveries = acc.ac_queued;
    rr_bound = spec.rs_bound;
    rr_irq_wcet = spec.rs_irq_wcet;
    rr_latency = stats_of_hist acc.ac_hist;
    rr_violations = List.rev acc.ac_violations_rev;
    rr_invariant_failures = List.rev acc.ac_inv_rev;
  }

(* Campaign wall-clock economics, measured around the shard fan-out. *)
type throughput = {
  th_wall_s : float;
  th_entries_per_sec : float;
  th_minor_words_per_entry : float;
  th_peak_rss_kb : int;
}

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
            if String.length line >= 6 && String.sub line 0 6 = "VmHWM:" then begin
              let num = ref 0 and seen = ref false in
              String.iter
                (fun ch ->
                  if ch >= '0' && ch <= '9' then begin
                    num := (!num * 10) + (Char.code ch - Char.code '0');
                    seen := true
                  end)
                line;
              scan (if !seen then !num else acc)
            end
            else scan acc
      in
      let r = scan 0 in
      close_in ic;
      r

(* The campaign driver proper.  [worst_n > 0] additionally tracks, per
   run, the worst-N deliveries as (latency, line, delivered cycle, entry
   index, shard index) — the forensics pass-1 output that tells the
   flight recorder which shards to replay. *)
let campaign_internal ?pool ?(seed = 42) ?entries ?(smoke = false) ?only
    ?inv_every ~worst_n () =
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let entries =
    match entries with Some e -> e | None -> if smoke then 1_500 else 52_000
  in
  let inv_every =
    match inv_every with Some n -> max 0 n | None -> if smoke then 0 else 512
  in
  let chosen = select_scenarios only in
  let root = Prng.create seed in
  (* Analysis inputs, computed once per build variant (serial; the
     engine's cache makes repeats cheap). *)
  let specs =
    List.concat_map
      (fun sc ->
        List.map
          (fun (label, build, pinned) ->
            let actx = Pinning.context ~pin:pinned build in
            {
              rs_index = 0;
              rs_label = label;
              rs_actx = actx;
              rs_scenario = sc;
              rs_bound = Response_time.interrupt_response_bound actx;
              rs_irq_wcet = Response_time.computed_cycles actx Kernel_model.Interrupt;
            })
          build_variants)
      chosen
  in
  let specs = List.mapi (fun i s -> { s with rs_index = i }) specs in
  let nspecs = List.length specs in
  (* Flatten (run, shard) jobs into one batch for load balance.  Shard
     outputs merge into per-run accumulators in submission order as the
     ordered prefix completes, so only the pool's out-of-order window of
     shard_outs is ever live — memory stays constant in [entries]. *)
  let jobs =
    List.concat_map
      (fun spec ->
        let run_rng = Prng.split_at root spec.rs_index in
        List.mapi
          (fun shard_i n ->
            fun () ->
              ( spec.rs_index,
                shard_i,
                run_shard ~worst_n ~actx:spec.rs_actx
                  ~scenario:spec.rs_scenario ~entries:n ~bound:spec.rs_bound
                  ~irq_wcet:spec.rs_irq_wcet ~inv_every
                  ~rng:(Prng.split_at run_rng shard_i) () ))
          (shard_sizes entries))
      specs
  in
  let accs = Array.init nspecs (fun _ -> fresh_acc ()) in
  (* Per-run worst-N across shards: stable descending merge, so equal
     latencies resolve to the earlier shard (submission order). *)
  let run_worsts = Array.make nspecs [] in
  let total_minor = ref 0.0 in
  let merge () (i, shard_i, out) =
    merge_shard accs.(i) out;
    if worst_n > 0 && out.so_worst <> [] then begin
      let added =
        List.map (fun (lat, line, cyc, entry) -> (lat, line, cyc, entry, shard_i))
          out.so_worst
      in
      let merged =
        List.stable_sort
          (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a)
          (run_worsts.(i) @ added)
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      run_worsts.(i) <- take worst_n merged
    end;
    total_minor := !total_minor +. out.so_minor_words
  in
  let t0 = Obs.Metrics.now_s () in
  Parallel.fold_ordered pool ~init:() ~merge jobs;
  let wall_s = Obs.Metrics.now_s () -. t0 in
  let runs = List.map (fun spec -> finish_acc spec accs.(spec.rs_index)) specs in
  let total_entries = List.fold_left (fun a r -> a + r.rr_entries) 0 runs in
  let total_deliveries = List.fold_left (fun a r -> a + r.rr_deliveries) 0 runs in
  let ok =
    List.for_all
      (fun r -> r.rr_violations = [] && r.rr_invariant_failures = [])
      runs
  in
  (* Feed the merged campaign into the metrics registry (serially, so the
     registry contents are deterministic too). *)
  Obs.Metrics.incr ~by:total_entries (Obs.Metrics.counter "sim.entries");
  Obs.Metrics.incr ~by:total_deliveries (Obs.Metrics.counter "sim.deliveries");
  Obs.Metrics.incr
    ~by:(List.fold_left (fun a r -> a + List.length r.rr_violations) 0 runs)
    (Obs.Metrics.counter "sim.violations");
  let h = Obs.Metrics.histogram "sim.irq_latency_cycles" in
  List.iter
    (fun r ->
      List.iter
        (fun (k, c) ->
          (* One representative value per bucket, weighted by count; exact
             values already live in the report, the registry keeps the
             shape. *)
          Obs.Metrics.observe_n h ~n:c (Float.of_int (1 lsl max 0 k)))
        r.rr_latency.ls_buckets)
    runs;
  let throughput =
    {
      th_wall_s = wall_s;
      th_entries_per_sec =
        (if wall_s > 0.0 then float_of_int total_entries /. wall_s else 0.0);
      th_minor_words_per_entry =
        (if total_entries > 0 then !total_minor /. float_of_int total_entries
         else 0.0);
      th_peak_rss_kb = peak_rss_kb ();
    }
  in
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "sim.throughput.entries_per_sec")
    throughput.th_entries_per_sec;
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "sim.throughput.minor_words_per_entry")
    throughput.th_minor_words_per_entry;
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "sim.throughput.peak_rss_kb")
    (float_of_int throughput.th_peak_rss_kb);
  ( {
      rp_seed = seed;
      rp_entries_per_run = entries;
      rp_total_entries = total_entries;
      rp_total_deliveries = total_deliveries;
      rp_runs = runs;
      rp_ok = ok;
    },
    throughput,
    specs,
    run_worsts )

let run_campaign_timed ?pool ?seed ?entries ?smoke ?only ?inv_every () =
  let report, throughput, _, _ =
    campaign_internal ?pool ?seed ?entries ?smoke ?only ?inv_every ~worst_n:0 ()
  in
  (report, throughput)

(* --- forensics: tail flight recorder + gap report --- *)

(* Kernel sections (trace event labels) -> source functions of the WCET
   model they can execute.  This is the alignment key between the bound
   decomposition (charged per CFG function) and an observed trace window
   (attributed per kernel section): a function counts as "executed by the
   worst window" when some section of the window implies it.  The mapping
   is deliberately generous — IPC entries are credited with the copy/
   transfer helpers even if the decode took an early exit — so
   "NOT executed" claims in the gap report are conservative. *)
let funcs_of_section s =
  if s = "user" then []
  else if s = "interrupt" then [ "interrupt"; "choose"; "ctxswitch" ]
  else if s = "call" || s = "send" || s = "recv" || s = "reply_recv" then
    [ "syscall"; "lookup"; "msgcopy"; "capxfer"; "choose"; "ctxswitch" ]
  else
    (* signal / wait / poll / yield / invoke:* and the fault paths all
       run decode + scheduling but never the IPC transfer helpers. *)
    [ "syscall"; "lookup"; "choose"; "ctxswitch" ]

type forensics = {
  fo_tail : Obs.Tail_report.t;
  fo_gaps : Obs.Gap_report.t list;
  fo_profiles : (string * Obs.Bound_profile.t) list;
      (* build label -> full response-bound decomposition, one per
         distinct build variant of the campaign *)
}

(* Replay pass: re-run exactly the shards implicated by pass 1 with a
   trace ring attached, stopping right after the entry that delivered the
   worst interrupt.  Shard streams derive from (seed, run index, shard
   index) alone, so the replayed prefix is identical to the original run
   and the ring ends just past the delivery of interest. *)
let capture_delivery ~root ~spec ~rank (latency, line, cyc, entry_idx, shard_i) =
  let run_rng = Prng.split_at root spec.rs_index in
  let trace = Obs.Trace.create ~capacity:32_768 () in
  let (_ : shard_out) =
    run_shard ~trace ~actx:spec.rs_actx ~scenario:spec.rs_scenario
      ~entries:(entry_idx + 1) ~bound:spec.rs_bound ~irq_wcet:spec.rs_irq_wcet
      ~inv_every:0
      ~rng:(Prng.split_at run_rng shard_i) ()
  in
  let delivered_at = cyc in
  let asserted_at = delivered_at - latency in
  (* Pad the window back one full bound so the kernel operation the
     assertion landed in is visible from its entry. *)
  let from = max 0 (asserted_at - spec.rs_bound) in
  let window =
    List.filter
      (fun (e : Obs.Trace.event) ->
        e.Obs.Trace.at >= from && e.Obs.Trace.at <= delivered_at)
      (Obs.Trace.events trace)
  in
  let section =
    match
      List.find_opt
        (fun (b : Obs.Attrib.irq_breakdown) ->
          b.Obs.Attrib.line = line && b.Obs.Attrib.delivered_at = delivered_at)
        (Obs.Attrib.irq_breakdowns window)
    with
    | Some b -> b.Obs.Attrib.section
    | None -> "user"
  in
  {
    Obs.Tail_report.d_scenario = spec.rs_scenario.sc_name;
    d_build = spec.rs_label;
    d_rank = rank;
    d_line = line;
    d_latency = latency;
    d_bound = spec.rs_bound;
    d_shard = shard_i;
    d_entry = entry_idx;
    d_asserted_at = asserted_at;
    d_delivered_at = delivered_at;
    d_section = section;
    d_sections =
      Obs.Attrib.section_profile window ~from:asserted_at ~until:delivered_at;
    d_window = window;
  }

let run_campaign_forensics ?pool ?(seed = 42) ?entries ?smoke ?only ?inv_every
    ?(worst_n = 2) () =
  let report, throughput, specs, run_worsts =
    campaign_internal ?pool ~seed ?entries ?smoke ?only ?inv_every
      ~worst_n:(max 1 worst_n) ()
  in
  let root = Prng.create seed in
  let deliveries =
    List.concat_map
      (fun spec ->
        List.mapi
          (fun rank w -> capture_delivery ~root ~spec ~rank w)
          run_worsts.(spec.rs_index))
      specs
  in
  let tail = { Obs.Tail_report.t_worst_n = max 1 worst_n; t_deliveries = deliveries } in
  let profiles =
    List.fold_left
      (fun acc spec ->
        if List.mem_assoc spec.rs_label acc then acc
        else
          acc
          @ [
              ( spec.rs_label,
                Response_time.interrupt_response_profile spec.rs_actx );
            ])
      [] specs
  in
  let gaps =
    List.filter_map
      (fun spec ->
        let rr =
          List.find
            (fun rr ->
              rr.rr_scenario = spec.rs_scenario.sc_name
              && rr.rr_build = spec.rs_label)
            report.rp_runs
        in
        match
          List.find_opt
            (fun (d : Obs.Tail_report.delivery) ->
              d.Obs.Tail_report.d_scenario = spec.rs_scenario.sc_name
              && d.Obs.Tail_report.d_build = spec.rs_label
              && d.Obs.Tail_report.d_rank = 0)
            deliveries
        with
        | None -> None
        | Some worst ->
            let profile = List.assoc spec.rs_label profiles in
            let executed_funcs =
              List.concat_map
                (fun (s, _) -> funcs_of_section s)
                ((worst.Obs.Tail_report.d_section, 0)
                :: worst.Obs.Tail_report.d_sections)
            in
            Some
              (Obs.Gap_report.make ~scenario:spec.rs_scenario.sc_name
                 ~build:spec.rs_label ~bound:spec.rs_bound
                 ~observed_max:rr.rr_latency.ls_max
                 ~sections:worst.Obs.Tail_report.d_sections
                 ~charged:(Obs.Bound_profile.by_function profile)
                 ~executed:(fun f -> List.mem f executed_funcs)))
      specs
  in
  (report, throughput, { fo_tail = tail; fo_gaps = gaps; fo_profiles = profiles })

(* --- reporting --- *)

let take_violations rr =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take 5 rr.rr_violations

let pp_report ppf r =
  Fmt.pf ppf "soak campaign: seed %d, %d entries/run, %d runs@." r.rp_seed
    r.rp_entries_per_run (List.length r.rp_runs);
  Fmt.pf ppf "%-16s %-18s %9s %8s %8s %8s %8s %9s %7s %5s@." "scenario" "build"
    "entries" "deliv" "p50" "p99" "max" "bound" "margin" "viol";
  List.iter
    (fun rr ->
      Fmt.pf ppf "%-16s %-18s %9d %8d %8d %8d %8d %9d %6.1f%% %5d@."
        rr.rr_scenario rr.rr_build rr.rr_entries rr.rr_deliveries
        rr.rr_latency.ls_p50 rr.rr_latency.ls_p99 rr.rr_latency.ls_max
        rr.rr_bound (margin_percent rr)
        (List.length rr.rr_violations))
    r.rp_runs;
  List.iter
    (fun rr ->
      List.iter
        (fun v ->
          Fmt.pf ppf "VIOLATION %s/%s line %d: latency %d > allowed %d (queued %d)@."
            rr.rr_scenario rr.rr_build v.v_line v.v_latency v.v_allowed v.v_queued)
        (take_violations rr);
      List.iter
        (fun msg -> Fmt.pf ppf "INVARIANT %s/%s: %s@." rr.rr_scenario rr.rr_build msg)
        rr.rr_invariant_failures)
    r.rp_runs;
  Fmt.pf ppf "totals: %d entries, %d deliveries -> %s@." r.rp_total_entries
    r.rp_total_deliveries
    (if r.rp_ok then "OK (all latencies within the computed bound)" else "FAILED")

let report_fields r =
  let open Obs.Json in
  let latency rr =
    let s = rr.rr_latency in
    Obj
      [
        ("count", int s.ls_count); ("min", int s.ls_min); ("p50", int s.ls_p50);
        ("p90", int s.ls_p90); ("p99", int s.ls_p99); ("p999", int s.ls_p999);
        ("max", int s.ls_max); ("margin_percent", Fixed (2, margin_percent rr));
        ( "buckets",
          list
            (fun (k, c) -> Obj [ ("le_pow2", int k); ("count", int c) ])
            s.ls_buckets );
      ]
  in
  let run rr =
    Obj
      [
        ("scenario", Str rr.rr_scenario); ("build", Str rr.rr_build);
        ("pinned", Bool rr.rr_pinned); ("entries", int rr.rr_entries);
        ("preempted", int rr.rr_preempted); ("restarts", int rr.rr_restarts);
        ("failed", int rr.rr_failed); ("deliveries", int rr.rr_deliveries);
        ("queued_deliveries", int rr.rr_queued_deliveries);
        ("bound", int rr.rr_bound); ("irq_wcet", int rr.rr_irq_wcet);
        ("violations", int (List.length rr.rr_violations));
        ("invariant_failures", int (List.length rr.rr_invariant_failures));
        ("latency", latency rr);
      ]
  in
  [
    ("seed", int r.rp_seed); ("entries_per_run", int r.rp_entries_per_run);
    ("total_entries", int r.rp_total_entries);
    ("total_deliveries", int r.rp_total_deliveries); ("ok", Bool r.rp_ok);
    ("runs", list run r.rp_runs);
  ]

let report_to_json r = Obs.Json.Obj (report_fields r)
let report_json r = Obs.Json.to_string (report_to_json r)

let pp_throughput ppf th =
  Fmt.pf ppf
    "throughput: %.2fs wall, %.0f entries/s, %.1f minor words/entry, peak RSS %d kB@."
    th.th_wall_s th.th_entries_per_sec th.th_minor_words_per_entry
    th.th_peak_rss_kb
