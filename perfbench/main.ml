(* The repository benchmark: one workload per process, driven only
   through the libraries' public functions.

   An untraced run (--trace 0) sets up, measures whole rounds of the
   workload for --seconds, checks every output and prints the end-to-end
   metrics.  A traced run (--trace 1) does the same untraced rounds as
   its baseline, then one instrumented pass that times the calls into
   each layer from outside, and prints the per-layer metrics.  The last
   stdout line is the result object; the line before it is the
   provenance record.  README.md in this directory defines every
   metric. *)

module Parallel = Sel4_rt.Parallel
module Prng = Sel4_rt.Prng
module Rt = Sel4_rt.Response_time
module Acache = Sel4_rt.Analysis_cache
module Actx = Sel4_rt.Analysis_ctx
module Km = Sel4_rt.Kernel_model
module Pinning = Sel4_rt.Pinning
module Json = Serve.Json

let now = Obs.Metrics.now_s
let t_start = now ()

(* ---------- options ---------- *)

type size = Full | Small

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  domains : int;
  work_dir : string;
}

let workloads = [ "soak-1core"; "smp-4core"; "analysis-cold"; "serve-mixed" ]
let nproc = Domain.recommended_domain_count ()

let parse_opts () =
  let workload = ref "" and seed = ref 42 and seconds = ref 15.0 in
  let trace = ref 0 and size = ref "full" and domains = ref nproc in
  let work_dir = ref (Filename.concat ".bench_build" "perfbench-work") in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measured time per run (default 15)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--size", Arg.Set_string size, " full (default) or small (tests)");
      ("--domains", Arg.Set_int domains, " Domain pool size (default nproc)");
      ("--work-dir", Arg.Set_string work_dir, " scratch directory for the disk cache");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let size =
    match !size with
    | "full" -> Full
    | "small" -> Small
    | s -> raise (Arg.Bad ("unknown size " ^ s))
  in
  if not (List.mem !workload workloads) then
    raise (Arg.Bad ("unknown workload " ^ !workload));
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  {
    workload = !workload;
    seed = !seed;
    seconds = Float.max 0.0 !seconds;
    trace = !trace = 1;
    size;
    domains = max 1 (min nproc !domains);
    work_dir = !work_dir;
  }

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let list_max xs = List.fold_left Float.max neg_infinity xs
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0 then 0.0 else float a /. float b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let md5 s = Digest.to_hex (Digest.string s)

let add_hist tbl hist =
  List.iter
    (fun (v, c) ->
      Hashtbl.replace tbl v (c + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    hist

(* VmHWM of this process, in kB. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* ---------- the result record ---------- *)

type result = {
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable digest : string;
  mutable sizes : (string * int) list;
}

let res =
  { e2e = []; layers = []; attempted = 0; failed = 0; failures = []; digest = ""; sizes = [] }

(* Every end-to-end metric with its unit, in output order; every
   workload reports all of them. *)
let e2e_units =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("ops_per_s", "ops/s"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("irq_p50_cycles", "cycles"); ("irq_p999_cycles", "cycles");
    ("irq_max_cycles", "cycles"); ("bound_cycles", "cycles"); ("minor_words_per_op", "words");
    ("peak_rss_kb", "kB");
  ]

let e2e name v =
  if not (List.mem_assoc name e2e_units) then invalid_arg ("unknown end-to-end metric " ^ name);
  res.e2e <- (name, v) :: res.e2e

(* Every per-layer metric with its unit, in output order.  Every workload
   reports all of them; a layer the workload never calls reports 0. *)
let layer_units =
  List.concat
    [
      [ ("sim.boot_s", "s"); ("sim.step_s", "s"); ("sim.finish_s", "s") ];
      [ ("sim.deliveries_per_entry", "1/entry"); ("sim.queued_share", "ratio") ];
      [ ("sel4.invariants_s", "s"); ("sel4.invariant_checks", "count") ];
      List.map
        (fun n -> ("sel4." ^ n ^ "_per_entry", "1/entry"))
        [ "preempted"; "restarts"; "failed"; "preempt_polls" ];
      List.map
        (fun n -> ("hw." ^ n ^ "_per_entry", "1/entry"))
        [ "instructions"; "mem_ops" ];
      [ ("hw.sim_cycles_per_entry", "cycles"); ("hw.dirty_evictions_per_entry", "1/entry") ];
      [ ("hw.stall_share", "ratio"); ("hw.l1i_miss_ratio", "ratio"); ("hw.l1d_miss_ratio", "ratio") ];
      [ ("hw.replay_s", "s"); ("core.parallel_utilisation", "ratio"); ("core.parallel_jobs", "count") ];
      [ ("smp.shielded_s", "s"); ("smp.spread_s", "s") ];
      List.map (fun (sc : Sim.scenario) -> ("smp.scenario_s." ^ sc.sc_name, "s")) Sim.scenarios;
      [
        ("smp.ipi_sent_per_delivery", "1/delivery"); ("smp.ipi_coalesced_share", "ratio");
        ("smp.ipi_cancelled_share", "ratio"); ("smp.shielded_p999_cycles", "cycles");
        ("smp.spread_p999_cycles", "cycles");
      ];
      List.map
        (fun n -> (n, "s"))
        [
          "core.pinning_select_s"; "core.kernel_model_spec_s"; "wcet.prepare_s"; "wcet.analyse_s";
          "wcet.cache_analysis_s"; "wcet.ilp_build_s"; "ilp.solve_s"; "wcet.explain_s";
        ];
      [
        ("ilp.vars_per_key", "1/key"); ("ilp.constraints_per_key", "1/key");
        ("ilp.bb_nodes_per_solve", "1/solve"); ("ilp.lp_solves", "count");
        ("tac.absint_iterations", "count"); ("tac.absint_widenings", "count");
        ("wcet.constraints_derived", "count"); ("core.analysis_cache_hit_ratio", "ratio");
        ("core.analysis_cache_prefix_hit_ratio", "ratio");
      ];
      List.map (fun n -> ("serve." ^ n ^ "_s", "s")) [ "exec"; "parse"; "envelope"; "wait" ];
      [
        ("serve.queue_depth_max", "count"); ("serve.analyse_latency_p99_ms", "ms");
        ("serve.campaign_latency_p50_ms", "ms"); ("serve.disk_hit_ratio", "ratio");
        ("serve.cache_stores", "count"); ("serve.cache_errors", "count");
      ];
      [ ("obs.trace_overhead_share", "ratio") ];
    ]

let layer name v =
  if not (List.mem_assoc name layer_units) then invalid_arg ("unknown per-layer metric " ^ name);
  res.layers <- (name, v) :: res.layers

(* One attempted operation or output check; a false [ok] is a failure. *)
let check what ok =
  res.attempted <- res.attempted + 1;
  if not ok then begin
    res.failed <- res.failed + 1;
    if List.length res.failures < 20 then res.failures <- what :: res.failures
  end

let size_param name v = res.sizes <- res.sizes @ [ (name, v) ]

(* ---------- measured intervals ---------- *)

(* Resets this process's VmHWM (Linux), so each round's peak is its own. *)
let reset_peak_rss () =
  try
    let oc = open_out_gen [ Open_wronly ] 0 "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* One measured interval: its value, host seconds and peak RSS. *)
type 'a timed = { value : 'a; wall_s : float; peak_kb : int }

(* Every interval starts from a collected heap.  Under repeated cold
   analyses the runtime's major GC can fall behind and let the heap grow
   for the rest of the process (seen with OCaml 5.1), and the pass at
   which that starts varies from run to run; settling the heap before
   each interval keeps a round's cost independent of the rounds before
   it. *)
let measure f =
  Gc.full_major ();
  reset_peak_rss ();
  let value, wall_s = time f in
  { value; wall_s; peak_kb = peak_rss_kb () }

(* ---------- host-speed normalisation ---------- *)

(* The shared hosts this benchmark runs on change speed by up to 1.5x over
   minutes, with CPU time following wall time.  A fixed loop that runs
   none of the repository's code is timed in short chunks before every
   round, on every domain the workload uses; host times are reported at
   the reference speed [probe_ref_s] of one chunk: raw x probe_ref_s /
   (median chunk of the run).  The median over the whole run, not a
   per-round value, is what keeps the factor itself steady. *)
let probe_ref_s = 0.0055
let probe_chunks = ref []

let probe_here () =
  let a = Array.make 65536 0 in
  List.init 3 (fun _ ->
      let x = ref 12345 in
      let t0 = now () in
      for i = 1 to 2_400_000 do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let j = !x land 0xffff in
        Array.unsafe_set a j (Array.unsafe_get a j + i)
      done;
      now () -. t0)

let probe ?pool () =
  let chunks =
    match pool with
    | None -> probe_here ()
    | Some p -> List.concat (Parallel.run_all p (List.init (Parallel.size p) (fun _ -> probe_here)))
  in
  probe_chunks := chunks @ !probe_chunks

(* Raw host seconds to reference seconds. *)
let speed_factor () = if !probe_chunks = [] then 1.0 else probe_ref_s /. median !probe_chunks

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows as a change of [setup_s] rather than noise. *)
let setup_reps = 7

let measure_setup f =
  let reps =
    List.init setup_reps (fun _ ->
        probe ();
        measure f)
  in
  e2e "setup_s" (median (List.map (fun t -> t.wall_s) reps));
  (List.nth reps (setup_reps - 1)).value

(* Run [round] a fixed number of times: enough rounds of [nominal_s]
   (a round's length on the host the benchmark was tuned on) to fill
   [seconds], at least [min_rounds], and at least [min_samples] samples
   of [per_round] each.  The count does not depend on the host's speed
   during the run, so every run of a workload does the same work; no
   round starts after [max_timed_s]. *)
let max_timed_s = 100.0

let timed_rounds o ?pool ~nominal_s ?(min_rounds = 3) ?(per_round = 1) ?(min_samples = 0) round =
  let want =
    max min_rounds
      (max
         (int_of_float (Float.ceil (o.seconds /. nominal_s)))
         ((min_samples + per_round - 1) / per_round))
  in
  let t0 = now () in
  let rec go acc n =
    if n >= want || (n >= 1 && now () -. t0 >= max_timed_s) then List.rev acc
    else begin
      probe ?pool ();
      let t = measure round in
      Printf.eprintf "round %d: %.4f s, peak %d kB\n%!" n t.wall_s t.peak_kb;
      go (t :: acc) (n + 1)
    end
  in
  go [] 0

let walls rounds = List.map (fun t -> t.wall_s) rounds

(* The end-to-end metrics every workload reports besides its own. *)
let emit_common ?walls:override rounds ~ops_per_round ~minor_words_per_op =
  let wall = median (Option.value override ~default:(walls rounds)) in
  e2e "wall_s" wall;
  e2e "ops_per_s" (fratio ops_per_round wall);
  e2e "minor_words_per_op" minor_words_per_op;
  e2e "peak_rss_kb" (median (List.map (fun t -> float t.peak_kb) rounds))

let emit_irq ~p50 ~p999 ~max =
  e2e "irq_p50_cycles" (float p50);
  e2e "irq_p999_cycles" (float p999);
  e2e "irq_max_cycles" (float max)

(* Soak and SMP: a request is one whole campaign and a run has far fewer
   than the 1,000 a p99 needs, so the p99 slot carries the mean round,
   which a slow round still raises. *)
let emit_campaign_latency rounds =
  let ws = walls rounds in
  e2e "latency_p50_ms" (1000.0 *. median ws);
  e2e "latency_p99_ms" (1000.0 *. sum ws /. float (List.length ws))

(* Analysis and serve: every round replays the same requests, so a
   request's latency is its median over the rounds, which filters the
   host's short stalls out of the tail; p50 and p99 are then taken over
   the requests.  [per_round]: one list of seconds per round, requests
   in the same order. *)
let emit_request_latency per_round =
  let rounds = List.map Array.of_list per_round in
  let per_request =
    List.init (Array.length (List.hd rounds)) (fun i -> median (List.map (fun a -> a.(i)) rounds))
  in
  e2e "latency_p50_ms" (1000.0 *. quantile per_request 0.5);
  e2e "latency_p99_ms" (1000.0 *. quantile per_request 0.99)

(* A traced pass against the untraced rounds of the same process. *)
let trace_overhead traced_s walls =
  let base = median walls in
  layer "obs.trace_overhead_share" (fratio (traced_s -. base) base)

(* ---------- soak-1core ---------- *)

(* The campaign's build variants and shard size, mirrored so the traced
   run can rebuild the campaign shard by shard; the reconstruction is
   checked against the campaign report, so any drift fails the run. *)
let soak_variants =
  let improved = Sel4.Build.improved in
  [
    ({ improved with Sel4.Build.sched = Sel4.Build.Lazy }, false);
    ({ improved with Sel4.Build.sched = Sel4.Build.Benno }, false);
    (improved, false);
    (improved, true);
  ]

let shard_size = 4096
let inv_period = 512

let shard_sizes entries =
  let rec go n = if n <= shard_size then [ n ] else shard_size :: go (n - shard_size) in
  if entries <= 0 then [] else go entries

type run_spec = {
  rs_index : int;
  rs_scenario : Sim.scenario;
  rs_build : Sel4.Build.t;
  rs_config : Hw.Config.t;
  rs_selection : Pinning.selection option;
  rs_bound : int;
  rs_irq_wcet : int;
}

let pins_of_selection = function
  | None -> Actx.no_pins
  | Some s -> { Actx.code = s.Pinning.code_lines; data = s.Pinning.data_lines }

let soak_specs () =
  List.concat_map
    (fun sc ->
      List.map
        (fun (build, pinned) ->
          let config =
            if pinned then Hw.Config.with_pinning Hw.Config.default else Hw.Config.default
          in
          let selection = if pinned then Some (Pinning.select build) else None in
          let actx = Actx.make ~config ~pins:(pins_of_selection selection) ~build () in
          (sc, build, config, selection, Rt.interrupt_response_bound actx,
           Rt.computed_cycles actx Km.Interrupt))
        soak_variants)
    Sim.scenarios
  |> List.mapi (fun i (sc, build, config, selection, bound, irq_wcet) ->
         {
           rs_index = i;
           rs_scenario = sc;
           rs_build = build;
           rs_config = config;
           rs_selection = selection;
           rs_bound = bound;
           rs_irq_wcet = irq_wcet;
         })

let make_world spec ~entries ~rng =
  Sim.make_world ~build:spec.rs_build ~config:spec.rs_config
    ~selection:spec.rs_selection ~scenario:spec.rs_scenario ~entries
    ~bound:spec.rs_bound ~irq_wcet:spec.rs_irq_wcet ~inv_every:0 ~rng ()

(* One reconstructed shard, with the host time of each stage and the
   hardware counters of its stepping phase. *)
type shard_obs = {
  so_spec : int;
  so_out : Sim.shard_out;
  so_boot_s : float;
  so_step_s : float;  (** stepping, invariant checks excluded *)
  so_inv_s : float;
  so_finish_s : float;
  so_inv_checks : int;
  so_inv_failures : int;
  so_polls : int;
  so_instructions : int;
  so_mem_ops : int;
  so_cycles : int;
  so_stall : int;
  so_l1i : Hw.Cache.stats;
  so_l1d : Hw.Cache.stats;
}

let sub_stats (a : Hw.Cache.stats) (b : Hw.Cache.stats) =
  {
    Hw.Cache.hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    evictions = a.evictions - b.evictions;
    dirty_evictions = a.dirty_evictions - b.dirty_evictions;
  }

let add_stats (a : Hw.Cache.stats) (b : Hw.Cache.stats) =
  {
    Hw.Cache.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    dirty_evictions = a.dirty_evictions + b.dirty_evictions;
  }

let zero_stats = { Hw.Cache.hits = 0; misses = 0; evictions = 0; dirty_evictions = 0 }

(* The worlds run with [inv_every:0]; the invariant catalogue is checked
   here at the campaign's cadence instead (it charges no simulated
   cycles, so the simulated output is unchanged). *)
let observe_shard spec ~entries ~rng =
  let t0 = now () in
  let w = make_world spec ~entries ~rng in
  let t1 = now () in
  let cpu = Sim.world_cpu w and k = Sim.world_kernel w in
  let m = Hw.Cpu.machine cpu in
  let c0 = Hw.Cpu.counters cpu and stall0 = Hw.Cpu.stall_cycles cpu in
  let i0 = Hw.Cache.stats (Hw.Machine.icache m) in
  let d0 = Hw.Cache.stats (Hw.Machine.dcache m) in
  let polls0 = Sel4.Kernel.preempt_polls k in
  let inv_s = ref 0.0 and checks = ref 0 and inv_failures = ref 0 in
  let sample () =
    let t = now () in
    incr checks;
    (match Sel4.Invariants.check_result k with
    | Ok () -> ()
    | Error _ -> incr inv_failures);
    inv_s := !inv_s +. (now () -. t)
  in
  while not (Sim.world_done w) do
    Sim.world_step w;
    if Sim.world_entries_done w mod inv_period = 0 then sample ()
  done;
  sample ();
  let t2 = now () in
  let c1 = Hw.Cpu.counters cpu in
  let stall = Hw.Cpu.stall_cycles cpu - stall0 in
  let l1i = sub_stats (Hw.Cache.stats (Hw.Machine.icache m)) i0 in
  let l1d = sub_stats (Hw.Cache.stats (Hw.Machine.dcache m)) d0 in
  let polls = Sel4.Kernel.preempt_polls k - polls0 in
  let out = Sim.world_finish w in
  let t3 = now () in
  {
    so_spec = spec.rs_index;
    so_out = out;
    so_boot_s = t1 -. t0;
    so_step_s = t2 -. t1 -. !inv_s;
    so_inv_s = !inv_s;
    so_finish_s = t3 -. t2;
    so_inv_checks = !checks;
    so_inv_failures = !inv_failures;
    so_polls = polls;
    so_instructions = c1.Hw.Cpu.instructions - c0.Hw.Cpu.instructions;
    so_mem_ops = c1.loads + c1.stores - c0.loads - c0.stores;
    so_cycles = c1.cycles - c0.cycles;
    so_stall = stall;
    so_l1i = l1i;
    so_l1d = l1d;
  }

(* Every (run, shard) of the campaign with the campaign's own streams:
   run [i] draws from [split_at root i], its shard [j] from
   [split_at run_rng j]. *)
let shard_jobs ~seed ~entries specs =
  let root = Prng.create seed in
  List.concat_map
    (fun spec ->
      let run_rng = Prng.split_at root spec.rs_index in
      List.mapi
        (fun j n -> (spec, n, fun () -> Prng.split_at run_rng j))
        (shard_sizes entries))
    specs

let reconstruct pool ~seed ~entries specs =
  Parallel.run_all pool
    (List.map
       (fun (spec, n, rng) ->
         fun () ->
           let t0 = now () in
           let o = observe_shard spec ~entries:n ~rng:(rng ()) in
           (o, now () -. t0))
       (shard_jobs ~seed ~entries specs))

(* Host time to replay one shard's memory-access stream through a fresh
   cache model: an outside estimate of the hw layer's share of stepping. *)
let replay_shard spec ~entries ~rng =
  let w = make_world spec ~entries ~rng in
  let cpu = Sim.world_cpu w in
  let addrs = ref (Array.make 65536 0) and counts = ref (Array.make 65536 0) in
  let n = ref 0 in
  let push code addr count =
    if !n = Array.length !addrs then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      addrs := grow !addrs;
      counts := grow !counts
    end;
    !addrs.(!n) <- (addr lsl 2) lor code;
    !counts.(!n) <- count;
    incr n
  in
  (* Sequential fetches coalesce into one run, as the untraced cpu
     charges them. *)
  Hw.Cpu.set_tracer cpu (fun kind addr ->
      match kind with
      | Hw.Cpu.Fetch ->
          let last = !n - 1 in
          if
            last >= 0
            && !addrs.(last) land 3 = 0
            && (!addrs.(last) asr 2) + (4 * !counts.(last)) = addr
          then !counts.(last) <- !counts.(last) + 1
          else push 0 addr 1
      | Hw.Cpu.Load -> push 1 addr 1
      | Hw.Cpu.Store -> push 2 addr 1);
  while not (Sim.world_done w) do
    Sim.world_step w
  done;
  Hw.Cpu.clear_tracer cpu;
  let (_ : Sim.shard_out) = Sim.world_finish w in
  let m = Hw.Machine.create spec.rs_config in
  let addrs = !addrs and counts = !counts in
  let (), replay_s =
    time (fun () ->
        for i = 0 to !n - 1 do
          let v = addrs.(i) in
          let addr = v asr 2 in
          ignore
            (match v land 3 with
            | 0 -> Hw.Machine.fetch_run m ~base:addr ~count:counts.(i)
            | 1 -> Hw.Machine.read m addr
            | _ -> Hw.Machine.write m addr)
        done)
  in
  replay_s

let soak o =
  let entries = match o.size with Full -> 52_000 | Small -> 6_000 in
  size_param "entries_per_run" entries;
  size_param "runs" (List.length Sim.scenarios * List.length soak_variants);
  size_param "pool_domains" o.domains;
  (* The bounds are computed before the pool exists: with an idle worker
     domain alive, every minor collection of the analysis becomes a
     cross-domain synchronisation, which makes set-up slow and noisy. *)
  let pool = ref None in
  let specs =
    measure_setup (fun () ->
        Option.iter Parallel.shutdown !pool;
        Acache.reset ();
        let specs = soak_specs () in
        pool := Some (Parallel.create ~domains:o.domains ());
        specs)
  in
  let pool = Option.get !pool in
  let rounds =
    timed_rounds o ~pool ~nominal_s:2.0 (fun _ -> Sim.run_campaign_timed ~pool ~seed:o.seed ~entries ())
  in
  let report, _ = (List.hd rounds).value in
  res.digest <- md5 (Sim.report_json report);
  List.iter
    (fun { value = r, _; _ } ->
      check "soak: every round reports the same bytes" (md5 (Sim.report_json r) = res.digest);
      check "soak: rp_ok" r.Sim.rp_ok;
      List.iter
        (fun rr ->
          check
            (Printf.sprintf "soak: %s/%s within bound" rr.Sim.rr_scenario rr.Sim.rr_build)
            (rr.Sim.rr_violations = [] && rr.Sim.rr_invariant_failures = []))
        r.Sim.rp_runs)
    rounds;
  (* The shard-by-shard reconstruction: the exact pooled latency
     histogram, and in a traced run the per-layer split. *)
  let recon = measure (fun () -> reconstruct pool ~seed:o.seed ~entries specs) in
  let shards = recon.value in
  let nspecs = List.length specs in
  let hists = Array.init nspecs (fun _ -> Hashtbl.create 64) in
  let count f = List.fold_left (fun a (s, _) -> a + f s) 0 shards in
  let fsum f = List.fold_left (fun a (s, _) -> a +. f s) 0.0 shards in
  List.iter (fun (s, _) -> add_hist hists.(s.so_spec) s.so_out.Sim.so_hist) shards;
  List.iter2
    (fun spec (rr : Sim.run_result) ->
      let mine = List.filter (fun (s, _) -> s.so_spec = spec.rs_index) shards in
      let tot f = List.fold_left (fun a (s, _) -> a + f s.so_out) 0 mine in
      check
        (Printf.sprintf "soak: reconstruction of %s/%s equals the campaign"
           rr.rr_scenario rr.rr_build)
        (Sim.stats_of_hist hists.(spec.rs_index) = rr.rr_latency
        && tot (fun s -> s.Sim.so_entries) = rr.rr_entries
        && tot (fun s -> s.Sim.so_deliveries) = rr.rr_deliveries
        && tot (fun s -> s.Sim.so_queued) = rr.rr_queued_deliveries
        && tot (fun s -> s.Sim.so_preempted) = rr.rr_preempted
        && tot (fun s -> s.Sim.so_restarts) = rr.rr_restarts
        && tot (fun s -> s.Sim.so_failed) = rr.rr_failed
        && rr.rr_bound = spec.rs_bound))
    specs report.Sim.rp_runs;
  check "soak: sampled invariants hold" (count (fun s -> s.so_inv_failures) = 0);
  if not o.trace then begin
    emit_common rounds ~ops_per_round:(float report.Sim.rp_total_entries)
      ~minor_words_per_op:
        (median (List.map (fun { value = _, th; _ } -> th.Sim.th_minor_words_per_entry) rounds));
    emit_campaign_latency rounds;
    let pooled = Hashtbl.create 256 in
    Array.iter (fun h -> Hashtbl.iter (fun v c -> add_hist pooled [ (v, c) ]) h) hists;
    let s = Sim.stats_of_hist pooled in
    emit_irq ~p50:s.ls_p50 ~p999:s.ls_p999
      ~max:(int_of_float (median (List.map (fun rr -> float rr.Sim.rr_latency.ls_max) report.rp_runs)));
    e2e "bound_cycles"
      (float
         (List.find (fun s -> s.rs_build = Sel4.Build.improved && s.rs_selection = None) specs)
           .rs_bound)
  end
  else begin
    let entries_n = count (fun s -> s.so_out.Sim.so_entries) in
    let per_entry v = ratio v entries_n in
    let deliveries = count (fun s -> s.so_out.Sim.so_deliveries) in
    layer "sim.boot_s" (fsum (fun s -> s.so_boot_s));
    layer "sim.step_s" (fsum (fun s -> s.so_step_s));
    layer "sim.finish_s" (fsum (fun s -> s.so_finish_s));
    layer "sim.deliveries_per_entry" (per_entry deliveries);
    layer "sim.queued_share" (ratio (count (fun s -> s.so_out.Sim.so_queued)) deliveries);
    layer "sel4.invariants_s" (fsum (fun s -> s.so_inv_s));
    layer "sel4.invariant_checks" (float (count (fun s -> s.so_inv_checks)));
    layer "sel4.preempted_per_entry" (per_entry (count (fun s -> s.so_out.Sim.so_preempted)));
    layer "sel4.restarts_per_entry" (per_entry (count (fun s -> s.so_out.Sim.so_restarts)));
    layer "sel4.failed_per_entry" (per_entry (count (fun s -> s.so_out.Sim.so_failed)));
    layer "sel4.preempt_polls_per_entry" (per_entry (count (fun s -> s.so_polls)));
    layer "hw.instructions_per_entry" (per_entry (count (fun s -> s.so_instructions)));
    layer "hw.mem_ops_per_entry" (per_entry (count (fun s -> s.so_mem_ops)));
    layer "hw.sim_cycles_per_entry" (per_entry (count (fun s -> s.so_cycles)));
    let l1i = List.fold_left (fun a (s, _) -> add_stats a s.so_l1i) zero_stats shards in
    let l1d = List.fold_left (fun a (s, _) -> add_stats a s.so_l1d) zero_stats shards in
    layer "hw.dirty_evictions_per_entry" (per_entry (l1i.dirty_evictions + l1d.dirty_evictions));
    layer "hw.stall_share" (ratio (count (fun s -> s.so_stall)) (count (fun s -> s.so_cycles)));
    layer "hw.l1i_miss_ratio" (ratio l1i.misses (l1i.hits + l1i.misses));
    layer "hw.l1d_miss_ratio" (ratio l1d.misses (l1d.hits + l1d.misses));
    (* The first shard of one unpinned run, chosen by the seed. *)
    let unpinned = List.filter (fun s -> s.rs_selection = None) specs in
    let pick = List.nth unpinned (o.seed land max_int mod List.length unpinned) in
    let spec, n, rng =
      List.find (fun (s, _, _) -> s.rs_index = pick.rs_index) (shard_jobs ~seed:o.seed ~entries specs)
    in
    layer "hw.replay_s" (replay_shard spec ~entries:n ~rng:(rng ()));
    layer "core.parallel_utilisation"
      (fratio (sum (List.map snd shards)) (recon.wall_s *. float (Parallel.size pool)));
    layer "core.parallel_jobs" (float (List.length shards));
    trace_overhead recon.wall_s (walls rounds)
  end;
  Parallel.shutdown pool

(* ---------- smp-4core ---------- *)

let smp_cores = 4

let smp_entries o = match o.size with Full -> None | Small -> Some 1_500

let smp_check_report what (r : Smp.Soak.report) =
  check (what ^ ": rp_ok") r.Smp.Soak.rp_ok;
  List.iter
    (fun (sr : Smp.Soak.scenario_run) ->
      check
        (Printf.sprintf "%s/%s: fabric accounting" what sr.sr_scenario)
        (sr.sr_fabric_error = None);
      check
        (Printf.sprintf "%s/%s: within per-core bounds, invariants hold" what sr.sr_scenario)
        (Array.for_all
           (fun (cr : Smp.Soak.core_run) -> cr.cr_violations = [] && cr.cr_inv = [])
           sr.sr_cores))
    r.rp_scenarios

let smp_entries_of (r : Smp.Soak.report) =
  List.fold_left
    (fun a (sr : Smp.Soak.scenario_run) ->
      Array.fold_left (fun a (cr : Smp.Soak.core_run) -> a + cr.cr_entries) a sr.sr_cores)
    0 r.Smp.Soak.rp_scenarios

let smp_digest shielded spread =
  md5 (Smp.Soak.report_json shielded ^ Smp.Soak.report_json spread)

let smp o =
  let entries = smp_entries o in
  size_param "cores" smp_cores;
  size_param "entries_per_core" (Option.value entries ~default:12_000);
  size_param "scenarios" (List.length Sim.scenarios);
  measure_setup (fun () ->
      Acache.reset ();
      let actx = Actx.default in
      ignore (Rt.interrupt_response_bound actx + Rt.computed_cycles actx Km.Interrupt));
  let rounds =
    timed_rounds o ~nominal_s:1.2 (fun _ ->
        let w0 = Gc.minor_words () in
        let r = Smp.Soak.run_compare ~seed:o.seed ?entries ~cores:smp_cores () in
        (r, Gc.minor_words () -. w0))
  in
  let (shielded, spread, cmp), _ = (List.hd rounds).value in
  res.digest <- smp_digest shielded spread;
  List.iter
    (fun { value = (sh, sp, (c : Smp.Soak.comparison)), _; _ } ->
      check "smp: every round reports the same bytes" (smp_digest sh sp = res.digest);
      smp_check_report "smp shielded" sh;
      smp_check_report "smp spread" sp;
      check "smp: shielded tail strictly lower" c.cmp_tail_lower)
    rounds;
  let entries_per_round = float (smp_entries_of shielded + smp_entries_of spread) in
  let cores_of (r : Smp.Soak.report) =
    List.concat_map (fun (sr : Smp.Soak.scenario_run) -> Array.to_list sr.sr_cores) r.rp_scenarios
  in
  let all_cores = cores_of shielded @ cores_of spread in
  if not o.trace then begin
    emit_common rounds ~ops_per_round:entries_per_round
      ~minor_words_per_op:
        (median (List.map (fun { value = _, mw; _ } -> mw /. entries_per_round) rounds));
    emit_campaign_latency rounds;
    let pooled = Hashtbl.create 256 in
    List.iter (fun (cr : Smp.Soak.core_run) -> add_hist pooled cr.cr_hist) all_cores;
    let s = Sim.stats_of_hist pooled in
    let maxima =
      List.filter_map
        (fun (cr : Smp.Soak.core_run) ->
          if cr.cr_latency.ls_count > 0 then Some (float cr.cr_latency.ls_max) else None)
        all_cores
    in
    emit_irq ~p50:s.ls_p50 ~p999:s.ls_p999 ~max:(int_of_float (median maxima));
    e2e "bound_cycles"
      (float
         (List.fold_left
            (fun a (cr : Smp.Soak.core_run) -> max a cr.cr_bound.Smp.Bound.b_total)
            0 all_cores))
  end
  else begin
    let run ?only policy () = Smp.Soak.run ~seed:o.seed ?entries ?only ~cores:smp_cores ~policy () in
    let sh = measure (run Smp.Topology.Shielded) in
    let sp = measure (run Smp.Topology.Spread) in
    check "smp: traced reports equal the untraced ones" (smp_digest sh.value sp.value = res.digest);
    layer "smp.shielded_s" sh.wall_s;
    layer "smp.spread_s" sp.wall_s;
    List.iter
      (fun (sc : Sim.scenario) ->
        let only = [ sc.sc_name ] in
        let a = measure (run ~only Smp.Topology.Shielded) in
        let b = measure (run ~only Smp.Topology.Spread) in
        layer ("smp.scenario_s." ^ sc.sc_name) (a.wall_s +. b.wall_s))
      Sim.scenarios;
    let tot f = f sh.value + f sp.value in
    let sent = tot (fun r -> r.Smp.Soak.rp_ipi_sent) in
    layer "smp.ipi_sent_per_delivery" (ratio sent (tot (fun r -> r.Smp.Soak.rp_deliveries)));
    layer "smp.ipi_coalesced_share" (ratio (tot (fun r -> r.Smp.Soak.rp_ipi_coalesced)) sent);
    layer "smp.ipi_cancelled_share" (ratio (tot (fun r -> r.Smp.Soak.rp_ipi_cancelled)) sent);
    layer "smp.shielded_p999_cycles" (float cmp.Smp.Soak.cmp_shielded.Sim.ls_p999);
    layer "smp.spread_p999_cycles" (float cmp.Smp.Soak.cmp_spread.Sim.ls_p999);
    trace_overhead (sh.wall_s +. sp.wall_s) (walls rounds)
  end

(* ---------- analysis-cold ---------- *)

type akey = {
  ak_build_name : string;
  ak_build : Sel4.Build.t;
  ak_l2 : bool;
  ak_pin : bool;
  ak_params : Km.params;
}

let build_of name =
  match Serve.Query.build_of_string name with Ok b -> b | Error e -> failwith e

let config_of ~l2 ~pin =
  let c = if l2 then Hw.Config.with_l2 else Hw.Config.default in
  if pin then Hw.Config.with_pinning c else c

(* Build x L2 x pinning x kernel-model parameters that change the ILP. *)
let analysis_grid =
  let p = Km.default_params in
  let ( let* ) l f = List.concat_map f l in
  let* name = [ "improved"; "original"; "benno"; "lazy" ] in
  let* l2 = [ false; true ] in
  let* pin = [ false; true ] in
  let* decode_depth = [ 8; 32 ] in
  let* msg_words = [ 8; 64; 120 ] in
  let* max_ep_waiters = [ 16; 256 ] in
  [
    {
      ak_build_name = name;
      ak_build = build_of name;
      ak_l2 = l2;
      ak_pin = pin;
      ak_params = { p with Km.decode_depth; msg_words; max_ep_waiters };
    };
  ]

let key_label k =
  Printf.sprintf "%s l2=%b pin=%b depth=%d msg=%d waiters=%d" k.ak_build_name k.ak_l2
    k.ak_pin k.ak_params.Km.decode_depth k.ak_params.Km.msg_words
    k.ak_params.Km.max_ep_waiters

(* The first [n] keys of a seeded permutation of the grid (a partial
   Fisher-Yates shuffle); at full size the whole grid, so the seed sets
   only the order. *)
let sample_keys ~seed n =
  let a = Array.of_list analysis_grid in
  let rng = Prng.create seed in
  let n = min n (Array.length a) in
  for i = 0 to n - 1 do
    let j = i + Prng.int rng (Array.length a - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 n)

let entries2 = [ Km.Syscall; Km.Interrupt ]

(* The per-key outcome every pass must reproduce. *)
let key_line k ~bound ~sys ~irq ~exact =
  Printf.sprintf "%s bound=%d syscall=%d interrupt=%d exact=%b\n" (key_label k) bound sys irq exact

(* One cold key through the public driver: both entry points' bounds
   and their decompositions.  The decompositions are built from the
   results directly, as [Response_time.profile] does, so the memo cache
   sees only cold lookups. *)
let analyse_key k =
  let config = config_of ~l2:k.ak_l2 ~pin:k.ak_pin in
  let pins = if k.ak_pin then pins_of_selection (Some (Pinning.select k.ak_build)) else Actx.no_pins in
  let ctx = Actx.make ~config ~params:k.ak_params ~pins ~build:k.ak_build () in
  let rs = Rt.computed ctx Km.Syscall and ri = Rt.computed ctx Km.Interrupt in
  let exact =
    List.for_all2
      (fun e (r : Wcet.Ipet.result) ->
        Obs.Bound_profile.exact (Wcet.Explain.profile ~config ~entry:(Km.entry_main e) r))
      entries2 [ rs; ri ]
  in
  (rs.wcet + ri.wcet, key_line k ~bound:(rs.wcet + ri.wcet) ~sys:rs.wcet ~irq:ri.wcet ~exact, exact)

let hist_sum name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.s_histograms with
  | Some h -> h.Obs.Metrics.hs_sum
  | None -> 0.0

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let zero_cache_stats =
  { Acache.hits = 0; misses = 0; disk_hits = 0; prefix_hits = 0; prefix_misses = 0 }

let add_cache_stats (a : Acache.stats) (b : Acache.stats) =
  {
    Acache.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    disk_hits = a.disk_hits + b.disk_hits;
    prefix_hits = a.prefix_hits + b.prefix_hits;
    prefix_misses = a.prefix_misses + b.prefix_misses;
  }

let analysis o =
  let n_keys = match o.size with Full -> List.length analysis_grid | Small -> 12 in
  let keys = sample_keys ~seed:o.seed n_keys in
  size_param "keys_per_pass" (List.length keys);
  size_param "key_space" (List.length analysis_grid);
  (* Set-up: the reference bounds of the default key, from a cold cache. *)
  let bound, syscall, exact =
    measure_setup (fun () ->
        Acache.reset ();
        let ctx = Actx.default in
        let r =
          ( Rt.interrupt_response_bound ctx,
            Rt.computed_cycles ctx Km.Syscall,
            Obs.Bound_profile.exact (Rt.interrupt_response_profile ctx) )
        in
        Acache.reset ();
        r)
  in
  check "analysis: improved L2-off response bound is 69892" (bound = 69892);
  check "analysis: constrained syscall WCET is 65905" (syscall = 65905);
  check "analysis: default decomposition is exact" exact;
  let nk = List.length keys in
  let passes =
    timed_rounds o ~nominal_s:3.5 ~per_round:nk
      ~min_samples:(match o.size with Full -> 1000 | Small -> 0)
      (fun _ ->
        (* Every key starts from an empty memo cache and a collected
           heap, so each key is a cold solve whose cost does not depend
           on the keys before it (see [measure]); a pass takes the sum of
           its keys' times. *)
        let stats = ref zero_cache_stats in
        let w0 = Gc.minor_words () in
        let results =
          List.map
            (fun k ->
              Acache.reset ();
              Gc.full_major ();
              let (b, line, exact), dt = time (fun () -> analyse_key k) in
              stats := add_cache_stats !stats (Acache.stats ());
              (b, line, exact, dt))
            keys
        in
        (results, Gc.minor_words () -. w0, !stats))
  in
  let first, _, stats = (List.hd passes).value in
  let lines_of rs = String.concat "" (List.map (fun (_, l, _, _) -> l) rs) in
  let lines = lines_of first in
  res.digest <- md5 lines;
  List.iter
    (fun { value = rs, _, _; _ } ->
      check "analysis: every pass yields the same bounds" (lines_of rs = lines);
      List.iter (fun (_, l, exact, _) -> check ("analysis: exact decomposition " ^ l) exact) rs)
    passes;
  let nkf = float nk in
  let pass_walls =
    List.map (fun { value = rs, _, _; _ } -> sum (List.map (fun (_, _, _, dt) -> dt) rs)) passes
  in
  if not o.trace then begin
    emit_common ~walls:pass_walls passes ~ops_per_round:nkf
      ~minor_words_per_op:(median (List.map (fun { value = _, mw, _; _ } -> mw /. nkf) passes));
    emit_request_latency
      (List.map (fun { value = rs, _, _; _ } -> List.map (fun (_, _, _, dt) -> dt) rs) passes);
    let bounds = List.map (fun (b, _, _, _) -> float b) first in
    e2e "irq_p50_cycles" (quantile bounds 0.5);
    e2e "irq_p999_cycles" (quantile bounds 0.999);
    e2e "irq_max_cycles" (list_max bounds);
    e2e "bound_cycles" (float bound)
  end
  else begin
    (* The traced pass calls each stage itself; the program's own
       [ipet.*] spans split prepare and analyse further. *)
    Acache.reset ();
    Obs.Metrics.reset ();
    let t_pin = ref 0.0 and t_spec = ref 0.0 and t_prep = ref 0.0 in
    let t_an = ref 0.0 and t_ex = ref 0.0 in
    let vars = ref 0 and cons = ref 0 and nodes = ref 0 and lps = ref 0 and solves = ref 0 in
    let timed acc f =
      let r, dt = time f in
      acc := !acc +. dt;
      r
    in
    let stage k e ~config ~pins =
      let spec = timed t_spec (fun () -> Km.spec ~params:k.ak_params k.ak_build e) in
      let prepared =
        timed t_prep (fun () ->
            Wcet.Ipet.prepare ~config ~pinned_code:pins.Actx.code ~pinned_data:pins.Actx.data spec)
      in
      let r = timed t_an (fun () -> Wcet.Ipet.analyse_prepared prepared) in
      let p = timed t_ex (fun () -> Wcet.Explain.profile ~config ~entry:(Km.entry_main e) r) in
      vars := !vars + r.Wcet.Ipet.ilp_vars;
      cons := !cons + r.ilp_constraints;
      nodes := !nodes + r.bb_nodes;
      lps := !lps + r.lp_solves;
      incr solves;
      (r.wcet, Obs.Bound_profile.exact p)
    in
    let traced =
      measure (fun () ->
          List.map
            (fun k ->
              Gc.full_major ();
              let config = config_of ~l2:k.ak_l2 ~pin:k.ak_pin in
              let pins =
                if k.ak_pin then
                  timed t_pin (fun () -> pins_of_selection (Some (Pinning.select k.ak_build)))
                else Actx.no_pins
              in
              let sys, e1 = stage k Km.Syscall ~config ~pins in
              let irq, e2 = stage k Km.Interrupt ~config ~pins in
              key_line k ~bound:(sys + irq) ~sys ~irq ~exact:(e1 && e2))
            keys)
    in
    check "analysis: staged pass equals the driver's bounds"
      (String.concat "" traced.value = lines);
    layer "core.pinning_select_s" !t_pin;
    layer "core.kernel_model_spec_s" !t_spec;
    layer "wcet.prepare_s" !t_prep;
    layer "wcet.analyse_s" !t_an;
    layer "wcet.cache_analysis_s" (hist_sum "ipet.cache_analysis");
    layer "wcet.ilp_build_s" (hist_sum "ipet.ilp_build");
    layer "ilp.solve_s" (hist_sum "ipet.ilp_solve");
    layer "wcet.explain_s" !t_ex;
    layer "ilp.vars_per_key" (float !vars /. nkf);
    layer "ilp.constraints_per_key" (float !cons /. nkf);
    layer "ilp.bb_nodes_per_solve" (ratio !nodes !solves);
    layer "ilp.lp_solves" (float !lps);
    layer "tac.absint_iterations" (float (counter_value "absint.iterations"));
    layer "tac.absint_widenings" (float (counter_value "absint.widenings"));
    layer "wcet.constraints_derived" (float (counter_value "constraints.derived"));
    let lookups = stats.Acache.hits + stats.disk_hits + stats.misses in
    layer "core.analysis_cache_hit_ratio" (ratio (stats.hits + stats.disk_hits) lookups);
    layer "core.analysis_cache_prefix_hit_ratio"
      (ratio stats.prefix_hits (stats.prefix_hits + stats.prefix_misses));
    trace_overhead (!t_pin +. !t_spec +. !t_prep +. !t_an +. !t_ex) pass_walls
  end

(* ---------- serve-mixed ---------- *)

(* The 80-key wire grid of analyse/explain requests. *)
let serve_grid =
  let ( let* ) l f = List.concat_map f l in
  Array.of_list
    (let* target = [ "kernel_entry"; "syscall"; "interrupt"; "fault"; "undefined" ] in
     let* build = [ "improved"; "original"; "benno"; "lazy" ] in
     let* l2 = [ false; true ] in
     let* pin = [ false; true ] in
     [ (target, build, l2, pin) ])

let analysis_body kind (target, build, l2, pin) =
  Printf.sprintf {|{"query":"%s","target":"%s","build":"%s","l2":%b,"pin":%b}|} kind target
    build l2 pin

type request = { rq_id : string; rq_body : string; rq_line : string; rq_campaign : bool }

(* One client's seeded stream.  At full size it holds the whole
   analyse/explain grid (160 requests, 84%), 20 one-scenario sim smoke
   campaigns (4 per scenario, 11%) and 10 single-policy smp smoke
   campaigns (5 per policy, 5%), in a seeded order; the fixed mix keeps a
   round's work the same for every seed.  Campaign seeds come from a
   small set, so the outputs can be checked against in-process runs. *)
let client_stream ~seed ~client n =
  let rng = Prng.split_at (Prng.create seed) client in
  let analysis =
    List.concat_map
      (fun key -> [ (analysis_body "analyse" key, false); (analysis_body "explain" key, false) ])
      (Array.to_list serve_grid)
  in
  let sims =
    List.init 20 (fun i ->
        ( Printf.sprintf {|{"query":"sim","smoke":true,"seed":%d,"scenarios":["%s"]}|}
            (seed + (i / 5 mod 2))
            (List.nth Sim.scenarios (i mod 5)).Sim.sc_name,
          true ))
  in
  let smps =
    List.init 10 (fun i ->
        ( Printf.sprintf {|{"query":"smp","smoke":true,"seed":%d,"cores":%d,"shielded":%b}|} seed
            smp_cores (i mod 2 = 0),
          true ))
  in
  let all = Array.of_list (analysis @ sims @ smps) in
  for i = Array.length all - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  Array.mapi
    (fun i (body, campaign) ->
      let id = Printf.sprintf "c%d-%d" client i in
      let line = Printf.sprintf {|{"id":"%s",%s|} id (String.sub body 1 (String.length body - 1)) in
      { rq_id = id; rq_body = body; rq_line = line; rq_campaign = campaign })
    (Array.sub all 0 (min n (Array.length all)))

type conn = {
  c_ic : in_channel;  (** client side: responses *)
  c_oc : out_channel;  (** client side: requests *)
  c_server : Thread.t;
}

let open_conn () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        let (_ : bool) = Serve.Server.serve_channels ic oc in
        close_out_noerr oc;
        close_in_noerr ic)
      ()
  in
  {
    c_ic = Unix.in_channel_of_descr resp_r;
    c_oc = Unix.out_channel_of_descr req_w;
    c_server = server;
  }

let close_conn c =
  close_out_noerr c.c_oc;
  Thread.join c.c_server;
  close_in_noerr c.c_ic

(* A closed-loop client: the next request goes out once the previous
   response is in. *)
let run_client conn stream =
  Array.map
    (fun rq ->
      let t0 = now () in
      output_string conn.c_oc rq.rq_line;
      output_char conn.c_oc '\n';
      flush conn.c_oc;
      let resp = input_line conn.c_ic in
      (now () -. t0, resp))
    stream

let compact_of_string s =
  match Json.parse s with Ok v -> Json.to_compact v | Error e -> "unparsable: " ^ e

type served = {
  sv_latency : float;
  sv_ok : bool;
  sv_elapsed : float;
  sv_payload : string;  (** compact payload JSON *)
}

let parse_envelope ~id (latency, resp) =
  match Json.parse resp with
  | Error _ -> { sv_latency = latency; sv_ok = false; sv_elapsed = 0.0; sv_payload = "" }
  | Ok v ->
      let str name = Option.bind (Json.member name v) Json.to_string_opt in
      {
        sv_latency = latency;
        sv_ok = str "status" = Some "ok" && str "id" = Some id;
        sv_elapsed =
          Option.value ~default:0.0 (Option.bind (Json.member "elapsed_s" v) Json.to_float_opt);
        sv_payload =
          (match Json.member "payload" v with Some p -> Json.to_compact p | None -> "");
      }

let request_of_body body =
  match Json.parse body with
  | Error e -> failwith e
  | Ok v -> (
      match Serve.Query.of_json v with Ok (_, req) -> req | Error e -> failwith e)

(* The latency objects of a campaign payload: one per sim run, one per
   SMP core that observed a delivery. *)
let latencies_of_payload payload =
  let list name v = Option.value ~default:[] (Option.bind (Json.member name v) Json.to_list_opt) in
  match Json.parse payload with
  | Error _ -> []
  | Ok v ->
      let runs = list "runs" v in
      let cores = List.concat_map (list "cores") (list "scenarios" v) in
      List.filter_map
        (fun r ->
          let lat = Json.member "latency" r in
          let field f = Option.bind (Option.bind lat (Json.member f)) Json.to_float_opt in
          match (field "count", field "p50", field "p999", field "max") with
          | Some c, Some p50, Some p999, Some mx when c > 0.0 -> Some (p50, p999, mx)
          | _ -> None)
        (runs @ cores)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let serve_clients = 2

let serve o =
  let per_client = match o.size with Full -> 190 | Small -> 12 in
  size_param "clients" serve_clients;
  size_param "queries_per_client_per_round" per_client;
  size_param "grid_keys" (Array.length serve_grid);
  let cache_dir = Filename.concat o.work_dir (Printf.sprintf "serve-cache-%d" (Unix.getpid ())) in
  mkdir_p cache_dir;
  Serve.Disk_cache.set_dir cache_dir;
  (* Set-up: a cold disk cache filled with every grid request. *)
  let grid_bodies =
    List.concat_map
      (fun key -> [ analysis_body "analyse" key; analysis_body "explain" key ])
      (Array.to_list serve_grid)
  in
  let grid_payloads =
    measure_setup (fun () ->
        Serve.Disk_cache.uninstall ();
        Serve.Disk_cache.clear ();
        Acache.reset ();
        Serve.Disk_cache.install ();
        List.map
          (fun body ->
            let out = Serve.Query.run (request_of_body body) in
            check ("serve set-up: " ^ body) (out.Serve.Query.status = Serve.Envelope.Ok);
            (body, out.payload))
          grid_bodies)
  in
  let bound =
    let default_key = analysis_body "analyse" ("kernel_entry", "improved", false, false) in
    match Json.parse (List.assoc default_key grid_payloads) with
    | Ok v -> Option.value ~default:0 (Option.bind (Json.member "wcet_cycles" v) Json.to_int_opt)
    | Error _ -> 0
  in
  (* The campaign queries' pool, created after set-up for the reason
     given at the soak set-up. *)
  size_param "pool_domains" (Parallel.size (Parallel.default ()));
  let streams = Array.init serve_clients (fun client -> client_stream ~seed:o.seed ~client per_client) in
  let requests = Array.concat (Array.to_list streams) in
  let conns = Array.init serve_clients (fun _ -> open_conn ()) in
  let dc0 = Serve.Disk_cache.stats () in
  (* Each round starts with an empty in-memory cache, so the first touch
     of a key is a disk hit and later touches are memory hits.  A round
     yields (latency, response line) per request, clients in order. *)
  let round _ =
    Acache.reset ();
    let w0 = Gc.minor_words () in
    let outs = Array.make serve_clients [||] in
    let threads =
      Array.mapi
        (fun c conn -> Thread.create (fun () -> outs.(c) <- run_client conn streams.(c)) ())
        conns
    in
    Array.iter Thread.join threads;
    (Array.concat (Array.to_list outs), Gc.minor_words () -. w0, Acache.stats ())
  in
  let per_round = Array.length requests in
  let rounds =
    timed_rounds o ~pool:(Parallel.default ()) ~nominal_s:3.0 ~per_round
      ~min_samples:(match o.size with Full -> 1000 | Small -> 0)
      round
  in
  let dc1 = Serve.Disk_cache.stats () in
  let served t =
    let outs, _, _ = t.value in
    Array.to_list
      (Array.mapi
         (fun i (lat, resp) ->
           let sv = parse_envelope ~id:requests.(i).rq_id (lat, resp) in
           (requests.(i), sv))
         outs)
  in
  let payloads svs = String.concat "\n" (List.map (fun (_, sv) -> sv.sv_payload) svs) in
  let served_rounds = List.map served rounds in
  let first = payloads (List.hd served_rounds) in
  res.digest <- md5 first;
  (* Every ok payload must be byte-equal to the same request run
     in-process; campaign requests repeat, so each distinct body runs
     once. *)
  let reference = Hashtbl.create 64 in
  let expected body =
    match Hashtbl.find_opt reference body with
    | Some p -> p
    | None ->
        let out = Serve.Query.run (request_of_body body) in
        let p =
          if out.Serve.Query.status = Serve.Envelope.Ok then compact_of_string out.payload
          else "not ok"
        in
        Hashtbl.add reference body p;
        p
  in
  let check_round what svs =
    check ("serve: " ^ what ^ " serves the same payloads as the first") (payloads svs = first);
    List.iter
      (fun (rq, sv) ->
        check ("serve: ok envelope for " ^ rq.rq_body) sv.sv_ok;
        check ("serve: payload equals in-process run of " ^ rq.rq_body)
          (sv.sv_payload = expected rq.rq_body))
      svs
  in
  List.iter (check_round "every round") served_rounds;
  (* The latency objects of every distinct campaign payload served. *)
  let lat_objs =
    Array.to_list requests
    |> List.filter_map (fun rq -> if rq.rq_campaign then Some rq.rq_body else None)
    |> List.sort_uniq compare
    |> List.concat_map (fun b -> latencies_of_payload (expected b))
  in
  let ms svs = List.map (fun (_, sv) -> 1000.0 *. sv.sv_latency) svs in
  if not o.trace then begin
    let fpr = float per_round in
    emit_common rounds ~ops_per_round:fpr
      ~minor_words_per_op:(median (List.map (fun { value = _, mw, _; _ } -> mw /. fpr) rounds));
    emit_request_latency (List.map (List.map (fun (_, sv) -> sv.sv_latency)) served_rounds);
    let median_run f = int_of_float (median (List.map f lat_objs)) in
    emit_irq
      ~p50:(median_run (fun (p, _, _) -> p))
      ~p999:(median_run (fun (_, p, _) -> p))
      ~max:(median_run (fun (_, _, m) -> m));
    e2e "bound_cycles" (float bound)
  end
  else begin
    (* Per-kind latencies of the untraced rounds, then one traced round
       that also samples the server's queue-depth gauge. *)
    let of_kind campaign =
      ms (List.filter (fun (rq, _) -> rq.rq_campaign = campaign) (List.concat served_rounds))
    in
    layer "serve.analyse_latency_p99_ms" (quantile (of_kind false) 0.99);
    layer "serve.campaign_latency_p50_ms" (quantile (of_kind true) 0.5);
    layer "serve.disk_hit_ratio"
      (median
         (List.map
            (fun { value = _, _, (st : Acache.stats); _ } ->
              ratio st.disk_hits (st.hits + st.disk_hits + st.misses))
            rounds));
    layer "serve.cache_stores" (float (dc1.dc_stores - dc0.dc_stores));
    layer "serve.cache_errors" (float (dc1.dc_errors - dc0.dc_errors));
    let sampling = Atomic.make true and depth_max = ref 0.0 in
    let sampler =
      Thread.create
        (fun () ->
          while Atomic.get sampling do
            (match List.assoc_opt "serve.queue_depth" (Obs.Metrics.snapshot ()).s_gauges with
            | Some d -> depth_max := Float.max !depth_max d
            | None -> ());
            Thread.delay 0.001
          done)
        ()
    in
    let traced = measure (fun () -> round 0) in
    Atomic.set sampling false;
    Thread.join sampler;
    let svs = served traced in
    check_round "the traced round" svs;
    let (), parse_s =
      time (fun () ->
          Array.iter
            (fun rq ->
              match Json.parse rq.rq_line with
              | Ok v -> ignore (Serve.Query.of_json v)
              | Error _ -> ())
            requests)
    in
    let (), envelope_s =
      time (fun () ->
          List.iter
            (fun (_, sv) ->
              ignore
                (Serve.Envelope.wrap ~status:Serve.Envelope.Ok ~elapsed_s:sv.sv_elapsed
                   ~payload:sv.sv_payload ()))
            svs)
    in
    let exec_s = sum (List.map (fun (_, sv) -> sv.sv_elapsed) svs) in
    layer "serve.exec_s" exec_s;
    layer "serve.parse_s" parse_s;
    layer "serve.envelope_s" envelope_s;
    layer "serve.wait_s" (sum (List.map (fun (_, sv) -> sv.sv_latency) svs) -. exec_s);
    layer "serve.queue_depth_max" !depth_max;
    trace_overhead traced.wall_s (walls rounds)
  end;
  Array.iter close_conn conns;
  Serve.Disk_cache.uninstall ();
  Serve.Disk_cache.clear ();
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  try Sys.rmdir o.work_dir with Sys_error _ -> ()

(* ---------- provenance and output ---------- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      l

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git checkout. *)
let current_commit () =
  match read_first_line (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_first_line (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          match open_in (Filename.concat ".git" "packed-refs") with
          | exception Sys_error _ -> "unknown"
          | ic ->
              let rec scan () =
                match input_line ic with
                | exception End_of_file -> "unknown"
                | l -> (
                    match String.split_on_char ' ' l with
                    | [ sha; name ] when name = r -> sha
                    | _ -> scan ())
              in
              let sha = scan () in
              close_in ic;
              sha))
  | Some sha -> sha

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ Json.escape s ^ "\""

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_number v)
             (json_string unit))
         ms)
  ^ "}"

let () =
  let o =
    try parse_opts ()
    with Arg.Bad msg | Arg.Help msg ->
      prerr_endline msg;
      exit 2
  in
  (match o.workload with
  | "soak-1core" -> soak o
  | "smp-4core" -> smp o
  | "analysis-cold" -> analysis o
  | _ -> serve o);
  let metrics =
    if not o.trace then
      List.map
        (fun (name, unit) ->
          match List.assoc_opt name res.e2e with
          | Some v -> (name, unit, v)
          | None ->
              check ("reported " ^ name) false;
              (name, unit, 0.0))
        e2e_units
    else
      List.map
        (fun (name, unit) ->
          (name, unit, Option.value ~default:0.0 (List.assoc_opt name res.layers)))
        layer_units
  in
  List.iter
    (fun (name, _, v) -> check ("finite value of " ^ name) (Float.is_finite v))
    metrics;
  let metrics =
    List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics
  in
  let k = speed_factor () in
  let metrics =
    List.map
      (fun (n, u, v) ->
        match u with "s" | "ms" -> (n, u, v *. k) | "ops/s" -> (n, u, v /. k) | _ -> (n, u, v))
      metrics
  in
  List.iter (fun (n, u, v) -> Printf.eprintf "%-40s %18s %s\n" n (json_number v) u) metrics;
  List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) (List.rev res.failures);
  let provenance =
    Printf.sprintf
      {|{"provenance":{"commit":%s,"workload":%s,"seed":%d,"seconds":%s,"trace":%b,"size":%s,"pool_domains":%d,"nproc":%d,"ocaml":%s,"params":{%s},"probe_chunk_s":%s,"speed_factor":%s},"digest":%s,"wall_s":%s}|}
      (json_string (current_commit ()))
      (json_string o.workload) o.seed (json_number o.seconds) o.trace
      (json_string (match o.size with Full -> "full" | Small -> "small"))
      o.domains nproc (json_string Sys.ocaml_version)
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) res.sizes))
      (json_number (if !probe_chunks = [] then 0.0 else median !probe_chunks))
      (json_number k)
      (json_string res.digest)
      (json_number (now () -. t_start))
  in
  print_endline provenance;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n"
    (res.failed = 0) (max 1 res.attempted) res.failed (metrics_json metrics);
  exit (if res.failed = 0 then 0 else 1)
