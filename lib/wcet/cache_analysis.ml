(* Static cache analysis over the inlined CFG.

   A must-analysis fixpoint (descending Kleene iteration from top) computes,
   for every block, the set of cache lines guaranteed present on entry under
   the paper's conservative direct-mapped model.  From the entry states we
   derive a sound per-block cycle cost:

   - instruction issue: 1 cycle per instruction;
   - instruction fetch: one miss penalty per code line not guaranteed
     present (a guaranteed line overlaps fetch and costs nothing);
   - static data accesses: L1-hit cycles when guaranteed, otherwise the
     full memory latency;
   - dynamic data accesses: always the full memory latency, and they
     clobber all data-cache guarantees (any set may be evicted);
   - conditional branches: the constant branch cost (the analysis never
     models the predictor, exactly as in Section 5.1).

   The analysis credits the L2 cache only for addresses locked into it
   (the Section 8 configuration); everywhere else, enabling the L2 *raises*
   the conservative miss penalty from 60 to 96 cycles, which is why
   computed bounds grow with the L2 on (Table 2) even though observed
   times barely change. *)

type block_cost = {
  cycles : int;
  fetch_misses : int;
  fetch_hits : int;
  data_misses : int;
  data_hits : int;
}

type t = {
  costs : block_cost array;
  icache_in : Abstract_cache.t array;
  dcache_in : Abstract_cache.t array;
}

let cost t id = t.costs.(id)

let transfer ~config ~(payload : Timing.t) ~num_succs istate dstate =
  let miss_penalty = Hw.Config.worst_miss_cycles config in
  (* Addresses locked into the L2 (Section 8) can never cost more than an
     L2 hit; statically unknown addresses cannot be proven in-range. *)
  let penalty_for addr =
    if Hw.Config.l2_locked config addr then config.Hw.Config.l2_hit_cycles
    else miss_penalty
  in
  let hit = config.Hw.Config.l1_hit_cycles in
  let fetch_misses = ref 0 and fetch_hits = ref 0 in
  let cycles = ref 0 in
  List.iter
    (fun line ->
      if Abstract_cache.must_hit istate line then incr fetch_hits
      else begin
        incr fetch_misses;
        cycles := !cycles + penalty_for line;
        Abstract_cache.access istate line
      end)
    (Timing.code_lines payload ~line_size:config.Hw.Config.l1_line);
  let data_misses = ref 0 and data_hits = ref 0 in
  List.iter
    (fun access ->
      match access with
      | Timing.Static { addr; write = _ } ->
          if Abstract_cache.must_hit dstate addr then incr data_hits
          else begin
            incr data_misses;
            cycles := !cycles + penalty_for addr;
            Abstract_cache.access dstate addr
          end
      | Timing.Dynamic { count; write = _ } ->
          data_misses := !data_misses + count;
          cycles := !cycles + (count * miss_penalty);
          Abstract_cache.clobber dstate)
    payload.Timing.accesses;
  let branch_cycles =
    if Timing.ends_in_branch payload ~num_succs then
      config.Hw.Config.branch_cost_static
    else 0
  in
  let cycles =
    payload.Timing.instrs + !cycles + (!data_hits * hit) + branch_cycles
  in
  {
    cycles;
    fetch_misses = !fetch_misses;
    fetch_hits = !fetch_hits;
    data_misses = !data_misses;
    data_hits = !data_hits;
  }

let analyse ~config ?(pinned_code = []) ?(pinned_data = [])
    (fn : Timing.t Cfg.Flowgraph.fn) =
  let n = Cfg.Flowgraph.num_blocks fn in
  let line_size = config.Hw.Config.l1_line in
  (* One-way model: sets spanning a single way's worth of cache. *)
  let sets = config.Hw.Config.l1_sets in
  let fresh pinned_lines =
    Abstract_cache.create ~line_size ~sets ~pinned_lines
  in
  let icache_in : Abstract_cache.t option array = Array.make n None in
  let dcache_in : Abstract_cache.t option array = Array.make n None in
  let preds = Cfg.Flowgraph.preds fn in
  let out_states : (Abstract_cache.t * Abstract_cache.t) option array =
    Array.make n None
  in
  let meet mk states =
    match states with
    | [] -> mk ()
    | first :: rest ->
        List.fold_left Abstract_cache.join (Abstract_cache.copy first) rest
  in
  let queue = Queue.create () in
  let enqueued = Array.make n false in
  let push b =
    if not enqueued.(b) then begin
      enqueued.(b) <- true;
      Queue.push b queue
    end
  in
  push fn.Cfg.Flowgraph.entry;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    enqueued.(b) <- false;
    let in_i, in_d =
      if b = fn.Cfg.Flowgraph.entry then
        (* Cold caches on kernel entry: nothing guaranteed but pins. *)
        (fresh pinned_code, fresh pinned_data)
      else begin
        let avail =
          List.filter_map (fun p -> out_states.(p)) preds.(b)
        in
        ( meet (fun () -> fresh pinned_code) (List.map fst avail),
          meet (fun () -> fresh pinned_data) (List.map snd avail) )
      end
    in
    let changed =
      match (icache_in.(b), dcache_in.(b)) with
      | Some old_i, Some old_d ->
          not (Abstract_cache.equal old_i in_i && Abstract_cache.equal old_d in_d)
      | _ -> true
    in
    if changed then begin
      icache_in.(b) <- Some (Abstract_cache.copy in_i);
      dcache_in.(b) <- Some (Abstract_cache.copy in_d);
      let block = Cfg.Flowgraph.block fn b in
      let istate = Abstract_cache.copy in_i and dstate = Abstract_cache.copy in_d in
      ignore
        (transfer ~config ~payload:block.Cfg.Flowgraph.payload
           ~num_succs:(List.length block.Cfg.Flowgraph.succs)
           istate dstate);
      out_states.(b) <- Some (istate, dstate);
      List.iter push block.Cfg.Flowgraph.succs
    end
  done;
  (* Final pass: per-block costs from the converged entry states. *)
  let costs =
    Array.init n (fun b ->
        match (icache_in.(b), dcache_in.(b)) with
        | Some in_i, Some in_d ->
            let block = Cfg.Flowgraph.block fn b in
            transfer ~config ~payload:block.Cfg.Flowgraph.payload
              ~num_succs:(List.length block.Cfg.Flowgraph.succs)
              (Abstract_cache.copy in_i) (Abstract_cache.copy in_d)
        | _ ->
            (* Unreachable block: cost irrelevant; make it harmless. *)
            {
              cycles = 0;
              fetch_misses = 0;
              fetch_hits = 0;
              data_misses = 0;
              data_hits = 0;
            })
  in
  let unwrap mk = function Some s -> s | None -> mk () in
  {
    costs;
    icache_in = Array.map (unwrap (fun () -> fresh pinned_code)) icache_in;
    dcache_in = Array.map (unwrap (fun () -> fresh pinned_data)) dcache_in;
  }
