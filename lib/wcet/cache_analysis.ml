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

type t = { costs : block_cost array }

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

let no_cost =
  {
    cycles = 0;
    fetch_misses = 0;
    fetch_hits = 0;
    data_misses = 0;
    data_hits = 0;
  }

(* The fixpoint allocates each block's in- and out-states once, on its
   first visit, and overwrites them in place on later visits; meets join
   into one scratch pair.  All states are copies of one cold state per
   cache, so they share its pin table. *)
let analyse ~config ?(pinned_code = []) ?(pinned_data = []) ~preds
    (fn : Timing.t Cfg.Flowgraph.fn) =
  let n = Cfg.Flowgraph.num_blocks fn in
  let line_size = config.Hw.Config.l1_line in
  (* One-way model: sets spanning a single way's worth of cache. *)
  let sets = config.Hw.Config.l1_sets in
  let cold pinned_lines =
    Abstract_cache.create ~line_size ~sets ~pinned_lines
  in
  let cold_i = cold pinned_code and cold_d = cold pinned_data in
  let meet_i = Abstract_cache.copy cold_i
  and meet_d = Abstract_cache.copy cold_d in
  (* [changes.(b)] counts the visits that set [b]'s states.  Until the
     first, [in_*.(b)] and [out_*.(b)] hold the cold state as a
     placeholder.  After it, an in-state only loses guarantees, a set at
     a time at least, so it changes at most [2 * sets] more times; more
     means a state was updated where it is shared, and the iteration
     would never end. *)
  let changes = Array.make n 0 in
  let in_i = Array.make n cold_i and in_d = Array.make n cold_d in
  let out_i = Array.make n cold_i and out_d = Array.make n cold_d in
  (* Join the out-states of the visited predecessors of [b] into the meet
     pair; with none (or at the entry: cold caches on kernel entry),
     nothing is guaranteed but pins. *)
  let meet b =
    let first = ref true in
    if b <> fn.Cfg.Flowgraph.entry then
      List.iter
        (fun p ->
          if changes.(p) > 0 then
            if !first then begin
              first := false;
              Abstract_cache.blit ~src:out_i.(p) ~dst:meet_i;
              Abstract_cache.blit ~src:out_d.(p) ~dst:meet_d
            end
            else begin
              Abstract_cache.join ~into:meet_i out_i.(p);
              Abstract_cache.join ~into:meet_d out_d.(p)
            end)
        preds.(b);
    if !first then begin
      Abstract_cache.clobber meet_i;
      Abstract_cache.clobber meet_d
    end
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
    meet b;
    let changed =
      if changes.(b) = 0 then begin
        in_i.(b) <- Abstract_cache.copy meet_i;
        in_d.(b) <- Abstract_cache.copy meet_d;
        out_i.(b) <- Abstract_cache.copy meet_i;
        out_d.(b) <- Abstract_cache.copy meet_d;
        true
      end
      else if
        Abstract_cache.equal in_i.(b) meet_i
        && Abstract_cache.equal in_d.(b) meet_d
      then false
      else begin
        Abstract_cache.blit ~src:meet_i ~dst:in_i.(b);
        Abstract_cache.blit ~src:meet_d ~dst:in_d.(b);
        Abstract_cache.blit ~src:meet_i ~dst:out_i.(b);
        Abstract_cache.blit ~src:meet_d ~dst:out_d.(b);
        true
      end
    in
    if changed then begin
      changes.(b) <- changes.(b) + 1;
      assert (changes.(b) <= (2 * sets) + 1);
      let block = Cfg.Flowgraph.block fn b in
      ignore
        (transfer ~config ~payload:block.Cfg.Flowgraph.payload
           ~num_succs:(List.length block.Cfg.Flowgraph.succs)
           out_i.(b) out_d.(b));
      List.iter push block.Cfg.Flowgraph.succs
    end
  done;
  (* Final pass: per-block costs from the converged entry states, run in
     the meet pair as scratch. *)
  let costs =
    Array.init n (fun b ->
        if changes.(b) = 0 then
          (* Unreachable block: cost irrelevant; make it harmless. *)
          no_cost
        else begin
          let block = Cfg.Flowgraph.block fn b in
          Abstract_cache.blit ~src:in_i.(b) ~dst:meet_i;
          Abstract_cache.blit ~src:in_d.(b) ~dst:meet_d;
          transfer ~config ~payload:block.Cfg.Flowgraph.payload
            ~num_succs:(List.length block.Cfg.Flowgraph.succs)
            meet_i meet_d
        end)
  in
  { costs }
