(* Content-keyed memo cache over the WCET analysis pipeline.

   Every quantity the experiments compute is a pure function of one
   analysis request: an {!Analysis_ctx.t} (build, kernel-model
   parameters, hardware configuration, pinned lines), an entry point, a
   constraint selector and forced-path counts.  The experiment suite
   re-derives identical requests dozens of times across
   table1/table2/fig8/summary, so results are memoised at two levels:

   - a *prefix* cache over {!Wcet.Ipet.prepare} (virtual inlining, loop
     detection, cache-analysis fixpoint), shared by every ILP variant over
     the same context and entry point;
   - a *result* cache over the full {!Wcet.Ipet.analyse_prepared} output.

   Both tables are keyed by the canonical key text ({!render_prefix},
   plus {!render_variant} for results), the same text that addresses the
   persistent store, so memory and disk agree on what a key is by
   construction.  Both are guarded by one mutex so concurrent domains
   (the {!Parallel} pool) share work instead of duplicating it: the first
   requester of a key inserts a [Pending] marker and computes outside the
   lock; later requesters of the same key block on a condition variable
   until the result (or the exception) lands.  Hit/miss counters feed the
   metrics registry. *)

type 'a cell = Pending | Ready of ('a, exn) Result.t

let lock = Mutex.create ()
let cond = Condition.create ()

let prefixes : (string, Wcet.Ipet.prepared cell) Hashtbl.t = Hashtbl.create 64
let results : (string, Wcet.Ipet.result cell) Hashtbl.t = Hashtbl.create 64

(* Counters live in the process-wide metrics registry, so `sel4rt metrics`
   and the serve `metrics` query read the same numbers as {!stats}.  A
   result-cache lookup resolves to exactly one of: an in-memory hit, a
   persistent-store hit (a memory miss satisfied from disk with no ILP
   solve), or a miss (a cold computation) — the three counters partition
   the lookups, so a disk hit is never counted as both a hit and a
   miss. *)
let result_hits = Obs.Metrics.counter "analysis_cache.result_hits"
let result_misses = Obs.Metrics.counter "analysis_cache.result_misses"
let result_disk_hits = Obs.Metrics.counter "analysis_cache.disk_hits"
let prefix_hits = Obs.Metrics.counter "analysis_cache.prefix_hits"
let prefix_misses = Obs.Metrics.counter "analysis_cache.prefix_misses"

let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b

type stats = {
  hits : int;
  misses : int;
  disk_hits : int;
  prefix_hits : int;
  prefix_misses : int;
}

let stats () =
  {
    hits = Obs.Metrics.value result_hits;
    misses = Obs.Metrics.value result_misses;
    disk_hits = Obs.Metrics.value result_disk_hits;
    prefix_hits = Obs.Metrics.value prefix_hits;
    prefix_misses = Obs.Metrics.value prefix_misses;
  }

let hit_rate { hits; misses; disk_hits; _ } =
  let total = hits + disk_hits + misses in
  if total = 0 then 0.0 else float_of_int (hits + disk_hits) /. float_of_int total

let reset () =
  Mutex.lock lock;
  (* Pending entries belong to in-flight computations; dropping them would
     strand their waiters, so only settled entries are cleared. *)
  let settled tbl =
    Hashtbl.fold
      (fun k cell acc -> match cell with Ready _ -> k :: acc | Pending -> acc)
      tbl []
  in
  List.iter (Hashtbl.remove prefixes) (settled prefixes);
  List.iter (Hashtbl.remove results) (settled results);
  Mutex.unlock lock;
  List.iter
    (fun c -> Obs.Metrics.set_counter c 0)
    [ result_hits; result_misses; result_disk_hits; prefix_hits; prefix_misses ]

(* Compute-once memoisation: the first requester computes, everyone else
   waits for the settled cell.  Cached exceptions are re-raised (the
   pipeline is deterministic, so a failure is as cacheable as a result).
   The miss counter is the compute closure's responsibility: the result
   cache attributes a memory miss to either the persistent store or a
   cold computation, which only the closure can distinguish. *)
let memo tbl hit key compute =
  let settle = function Ok v -> v | Error e -> raise e in
  (* Count each logical lookup once, whichever state it first observes
     (waiting on an in-flight key counts as a hit). *)
  let counted = ref false in
  let count c =
    if not !counted then begin
      Obs.Metrics.incr c;
      counted := true
    end
  in
  Mutex.lock lock;
  let rec loop () =
    match Hashtbl.find_opt tbl key with
    | Some (Ready out) ->
        count hit;
        Mutex.unlock lock;
        settle out
    | Some Pending ->
        count hit;
        Condition.wait cond lock;
        (* The key may have been dropped by a concurrent [reset] between
           settling and this wakeup; [loop] then recomputes it. *)
        loop ()
    | None ->
        counted := true;
        Hashtbl.replace tbl key Pending;
        Mutex.unlock lock;
        let out = try Ok (compute ()) with e -> Error e in
        Mutex.lock lock;
        Hashtbl.replace tbl key (Ready out);
        Condition.broadcast cond;
        Mutex.unlock lock;
        settle out
  in
  loop ()

let prepare ({ config; params; pins; build } : Analysis_ctx.t) entry =
  Wcet.Ipet.prepare ~config ~pinned_code:pins.code ~pinned_data:pins.data
    (Kernel_model.spec ~params build entry)

let prepared key ctx entry =
  memo prefixes prefix_hits key (fun () ->
      Obs.Metrics.incr prefix_misses;
      prepare ctx entry)

(* --- persistence hooks (installed by Serve.Disk_cache) --- *)

type persist = {
  p_load : string -> Wcet.Ipet.persisted option;
      (** canonical key -> stored record, [None] on miss or corruption *)
  p_store : string -> Wcet.Ipet.persisted -> unit;
}

let persist_store : persist option Atomic.t = Atomic.make None
let set_persist p = Atomic.set persist_store p

(* Canonical text rendering of an analysis request, in the style of
   {!Sel4.Digest}: every field named, one line per component, no
   dependence on hash-table or marshalling order.  The records are
   destructured field by field so that adding a field to any component
   type fails compilation here rather than silently aliasing distinct
   configurations to one cache entry.  The prefix text keys
   {!Wcet.Ipet.prepare}'s inputs; a result key appends the variant. *)
let render_prefix (ctx : Analysis_ctx.t) entry =
  let b = Buffer.create 512 in
  let add fmt = Printf.bprintf b fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  let { Analysis_ctx.config; params; pins = { code; data }; build } = ctx in
  let { Sel4.Build.sched; vspace; preemption_points; preempt_chunk } =
    build
  in
  add "build sched=%s vspace=%s preempt=%b chunk=%d\n"
    (match sched with
    | Sel4.Build.Lazy -> "lazy"
    | Sel4.Build.Benno -> "benno"
    | Sel4.Build.Benno_bitmap -> "benno_bitmap")
    (match vspace with
    | Sel4.Build.Asid_table -> "asid_table"
    | Sel4.Build.Shadow_tables -> "shadow_tables")
    preemption_points preempt_chunk;
  add "entry %s\n" (Kernel_model.entry_name entry);
  let {
    Kernel_model.decode_depth;
    msg_words;
    extra_caps;
    max_frame_bits;
    max_ep_waiters;
    max_parked;
    preemptible_call;
  } =
    params
  in
  add
    "params depth=%d msg=%d caps=%d frame_bits=%d waiters=%d parked=%d \
     preemptible_call=%b\n"
    decode_depth msg_words extra_caps max_frame_bits max_ep_waiters max_parked
    preemptible_call;
  let {
    Hw.Config.clock_mhz;
    replacement;
    l1_line;
    l1_sets;
    l1_ways;
    l1_hit_cycles;
    l2_enabled;
    l2_line;
    l2_sets;
    l2_ways;
    l2_hit_cycles;
    mem_cycles_l2_off;
    mem_cycles_l2_on;
    writeback_fraction;
    branch_predictor;
    branch_cost_static;
    branch_cost_predicted;
    branch_cost_mispredicted;
    locked_ways_i;
    locked_ways_d;
    l2_locked_base;
    l2_locked_bytes;
  } =
    config
  in
  add "config clock=%h repl=%s l1=%d/%d/%d+%d l2=%b/%d/%d/%d+%d\n" clock_mhz
    (match replacement with
    | Hw.Config.Lru -> "lru"
    | Hw.Config.Round_robin -> "rr")
    l1_line l1_sets l1_ways l1_hit_cycles l2_enabled l2_line l2_sets l2_ways
    l2_hit_cycles;
  add
    "config mem=%d/%d wb=%d bp=%b/%d/%d/%d lock_ways=%d/%d l2lock=%d+%d\n"
    mem_cycles_l2_off mem_cycles_l2_on writeback_fraction branch_predictor
    branch_cost_static branch_cost_predicted branch_cost_mispredicted
    locked_ways_i locked_ways_d l2_locked_base l2_locked_bytes;
  add "pins code=[%s] data=[%s]\n" (ints code) (ints data);
  Buffer.contents b

let render_variant (sources : Wcet.Ipet.sources) forced =
  let b = Buffer.create 64 in
  let add fmt = Printf.bprintf b fmt in
  add "variant sources=%s\n"
    (match sources with
    | `All -> "all"
    | `Manual -> "manual"
    | `Derived -> "derived"
    | `None -> "none");
  List.iter
    (fun (func, block, count) -> add "forced %s/%s=%d\n" func block count)
    forced;
  Buffer.contents b

let computed ?(sources : Wcet.Ipet.sources = `All)
    ?(forced = ([] : (string * string * int) list)) ctx entry =
  if not (Atomic.get enabled) then
    Wcet.Ipet.analyse_prepared ~sources ~forced (prepare ctx entry)
  else
    let pkey = render_prefix ctx entry in
    let key = pkey ^ render_variant sources forced in
    memo results result_hits key (fun () ->
        let prefix = prepared pkey ctx entry in
        let solve () =
          Obs.Metrics.incr result_misses;
          Wcet.Ipet.analyse_prepared ~sources ~forced prefix
        in
        match Atomic.get persist_store with
        | None -> solve ()
        | Some store -> (
            (* A shape mismatch means a stale or colliding entry:
               recompute (and overwrite it) rather than crash. *)
            let rehydrated stored =
              match Wcet.Ipet.rehydrate prefix stored with
              | r -> Some r
              | exception Invalid_argument _ -> None
            in
            match Option.bind (store.p_load key) rehydrated with
            | Some r ->
                Obs.Metrics.incr result_disk_hits;
                r
            | None ->
                let r = solve () in
                store.p_store key (Wcet.Ipet.to_persisted r);
                r))
