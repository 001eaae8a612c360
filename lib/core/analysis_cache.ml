(* Content-keyed memo cache over the WCET analysis pipeline.

   Every quantity the experiments compute is a pure function of a small
   structured key: (build variant, entry point, kernel-model parameters,
   hardware configuration, pinned lines, forced-path constraints, and
   whether the manual constraints apply).  The experiment suite re-derives
   identical tuples dozens of times across table1/table2/fig8/summary, so
   results are memoised at two levels:

   - a *prefix* cache over {!Wcet.Ipet.prepare} (virtual inlining, loop
     detection, cache-analysis fixpoint), shared by every ILP variant over
     the same (build, entry, params, config, pins);
   - a *result* cache over the full {!Wcet.Ipet.analyse_prepared} output.

   Both tables are guarded by one mutex so concurrent domains (the
   {!Parallel} pool) share work instead of duplicating it: the first
   requester of a key inserts a [Pending] marker and computes outside the
   lock; later requesters of the same key block on a condition variable
   until the result (or the exception) lands.  Hit/miss counters feed the
   metrics registry. *)

type prefix_key = {
  pk_build : Sel4.Build.t;
  pk_entry : Kernel_model.entry_point;
  pk_params : Kernel_model.params;
  pk_config : Hw.Config.t;
  pk_pinned_code : int list;
  pk_pinned_data : int list;
}

type result_key = {
  rk_prefix : prefix_key;
  rk_use_constraints : bool;
  rk_sources : Wcet.Ipet.sources;
  rk_forced : (string * string * int) list;
}

type 'a cell = Pending | Ready of ('a, exn) Result.t

let lock = Mutex.create ()
let cond = Condition.create ()

let prefixes : (prefix_key, Wcet.Ipet.prepared cell) Hashtbl.t =
  Hashtbl.create 64

let results : (result_key, Wcet.Ipet.result cell) Hashtbl.t = Hashtbl.create 64

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

let prepared key =
  memo prefixes prefix_hits key (fun () ->
      Obs.Metrics.incr prefix_misses;
      Wcet.Ipet.prepare ~config:key.pk_config ~pinned_code:key.pk_pinned_code
        ~pinned_data:key.pk_pinned_data
        (Kernel_model.spec ~params:key.pk_params key.pk_build key.pk_entry))

(* --- persistence hooks (installed by Serve.Disk_cache) --- *)

type persist = {
  p_load : string -> Wcet.Ipet.persisted option;
      (** canonical key -> stored record, [None] on miss or corruption *)
  p_store : string -> Wcet.Ipet.persisted -> unit;
}

let persist_store : persist option Atomic.t = Atomic.make None
let set_persist p = Atomic.set persist_store p

(* Canonical text rendering of a result key, in the style of
   {!Sel4.Digest}: every field named, one line per component, no
   dependence on hash-table or marshalling order.  The records are
   destructured field by field so that adding a field to any component
   type fails compilation here rather than silently aliasing distinct
   configurations to one cache entry. *)
let render_key (rk : result_key) =
  let b = Buffer.create 512 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  let {
    pk_build;
    pk_entry;
    pk_params;
    pk_config;
    pk_pinned_code;
    pk_pinned_data;
  } =
    rk.rk_prefix
  in
  let { Sel4.Build.sched; vspace; preemption_points; preempt_chunk } =
    pk_build
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
  add "entry %s\n" (Kernel_model.entry_name pk_entry);
  let {
    Kernel_model.decode_depth;
    msg_words;
    extra_caps;
    max_frame_bits;
    max_ep_waiters;
    max_parked;
    preemptible_call;
  } =
    pk_params
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
    pk_config
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
  add "pins code=[%s] data=[%s]\n" (ints pk_pinned_code) (ints pk_pinned_data);
  add "variant constraints=%b sources=%s\n" rk.rk_use_constraints
    (match rk.rk_sources with
    | `All -> "all"
    | `Manual -> "manual"
    | `Derived -> "derived");
  List.iter
    (fun (func, block, count) -> add "forced %s/%s=%d\n" func block count)
    rk.rk_forced;
  Buffer.contents b

(* A cached solution of a *more* constrained sibling (same prefix and
   forced counts) remains feasible for a less constrained variant and
   warm-starts its branch-and-bound: the full constraint set ([`All])
   warm-starts the unconstrained baseline and the single-source
   ([`Manual] / [`Derived]) variants alike. *)
let warm_start_for rkey =
  let find k =
    match Hashtbl.find_opt results k with
    | Some (Ready (Ok r)) -> Some r.Wcet.Ipet.ilp_solution
    | _ -> None
  in
  if not rkey.rk_use_constraints then
    find { rkey with rk_use_constraints = true; rk_sources = `All }
  else
    match rkey.rk_sources with
    | `All -> None
    | `Manual | `Derived -> find { rkey with rk_sources = `All }

let computed ?(params = Kernel_model.default_params) ?(pinned_code = [])
    ?(pinned_data = []) ?(use_constraints = true)
    ?(sources : Wcet.Ipet.sources = `All)
    ?(forced = ([] : (string * string * int) list)) ~config build entry =
  (* With constraints off the sources selector is inert; normalise it so
     the baseline occupies one cache slot instead of three. *)
  let sources = if use_constraints then sources else `All in
  let pkey =
    {
      pk_build = build;
      pk_entry = entry;
      pk_params = params;
      pk_config = config;
      pk_pinned_code = pinned_code;
      pk_pinned_data = pinned_data;
    }
  in
  if not (Atomic.get enabled) then
    Wcet.Ipet.analyse_prepared ~use_constraints ~sources ~forced
      (Wcet.Ipet.prepare ~config ~pinned_code ~pinned_data
         (Kernel_model.spec ~params build entry))
  else begin
    let rkey =
      {
        rk_prefix = pkey;
        rk_use_constraints = use_constraints;
        rk_sources = sources;
        rk_forced = forced;
      }
    in
    memo results result_hits rkey (fun () ->
        let prefix = prepared pkey in
        let solve () =
          Obs.Metrics.incr result_misses;
          let warm_start =
            Mutex.lock lock;
            let w = warm_start_for rkey in
            Mutex.unlock lock;
            w
          in
          Wcet.Ipet.analyse_prepared ~use_constraints ~sources ~forced
            ?warm_start prefix
        in
        match Atomic.get persist_store with
        | None -> solve ()
        | Some store -> (
            let key = render_key rkey in
            match store.p_load key with
            | Some stored -> (
                (* A shape mismatch means a stale or colliding entry:
                   recompute (and overwrite it) rather than crash. *)
                match Wcet.Ipet.rehydrate prefix stored with
                | r ->
                    Obs.Metrics.incr result_disk_hits;
                    r
                | exception Invalid_argument _ ->
                    let r = solve () in
                    store.p_store key (Wcet.Ipet.to_persisted r);
                    r)
            | None ->
                let r = solve () in
                store.p_store key (Wcet.Ipet.to_persisted r);
                r))
  end

let computed_cycles ?params ?pinned_code ?pinned_data ?use_constraints ?sources
    ?forced ~config build entry =
  (computed ?params ?pinned_code ?pinned_data ?use_constraints ?sources ?forced
     ~config build entry)
    .Wcet.Ipet.wcet
