(* Memory hierarchy and branch costs for the simulated platform.

   Access costs (in cycles):
   - L1 hit: [l1_hit_cycles]
   - L1 miss, L2 hit (L2 enabled): [l2_hit_cycles]
   - L1 miss, L2 miss or disabled: external memory latency (60 cycles with
     the L2 off, 96 with it on, matching the KZM board in Section 5.1)
   - a dirty eviction at either level adds a write-back cost.
   Branches cost a constant [branch_cost_static] cycles with the predictor
   disabled, otherwise [branch_cost_predicted] / [branch_cost_mispredicted]. *)

(* Run memo: a direct-mapped table of probed fetch runs, keyed by base.
   Slot [i] holds (base, count, I-cache generation) at words [3i .. 3i+2];
   an empty slot holds -1s, which no run matches. *)
let memo_slots = 256

type t = {
  config : Config.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t option;
  bpred : Branch_predictor.t;
  mem : int;  (* Config.mem_cycles *)
  writeback : int;  (* Config.writeback_cycles: a division, done once *)
  runs : int array;  (* the run memo *)
}

let create (config : Config.t) =
  let policy =
    match config.Config.replacement with
    | Config.Lru -> Cache.Lru
    | Config.Round_robin -> Cache.Round_robin
  in
  let l1 () =
    Cache.create ~policy ~line_size:config.l1_line ~sets:config.l1_sets
      ~ways:config.l1_ways ()
  in
  let icache = l1 () and dcache = l1 () in
  Cache.lock_ways icache config.locked_ways_i;
  Cache.lock_ways dcache config.locked_ways_d;
  let l2 =
    if config.l2_enabled then
      Some
        (Cache.create ~policy ~line_size:config.l2_line ~sets:config.l2_sets
           ~ways:config.l2_ways ())
    else None
  in
  {
    config;
    icache;
    dcache;
    l2;
    bpred = Branch_predictor.create ();
    mem = Config.mem_cycles config;
    writeback = Config.writeback_cycles config;
    runs = Array.make (3 * memo_slots) (-1);
  }

let config t = t.config
let icache t = t.icache
let dcache t = t.dcache
let l2 t = t.l2

(* Cost of an access that missed in L1, possibly serviced by the L2.
   Addresses inside the L2-locked range are always resident there
   (Section 8), so they cost an L2 hit and touch no L2 state. *)
let below_l1 t ~write addr =
  match t.l2 with
  | None -> t.mem
  | Some _ when Config.l2_locked t.config addr -> t.config.l2_hit_cycles
  | Some l2 ->
      let e = Cache.access_enc l2 ~write addr in
      if e = 0 then t.config.l2_hit_cycles
      else t.mem + if e = 2 then t.writeback else 0

let data_access t ~write addr =
  let e = Cache.access_enc t.dcache ~write addr in
  if e = 0 then t.config.l1_hit_cycles
  else
    (* A dirty L1 eviction writes back to the L2 when one exists (the
       write is absorbed by the L2 and its buffers); only without an L2
       does it pay the memory-latency write-back. *)
    below_l1 t ~write addr
    + if e = 2 && Option.is_none t.l2 then t.writeback else 0

let read t addr = data_access t ~write:false addr
let write t addr = data_access t ~write:true addr

let fetch t addr =
  let e = Cache.access_enc t.icache ~write:false addr in
  if e = 0 then 0 (* fetch overlaps with execution on a hit *)
  else
    below_l1 t ~write:false addr
    + if e = 2 && Option.is_none t.l2 then t.writeback else 0

(* Stall cycles for [count] sequential 4-byte instruction fetches starting
   at [base], equivalent to summing [fetch] over every address but probing
   the I-cache only once per line.  After the first access to a line (hit
   or miss — a miss always installs, since lockdown leaves at least one
   unlocked way), the remaining fetches on that line are guaranteed hits
   with zero stall, and re-touching the line the previous fetch just made
   most-recently-used cannot change any future replacement decision; they
   are accounted in bulk via {!Cache.note_seq_hits}.

   The run memo replays a whole run without probing.  After a probed run
   of at most [sets] lines (so no two of them share a set), each of its
   lines is resident and is its set's MRU line, or a pinned line, which a
   hit never touches.  While the I-cache generation stays unchanged no
   line has been installed, evicted or touched, so that still holds; a
   later run from the same base with no more instructions fetches a
   prefix of those lines, and fetching them again is all hits that
   change no replacement state.  It is accounted as [count] hits with
   zero stall.  Data accesses never touch the I-cache, so polling loops
   (a preemption-point check fetching the same region between loads)
   replay this way. *)
let fetch_run t ~base ~count =
  if count <= 0 then 0
  else begin
    let ic = t.icache in
    let slot = 3 * ((base lsr 5) land (memo_slots - 1)) in
    let runs = t.runs in
    if
      Array.unsafe_get runs slot = base
      && count <= Array.unsafe_get runs (slot + 1)
      && Array.unsafe_get runs (slot + 2) = Cache.generation ic
    then begin
      Cache.note_seq_hits ic count;
      0
    end
    else begin
      let line = t.config.Config.l1_line in
      let total = ref 0 in
      let seq = ref 0 in
      let i = ref 0 in
      while !i < count do
        let addr = base + (4 * !i) in
        let left_on_line = (line - (addr land (line - 1))) / 4 in
        let n = Int.min (count - !i) (Int.max 1 left_on_line) in
        let e = Cache.access_enc ic ~write:false addr in
        if e <> 0 then
          total :=
            !total + below_l1 t ~write:false addr
            + if e = 2 && Option.is_none t.l2 then t.writeback else 0;
        seq := !seq + (n - 1);
        i := !i + n
      done;
      Cache.note_seq_hits ic !seq;
      let lines = ((base + (4 * (count - 1))) / line) - (base / line) + 1 in
      if lines <= Cache.sets ic then begin
        Array.unsafe_set runs slot base;
        Array.unsafe_set runs (slot + 1) count;
        Array.unsafe_set runs (slot + 2) (Cache.generation ic)
      end;
      !total
    end
  end

let branch t ~pc ~taken =
  if not t.config.branch_predictor then t.config.branch_cost_static
  else if Branch_predictor.predict_and_update t.bpred ~pc ~taken then
    t.config.branch_cost_predicted
  else t.config.branch_cost_mispredicted

let pin_icache t addr = Cache.pin t.icache addr
let pin_dcache t addr = Cache.pin t.dcache addr

(* Route pin-eviction observations from both L1 caches through one
   labelled callback (the {!Cpu} module points this at its trace buffer). *)
let set_pin_evict_hook t hook =
  match hook with
  | None ->
      Cache.set_pin_evict_hook t.icache None;
      Cache.set_pin_evict_hook t.dcache None
  | Some f ->
      Cache.set_pin_evict_hook t.icache (Some (fun addr -> f "icache" addr));
      Cache.set_pin_evict_hook t.dcache (Some (fun addr -> f "dcache" addr))

let pollute t ~seed =
  Cache.pollute t.icache ~seed;
  Cache.pollute t.dcache ~seed:(seed + 1);
  (* The L2's junk is clean: its write-back traffic is not part of the
     latency the measured path pays on real hardware (write buffers). *)
  Option.iter (fun l2 -> Cache.pollute ~dirty:false l2 ~seed:(seed + 2)) t.l2;
  Branch_predictor.reset t.bpred

let flush t =
  Cache.flush t.icache;
  Cache.flush t.dcache;
  Option.iter Cache.flush t.l2;
  Branch_predictor.reset t.bpred
