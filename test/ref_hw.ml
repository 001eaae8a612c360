(* A naive reference model of the simulated memory hierarchy, for
   differential tests of [Hw].

   It follows the same [Hw.Config] semantics as [Hw.Machine] and
   [Hw.Cpu] (way lockdown, LRU or round-robin replacement, the optional
   L2 and its locked range, write-back costs, pinning, pollution and
   flushing) in the plainest form available: one record per line, one
   recency list per set, every instruction fetched one by one, and no
   packing, memo or counted hit anywhere.  Where [Hw] answers a hit
   without probing, this model probes; where [Hw] replays a run, this
   model fetches it again.  Agreement after every operation is the
   evidence that the shortcuts are exact. *)

type line = { tag : int; mutable dirty : bool; mutable pinned : bool }

type cache = {
  line_size : int;
  sets : int;
  ways : int;
  round_robin : bool;
  locked : int;  (* the first [locked] ways of every set hold only pins *)
  lines : line option array array;  (* [set].(way) *)
  order : int list array;
      (* per set, its ways from least to most recently used; ways never
         used since a flush or pollute come first, lowest way first *)
  rr : int array;  (* per set, the round-robin cursor *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
}

let cache ~round_robin ~line_size ~sets ~ways ~locked =
  {
    line_size;
    sets;
    ways;
    round_robin;
    locked;
    lines = Array.init sets (fun _ -> Array.make ways None);
    order = Array.make sets (List.init ways Fun.id);
    rr = Array.make sets 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    dirty_evictions = 0;
  }

let set_of c addr = addr / c.line_size mod c.sets
let tag_of c addr = addr / (c.line_size * c.sets)

let find c s tag =
  let rec go w =
    if w = c.ways then None
    else
      match c.lines.(s).(w) with
      | Some l when l.tag = tag -> Some w
      | _ -> go (w + 1)
  in
  go 0

let touch c s w = c.order.(s) <- List.filter (fun v -> v <> w) c.order.(s) @ [ w ]

let victim c s =
  if c.round_robin then begin
    let unlocked = c.ways - c.locked in
    let w = c.locked + (c.rr.(s) mod unlocked) in
    c.rr.(s) <- (c.rr.(s) + 1) mod unlocked;
    w
  end
  else List.find (fun w -> w >= c.locked) c.order.(s)

(* [None] on a hit; [Some evicted_dirty] on a miss. *)
let access c ~write addr =
  let s = set_of c addr and tag = tag_of c addr in
  match find c s tag with
  | Some w ->
      c.hits <- c.hits + 1;
      let l = Option.get c.lines.(s).(w) in
      if write then l.dirty <- true;
      if not l.pinned then touch c s w;
      None
  | None ->
      c.misses <- c.misses + 1;
      if c.locked >= c.ways then Some false
      else begin
        let w = victim c s in
        let evicted_dirty =
          match c.lines.(s).(w) with
          | None -> false
          | Some l ->
              c.evictions <- c.evictions + 1;
              if l.dirty then c.dirty_evictions <- c.dirty_evictions + 1;
              l.dirty
        in
        c.lines.(s).(w) <- Some { tag; dirty = write; pinned = false };
        touch c s w;
        Some evicted_dirty
      end

let pin c addr =
  let s = set_of c addr and tag = tag_of c addr in
  if c.locked = 0 then false
  else
    match find c s tag with
    | Some w ->
        (Option.get c.lines.(s).(w)).pinned <- true;
        true
    | None -> (
        let free w =
          match c.lines.(s).(w) with None -> true | Some l -> not l.pinned
        in
        match List.find_opt free (List.init c.locked Fun.id) with
        | None -> false
        | Some w ->
            c.lines.(s).(w) <- Some { tag; dirty = false; pinned = true };
            touch c s w;
            true)

(* Replace every unpinned line of every set with [fresh set way]; the
   replaced ways become the least recently used, lowest way first. *)
let refill c fresh =
  for s = 0 to c.sets - 1 do
    let pinned w =
      match c.lines.(s).(w) with Some l -> l.pinned | None -> false
    in
    let cleared = List.filter (fun w -> not (pinned w)) (List.init c.ways Fun.id) in
    List.iter (fun w -> c.lines.(s).(w) <- fresh s w) cleared;
    c.order.(s) <- cleared @ List.filter pinned c.order.(s)
  done

let flush c = refill c (fun _ _ -> None)

(* Junk tags beyond the address space, as [Hw.Cache.pollute] makes them. *)
let pollute ?(dirty = true) c ~seed =
  refill c (fun s w ->
      Some
        {
          tag = (max_int / 2) + (s * c.ways) + w + (seed land 0xffff);
          dirty;
          pinned = false;
        })

let stats c =
  {
    Hw.Cache.hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    dirty_evictions = c.dirty_evictions;
  }

let line c ~set ~way =
  Option.map (fun l -> (l.tag, l.dirty, l.pinned)) c.lines.(set).(way)

(* --- the machine and its cycle accounting --- *)

type t = {
  config : Hw.Config.t;
  icache : cache;
  dcache : cache;
  l2 : cache option;
  mutable cycles : int;
  mutable stall : int;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
}

let create (config : Hw.Config.t) =
  let round_robin = config.replacement = Hw.Config.Round_robin in
  let l1 locked =
    cache ~round_robin ~line_size:config.l1_line ~sets:config.l1_sets
      ~ways:config.l1_ways ~locked
  in
  {
    config;
    icache = l1 config.locked_ways_i;
    dcache = l1 config.locked_ways_d;
    l2 =
      (if config.l2_enabled then
         Some
           (cache ~round_robin ~line_size:config.l2_line ~sets:config.l2_sets
              ~ways:config.l2_ways ~locked:0)
       else None);
    cycles = 0;
    stall = 0;
    instructions = 0;
    loads = 0;
    stores = 0;
  }

let mem t =
  if t.config.l2_enabled then t.config.mem_cycles_l2_on
  else t.config.mem_cycles_l2_off

let writeback t = mem t / t.config.writeback_fraction

(* The cost of an L1 access: [hit] on a hit; otherwise the L2 (an
   address in the L2-locked range always hits there, untouched) or
   memory, plus a write-back for a dirty victim at the level that pays
   one (the L2 absorbs dirty L1 victims). *)
let l1_access t c ~write ~hit addr =
  match access c ~write addr with
  | None -> hit
  | Some l1_dirty -> (
      match t.l2 with
      | None -> mem t + if l1_dirty then writeback t else 0
      | Some _ when Hw.Config.l2_locked t.config addr -> t.config.l2_hit_cycles
      | Some l2 -> (
          match access l2 ~write addr with
          | None -> t.config.l2_hit_cycles
          | Some l2_dirty -> mem t + if l2_dirty then writeback t else 0))

let fetch t addr = l1_access t t.icache ~write:false ~hit:0 addr

let exec t ~base ~count =
  for i = 0 to count - 1 do
    let lat = fetch t (base + (4 * i)) in
    t.instructions <- t.instructions + 1;
    t.cycles <- t.cycles + 1 + lat;
    t.stall <- t.stall + lat
  done

let data t ~write addr =
  let hit = t.config.l1_hit_cycles in
  let lat = l1_access t t.dcache ~write ~hit addr in
  t.cycles <- t.cycles + lat;
  t.stall <- t.stall + if lat > hit then lat - hit else 0

let load t addr =
  t.loads <- t.loads + 1;
  data t ~write:false addr

let store t addr =
  t.stores <- t.stores + 1;
  data t ~write:true addr

let scan t ~base ~count ~addr ~stride ~steps =
  for i = 0 to steps - 1 do
    exec t ~base ~count;
    load t (addr + (i * stride))
  done

let block f t addr bytes =
  let line = t.config.l1_line in
  for i = 0 to ((bytes + line - 1) / line) - 1 do
    f t (addr + (i * line))
  done

let load_block = block load
let store_block = block store
let pin_icache t addr = pin t.icache addr
let pin_dcache t addr = pin t.dcache addr

let pollute t ~seed =
  pollute t.icache ~seed;
  pollute t.dcache ~seed:(seed + 1);
  Option.iter (fun l2 -> pollute ~dirty:false l2 ~seed:(seed + 2)) t.l2

let flush t =
  flush t.icache;
  flush t.dcache;
  Option.iter flush t.l2

let counters t =
  {
    Hw.Cpu.instructions = t.instructions;
    loads = t.loads;
    stores = t.stores;
    branches = 0;
    cycles = t.cycles;
  }
