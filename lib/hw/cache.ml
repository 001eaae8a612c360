(* Set-associative cache with way lockdown and a choice of replacement
   policy.

   The ARM1136's caches replace round-robin (or pseudo-random); true LRU
   is the deterministic stand-in the rest of the simulator defaults to.
   Both are supported — and both are soundly over-approximated by the
   paper's one-way direct-mapped analysis model, because a model hit means
   no other access touched the set in between, so no replacement policy
   can have evicted the line.

   Lockdown models the ARM1136 cache-pinning facility of Section 4: the
   first [locked_ways] ways of every set are reserved for pinned lines,
   and the replacement policy only ever considers the remaining ways.

   Line state is a flat int array of interleaved (tag, state) word pairs:
   a whole 4-way set spans 64 bytes, so probing a set — the hottest loop
   of the soak simulator, hundreds of millions of runs per campaign —
   touches one or two host cache lines instead of chasing one boxed
   record per way.  [state] packs the LRU stamp with the dirty/pinned
   bits ([lru lsl 2 lor pinned lsl 1 lor dirty]); LRU comparisons use
   [state asr 2] so flag bits never influence victim choice.

   Each set also remembers the tag-word index of the line it touched
   last ([mru]).  That line holds its set's strictly largest stamp, so a
   hit on it needs no way scan and no re-touch: re-touching would leave
   the line the newest, changing no future victim choice (a pinned hit
   is never touched anyway, and round-robin ignores stamps).  Most hits
   of the soak simulator land there. *)

type policy = Lru | Round_robin

let s_dirty = 1
let s_pinned = 2

type t = {
  line_size : int;
  sets : int;
  ways : int;
  policy : policy;
  line_shift : int;  (* log2 line_size: index/tag extraction by shift *)
  set_mask : int;  (* sets - 1 *)
  idx_shift : int;  (* line_shift + log2 sets *)
  mutable locked_ways : int;
  data : int array;
      (* line [set * ways + way]: tag at [2 * line] (-1 = invalid), packed
         state at [2 * line + 1] *)
  rr_next : int array;  (* round-robin victim cursor, per set *)
  mru : int array;
      (* per set, the tag-word index of the line it touched last; -1 when
         unknown (after a flush or pollute) *)
  mutable clock : int;
      (* monotonic counter driving LRU ordering, and the cache's
         generation: every touch, install, flush and pollute bumps it, so
         an unchanged value means no line changed residency and no set
         changed its MRU line *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
  mutable on_pin_evict : (int -> unit) option;
      (* observation hook: a pinned line was evicted, or installing a pin
         displaced a resident line (argument: the victim's line address) *)
}

type outcome = Hit | Miss of { evicted_dirty : bool }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(policy = Lru) ~line_size ~sets ~ways () =
  assert (is_pow2 line_size && is_pow2 sets && ways > 0);
  let data = Array.make (sets * ways * 2) 0 in
  for l = 0 to (sets * ways) - 1 do
    data.(2 * l) <- -1
  done;
  {
    line_size;
    sets;
    ways;
    policy;
    line_shift = log2 line_size;
    set_mask = sets - 1;
    idx_shift = log2 line_size + log2 sets;
    locked_ways = 0;
    data;
    rr_next = Array.make sets 0;
    mru = Array.make sets (-1);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    dirty_evictions = 0;
    on_pin_evict = None;
  }

let line_size t = t.line_size
let sets t = t.sets
let ways t = t.ways

let lock_ways t k =
  if k < 0 || k >= t.ways then
    invalid_arg "Cache.lock_ways: must leave at least one unlocked way";
  t.locked_ways <- k

let set_index t addr = (addr lsr t.line_shift) land t.set_mask
let tag_of t addr = addr lsr t.idx_shift
let addr_of t ~tag ~set = ((tag * t.sets) + set) * t.line_size

let set_pin_evict_hook t f = t.on_pin_evict <- f

(* [p] is the word index of a line's tag; [si] its set. *)
let notify_pin_evict t si p =
  match t.on_pin_evict with
  | Some f when t.data.(p) >= 0 -> f (addr_of t ~tag:t.data.(p) ~set:si)
  | _ -> ()

(* Word indices below always come from a set's own word range, bounded by
   the geometry, so the hot paths use unchecked array access. *)
let touch t si p =
  t.clock <- t.clock + 1;
  let flags = Array.unsafe_get t.data (p + 1) land 3 in
  Array.unsafe_set t.data (p + 1) ((t.clock lsl 2) lor flags);
  Array.unsafe_set t.mru si p

let generation t = t.clock

(* Word index of the tag matching [tag] in the set whose words start at
   [base], or -1.  Plain loop over unboxed locals: an inner [let rec]
   would close over its environment and heap-allocate on every probe. *)
let find_tag t ~base ~tag =
  let data = t.data in
  let limit = base + (2 * t.ways) in
  let p = ref (-1) in
  let i = ref base in
  while !p < 0 && !i < limit do
    if Array.unsafe_get data !i = tag then p := !i else i := !i + 2
  done;
  !p

(* Victim selection among the unlocked ways: least-recently-used (invalid
   lines carry lru = 0 and lose ties to the lowest way), or the ARM1136's
   rotating cursor.  Returns the victim's tag-word index. *)
let victim t si base =
  match t.policy with
  | Lru ->
      let data = t.data in
      let best = ref (base + (2 * t.locked_ways)) in
      let p = ref (base + (2 * t.locked_ways) + 2) in
      let limit = base + (2 * t.ways) in
      while !p < limit do
        if
          Array.unsafe_get data (!p + 1) asr 2
          < Array.unsafe_get data (!best + 1) asr 2
        then best := !p;
        p := !p + 2
      done;
      !best
  | Round_robin ->
      let unlocked = t.ways - t.locked_ways in
      let way = t.locked_ways + (t.rr_next.(si) mod unlocked) in
      t.rr_next.(si) <- (t.rr_next.(si) + 1) mod unlocked;
      base + (2 * way)

(* Encoded outcome of the allocation-free access path: 0 = hit,
   1 = miss (clean or no eviction), 2 = miss evicting a dirty line.
   The hot simulation loop runs billions of accesses; the [outcome]
   variant (and an [option] in the way scan) would each heap-box every
   single one. *)
let hit_enc = 0
let miss_clean_enc = 1
let miss_dirty_enc = 2

(* The probe after an MRU miss: scan the set, touch a hit, install on a
   miss.  Kept out of [access_enc] so the MRU check inlines at its call
   sites. *)
let access_set t ~write si tag =
  let base = si * t.ways * 2 in
  let p = find_tag t ~base ~tag in
  if p >= 0 then begin
    t.hits <- t.hits + 1;
    let s = Array.unsafe_get t.data (p + 1) in
    if write then Array.unsafe_set t.data (p + 1) (s lor s_dirty);
    if s land s_pinned = 0 then touch t si p;
    hit_enc
  end
  else begin
    t.misses <- t.misses + 1;
    if t.locked_ways >= t.ways then miss_clean_enc
    else begin
      let p = victim t si base in
      let valid = Array.unsafe_get t.data p >= 0 in
      let s = Array.unsafe_get t.data (p + 1) in
      let evicted_dirty = valid && s land s_dirty <> 0 in
      if valid then begin
        t.evictions <- t.evictions + 1;
        if s land s_dirty <> 0 then t.dirty_evictions <- t.dirty_evictions + 1
      end;
      (* A pinned line living in an unlocked way offers no protection:
         losing it here is exactly the event pinning diagnostics want. *)
      if s land s_pinned <> 0 then notify_pin_evict t si p;
      Array.unsafe_set t.data p tag;
      Array.unsafe_set t.data (p + 1) (if write then s_dirty else 0);
      touch t si p;
      if evicted_dirty then miss_dirty_enc else miss_clean_enc
    end
  end

(* A hit on the set's MRU line changes nothing but the hit count and, on
   a store, the dirty bit (see the header). *)
let access_enc t ~write addr =
  let si = set_index t addr in
  let tag = tag_of t addr in
  let m = Array.unsafe_get t.mru si in
  if m >= 0 && Array.unsafe_get t.data m = tag then begin
    t.hits <- t.hits + 1;
    if write then begin
      let s = Array.unsafe_get t.data (m + 1) in
      Array.unsafe_set t.data (m + 1) (s lor s_dirty)
    end;
    hit_enc
  end
  else access_set t ~write si tag

let access t ~write addr =
  match access_enc t ~write addr with
  | 0 -> Hit
  | 1 -> Miss { evicted_dirty = false }
  | _ -> Miss { evicted_dirty = true }

(* Account [n] guaranteed hits without probing the set.  Only valid when
   the caller knows the accesses would hit and leave replacement state
   unchanged: consecutive fetches to a line that the immediately preceding
   access made most-recently-used.  Re-touching the MRU line is a no-op
   for every future LRU decision, and round-robin ignores touches
   entirely, so skipping the probe preserves cycle-exact behaviour. *)
let note_seq_hits t n = t.hits <- t.hits + n

let probe t addr =
  find_tag t ~base:(set_index t addr * t.ways * 2) ~tag:(tag_of t addr) >= 0

let pin t addr =
  if t.locked_ways = 0 then false
  else begin
    let si = set_index t addr in
    let base = si * t.ways * 2 in
    let tag = tag_of t addr in
    let p = find_tag t ~base ~tag in
    if p >= 0 then begin
      t.data.(p + 1) <- t.data.(p + 1) lor s_pinned;
      true
    end
    else begin
      (* Install in the first free locked way of the set, if any. *)
      let rec place way =
        if way >= t.locked_ways then false
        else begin
          let p = base + (2 * way) in
          if t.data.(p) = -1 || t.data.(p + 1) land s_pinned = 0 then begin
            notify_pin_evict t si p;
            t.data.(p) <- tag;
            t.data.(p + 1) <- s_pinned;
            touch t si p;
            true
          end
          else place (way + 1)
        end
      in
      place 0
    end
  end

let pinned t addr =
  let p = find_tag t ~base:(set_index t addr * t.ways * 2) ~tag:(tag_of t addr) in
  p >= 0 && t.data.(p + 1) land s_pinned <> 0

(* Forget every set's MRU line and start a new generation: after a flush
   or pollute the newest line of a set is no longer known. *)
let new_generation t =
  Array.fill t.mru 0 t.sets (-1);
  t.clock <- t.clock + 1

let flush ?(keep_pinned = true) t =
  for l = 0 to (t.sets * t.ways) - 1 do
    if not (keep_pinned && t.data.((2 * l) + 1) land s_pinned <> 0) then begin
      t.data.(2 * l) <- -1;
      t.data.((2 * l) + 1) <- 0
    end
  done;
  new_generation t

(* Fill every non-pinned way of every set with dirty junk lines whose tags
   cannot collide with real addresses (tags beyond the address space).  Used
   to create the cold, polluted cache state of the paper's worst-case
   measurement runs (Section 5.4). *)
let pollute ?(dirty = true) t ~seed =
  let junk_tag set way = max_int / 2 + (set * t.ways) + way + (seed land 0xffff) in
  for si = 0 to t.sets - 1 do
    for wi = 0 to t.ways - 1 do
      let p = ((si * t.ways) + wi) * 2 in
      if t.data.(p + 1) land s_pinned = 0 then begin
        t.data.(p) <- junk_tag si wi;
        t.data.(p + 1) <- (if dirty then s_dirty else 0)
      end
    done
  done;
  new_generation t

let line t ~set ~way =
  let p = ((set * t.ways) + way) * 2 in
  let tag = t.data.(p) and s = t.data.(p + 1) in
  if tag < 0 then None else Some (tag, s land s_dirty <> 0, s land s_pinned <> 0)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dirty_evictions : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    dirty_evictions = t.dirty_evictions;
  }

let pp_stats ppf s =
  Fmt.pf ppf "hits=%d misses=%d evictions=%d dirty=%d" s.hits s.misses
    s.evictions s.dirty_evictions
