(** Set-associative cache with true-LRU replacement and way lockdown.

    Way lockdown models the ARM1136 cache-pinning facility used in Section 4
    of the paper: the first [k] ways of every set can be reserved for pinned
    lines, which the replacement policy then never evicts. *)

type t

type policy = Lru | Round_robin
(** The ARM1136 replaces round-robin (or pseudo-random); LRU is the
    deterministic stand-in the simulator defaults to.  The conservative
    one-way analysis model of Section 5.1 is sound for both. *)

type outcome = Hit | Miss of { evicted_dirty : bool }

val create : ?policy:policy -> line_size:int -> sets:int -> ways:int -> unit -> t
(** [line_size] and [sets] must be powers of two.  Default policy: LRU. *)

val line_size : t -> int
val sets : t -> int
val ways : t -> int

val lock_ways : t -> int -> unit
(** Reserve the first [k] ways of every set for pinned lines.  At least one
    way must remain unlocked. *)

val access : t -> write:bool -> int -> outcome
(** Perform an access, updating LRU state and inserting the line on a miss
    (into an unlocked way). *)

val access_enc : t -> write:bool -> int -> int
(** Allocation-free variant of {!access} for the simulator's hot loop:
    returns [0] for a hit, [1] for a miss with no dirty eviction, [2] for a
    miss that evicted a dirty line.  Identical state evolution to
    {!access}.  A hit on the line its set touched last is answered
    without scanning the set or re-touching the line. *)

val generation : t -> int
(** A counter bumped by every touch, install, {!flush} and {!pollute}.
    While it is unchanged, no line has changed residency and no set has
    changed its most-recently-used line: the condition under which
    [Machine.fetch_run] replays a run it has already probed. *)

val note_seq_hits : t -> int -> unit
(** Account [n] hits without probing the cache.  Only sound when the caller
    knows the accesses would hit the line made most-recently-used by the
    immediately preceding access (e.g. sequential fetches within one
    I-cache line): re-touching the MRU line cannot change any future
    replacement decision, so statistics are the only state to update. *)

val probe : t -> int -> bool
(** Does the address currently hit?  No state update. *)

val pin : t -> int -> bool
(** Install the line containing the address into a locked way and mark it
    pinned.  Returns [false] if no locked way is available in its set. *)

val pinned : t -> int -> bool

val set_pin_evict_hook : t -> (int -> unit) option -> unit
(** Observation hook, called with the victim's line address whenever a
    pinned line is evicted by {!access} (it lived in an unlocked way) or a
    {!pin} installation displaces a resident line.  Purely observational:
    no cost, no state change. *)

val flush : ?keep_pinned:bool -> t -> unit
(** Invalidate all lines; pinned lines are kept unless [keep_pinned:false]. *)

val pollute : ?dirty:bool -> t -> seed:int -> unit
(** Fill all unpinned ways with junk lines (dirty by default), recreating
    the cold polluted-cache state used for worst-case measurements
    (Section 5.4). *)

val line : t -> set:int -> way:int -> (int * bool * bool) option
(** The line in a way of a set: [Some (tag, dirty, pinned)], or [None]
    when the way is invalid.  For tests that compare cache contents. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dirty_evictions : int;
}

val stats : t -> stats
val pp_stats : stats Fmt.t
