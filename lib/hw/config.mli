(** Configuration of the simulated hardware platform.

    Models the evaluation platform of the paper: a Freescale i.MX31 with an
    ARM1136 core at 532 MHz, split 4-way 16 KiB L1 caches supporting way
    lockdown, an optional unified 8-way 128 KiB L2 cache, and external memory
    whose latency depends on whether the L2 is enabled. *)

type replacement = Lru | Round_robin

type t = {
  clock_mhz : float;  (** core clock, used to convert cycles to microseconds *)
  replacement : replacement;
      (** replacement policy at all levels.  The ARM1136 uses round-robin;
          LRU is the deterministic default stand-in.  The analysis model is
          sound for both. *)
  l1_line : int;  (** L1 line size in bytes *)
  l1_sets : int;  (** number of L1 sets *)
  l1_ways : int;  (** L1 associativity *)
  l1_hit_cycles : int;  (** extra cycles charged on an L1 hit *)
  l2_enabled : bool;
  l2_line : int;
  l2_sets : int;
  l2_ways : int;
  l2_hit_cycles : int;  (** latency of an access serviced by the L2 *)
  mem_cycles_l2_off : int;  (** external memory latency with the L2 disabled *)
  mem_cycles_l2_on : int;  (** external memory latency with the L2 enabled *)
  writeback_fraction : int;
      (** dirty-eviction cost is the memory latency divided by this *)
  branch_predictor : bool;
  branch_cost_static : int;  (** constant branch cost with the predictor off *)
  branch_cost_predicted : int;
  branch_cost_mispredicted : int;
  locked_ways_i : int;  (** I-cache ways reserved for pinned lines *)
  locked_ways_d : int;  (** D-cache ways reserved for pinned lines *)
  l2_locked_base : int;  (** start of the L2-locked range (Section 8) *)
  l2_locked_bytes : int;  (** length of the L2-locked range; 0 disables *)
}

val default : t
(** i.MX31 defaults: L2 disabled, branch predictor disabled, no pinning. *)

val baseline : t
(** Alias of {!default}; the Figure 9 baseline. *)

val with_l2 : t
val with_branch_predictor : t
val with_l2_and_branch_predictor : t

val with_pinning : t -> t
(** Reserve one L1 way (1/4 of each cache) for pinned lines, as in Section 4
    of the paper. *)

val with_l2_lock : base:int -> bytes:int -> t -> t
(** Enable the L2 and lock an address range (typically the kernel text)
    into it: the Section 8 future-work configuration. *)

val l2_locked : t -> int -> bool
(** Is this address inside the L2-locked range? *)

val mem_cycles : t -> int
(** Effective external memory latency under this configuration. *)

val writeback_cycles : t -> int
(** Cost charged when a dirty line is evicted. *)

val worst_miss_cycles : t -> int
(** Worst possible cost of one access: memory latency plus a dirty eviction
    at every cache level.  The sound per-miss charge of the static
    analysis. *)

val cycles_to_us : t -> int -> float
val pp : t Fmt.t
