(** The simulated memory hierarchy: split L1 caches (with way lockdown for
    pinning), an optional unified L2, external memory, and branch costs.

    Every access returns its cost in cycles; the {!Cpu} module accumulates
    these into a cycle counter. *)

type t

val create : Config.t -> t
val config : t -> Config.t
val icache : t -> Cache.t
val dcache : t -> Cache.t
val l2 : t -> Cache.t option

val read : t -> int -> int
(** Cycles for a data load at the given address. *)

val write : t -> int -> int
(** Cycles for a data store at the given address. *)

val fetch : t -> int -> int
(** Cycles of instruction-fetch stall for the given code address (0 on an
    L1-I hit, where the fetch overlaps execution). *)

val fetch_run : t -> base:int -> count:int -> int
(** Total fetch stall for [count] sequential 4-byte instruction fetches
    starting at [base].  Cycle- and state-identical to summing {!fetch}
    over each address, but probes the I-cache only once per line (the
    remaining fetches on a line are guaranteed hits), and not at all when
    it repeats a prefix of a run from the same base that it probed while
    the I-cache was in its current {!Cache.generation}. *)

val branch : t -> pc:int -> taken:bool -> int
(** Branch cost: constant with the predictor disabled, outcome-dependent
    otherwise. *)

val pin_icache : t -> int -> bool
val pin_dcache : t -> int -> bool

val set_pin_evict_hook : t -> (string -> int -> unit) option -> unit
(** Observation hook for pin evictions in either L1 cache; the callback
    receives the cache name (["icache"]/["dcache"]) and the victim line
    address.  Purely observational. *)

val pollute : t -> seed:int -> unit
(** Fill all unpinned cache lines with dirty junk and reset the predictor:
    the adversarial pre-state for worst-case measurements. *)

val flush : t -> unit
