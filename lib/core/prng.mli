(** The repository's single audited randomness source: splitmix64 with a
    splittable-stream interface.

    The soak simulators, single-core ({!Sim}) and SMP ({!Smp.Soak}),
    draw every random decision from this module, so a seed fully
    determines a campaign and the generator only has to be audited once.
    (The preemption-schedule campaign, {!Explore}, is exhaustive and
    draws nothing.)

    Streams are cheap mutable values.  {!split} derives a statistically
    independent child stream from the parent's state without disturbing
    the parent's own future output beyond one advance — the tool for
    handing each shard, tenant or device its own deterministic stream
    whose draws cannot interleave with anyone else's. *)

type t

val create : int -> t
(** A stream seeded with [seed]: [Int64.of_int seed] is the initial
    state. *)

val state : t -> int64
(** The current raw state (advances with every draw). *)

val next64 : t -> int64
(** The next 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1] ([0] when
    [bound <= 0]). *)

val bool : t -> bool

val float : t -> float
(** Uniform draw from [[0, 1)] with 53 bits of precision. *)

val split : t -> t
(** A child stream whose state is derived from one draw of the parent
    mixed with an odd gamma, so parent and child sequences are
    independent.  Splitting [n] times yields [n] distinct streams
    regardless of draw order in between. *)

val split_at : t -> int -> t
(** [split_at t i]: the [i]-th child of [t]'s {e current} state, without
    advancing [t] — so shard [i]'s stream depends only on the parent seed
    and [i], never on how many shards were split before it.  The
    foundation of the simulator's "byte-identical for any domain count"
    guarantee. *)
