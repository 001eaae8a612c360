(** Process-wide metrics registry: counters, gauges and log-bucketed
    histograms with a single snapshot type.

    Instruments are interned by name (requesting the same name twice
    returns the same instrument) and safe to update from any domain.
    Histograms are base-2 log-scaled: an observation [v > 0] lands in
    bucket [ceil (log2 v)], so the bucket with exponent [k] covers
    [(2^(k-1), 2^k]].  Timing spans observe seconds. *)

type counter
type gauge
type histogram

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val value : counter -> int
val set_counter : counter -> int -> unit

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : string -> histogram
val observe : histogram -> float -> unit

val observe_n : histogram -> n:int -> float -> unit
(** Record [n] observations of the same value in one locked update (the
    bulk path for callers holding a value -> count histogram).  No-op for
    [n <= 0]. *)

val now_s : unit -> float
(** Monotonic wall clock, in seconds (for throughput figures). *)

val span : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, observing its elapsed monotonic wall time in seconds
    (even if it raises).  Wall time never feeds the tracer — simulated-time
    measurements are the tracer's job. *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** exact minimum observation (0 when empty) *)
  hs_max : float;  (** exact maximum observation (0 when empty) *)
  hs_buckets : (int * int) list;  (** (bucket exponent, count), ascending *)
  hs_exact : (float * int) list option;
      (** exact (value, count) multiset, ascending by value, retained
          while the histogram has seen at most 64 distinct values;
          [None] once it overflowed that limit *)
}

val percentile : hist_snapshot -> float -> float
(** [percentile h q] for [q] in [[0, 1]]: the exact order statistic at
    rank [ceil (q * count)] while the histogram has at most 64 distinct
    observed values (small-count exactness); beyond that, a conservative
    estimate from the log2 buckets — the upper bound [2^k] of the bucket
    containing the rank, clamped into [[hs_min, hs_max]].  Never
    under-reports; a quantile landing in the top occupied bucket returns
    the exact maximum.  [0] when empty. *)

type snapshot = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
val reset : unit -> unit
(** Zero every registered instrument (instruments stay registered). *)

val to_json : snapshot -> Json.t
val pp : Format.formatter -> snapshot -> unit
