(** Cycle accounting for simulated kernel execution.

    The kernel model charges all of its work through this interface; the
    accumulated cycle count stands in for the ARM1136 cycle counter used in
    the paper's measurements. *)

type t

type counters = {
  instructions : int;
  loads : int;
  stores : int;
  branches : int;
  cycles : int;
}

val create : Config.t -> t
val machine : t -> Machine.t
val config : t -> Config.t

val cycles : t -> int
(** Cycles accumulated so far. *)

val tick : t -> int -> unit
(** Charge a raw number of cycles (e.g. fixed exception-entry microcode). *)

val exec : t -> base:int -> count:int -> unit
(** Execute [count] single-cycle instructions fetched sequentially from code
    address [base], charging I-cache fetch stalls. *)

val load : t -> int -> unit
val store : t -> int -> unit
val branch : t -> pc:int -> taken:bool -> unit

val scan :
  t -> base:int -> count:int -> addr:int -> stride:int -> steps:int -> unit
(** [steps] repetitions of [exec ~base ~count] followed by
    [load (addr + i * stride)], [i] counting from 0: a scan loop's charge.
    Cycle-, counter-, cache-state- and trace-identical to that sequence of
    {!exec} and {!load} calls, but after the first step the fetch runs are
    replays and a load on the previous load's line is a guaranteed L1 hit,
    so only the first fetch run and one load per D-cache line probe the
    caches.  With a tracer attached the steps run one by one, reporting
    every access in order. *)

val store_block : t -> int -> int -> unit
(** [store_block t addr bytes]: one {!store} per L1 line over [bytes]
    from [addr] (write-allocate), in address order. *)

val load_block : t -> int -> int -> unit
(** The {!load} counterpart of {!store_block}. *)

type access_kind = Fetch | Load | Store

val set_tracer : t -> (access_kind -> int -> unit) -> unit
(** Observe every access, in order, before it hits the caches: derives
    cache-pinning candidates from execution traces (Section 4) and feeds
    the race analyser's footprint audit.  Raises [Invalid_argument] when
    a tracer is already installed: observers do not compose, so
    {!clear_tracer} first. *)

val clear_tracer : t -> unit

val stall_cycles : t -> int
(** Cycles spent in the memory hierarchy so far (a subset of {!cycles}):
    fetch stalls plus load/store latency beyond the L1-hit cost. *)

val set_trace_buffer : t -> Obs.Trace.t -> unit
(** Attach a structured event trace.  Every event is stamped with the
    simulated cycle and stall counters; emission charges nothing, so the
    cycle count of a traced run is identical to an untraced one.  Also
    routes cache pin-eviction observations into the buffer. *)

val clear_trace_buffer : t -> unit

val tracing : t -> bool
(** A trace buffer is attached.  Emission sites on hot paths check this
    before constructing the event, so tracing costs nothing when off. *)

val emit : t -> Obs.Trace.kind -> unit
(** Emit one event into the attached buffer (no-op when none). *)

val counters : t -> counters
val reset : t -> unit
