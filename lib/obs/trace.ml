(* Cycle-accurate event tracer.

   A trace is a preallocated ring buffer of structured events stamped with
   the *simulated* cycle counter (never wall time), so a trace of a given
   scenario is bit-identical run after run and across serial/parallel
   execution.  Emission performs no simulated work — it charges no cycles
   and touches no cache state — so enabling tracing cannot perturb the
   measurement it observes (the zero-overhead property test_obs verifies).

   Each event also carries the CPU's cumulative memory-stall cycle counter
   at emission time, which lets the attribution layer split any window of
   the trace into cache-miss cycles and compute cycles without storing a
   per-access event. *)

type kind =
  | Kernel_enter of { event : string }
  | Kernel_exit of { outcome : string }
  | Preempt_point of { taken : bool }
  | Sched_decision of { tcb : int; priority : int }
  | Irq_assert of { line : int }
  | Irq_armed of { line : int; fire_at : int }
  | Irq_deliver of { line : int; latency : int }
  | Ep_enqueue of { ep : int; tcb : int }
  | Ep_dequeue of { ep : int; tcb : int }
  | Untyped_clear of { addr : int; bytes : int }
  | Vspace_unmap of { addr : int }
  | Pin_evict of { cache : string; addr : int }
  | Marker of string

type event = { at : int; stall : int; kind : kind }

type t = {
  ring : event array;
  capacity : int;
  core : int;  (* per-ring, not per-event: tagging costs nothing on emit *)
  mutable total : int;  (* events ever emitted; write cursor = total mod capacity *)
}

let default_capacity = 65_536

let dummy = { at = 0; stall = 0; kind = Marker "" }

let create ?(capacity = default_capacity) ?(core = 0) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if core < 0 then invalid_arg "Trace.create: core must be >= 0";
  { ring = Array.make capacity dummy; capacity; core; total = 0 }

(* Ring overflows are surfaced in the metrics registry so a capture that
   silently wrapped is visible in every metrics dump (and warnable in the
   CLI).  Lazy: trace rings are created in hot paths that must not touch
   the registry lock. *)
let dropped_counter = lazy (Metrics.counter "trace.dropped")

let emit t ~at ~stall kind =
  if t.total >= t.capacity then Metrics.incr (Lazy.force dropped_counter);
  t.ring.(t.total mod t.capacity) <- { at; stall; kind };
  t.total <- t.total + 1

let length t = min t.total t.capacity
let capacity t = t.capacity
let core t = t.core
let dropped t = max 0 (t.total - t.capacity)
let clear t = t.total <- 0

(* Oldest first.  When the ring has wrapped, the oldest surviving event
   sits at the write cursor. *)
let events t =
  let n = length t in
  let first = if t.total > t.capacity then t.total mod t.capacity else 0 in
  List.init n (fun i -> t.ring.((first + i) mod t.capacity))

(* A ring sized to hold exactly the given events; lets an extracted
   window (e.g. a flight-recorder capture) reuse the renderers below. *)
let of_events ?(core = 0) evs =
  let t = create ~capacity:(max 1 (List.length evs)) ~core () in
  List.iter (fun e -> emit t ~at:e.at ~stall:e.stall e.kind) evs;
  t

(* --- rendering --- *)

let kind_name = function
  | Kernel_enter _ -> "kernel_enter"
  | Kernel_exit _ -> "kernel_exit"
  | Preempt_point _ -> "preempt_point"
  | Sched_decision _ -> "sched_decision"
  | Irq_assert _ -> "irq_assert"
  | Irq_armed _ -> "irq_armed"
  | Irq_deliver _ -> "irq_deliver"
  | Ep_enqueue _ -> "ep_enqueue"
  | Ep_dequeue _ -> "ep_dequeue"
  | Untyped_clear _ -> "untyped_clear"
  | Vspace_unmap _ -> "vspace_unmap"
  | Pin_evict _ -> "pin_evict"
  | Marker _ -> "marker"

let pp_kind ppf = function
  | Kernel_enter { event } -> Fmt.pf ppf "enter %s" event
  | Kernel_exit { outcome } -> Fmt.pf ppf "exit %s" outcome
  | Preempt_point { taken } ->
      Fmt.pf ppf "preempt-point %s" (if taken then "taken" else "not-taken")
  | Sched_decision { tcb; priority } ->
      Fmt.pf ppf "sched-decision tcb%d prio=%d" tcb priority
  | Irq_assert { line } -> Fmt.pf ppf "irq%d asserted" line
  | Irq_armed { line; fire_at } -> Fmt.pf ppf "irq%d armed for cycle %d" line fire_at
  | Irq_deliver { line; latency } ->
      Fmt.pf ppf "irq%d delivered (latency %d)" line latency
  | Ep_enqueue { ep; tcb } -> Fmt.pf ppf "ep%d enqueue tcb%d" ep tcb
  | Ep_dequeue { ep; tcb } -> Fmt.pf ppf "ep%d dequeue tcb%d" ep tcb
  | Untyped_clear { addr; bytes } ->
      Fmt.pf ppf "untyped-clear %#x +%d bytes" addr bytes
  | Vspace_unmap { addr } -> Fmt.pf ppf "vspace-unmap %#x" addr
  | Pin_evict { cache; addr } -> Fmt.pf ppf "pin-evict %s %#x" cache addr
  | Marker m -> Fmt.pf ppf "marker %s" m

let pp_event ppf e = Fmt.pf ppf "@%d(stall %d) %a" e.at e.stall pp_kind e.kind

(* Human-readable timeline: absolute cycle, delta to the previous event,
   cumulative stall, event. *)
let pp_timeline ppf t =
  if t.core > 0 then Fmt.pf ppf "(core %d)@," t.core;
  if dropped t > 0 then
    Fmt.pf ppf "(ring wrapped: %d oldest events dropped)@," (dropped t);
  Fmt.pf ppf "%10s %9s %10s  %s@," "cycle" "+delta" "stall" "event";
  let prev = ref None in
  List.iter
    (fun e ->
      let delta = match !prev with None -> 0 | Some p -> e.at - p in
      prev := Some e.at;
      Fmt.pf ppf "%10d %9s %10d  %a@," e.at
        (if delta = 0 then "" else Fmt.str "+%d" delta)
        e.stall pp_kind e.kind)
    (events t)

(* --- Chrome trace_event export (Perfetto-loadable) ---

   Kernel entries/exits become duration events (ph B/E); everything else
   is an instant event (ph i).  Timestamps are microseconds; the caller
   supplies the simulated clock rate in cycles per microsecond. *)

let to_chrome_json ?(cycles_per_us = 1.0) t =
  let open Json in
  let ts cycles = Fixed (3, float_of_int cycles /. cycles_per_us) in
  (* One Perfetto thread lane per core.  Core 0 renders as tid 1 with no
     extra metadata, exactly as a single-core trace does. *)
  let tid = t.core + 1 in
  let meta name value =
    Obj
      [
        ("name", Str name); ("ph", Str "M"); ("pid", int 1); ("tid", int tid);
        ("args", Obj [ ("name", Str value) ]);
      ]
  in
  let event name ph e args =
    Obj
      ([ ("name", Str name); ("ph", Str ph); ("ts", ts e.at); ("pid", int 1);
         ("tid", int tid) ]
      @ (if ph = "i" then [ ("s", Str "t") ] else [])
      @ [ ("args", Obj (args @ [ ("stall_cycles", int e.stall) ])) ])
  in
  let cycle e = ("cycle", int e.at) in
  let to_event e =
    match e.kind with
    | Kernel_enter { event = ev } -> event ("kernel: " ^ ev) "B" e [ cycle e ]
    | Kernel_exit { outcome } ->
        event ("kernel: " ^ outcome) "E" e [ ("outcome", Str outcome) ]
    | kind ->
        let args =
          match kind with
          | Preempt_point { taken } -> [ ("taken", Bool taken) ]
          | Sched_decision { tcb; priority } ->
              [ ("tcb", int tcb); ("priority", int priority) ]
          | Irq_assert { line } -> [ ("line", int line) ]
          | Irq_armed { line; fire_at } ->
              [ ("line", int line); ("fire_at", int fire_at) ]
          | Irq_deliver { line; latency } ->
              [ ("line", int line); ("latency", int latency) ]
          | Ep_enqueue { ep; tcb } | Ep_dequeue { ep; tcb } ->
              [ ("ep", int ep); ("tcb", int tcb) ]
          | Untyped_clear { addr; bytes } ->
              [ ("addr", int addr); ("bytes", int bytes) ]
          | Vspace_unmap { addr } -> [ ("addr", int addr) ]
          | Pin_evict { cache; addr } ->
              [ ("cache", Str cache); ("addr", int addr) ]
          | Marker m -> [ ("marker", Str m) ]
          | Kernel_enter _ | Kernel_exit _ -> []
        in
        event (kind_name kind) "i" e (cycle e :: args)
  in
  let lanes =
    meta "process_name" "sel4rt simulator"
    :: (if t.core > 0 then [ meta "thread_name" (Fmt.str "core %d" t.core) ]
        else [])
  in
  Obj
    [
      ("traceEvents", Arr (lanes @ List.map to_event (events t)));
      ("displayTimeUnit", Str "ns");
      ("otherData", Obj [ ("dropped_events", int (dropped t)) ]);
    ]
