(* Execution context: how the kernel charges its work to the hardware
   model, and how it observes pending interrupts at preemption points.

   With [cpu = None] the kernel runs uninstrumented (fast, for functional
   tests); with a CPU attached, every instruction, load, store and branch
   goes through the cache/memory hierarchy and accumulates cycles. *)

(* The interrupt controller keeps its state per line, in preallocated int
   arrays and two bitmasks, as a hardware controller keeps a pending bit
   per line and chooses among the pending lines.  The soak simulator polls
   [irq_pending] at every preemption point and kernel exit across hundreds
   of millions of entries; option boxes and lists here would dominate its
   allocation profile. *)
let num_irqs = 32
let timer_irq = 0

type t = {
  cpu : Hw.Cpu.t option;
  build : Build.t;
  mutable pending : int;  (* bit per line: asserted, not yet delivered *)
  mutable armed : int;  (* bit per line: a device timer not yet promoted *)
  asserted_at : int array;
      (* per pending line, its raise or fire cycle: delivery picks the
         earliest and measures the line's latency from it *)
  armed_at : int array;  (* per armed line, its fire cycle *)
  pending_ticket : int array;
  armed_ticket : int array;
      (* per line, the tie-break ticket drawn when it was raised or armed;
         a promoted line carries its armed ticket into pending *)
  mutable tickets : int;  (* tickets drawn so far *)
  mutable next_fire : int;
      (* the earliest [armed_at] of an armed line, [max_int] when none is
         armed: keeps [irq_pending] O(1) *)
  mutable preempt_polls : int;  (* preemption points polled (taken or not) *)
  mutable on_preempt_poll : (int -> bool) option;
      (* fault-injection hook: called with the 1-based poll index before
         the pending check; [true] asserts [timer_irq] at this poll, so a
         campaign hits the k-th preemption point whatever the cycles *)
}

let create ?cpu build =
  {
    cpu;
    build;
    pending = 0;
    armed = 0;
    asserted_at = Array.make num_irqs 0;
    armed_at = Array.make num_irqs 0;
    pending_ticket = Array.make num_irqs 0;
    armed_ticket = Array.make num_irqs 0;
    tickets = 0;
    next_fire = max_int;
    preempt_polls = 0;
    on_preempt_poll = None;
  }

let build t = t.build

let cycles t = match t.cpu with Some cpu -> Hw.Cpu.cycles cpu | None -> 0

(* Emit a structured trace event (no-op without a CPU or without an
   attached buffer).  Emission charges nothing: tracing must never change
   the cycle counts it observes. *)
let emit t kind = match t.cpu with Some cpu -> Hw.Cpu.emit cpu kind | None -> ()

(* Emission sites on hot paths guard on this before building the event:
   the [Obs.Trace.kind] argument would otherwise heap-allocate per call
   even with no buffer attached. *)
let tracing t = match t.cpu with Some cpu -> Hw.Cpu.tracing cpu | None -> false

(* Charge [count] instructions from [region] (a {!Layout.R} value).  The
   region's base gives the fetch addresses. *)
let exec t (region : Layout.code_region) count =
  match t.cpu with
  | None -> ()
  | Some cpu -> Hw.Cpu.exec cpu ~base:region.base ~count

let load t addr =
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.load cpu addr

let store t addr =
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.store cpu addr

(* [steps] repetitions of "[exec t region count], then [load] the next
   address" (from [addr], [stride] bytes apart): a scan loop charged in
   one call. *)
let scan t (region : Layout.code_region) count ~addr ~stride ~steps =
  match t.cpu with
  | None -> ()
  | Some cpu -> Hw.Cpu.scan cpu ~base:region.base ~count ~addr ~stride ~steps

let branch t (region : Layout.code_region) ~taken =
  match t.cpu with
  | None -> ()
  | Some cpu -> Hw.Cpu.branch cpu ~pc:region.base ~taken

(* Bulk store over [bytes] starting at [addr]: one store per cache line
   (write-allocate), as used by object clearing and the kernel-mapping
   copy. *)
let store_block t addr bytes =
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.store_block cpu addr bytes

let load_block t addr bytes =
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.load_block cpu addr bytes

(* --- the interrupt controller --- *)

let has_pending t = t.pending <> 0
let assert_cycle t line = t.asserted_at.(line)

let draw_ticket t =
  t.tickets <- t.tickets + 1;
  t.tickets

(* The line in [mask] with the smallest (stamp, ticket), scanning from
   [line]; [best] is -1 or the best line so far.  Tickets are unique, so
   the order is total and delivery deterministic. *)
let rec earliest mask stamps tickets line best =
  if mask lsr line = 0 then best
  else if
    mask land (1 lsl line) <> 0
    && (best < 0
       || stamps.(line) < stamps.(best)
       || (stamps.(line) = stamps.(best) && tickets.(line) < tickets.(best)))
  then earliest mask stamps tickets (line + 1) line
  else earliest mask stamps tickets (line + 1) best

let earliest_armed t = earliest t.armed t.armed_at t.armed_ticket 0 (-1)

let make_pending t line ~at ~ticket =
  t.pending <- t.pending lor (1 lsl line);
  t.asserted_at.(line) <- at;
  t.pending_ticket.(line) <- ticket

(* An already-pending line absorbs a new assertion, as a real interrupt
   controller's level-triggered pending bit would; the assertion is still
   traced. *)
let assert_irq t line =
  if t.pending land (1 lsl line) = 0 then
    make_pending t line ~at:(cycles t) ~ticket:(draw_ticket t);
  if tracing t then emit t (Obs.Trace.Irq_assert { line })

let pop_irq t =
  let line = earliest t.pending t.asserted_at t.pending_ticket 0 (-1) in
  t.pending <- t.pending land lnot (1 lsl line);
  line

(* A line holds one fire cycle: re-arming an armed line keeps the earlier
   one. *)
let arm_irq t line ~fire =
  if t.armed land (1 lsl line) = 0 || fire < t.armed_at.(line) then begin
    t.armed <- t.armed lor (1 lsl line);
    t.armed_at.(line) <- fire;
    t.armed_ticket.(line) <- draw_ticket t;
    if fire < t.next_fire then t.next_fire <- fire
  end;
  if tracing t then emit t (Obs.Trace.Irq_armed { line; fire_at = fire })

(* Promote armed lines whose fire cycle has passed into pending, earliest
   first, each stamped with the cycle its (virtual) device raised it.  A
   line already pending absorbs the assertion.  A promoted line emits
   [Irq_assert] for the flight recorder, whose replayed worst-delivery
   windows would otherwise show armed->deliver with no assert edge;
   emission charges no cycles. *)
let rec promote_armed t =
  if cycles t >= t.next_fire then begin
    let line = earliest_armed t in
    t.armed <- t.armed land lnot (1 lsl line);
    t.next_fire <-
      (if t.armed = 0 then max_int else t.armed_at.(earliest_armed t));
    if t.pending land (1 lsl line) = 0 then begin
      make_pending t line ~at:t.armed_at.(line) ~ticket:t.armed_ticket.(line);
      if tracing t then emit t (Obs.Trace.Irq_assert { line })
    end;
    promote_armed t
  end

let next_armed_irq t =
  if t.armed = 0 then None
  else
    let line = earliest_armed t in
    Some (t.armed_at.(line), line)

(* What a preemption point polls: a line is pending, or an armed timer
   has fired.  Nothing is promoted here; promotion, and the [Irq_assert]
   events it emits, happen on the interrupt path. *)
let irq_pending t = t.pending <> 0 || cycles t >= t.next_fire

let preempt_polls t = t.preempt_polls

let set_injection_hook t hook =
  (match (t.on_preempt_poll, hook) with
  | Some _, Some _ ->
      invalid_arg
        "Kernel.set_injection_hook: an injection hook is already installed \
         (clear it with None first)"
  | _ -> ());
  t.on_preempt_poll <- hook;
  t.preempt_polls <- 0

(* A preemption point: polls the pending flag (charging the check) and
   reports whether the current long-running operation must give way.
   Returns [false] always when the build has preemption points disabled —
   the "before" kernel of Table 2. *)
let preemption_point t =
  exec t Layout.R.preempt_check Costs.preempt_check_instrs;
  load t Layout.irq_pending_word;
  t.preempt_polls <- t.preempt_polls + 1;
  (match t.on_preempt_poll with
  | Some hook -> if hook t.preempt_polls then assert_irq t timer_irq
  | None -> ());
  let taken = t.build.Build.preemption_points && irq_pending t in
  if tracing t then emit t (Obs.Trace.Preempt_point { taken });
  taken
