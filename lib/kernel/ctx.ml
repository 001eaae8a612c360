(* Execution context: how the kernel charges its work to the hardware
   model, and how it observes pending interrupts at preemption points.

   With [cpu = None] the kernel runs uninstrumented (fast, for functional
   tests); with a CPU attached, every instruction, load, store and branch
   goes through the cache/memory hierarchy and accumulates cycles. *)

(* Interrupt-controller state is int-encoded in preallocated arrays: the
   pending set is a FIFO ring (delivery order) shadowed by a membership
   bitmask, armed device timers live in parallel fire/line arrays
   compacted in place, and each line's assert stamp is a plain int.  The
   soak simulator polls [irq_pending] at every preemption point and kernel
   exit across hundreds of millions of entries; option boxes and lists
   here would dominate its allocation profile. *)
let num_irqs = 32
let timer_irq = 0

type t = {
  cpu : Hw.Cpu.t option;
  build : Build.t;
  pending_buf : int array;  (* ring of raised, undelivered lines *)
  mutable pending_head : int;
  mutable pending_count : int;
  mutable pending_mask : int;  (* bit per line: membership in the ring *)
  irq_assert : int array;
      (* per-line cycle at which the pending assertion happened — the
         device's view — so each delivery's latency is measured from its
         own line's assert, not from the earliest of all pending lines;
         meaningful only while the line is in the ring *)
  mutable armed_fire : int array;
  mutable armed_line : int array;
      (* (fire cycle, line) device timers not yet promoted, first
         [armed_count] slots live; promoted into the pending ring
         earliest-first on the interrupt path once the cycle counter
         passes the fire cycle *)
  mutable armed_count : int;
  mutable scratch_fire : int array;
  mutable scratch_line : int array;  (* promote_armed expired-timer buffer *)
  mutable preempt_count : int;  (* preemption points taken (not checks) *)
  mutable preempt_polls : int;  (* preemption points polled (taken or not) *)
  mutable on_preempt_poll : (int -> bool) option;
      (* Fault-injection hook: called with the 1-based poll index at every
         preemption-point poll, *before* the pending check.  Returning
         [true] asserts [timer_irq] at exactly this poll — the mechanism
         the schedule campaign uses to hit the k-th preemption point
         deterministically, independent of cycle counts.  Install via
         {!Kernel.set_injection_hook}, which refuses to overwrite a live
         hook. *)
}

let create ?cpu build =
  {
    cpu;
    build;
    pending_buf = Array.make num_irqs 0;
    pending_head = 0;
    pending_count = 0;
    pending_mask = 0;
    irq_assert = Array.make num_irqs 0;
    armed_fire = Array.make 8 0;
    armed_line = Array.make 8 0;
    armed_count = 0;
    scratch_fire = Array.make 8 0;
    scratch_line = Array.make 8 0;
    preempt_count = 0;
    preempt_polls = 0;
    on_preempt_poll = None;
  }

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

let line_pending t line = t.pending_mask land (1 lsl line) <> 0

(* Append [line] to the pending FIFO and stamp its assert cycle; the
   caller has already checked membership via the mask.  The ring never
   overflows: the mask bounds it at [num_irqs] distinct lines. *)
let pending_push t line ~asserted =
  t.pending_buf.((t.pending_head + t.pending_count) land (num_irqs - 1)) <-
    line;
  t.pending_count <- t.pending_count + 1;
  t.pending_mask <- t.pending_mask lor (1 lsl line);
  t.irq_assert.(line) <- asserted

(* An already-pending line absorbs a new assertion, as a real interrupt
   controller's level-triggered pending bit would; the assertion is still
   traced. *)
let assert_irq t line =
  if not (line_pending t line) then pending_push t line ~asserted:(cycles t);
  if tracing t then emit t (Obs.Trace.Irq_assert { line })

let pop_irq t =
  let line = t.pending_buf.(t.pending_head) in
  t.pending_head <- (t.pending_head + 1) land (num_irqs - 1);
  t.pending_count <- t.pending_count - 1;
  t.pending_mask <- t.pending_mask land lnot (1 lsl line);
  line

let arm_irq t line ~fire =
  (if t.armed_count = Array.length t.armed_fire then begin
     let cap = 2 * Array.length t.armed_fire in
     let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
     t.armed_fire <- grow t.armed_fire;
     t.armed_line <- grow t.armed_line;
     t.scratch_fire <- grow t.scratch_fire;
     t.scratch_line <- grow t.scratch_line
   end);
  t.armed_fire.(t.armed_count) <- fire;
  t.armed_line.(t.armed_count) <- line;
  t.armed_count <- t.armed_count + 1;
  if tracing t then emit t (Obs.Trace.Irq_armed { line; fire_at = fire })

(* Promote armed lines whose fire cycle has passed into the pending set,
   earliest first (stable for equal fire cycles, so delivery order is
   deterministic), stamping each line's assert cycle with the cycle its
   (virtual) device raised it.  Expired slots are gathered into the
   scratch buffer and insertion-sorted (stable) by fire cycle; live timers
   compact in place, preserving arming order. *)
let promote_armed t =
  if t.armed_count > 0 then begin
    let now = cycles t in
    let expired = ref 0 in
    let kept = ref 0 in
    for i = 0 to t.armed_count - 1 do
      let fire = t.armed_fire.(i) in
      if now >= fire then begin
        t.scratch_fire.(!expired) <- fire;
        t.scratch_line.(!expired) <- t.armed_line.(i);
        incr expired
      end
      else begin
        t.armed_fire.(!kept) <- fire;
        t.armed_line.(!kept) <- t.armed_line.(i);
        incr kept
      end
    done;
    if !expired > 0 then begin
      t.armed_count <- !kept;
      for i = 1 to !expired - 1 do
        let f = t.scratch_fire.(i) and l = t.scratch_line.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && t.scratch_fire.(!j) > f do
          t.scratch_fire.(!j + 1) <- t.scratch_fire.(!j);
          t.scratch_line.(!j + 1) <- t.scratch_line.(!j);
          decr j
        done;
        t.scratch_fire.(!j + 1) <- f;
        t.scratch_line.(!j + 1) <- l
      done;
      for i = 0 to !expired - 1 do
        let line = t.scratch_line.(i) in
        if not (line_pending t line) then begin
          pending_push t line ~asserted:t.scratch_fire.(i);
          (* Flight-recorder visibility: a timer-armed line becoming
             pending is an assertion; without this the replayed worst-
             delivery windows would show armed->deliver with no assert
             edge.  Emission charges no cycles. *)
          if tracing t then emit t (Obs.Trace.Irq_assert { line })
        end
      done
    end
  end

(* Earliest armed timer (ties resolved to the earliest-armed slot). *)
let next_armed_irq t =
  if t.armed_count = 0 then None
  else begin
    let best = ref 0 in
    for i = 1 to t.armed_count - 1 do
      if t.armed_fire.(i) < t.armed_fire.(!best) then best := i
    done;
    Some (t.armed_fire.(!best), t.armed_line.(!best))
  end

let rec armed_fired t now i =
  i < t.armed_count && (t.armed_fire.(i) <= now || armed_fired t now (i + 1))

(* What a preemption point polls: a raised line waits in the ring, or an
   armed timer has fired.  Nothing is promoted here; promotion, and the
   [Irq_assert] events it emits, happen on the interrupt path. *)
let irq_pending t =
  t.pending_count > 0 || (t.armed_count > 0 && armed_fired t (cycles t) 0)

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
  let taken =
    if t.build.Build.preemption_points && irq_pending t then begin
      t.preempt_count <- t.preempt_count + 1;
      true
    end
    else false
  in
  if tracing t then emit t (Obs.Trace.Preempt_point { taken });
  taken
