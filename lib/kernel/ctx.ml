(* Execution context: how the kernel charges its work to the hardware
   model, and how it observes pending interrupts at preemption points.

   With [cpu = None] the kernel runs uninstrumented (fast, for functional
   tests); with a CPU attached, every instruction, load, store and branch
   goes through the cache/memory hierarchy and accumulates cycles. *)

(* Interrupt state is int-encoded: [irq_arrival = no_irq] (a negative
   sentinel) means no interrupt pending, and armed timers live in a
   preallocated int array compacted in place.  The soak simulator polls
   [irq_pending] at every preemption point and kernel exit across hundreds
   of millions of entries; option boxes and timer lists here dominate its
   allocation profile. *)
let no_irq = -1

type t = {
  cpu : Hw.Cpu.t option;
  build : Build.t;
  mutable irq_arrival : int;
      (* Cycle at which the earliest still-pending interrupt arrived;
         [no_irq] when no interrupt is pending.  Set by the harness,
         cleared when the kernel takes the interrupt. *)
  mutable timer_buf : int array;
      (* Future interrupts: each becomes pending when the cycle counter
         reaches it.  Lets tests, benchmarks and the soak simulator fire
         interrupts in the middle of long-running kernel operations; the
         kernel tracks which line each timer belongs to.  Only the first
         [timer_count] slots are live. *)
  mutable timer_count : int;
  mutable irq_latency_worst : int;
  mutable irq_latency_last : int;
  mutable preempt_count : int;  (* preemption points taken (not checks) *)
  mutable preempt_polls : int;  (* preemption points polled (taken or not) *)
  mutable on_preempt_poll : (int -> bool) option;
      (* Fault-injection hook: called with the 1-based poll index at every
         preemption-point poll, *before* the pending check.  Returning
         [true] asserts an interrupt at exactly this poll — the mechanism
         the schedule campaign uses to hit the k-th preemption point
         deterministically, independent of cycle counts.  Install via
         {!set_preempt_poll_hook}, which refuses to overwrite a live
         hook. *)
  mutable on_access : (int -> int -> bool -> unit) option;
      (* Access-recorder hook: called with [(addr, bytes, is_write)] for
         every charged data access, before the cache model (and even with
         no CPU attached).  The footprint-audit mode of the race analyser
         uses it to check declared read/write sets against reality. *)
  region_names : string array;
      (* Physical-equality memo over {!Layout.code}: [exec]/[branch] call
         sites pass string literals, so a pointer scan resolves the region
         without hashing the name on every charge.  Slots beyond
         [region_count] are unused; overflow falls back to the hashed
         lookup. *)
  region_memo : Layout.code_region array;
  mutable region_count : int;
}

let region_memo_cap = 64

let create ?cpu build =
  {
    cpu;
    build;
    irq_arrival = no_irq;
    timer_buf = Array.make 8 0;
    timer_count = 0;
    irq_latency_worst = 0;
    irq_latency_last = 0;
    preempt_count = 0;
    preempt_polls = 0;
    on_preempt_poll = None;
    on_access = None;
    region_names = Array.make region_memo_cap "";
    region_memo = Array.make region_memo_cap (snd (List.hd Layout.regions));
    region_count = 0;
  }

(* Resolve a region name by pointer comparison against previously seen
   names before falling back to the hashed lookup.  Call sites pass
   literals, so after warm-up every charge resolves in a few compares. *)
let region_of t name =
  let n = t.region_count in
  let names = t.region_names in
  let i = ref 0 in
  while !i < n && Array.unsafe_get names !i != name do
    incr i
  done;
  if !i < n then Array.unsafe_get t.region_memo !i
  else begin
    let r = Layout.code name in
    if n < region_memo_cap then begin
      names.(n) <- name;
      t.region_memo.(n) <- r;
      t.region_count <- n + 1
    end;
    r
  end

let cycles t = match t.cpu with Some cpu -> Hw.Cpu.cycles cpu | None -> 0

(* Emit a structured trace event (no-op without a CPU or without an
   attached buffer).  Emission charges nothing: tracing must never change
   the cycle counts it observes. *)
let emit t kind = match t.cpu with Some cpu -> Hw.Cpu.emit cpu kind | None -> ()

(* Emission sites on hot paths guard on this before building the event:
   the [Obs.Trace.kind] argument would otherwise heap-allocate per call
   even with no buffer attached. *)
let tracing t = match t.cpu with Some cpu -> Hw.Cpu.tracing cpu | None -> false

(* Charge [count] instructions from the code region [name].  The region's
   base gives the fetch addresses. *)
let exec t name count =
  match t.cpu with
  | None -> ()
  | Some cpu ->
      let region = region_of t name in
      Hw.Cpu.exec cpu ~base:region.Layout.base ~count

(* Hook installers: refuse to silently replace a live hook.  Two engines
   (the schedule campaign, the audit recorder) composing over one context
   would otherwise drop each other's instrumentation without a trace. *)

let set_preempt_poll_hook t hook =
  (match (t.on_preempt_poll, hook) with
  | Some _, Some _ ->
      invalid_arg
        "Ctx.set_preempt_poll_hook: a preempt-poll hook is already \
         installed (clear it with None first)"
  | _ -> ());
  t.on_preempt_poll <- hook

let set_access_hook t hook =
  (match (t.on_access, hook) with
  | Some _, Some _ ->
      invalid_arg
        "Ctx.set_access_hook: an access hook is already installed (clear \
         it with None first)"
  | _ -> ());
  t.on_access <- hook

(* The recorder check is one field load and a compare on the soak hot
   path; the call only happens with an audit attached. *)
let[@inline] note_access t addr bytes write =
  match t.on_access with None -> () | Some f -> f addr bytes write

let load t addr =
  note_access t addr 4 false;
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.load cpu addr

let store t addr =
  note_access t addr 4 true;
  match t.cpu with None -> () | Some cpu -> Hw.Cpu.store cpu addr

let branch t name ~taken =
  match t.cpu with
  | None -> ()
  | Some cpu ->
      let region = region_of t name in
      Hw.Cpu.branch cpu ~pc:region.Layout.base ~taken

(* Bulk store over [bytes] starting at [addr]: one store per cache line
   (write-allocate), as used by object clearing and the kernel-mapping
   copy. *)
let store_block t addr bytes =
  note_access t addr bytes true;
  match t.cpu with
  | None -> ()
  | Some cpu ->
      let line = (Hw.Cpu.config cpu).Hw.Config.l1_line in
      let lines = (bytes + line - 1) / line in
      for i = 0 to lines - 1 do
        Hw.Cpu.store cpu (addr + (i * line))
      done

let load_block t addr bytes =
  note_access t addr bytes false;
  match t.cpu with
  | None -> ()
  | Some cpu ->
      let line = (Hw.Cpu.config cpu).Hw.Config.l1_line in
      let lines = (bytes + line - 1) / line in
      for i = 0 to lines - 1 do
        Hw.Cpu.load cpu (addr + (i * line))
      done

(* --- interrupts and preemption points --- *)

let raise_irq t = if t.irq_arrival = no_irq then t.irq_arrival <- cycles t

let schedule_irq_at t cycle =
  (if t.timer_count = Array.length t.timer_buf then begin
     let bigger = Array.make (2 * Array.length t.timer_buf) 0 in
     Array.blit t.timer_buf 0 bigger 0 t.timer_count;
     t.timer_buf <- bigger
   end);
  t.timer_buf.(t.timer_count) <- cycle;
  t.timer_count <- t.timer_count + 1

(* Promote expired timers into the pending interrupt.  The arrival time is
   the earliest expired scheduled cycle, so response latency is measured
   from the moment the first (virtual) device asserted its line;
   per-line arrival accounting is the kernel's job.  Live timers are
   compacted in place, preserving their relative order. *)
let refresh t =
  if t.timer_count > 0 then begin
    let now = cycles t in
    let earliest = ref max_int in
    let kept = ref 0 in
    for i = 0 to t.timer_count - 1 do
      let c = t.timer_buf.(i) in
      if now >= c then begin
        if c < !earliest then earliest := c
      end
      else begin
        t.timer_buf.(!kept) <- c;
        incr kept
      end
    done;
    if !earliest < max_int then begin
      t.timer_count <- !kept;
      if t.irq_arrival = no_irq || t.irq_arrival > !earliest then
        t.irq_arrival <- !earliest
    end
  end

let irq_pending t =
  refresh t;
  t.irq_arrival <> no_irq

(* Called on the interrupt-dispatch path: record the response latency.
   Returns it so the kernel's interrupt handler can attribute the delivery
   in the event trace. *)
let note_irq_taken t =
  if t.irq_arrival = no_irq then None
  else begin
    let latency = cycles t - t.irq_arrival in
    t.irq_latency_last <- latency;
    if latency > t.irq_latency_worst then t.irq_latency_worst <- latency;
    t.irq_arrival <- no_irq;
    Some latency
  end

(* A preemption point: polls the pending flag (charging the check) and
   reports whether the current long-running operation must give way.
   Returns [false] always when the build has preemption points disabled —
   the "before" kernel of Table 2. *)
let preemption_point t =
  exec t "preempt_check" Costs.preempt_check_instrs;
  load t Layout.irq_pending_word;
  t.preempt_polls <- t.preempt_polls + 1;
  (match t.on_preempt_poll with
  | Some hook -> if hook t.preempt_polls then raise_irq t
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

let worst_irq_latency t = t.irq_latency_worst
let last_irq_latency t = t.irq_latency_last
