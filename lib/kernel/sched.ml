(* The scheduler: 256 fixed priorities with per-priority FIFO run queues,
   in the three variants the paper compares:

   - [Lazy] (Figure 2): blocking IPC leaves threads in the run queue; the
     scheduler dequeues stale blocked threads as it encounters them.  The
     pathological case — a long queue of blocked threads to clean up with
     interrupts disabled — is what Section 3.1 removes.
   - [Benno] (Figure 3): only runnable threads are ever in the queue, so
     the scheduler simply takes the head of the highest non-empty
     priority.  The fast IPC path switches directly to a woken thread
     without queueing it.
   - [Benno_bitmap] (Section 3.2): plus a two-level bitmap over priorities
     searched with CLZ, removing the scan loop entirely.

   Higher priority number = more urgent (seL4 convention, 255 highest). *)

open Ktypes

let num_priorities = 256
let bucket_bits = 32
let num_buckets = num_priorities / bucket_bits

type t = {
  build : Build.t;
  queues : tcb_queue array;
  buckets : int array;  (* one 32-bit word per bucket of priorities *)
  mutable top : int;  (* one bit per bucket *)
  idle : tcb;
}

let create build ~idle =
  {
    build;
    queues = Array.init num_priorities (fun _ -> { head = None; tail = None });
    buckets = Array.make num_buckets 0;
    top = 0;
    idle;
  }

let queue t prio = t.queues.(prio)

(* --- intrusive doubly-linked run-queue operations --- *)

let charge_queue_touch ctx prio =
  Ctx.load ctx (Layout.run_queue_entry prio)

(* The bitmap is kept on the host in every build: it answers
   [next_nonempty] for the scanning schedulers.  Only [Benno_bitmap]
   keeps it in simulated memory, so only there is its update charged. *)
let bitmap_set ctx t prio =
  let bucket = prio / bucket_bits and bit = prio mod bucket_bits in
  t.buckets.(bucket) <- t.buckets.(bucket) lor (1 lsl bit);
  t.top <- t.top lor (1 lsl bucket);
  if t.build.Build.sched = Build.Benno_bitmap then begin
    Ctx.exec ctx Layout.R.sched_bitmap Costs.bitmap_update_instrs;
    Ctx.store ctx (Layout.bitmap_bucket bucket);
    Ctx.store ctx Layout.bitmap_top
  end

let bitmap_clear ctx t prio =
  let bucket = prio / bucket_bits and bit = prio mod bucket_bits in
  t.buckets.(bucket) <- t.buckets.(bucket) land lnot (1 lsl bit);
  if t.buckets.(bucket) = 0 then t.top <- t.top land lnot (1 lsl bucket);
  if t.build.Build.sched = Build.Benno_bitmap then begin
    Ctx.exec ctx Layout.R.sched_bitmap Costs.bitmap_update_instrs;
    Ctx.store ctx (Layout.bitmap_bucket bucket);
    Ctx.store ctx Layout.bitmap_top
  end

(* Append at the tail (FIFO within a priority). *)
let enqueue ctx t tcb =
  assert (not tcb.in_run_queue);
  Ctx.exec ctx Layout.R.sched_enqueue Costs.enqueue_instrs;
  charge_queue_touch ctx tcb.priority;
  Ctx.store ctx tcb.tcb_addr;
  let q = queue t tcb.priority in
  (match q.tail with
  | None ->
      q.head <- Some tcb;
      q.tail <- Some tcb;
      bitmap_set ctx t tcb.priority
  | Some old_tail ->
      Ctx.store ctx old_tail.tcb_addr;
      old_tail.sched_next <- Some tcb;
      tcb.sched_prev <- Some old_tail;
      q.tail <- Some tcb);
  tcb.in_run_queue <- true

let dequeue ctx t tcb =
  assert tcb.in_run_queue;
  Ctx.exec ctx Layout.R.sched_dequeue Costs.dequeue_instrs;
  charge_queue_touch ctx tcb.priority;
  Ctx.store ctx tcb.tcb_addr;
  let q = queue t tcb.priority in
  (match tcb.sched_prev with
  | None -> q.head <- tcb.sched_next
  | Some prev ->
      Ctx.store ctx prev.tcb_addr;
      prev.sched_next <- tcb.sched_next);
  (match tcb.sched_next with
  | None -> q.tail <- tcb.sched_prev
  | Some next ->
      Ctx.store ctx next.tcb_addr;
      next.sched_prev <- tcb.sched_prev);
  tcb.sched_prev <- None;
  tcb.sched_next <- None;
  tcb.in_run_queue <- false;
  if q.head = None then bitmap_clear ctx t tcb.priority

(* A thread stopped being runnable.  Under lazy scheduling it may stay in
   the queue (that is the point of the optimisation); under Benno it must
   leave immediately, maintaining the new invariant that all queued
   threads are runnable. *)
let on_block ctx t tcb =
  match t.build.Build.sched with
  | Build.Lazy -> ()
  | Build.Benno | Build.Benno_bitmap ->
      if tcb.in_run_queue then dequeue ctx t tcb

(* Make a thread schedulable.  Under lazy scheduling it may already be
   queued from a previous lazy block. *)
let make_runnable ctx t tcb =
  if not tcb.in_run_queue then enqueue ctx t tcb

(* --- chooseThread, per variant --- *)

(* Index of the highest set bit of a non-zero word of at most 32 bits:
   the CLZ the bitmap scheduler models, by binary search. *)
let msb word =
  let r = ref 0 and w = ref word in
  if !w lsr 16 <> 0 then (w := !w lsr 16; r := 16);
  if !w lsr 8 <> 0 then (w := !w lsr 8; r := !r + 8);
  if !w lsr 4 <> 0 then (w := !w lsr 4; r := !r + 4);
  if !w lsr 2 <> 0 then (w := !w lsr 2; r := !r + 2);
  if !w lsr 1 <> 0 then r := !r + 1;
  !r

(* Highest non-empty priority at or below [prio], or -1, from the host
   bitmap: the bucket of [prio] masked to bits at or below it, else the
   highest non-empty bucket below.  Charges nothing: the scan it stands
   for is charged by [charge_scan]. *)
let next_nonempty t prio =
  if prio < 0 then -1
  else begin
    let bucket = prio / bucket_bits in
    let below = t.buckets.(bucket) land ((2 lsl (prio mod bucket_bits)) - 1) in
    if below <> 0 then (bucket * bucket_bits) + msb below
    else begin
      let lower = t.top land ((1 lsl bucket) - 1) in
      if lower = 0 then -1
      else
        let b = msb lower in
        (b * bucket_bits) + msb t.buckets.(b)
    end
  end

(* Charge the scan loop over priorities [from] down to [upto] (inclusive,
   [upto] >= 0): per priority, the loop body and the load of its
   run-queue entry, in one bulk call. *)
let charge_scan ctx ~from ~upto =
  Ctx.scan ctx Layout.R.sched_choose Costs.choose_thread_scan_per_prio_instrs
    ~addr:(Layout.run_queue_entry from) ~stride:(-Layout.run_queue_entry_bytes)
    ~steps:(from - upto + 1)

(* The first runnable thread at the head of [q], dequeueing the stale
   blocked threads lazy scheduling left in front of it. *)
let rec lazy_head ctx t q =
  match q.head with
  | None -> None
  | Some tcb ->
      Ctx.load ctx tcb.tcb_addr;
      if is_runnable tcb then Some tcb
      else begin
        (* Stale blocked thread left by lazy scheduling. *)
        Ctx.exec ctx Layout.R.sched_choose Costs.lazy_dequeue_blocked_instrs;
        dequeue ctx t tcb;
        lazy_head ctx t q
      end

(* Figure 2: scan down; dequeue blocked leftovers as encountered.  Each
   run of empty priorities, and the non-empty one that ends it, is
   charged in one call; a queue that held only blocked threads is left
   empty and the scan resumes below it. *)
let rec choose_lazy ctx t from =
  if from < 0 then t.idle
  else begin
    let prio = next_nonempty t from in
    charge_scan ctx ~from ~upto:(Int.max prio 0);
    if prio < 0 then t.idle
    else
      match lazy_head ctx t (queue t prio) with
      | Some tcb -> tcb
      | None -> choose_lazy ctx t (prio - 1)
  end

(* Figure 3: the head of the highest non-empty queue is runnable. *)
let choose_benno ctx t =
  let from = num_priorities - 1 in
  let prio = next_nonempty t from in
  charge_scan ctx ~from ~upto:(Int.max prio 0);
  if prio < 0 then t.idle
  else
    match (queue t prio).head with
    | Some tcb ->
        Ctx.load ctx tcb.tcb_addr;
        assert (is_runnable tcb);
        tcb
    | None -> assert false (* [next_nonempty] found it non-empty *)

(* Section 3.2: two loads and two CLZ instructions. *)
let choose_bitmap ctx t =
  Ctx.exec ctx Layout.R.sched_choose Costs.choose_thread_bitmap_instrs;
  Ctx.load ctx Layout.bitmap_top;
  if t.top = 0 then t.idle
  else begin
    let bucket = msb t.top in
    Ctx.load ctx (Layout.bitmap_bucket bucket);
    let bit = msb t.buckets.(bucket) in
    let prio = (bucket * bucket_bits) + bit in
    charge_queue_touch ctx prio;
    match (queue t prio).head with
    | Some tcb ->
        Ctx.load ctx tcb.tcb_addr;
        assert (is_runnable tcb);
        tcb
    | None -> assert false (* the bitmap mirrors queue occupancy *)
  end

let choose_thread ctx t =
  let chosen =
    match t.build.Build.sched with
    | Build.Lazy -> choose_lazy ctx t (num_priorities - 1)
    | Build.Benno -> choose_benno ctx t
    | Build.Benno_bitmap -> choose_bitmap ctx t
  in
  if Ctx.tracing ctx then
    Ctx.emit ctx
      (Obs.Trace.Sched_decision
         { tcb = chosen.tcb_id; priority = chosen.priority });
  chosen

(* --- introspection for tests and invariants --- *)

let bitmap_bit_set t prio =
  t.buckets.(prio / bucket_bits) land (1 lsl (prio mod bucket_bits)) <> 0
  && t.top land (1 lsl (prio / bucket_bits)) <> 0
