(* Intrusive doubly-linked wait queues, threaded through the TCB's
   [ep_next]/[ep_prev] links.  Endpoints and notifications share them: a
   thread waits on at most one object at a time.

   Enqueue and dequeue are O(1) — the paper relies on this (Section 3.4:
   "Enqueuing and dequeuing threads are simple O(1) operations"); only
   whole-queue operations (deletion, badged abort) iterate, and those
   carry preemption points. *)

open Ktypes

(* --- any wait queue; [owner] is the waited-on object's address --- *)

let push ctx (q : tcb_queue) ~owner tcb =
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_enqueue_instrs;
  Ctx.store ctx owner;
  Ctx.store ctx tcb.tcb_addr;
  assert (tcb.ep_next = None && tcb.ep_prev = None);
  let link = Some tcb in
  (match q.tail with
  | None -> q.head <- link
  | Some old_tail ->
      Ctx.store ctx old_tail.tcb_addr;
      old_tail.ep_next <- link;
      tcb.ep_prev <- q.tail);
  q.tail <- link

let remove ctx (q : tcb_queue) ~owner tcb =
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_dequeue_instrs;
  Ctx.store ctx owner;
  Ctx.store ctx tcb.tcb_addr;
  (match tcb.ep_prev with
  | None -> q.head <- tcb.ep_next
  | Some prev ->
      Ctx.store ctx prev.tcb_addr;
      prev.ep_next <- tcb.ep_next);
  (match tcb.ep_next with
  | None -> q.tail <- tcb.ep_prev
  | Some next ->
      Ctx.store ctx next.tcb_addr;
      next.ep_prev <- tcb.ep_prev);
  tcb.ep_prev <- None;
  tcb.ep_next <- None

let take ctx (q : tcb_queue) ~owner =
  match q.head with
  | None -> None
  | Some tcb as head ->
      remove ctx q ~owner tcb;
      head

(* --- endpoints: traced, and safe for an in-flight badged abort --- *)

let enqueue ctx (ep : endpoint) tcb =
  if Ctx.tracing ctx then
    Ctx.emit ctx (Obs.Trace.Ep_enqueue { ep = ep.ep_id; tcb = tcb.tcb_id });
  push ctx ep.ep_queue ~owner:ep.ep_addr tcb

let dequeue ctx (ep : endpoint) tcb =
  if Ctx.tracing ctx then
    Ctx.emit ctx (Obs.Trace.Ep_dequeue { ep = ep.ep_id; tcb = tcb.tcb_id });
  (* Keep any in-flight badged-abort cursor valid: if it points at the
     thread leaving the queue, advance (or retreat the end marker).  This
     is part of what makes the Section 3.4 resume state safe against
     concurrent queue surgery. *)
  (match ep.ep_abort with
  | Some progress ->
      (match progress.ab_cursor with
      | Some c when c == tcb -> progress.ab_cursor <- tcb.ep_next
      | _ -> ());
      (match progress.ab_last with
      | Some l when l == tcb -> progress.ab_last <- tcb.ep_prev
      | _ -> ())
  | None -> ());
  remove ctx ep.ep_queue ~owner:ep.ep_addr tcb;
  if ep.ep_queue.head = None then ep.ep_queue_kind <- Ep_idle

let pop ctx (ep : endpoint) =
  match ep.ep_queue.head with
  | None -> None
  | Some tcb as head ->
      dequeue ctx ep tcb;
      head

let to_list (ep : endpoint) =
  let rec walk acc = function
    | None -> List.rev acc
    | Some tcb -> walk (tcb :: acc) tcb.ep_next
  in
  walk [] ep.ep_queue.head

let length ep = List.length (to_list ep)
