(* Intrusive doubly-linked endpoint wait queues.

   Enqueue and dequeue are O(1) — the paper relies on this (Section 3.4:
   "Enqueuing and dequeuing threads are simple O(1) operations"); only
   whole-queue operations (deletion, badged abort) iterate, and those
   carry preemption points. *)

open Ktypes

let enqueue ctx (ep : endpoint) tcb =
  if Ctx.tracing ctx then
    Ctx.emit ctx (Obs.Trace.Ep_enqueue { ep = ep.ep_id; tcb = tcb.tcb_id });
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_enqueue_instrs;
  Ctx.store ctx ep.ep_addr;
  Ctx.store ctx tcb.tcb_addr;
  assert (tcb.ep_next = None && tcb.ep_prev = None);
  let q = ep.ep_queue in
  match q.tail with
  | None ->
      q.head <- Some tcb;
      q.tail <- Some tcb
  | Some old_tail ->
      Ctx.store ctx old_tail.tcb_addr;
      old_tail.ep_next <- Some tcb;
      tcb.ep_prev <- Some old_tail;
      q.tail <- Some tcb

let dequeue ctx (ep : endpoint) tcb =
  if Ctx.tracing ctx then
    Ctx.emit ctx (Obs.Trace.Ep_dequeue { ep = ep.ep_id; tcb = tcb.tcb_id });
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_dequeue_instrs;
  Ctx.store ctx ep.ep_addr;
  Ctx.store ctx tcb.tcb_addr;
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
  let q = ep.ep_queue in
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
  tcb.ep_next <- None;
  if q.head = None then ep.ep_queue_kind <- Ep_idle

let pop ctx (ep : endpoint) =
  match ep.ep_queue.head with
  | None -> None
  | Some tcb ->
      dequeue ctx ep tcb;
      Some tcb

let is_empty (ep : endpoint) = ep.ep_queue.head = None

let to_list (ep : endpoint) =
  let rec walk acc = function
    | None -> List.rev acc
    | Some tcb -> walk (tcb :: acc) tcb.ep_next
  in
  walk [] ep.ep_queue.head

let length ep = List.length (to_list ep)
