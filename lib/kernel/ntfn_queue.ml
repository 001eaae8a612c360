(* Intrusive wait queue of a notification object, reusing the endpoint
   link fields of the TCB (a thread is never blocked on both). *)

open Ktypes

let enqueue ctx (n : notification) tcb =
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_enqueue_instrs;
  Ctx.store ctx n.ntfn_addr;
  Ctx.store ctx tcb.tcb_addr;
  assert (tcb.ep_next = None && tcb.ep_prev = None);
  let q = n.ntfn_queue in
  match q.tail with
  | None ->
      q.head <- Some tcb;
      q.tail <- Some tcb
  | Some old_tail ->
      Ctx.store ctx old_tail.tcb_addr;
      old_tail.ep_next <- Some tcb;
      tcb.ep_prev <- Some old_tail;
      q.tail <- Some tcb

let dequeue ctx (n : notification) tcb =
  Ctx.exec ctx Layout.R.endpoint_queue Costs.ep_dequeue_instrs;
  Ctx.store ctx n.ntfn_addr;
  Ctx.store ctx tcb.tcb_addr;
  let q = n.ntfn_queue in
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

let pop ctx (n : notification) =
  match n.ntfn_queue.head with
  | None -> None
  | Some tcb ->
      dequeue ctx n tcb;
      Some tcb

let to_list (n : notification) =
  let rec walk acc = function
    | None -> List.rev acc
    | Some tcb -> walk (tcb :: acc) tcb.ep_next
  in
  walk [] n.ntfn_queue.head
