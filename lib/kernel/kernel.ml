(* The microkernel: event-based, single kernel stack, interrupts disabled
   during kernel execution except at explicit preemption points.

   Every kernel entry runs to completion or to a preemption point.  A
   preempted operation saves its progress in the objects it manipulates
   (incremental consistency), marks the current thread's system call for
   restart, handles the pending interrupt, and returns — re-executing the
   original system call later continues the operation (Section 2.1:
   "a preempted operation is effectively a restartable system call"). *)

open Ktypes

type t = {
  ctx : Ctx.t;
  build : Build.t;
  cpu_id : int;
      (** the core this kernel instance runs on (SMP model); 0 on the
          single-core model *)
  sched : Sched.t;
  asids : Vspace.asid_state;
  idle : tcb;
  mutable current : tcb;
  mutable objects : any_object list;  (* registry, for the invariant checker *)
  mutable next_id : int;
  mutable phys_watermark : int;
  mutable next_root_slot : int;
  mutable root_slots : slot list;  (* harness-owned slots, for invariants *)
  cap_refs : (int, int) Hashtbl.t;  (* object id -> live cap count *)
  irq_handlers : cap option array;
  mutable irq_line_worst : int;  (* worst per-delivery latency, any line *)
  mutable on_irq_deliver : (int -> int -> unit) option;
      (* observer hook: called with (line, latency) at every delivery *)
  mutable preempted_events : int;
  mutable syscall_restarts : int;
}

let num_irqs = Ctx.num_irqs
let timer_irq = Ctx.timer_irq

(* --- construction --- *)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let register t obj =
  (* New threads inherit the creating kernel's core: the SMP model never
     migrates threads, so affinity is fixed at creation (the [affinity]
     invariant checks it stays that way). *)
  (match obj with Any_tcb tcb -> tcb.tcb_affinity <- t.cpu_id | _ -> ());
  t.objects <- obj :: t.objects;
  Hashtbl.replace t.cap_refs (Objects.id_of obj) 1

let unregister t obj =
  (* Compare by object id: [any_object] wrappers are re-boxed freely, so
     physical equality on the wrapper would never match. *)
  let id = Objects.id_of obj in
  t.objects <- List.filter (fun o -> Objects.id_of o <> id) t.objects;
  Hashtbl.remove t.cap_refs id

let create ?cpu ?(cpu_id = 0) (build : Build.t) =
  let ctx = Ctx.create ?cpu build in
  let idle = Objects.make_tcb ~id:0 ~addr:(Layout.data_base + 0x4000) ~priority:0 in
  idle.state <- Running;
  idle.tcb_affinity <- cpu_id;
  let t =
    {
      ctx;
      build;
      cpu_id;
      sched = Sched.create build ~idle;
      asids = Vspace.create_asid_state ();
      idle;
      current = idle;
      objects = [];
      next_id = 1;
      phys_watermark = 0x1000;
      next_root_slot = 0;
      root_slots = [];
      cap_refs = Hashtbl.create 64;
      irq_handlers = Array.make num_irqs None;
      irq_line_worst = 0;
      on_irq_deliver = None;
      preempted_events = 0;
      syscall_restarts = 0;
    }
  in
  t

let ctx t = t.ctx
let current t = t.current
let cycles t = Ctx.cycles t.ctx

(* Root slots: capability storage owned by the initial task/harness,
   outside any CNode (boot caps live here). *)
let new_root_slot t =
  let index = t.next_root_slot in
  t.next_root_slot <- index + 1;
  let slot = Objects.make_slot ~index () in
  t.root_slots <- slot :: t.root_slots;
  slot

(* Carve a fresh untyped out of simulated physical memory (boot-time
   operation building the initial capability set). *)
let boot_untyped t ~size_bits =
  let size = 1 lsl size_bits in
  let addr = (t.phys_watermark + size - 1) / size * size in
  t.phys_watermark <- addr + size;
  assert (t.phys_watermark <= Layout.phys_bytes);
  let ut = Objects.make_untyped ~id:(fresh_id t) ~addr ~size_bits in
  register t (Any_untyped ut);
  let slot = new_root_slot t in
  slot.cap <- Untyped_cap ut;
  slot

(* --- capability accounting --- *)

let obj_of_cap = function
  | Tcb_cap tcb -> Some (Any_tcb tcb)
  | Endpoint_cap { ep; _ } -> Some (Any_endpoint ep)
  | Cnode_cap { cnode; _ } -> Some (Any_cnode cnode)
  | Untyped_cap ut -> Some (Any_untyped ut)
  | Frame_cap { frame; _ } -> Some (Any_frame frame)
  | Page_table_cap { pt; _ } -> Some (Any_page_table pt)
  | Page_directory_cap { pd; _ } -> Some (Any_page_directory pd)
  | Asid_pool_cap pool -> Some (Any_asid_pool pool)
  | Notification_cap { ntfn; _ } -> Some (Any_notification ntfn)
  | Null_cap | Reply_cap _ | Asid_control_cap | Irq_control_cap
  | Irq_handler_cap _ ->
      None

let incref t cap =
  match obj_of_cap cap with
  | None -> ()
  | Some obj ->
      let id = Objects.id_of obj in
      Hashtbl.replace t.cap_refs id
        (1 + try Hashtbl.find t.cap_refs id with Not_found -> 0)

let decref t cap =
  match obj_of_cap cap with
  | None -> false
  | Some obj -> (
      let id = Objects.id_of obj in
      match Hashtbl.find_opt t.cap_refs id with
      | Some n when n > 1 ->
          Hashtbl.replace t.cap_refs id (n - 1);
          false
      | Some _ -> true (* this was the final capability *)
      | None -> false)

(* --- thread state and scheduling --- *)

let set_state t tcb state =
  Ctx.exec t.ctx Layout.R.set_thread_state Costs.set_state_instrs;
  Ctx.store t.ctx tcb.tcb_addr;
  let was_runnable = is_runnable tcb in
  tcb.state <- state;
  if was_runnable && not (is_runnable tcb) then Sched.on_block t.ctx t.sched tcb

let switch_to t tcb =
  Ctx.exec t.ctx Layout.R.context_switch Costs.context_switch_instrs;
  Ctx.store t.ctx Layout.cur_thread_ptr;
  Ctx.load t.ctx tcb.tcb_addr;
  (* Under Benno scheduling the running thread is never in the run queue;
     under lazy scheduling it stays there — that is precisely the laziness
     whose cleanup cost Section 3.1 eliminates. *)
  (match t.build.Build.sched with
  | Build.Benno | Build.Benno_bitmap ->
      if tcb.in_run_queue then Sched.dequeue t.ctx t.sched tcb
  | Build.Lazy -> ());
  t.current <- tcb

(* Harness entry: force [tcb] onto the CPU as if the scheduler had picked
   it (models user-level context switches driven by the simulation). *)
let force_run t tcb =
  if not (t.current == tcb) then begin
    if is_runnable t.current && not (t.current == t.idle) then
      Sched.make_runnable t.ctx t.sched t.current;
    switch_to t tcb
  end

(* Pick the next thread and switch to it.  When the scheduler re-selects
   the current thread (it was re-queued by a timeslice rotation and is
   still the best choice), Benno builds must pull it back out of the
   queue — the running thread is never queued under Benno scheduling. *)
let reschedule t =
  let next = Sched.choose_thread t.ctx t.sched in
  if next == t.current then (
    match t.build.Build.sched with
    | Build.Benno | Build.Benno_bitmap ->
        if next.in_run_queue then Sched.dequeue t.ctx t.sched next
    | Build.Lazy -> ())
  else switch_to t next

(* The current thread goes to the tail of its run queue (round-robin):
   the end of a timeslice, or a yield. *)
let requeue_current t =
  if is_runnable t.current && not (t.current == t.idle) then begin
    if t.current.in_run_queue then Sched.dequeue t.ctx t.sched t.current;
    Sched.enqueue t.ctx t.sched t.current
  end

(* A thread becomes runnable.  [direct] allows the Benno-style immediate
   switch when the woken thread can run now (Section 3.1). *)
let wake t ?(direct = true) tcb =
  set_state t tcb Running;
  let can_run_now = tcb.priority >= t.current.priority in
  if direct && can_run_now then begin
    (* Benno-style direct switch (Section 3.1): the woken thread runs
       immediately and is never queued.  The displaced thread, if still
       runnable, re-enters the run queue here — re-establishing the queue
       invariant at switch time.  Lazy scheduling took the same shortcut;
       the difference is what blocking left behind in the queues. *)
    if
      is_runnable t.current
      && (not (t.current == t.idle))
      && not (t.current == tcb)
    then Sched.make_runnable t.ctx t.sched t.current;
    switch_to t tcb
  end
  else Sched.make_runnable t.ctx t.sched tcb

(* --- IPC --- *)

let transfer_message t ~sender ~receiver ~msg_len ~badge =
  let words = Int.min msg_len Costs.max_msg_len in
  Ctx.exec t.ctx Layout.R.slowpath_ipc (Costs.per_message_word_instrs * words);
  for i = 0 to words - 1 do
    Ctx.load t.ctx (sender.tcb_addr + 64 + (4 * i));
    Ctx.store t.ctx (receiver.tcb_addr + 64 + (4 * i));
    receiver.regs.(i) <- sender.regs.(i)
  done;
  (* Badge delivered in a register. *)
  if Costs.max_msg_len > 0 then receiver.regs.(0) <- receiver.regs.(0) land 0xffff;
  Ctx.store t.ctx (receiver.tcb_addr + 60);
  receiver.ep_badge <- badge

(* Transfer granted capabilities: each one costs a cspace decode on the
   sender side plus derivation-tree surgery; the first cap lands in the
   receiver's receive slot (as in seL4), the rest only charge their
   decode (they are diminished away). *)
let transfer_caps t ~sender ~receiver ~extra_caps =
  List.iteri
    (fun i cptr ->
      Ctx.exec t.ctx Layout.R.transfer_caps Costs.cap_transfer_instrs;
      match Cspace.resolve t.ctx ~root_cap:sender.cspace_root ~cptr with
      | Cspace.Error _ -> ()
      | Cspace.Ok_slot (src_slot, _) -> (
          match (i, receiver.recv_slot) with
          | 0, Some dest when cap_is_null dest.cap ->
              dest.cap <- src_slot.cap;
              incref t src_slot.cap;
              Cdt.insert_child t.ctx ~parent:src_slot ~child:dest
          | _ -> ()))
    extra_caps

(* Send on an endpoint.  Returns [false] if the sender blocked. *)
let send_ipc t ~(ep : endpoint) ~badge ~msg_len ~extra_caps ~can_grant ~is_call
    ~blocking ~sender =
  Ctx.exec t.ctx Layout.R.slowpath_ipc Costs.slowpath_ipc_instrs;
  Ctx.load t.ctx ep.ep_addr;
  match ep.ep_queue_kind with
  | Ep_receivers -> (
      match Ep_queue.pop t.ctx ep with
      | None -> assert false
      | Some receiver ->
          transfer_message t ~sender ~receiver ~msg_len ~badge;
          if can_grant && extra_caps <> [] then
            transfer_caps t ~sender ~receiver ~extra_caps;
          if is_call then begin
            set_state t sender Blocked_on_reply;
            receiver.caller <- Some sender;
            sender.reply_target <- Some receiver;
            Ctx.store t.ctx receiver.tcb_addr
          end;
          wake t receiver;
          true)
  | Ep_idle | Ep_senders ->
      if not blocking then true
      else begin
        set_state t sender (Blocked_on_send ep);
        sender.ep_badge <- badge;
        sender.ep_can_grant <- can_grant;
        sender.ep_is_call <- is_call;
        sender.ep_msg_len <- msg_len;
        ep.ep_queue_kind <- Ep_senders;
        Ep_queue.enqueue t.ctx ep sender;
        false
      end

(* Receive on an endpoint.  Returns [false] if the receiver blocked. *)
let recv_ipc t ~(ep : endpoint) ~receiver =
  Ctx.exec t.ctx Layout.R.slowpath_ipc Costs.slowpath_ipc_instrs;
  Ctx.load t.ctx ep.ep_addr;
  match ep.ep_queue_kind with
  | Ep_senders -> (
      match Ep_queue.pop t.ctx ep with
      | None -> assert false
      | Some sender ->
          transfer_message t ~sender ~receiver ~msg_len:sender.ep_msg_len
            ~badge:sender.ep_badge;
          if sender.ep_is_call then begin
            set_state t sender Blocked_on_reply;
            receiver.caller <- Some sender;
            sender.reply_target <- Some receiver
          end
          else wake t ~direct:false sender;
          true)
  | Ep_idle | Ep_receivers ->
      set_state t receiver (Blocked_on_receive ep);
      ep.ep_queue_kind <- Ep_receivers;
      Ep_queue.enqueue t.ctx ep receiver;
      false

(* Reply to our caller.  The replier continues into its receive phase
   (ReplyRecv is atomic), so the caller is made runnable without a direct
   switch; the scheduler picks it up when the replier blocks. *)
let do_reply t ~replier ~msg_len =
  match replier.caller with
  | None -> ()
  | Some caller ->
      replier.caller <- None;
      caller.reply_target <- None;
      transfer_message t ~sender:replier ~receiver:caller ~msg_len ~badge:0;
      wake t ~direct:false caller

(* The IPC fastpath (Section 6.1): an atomic call with a short message to
   an endpoint on which a receiver of eligible priority is already
   waiting.  200-250 cycles on the ARM1136; we charge the fastpath
   instruction budget plus the few cache touches it makes. *)
let fastpath_eligible t ~ep ~msg_len ~extra_caps =
  ep.ep_active
  && ep.ep_queue_kind = Ep_receivers
  && msg_len <= 4
  && extra_caps = []
  &&
  match ep.ep_queue.head with
  | Some receiver -> receiver.priority >= t.current.priority
  | None -> false

let fastpath_call t ~ep ~badge ~msg_len =
  Ctx.exec t.ctx Layout.R.fastpath Costs.fastpath_instrs;
  let sender = t.current in
  match Ep_queue.pop t.ctx ep with
  | None -> assert false
  | Some receiver ->
      for i = 0 to msg_len - 1 do
        receiver.regs.(i) <- sender.regs.(i)
      done;
      Ctx.load t.ctx sender.tcb_addr;
      Ctx.store t.ctx receiver.tcb_addr;
      receiver.ep_badge <- badge;
      sender.state <- Blocked_on_reply;
      receiver.caller <- Some sender;
      sender.reply_target <- Some receiver;
      receiver.state <- Running;
      (* Direct switch, bypassing the scheduler entirely. *)
      Ctx.store t.ctx Layout.cur_thread_ptr;
      t.current <- receiver

(* --- endpoint deletion (Section 3.3) and badged aborts (Section 3.4) --- *)

(* Abort all waiters: one dequeue per preemption point.  The endpoint is
   deactivated first so no new IPC can start — forward progress. *)
let delete_endpoint t (ep : endpoint) =
  Ctx.exec t.ctx Layout.R.endpoint_delete Costs.ep_dequeue_instrs;
  ep.ep_active <- false;
  Ctx.store t.ctx ep.ep_addr;
  let rec drain () =
    match Ep_queue.pop t.ctx ep with
    | None ->
        ep.ep_queue_kind <- Ep_idle;
        Vspace.Done
    | Some tcb ->
        (* The aborted thread restarts its IPC with an error at user
           level; kernel-side it simply becomes runnable again. *)
        wake t ~direct:false tcb;
        if Ctx.preemption_point t.ctx then Vspace.Preempted else drain ()
  in
  drain ()

(* Cancel all pending sends using [badge].  The four pieces of resume
   state from Section 3.4 live on the endpoint object:
   the badge, the cursor, the end-of-queue marker at start, and the
   initiating thread. *)
let cancel_badged_sends t (ep : endpoint) ~badge ~initiator =
  let start_abort () =
    let progress =
      {
        ab_badge = badge;
        ab_cursor = ep.ep_queue.head;
        ab_last = ep.ep_queue.tail;
        ab_initiator = Some initiator;
      }
    in
    ep.ep_abort <- Some progress;
    Ctx.store t.ctx ep.ep_addr;
    progress
  in
  let rec run (progress : abort_progress) =
    Ctx.exec t.ctx Layout.R.badge_abort Costs.badge_scan_instrs;
    match progress.ab_cursor with
    | None ->
        ep.ep_abort <- None;
        Ctx.store t.ctx ep.ep_addr;
        Vspace.Done
    | Some tcb ->
        Ctx.load t.ctx tcb.tcb_addr;
        let is_last =
          match progress.ab_last with Some l -> l == tcb | None -> true
        in
        let next = tcb.ep_next in
        if tcb.ep_badge = progress.ab_badge then begin
          Ep_queue.dequeue t.ctx ep tcb;
          wake t ~direct:false tcb
        end;
        progress.ab_cursor <- (if is_last then None else next);
        Ctx.store t.ctx ep.ep_addr;
        if Ctx.preemption_point t.ctx then Vspace.Preempted else run progress
  in
  match ep.ep_abort with
  | Some progress when progress.ab_badge <> badge ->
      (* A different badge's abort was preempted mid-flight: finish it
         first (on its initiator's behalf), then start ours (Section 3.4,
         item 3). *)
      (match run progress with
      | Vspace.Preempted -> Vspace.Preempted
      | Vspace.Done -> run (start_abort ()))
  | Some progress -> run progress (* our own preempted abort: resume *)
  | None ->
      if ep.ep_queue_kind = Ep_senders then run (start_abort ())
      else Vspace.Done

(* --- notifications (asynchronous signalling) --- *)

(* Signal: OR the badge into the word, or hand it directly to one waiter.
   Never blocks — this is the operation device interrupts use. *)
let signal_notification t (ntfn : notification) ~badge =
  Ctx.exec t.ctx Layout.R.irq_path Costs.set_state_instrs;
  Ctx.load t.ctx ntfn.ntfn_addr;
  match Ep_queue.take t.ctx ntfn.ntfn_queue ~owner:ntfn.ntfn_addr with
  | Some waiter ->
      waiter.state <- Inactive (* leaves Blocked_on_notification cleanly *);
      waiter.regs.(0) <- badge;
      Ctx.store t.ctx waiter.tcb_addr;
      wake t waiter
  | None ->
      ntfn.ntfn_word <- ntfn.ntfn_word lor badge;
      Ctx.store t.ctx ntfn.ntfn_addr

(* Wait: take all pending signals, or block. *)
let wait_notification t (ntfn : notification) ~waiter =
  Ctx.exec t.ctx Layout.R.slowpath_ipc Costs.set_state_instrs;
  Ctx.load t.ctx ntfn.ntfn_addr;
  if ntfn.ntfn_word <> 0 then begin
    waiter.regs.(0) <- ntfn.ntfn_word;
    ntfn.ntfn_word <- 0;
    Ctx.store t.ctx ntfn.ntfn_addr;
    true
  end
  else begin
    set_state t waiter (Blocked_on_notification ntfn);
    Ep_queue.push t.ctx ntfn.ntfn_queue ~owner:ntfn.ntfn_addr waiter;
    false
  end

(* Poll: non-blocking wait; returns the word (0 = nothing pending). *)
let poll_notification t (ntfn : notification) ~waiter =
  Ctx.exec t.ctx Layout.R.slowpath_ipc Costs.set_state_instrs;
  Ctx.load t.ctx ntfn.ntfn_addr;
  waiter.regs.(0) <- ntfn.ntfn_word;
  let word = ntfn.ntfn_word in
  ntfn.ntfn_word <- 0;
  if word <> 0 then Ctx.store t.ctx ntfn.ntfn_addr;
  word

(* Deletion: wake all waiters, one per preemption point (same incremental
   consistency as endpoint deletion). *)
let delete_notification t (ntfn : notification) =
  ntfn.ntfn_active <- false;
  Ctx.store t.ctx ntfn.ntfn_addr;
  let rec drain () =
    match Ep_queue.take t.ctx ntfn.ntfn_queue ~owner:ntfn.ntfn_addr with
    | None -> Vspace.Done
    | Some tcb ->
        tcb.state <- Inactive;
        wake t ~direct:false tcb;
        if Ctx.preemption_point t.ctx then Vspace.Preempted else drain ()
  in
  drain ()

(* --- object destruction --- *)

let cancel_ipc t tcb =
  match tcb.state with
  | Blocked_on_send ep | Blocked_on_receive ep ->
      Ep_queue.dequeue t.ctx ep tcb;
      tcb.state <- Inactive
  | Blocked_on_notification ntfn ->
      Ep_queue.remove t.ctx ntfn.ntfn_queue ~owner:ntfn.ntfn_addr tcb;
      tcb.state <- Inactive
  | Blocked_on_reply ->
      (* Purge the callee's caller pointer, or a later reply would wake
         this thread out of whatever state it is in by then. *)
      (match tcb.reply_target with
      | Some callee -> (
          match callee.caller with
          | Some c when c == tcb -> callee.caller <- None
          | _ -> ())
      | None -> ());
      tcb.reply_target <- None;
      tcb.state <- Inactive
  | Inactive | Running -> ()

(* The top-level ASID table slot holding [pool], or -1. *)
let asid_pool_slot t pool =
  let table = t.asids.Vspace.table in
  let rec find i =
    if i >= Array.length table then -1
    else
      match table.(i) with Some p when p == pool -> i | _ -> find (i + 1)
  in
  find 0

(* Destroy an object once its final capability goes away, unregistering
   it when its destructor is done.  Returns [Preempted] for the
   long-running cases, which resume on restart. *)
let destroy_object t obj =
  let progress =
    match obj with
    | Any_endpoint ep -> delete_endpoint t ep
    | Any_notification ntfn -> delete_notification t ntfn
    | Any_tcb tcb ->
        cancel_ipc t tcb;
        if tcb.in_run_queue then Sched.dequeue t.ctx t.sched tcb;
        tcb.state <- Inactive;
        Vspace.Done
    | Any_page_table pt -> Vspace.delete_page_table_mappings t.ctx pt
    | Any_page_directory pd -> (
        match t.build.Build.vspace with
        | Build.Asid_table ->
            (* O(1): drop the ASID; stale frame caps are harmless. *)
            Vspace.asid_delete_vspace t.ctx t.asids pd;
            Vspace.Done
        | Build.Shadow_tables -> Vspace.delete_vspace_shadow t.ctx pd)
    | Any_asid_pool pool ->
        (* The unpreemptible 1024-entry teardown of the original design. *)
        let i = asid_pool_slot t pool in
        if i >= 0 then Vspace.asid_pool_delete t.ctx t.asids ~pool_slot:i;
        Vspace.Done
    | Any_frame _ | Any_cnode _ | Any_untyped _ -> Vspace.Done
  in
  (match progress with
  | Vspace.Done -> unregister t obj
  | Vspace.Preempted -> ());
  progress

(* Delete the capability in one slot; a mapped frame is unmapped first.
   May preempt inside the object destructor; the slot is only emptied once
   destruction completed, so a restarted delete resumes the destructor
   ([decref] does not mutate the count when it reports the final cap, so
   the restart sees the same answer). *)
let delete_cap t (slot : slot) =
  Ctx.exec t.ctx Layout.R.cnode_ops Costs.cdt_remove_instrs;
  match slot.cap with
  | Null_cap -> Vspace.Done
  | cap ->
      (match cap with
      | Frame_cap ({ fc_mapping = Some _; _ } as fc) ->
          Vspace.unmap_frame t.ctx t.build t.asids fc
      | _ -> ());
      let progress =
        match if decref t cap then obj_of_cap cap else None with
        | Some obj -> destroy_object t obj
        | None -> Vspace.Done
      in
      (match progress with
      | Vspace.Done ->
          Cdt.remove t.ctx slot;
          slot.cap <- Null_cap
      | Vspace.Preempted -> ());
      progress

(* Revoke: delete every derivation descendant of [slot], leaf-first, one
   deletion per preemption point. *)
let revoke_cap t (slot : slot) =
  let rec loop () =
    Ctx.exec t.ctx Layout.R.cnode_ops Costs.cdt_remove_instrs;
    match Cdt.deepest_descendant slot with
    | None -> Vspace.Done
    | Some victim -> (
        match delete_cap t victim with
        | Vspace.Preempted -> Vspace.Preempted
        | Vspace.Done ->
            if Ctx.preemption_point t.ctx then Vspace.Preempted else loop ())
  in
  loop ()

(* --- interrupts --- *)

let raise_irq t line =
  assert (line >= 0 && line < num_irqs);
  Ctx.assert_irq t.ctx line

(* Arrange for [line] to be asserted once the cycle counter reaches
   now + delay: the interrupt will land in the middle of whatever kernel
   operation is then executing.  Each line holds one armed fire cycle;
   every armed line becomes pending at its own. *)
let schedule_irq t line ~delay =
  assert (line >= 0 && line < num_irqs);
  Ctx.arm_irq t.ctx line ~fire:(Ctx.cycles t.ctx + delay)

let next_armed_irq t = Ctx.next_armed_irq t.ctx
let has_pending_irq t = Ctx.has_pending t.ctx
let set_irq_delivery_hook t hook = t.on_irq_deliver <- hook

let set_injection_hook t hook = Ctx.set_injection_hook t.ctx hook
let preempt_polls t = Ctx.preempt_polls t.ctx

(* The in-kernel interrupt path: promote fired timers, acknowledge the
   earliest-asserted pending line, record its response latency from the
   line's own assert cycle, deliver to the registered handler endpoint,
   and for the timer, preempt the current thread.  One line is delivered
   per call; remaining lines stay pending and are taken on subsequent
   entries, exactly as a real controller re-raises its output. *)
let handle_interrupt_internal t =
  Ctx.exec t.ctx Layout.R.irq_path Costs.irq_path_instrs;
  Ctx.load t.ctx Layout.irq_pending_word;
  Ctx.promote_armed t.ctx;
  if has_pending_irq t then begin
    let line = Ctx.pop_irq t.ctx in
    let latency = Ctx.cycles t.ctx - Ctx.assert_cycle t.ctx line in
    if latency > t.irq_line_worst then t.irq_line_worst <- latency;
    if Ctx.tracing t.ctx then
      Ctx.emit t.ctx (Obs.Trace.Irq_deliver { line; latency });
    (match t.on_irq_deliver with Some hook -> hook line latency | None -> ());
    Ctx.load t.ctx (Layout.irq_handler_table + (4 * line));
    (match t.irq_handlers.(line) with
    | Some (Notification_cap { ntfn; badge; _ }) when ntfn.ntfn_active ->
        (* The real seL4 mechanism: interrupts signal a notification. *)
        signal_notification t ntfn
          ~badge:(if badge = 0 then 1 lsl line else badge)
    | Some (Endpoint_cap { ep; badge; _ }) when ep.ep_active -> (
        (* Deliver as a message to a waiting receiver, if any. *)
        match ep.ep_queue_kind with
        | Ep_receivers -> (
            match Ep_queue.pop t.ctx ep with
            | Some handler ->
                handler.ep_badge <- badge;
                handler.regs.(0) <- line;
                Ctx.store t.ctx handler.tcb_addr;
                wake t handler
            | None -> ())
        | Ep_idle | Ep_senders -> ())
    | _ -> ());
    if line = timer_irq then begin
      (* Timer tick: end of timeslice.  The current thread goes to the
         tail of its queue (round-robin); under Benno scheduling this is
         the lazy re-enqueue of Section 3.1, under lazy scheduling it is
         the rotation that the dequeue/enqueue churn paid for. *)
      requeue_current t;
      reschedule t
    end
  end

(* --- events (kernel entries) --- *)

type invocation =
  | Inv_retype of {
      ut : int;  (* cptr *)
      obj_type : obj_type;
      count : int;
      dest_slots : slot list;  (* resolved destination slots *)
    }
  | Inv_copy of { src : int; dest_slot : slot; badge : int option }
  | Inv_move of { src : int; dest_slot : slot }
  | Inv_delete of { target : int }
  | Inv_revoke of { target : int }
  | Inv_cancel_badged_sends of { ep : int; badge : int }
  | Inv_tcb_priority of { target : int; prio : int }
  | Inv_tcb_configure of { target : int; cspace : int; vspace : int; fault_ep : int }
  | Inv_tcb_suspend of { target : int }
  | Inv_tcb_resume of { target : int }
  | Inv_map_frame of { frame : int; pd : int; vaddr : int }
  | Inv_unmap_frame of { frame : int }
  | Inv_map_page_table of { pt : int; pd : int; vaddr : int }
  | Inv_make_asid_pool of { ut : int; dest_slot : slot; top_index : int }
  | Inv_assign_asid of { pool : int; pd : int }
  | Inv_irq_handler of { line : int; ep : int }
  | Inv_bind_irq_notification of { line : int; ntfn : int }

type event =
  | Ev_signal of { ntfn : int }
  | Ev_wait of { ntfn : int }
  | Ev_poll of { ntfn : int }
  | Ev_call of { ep : int; badge_hint : int; msg_len : int; extra_caps : int list }
  | Ev_send of { ep : int; msg_len : int; extra_caps : int list; blocking : bool }
  | Ev_recv of { ep : int }
  | Ev_reply_recv of { ep : int; msg_len : int }
  | Ev_yield
  | Ev_invoke of invocation
  | Ev_interrupt
  | Ev_page_fault of { vaddr : int }
  | Ev_undefined_instruction

type outcome = Completed | Preempted | Failed of string

(* Short labels for the event trace (syscall enter/exit events). *)
let invocation_label = function
  | Inv_retype _ -> "invoke:retype"
  | Inv_copy _ -> "invoke:copy"
  | Inv_move _ -> "invoke:move"
  | Inv_delete _ -> "invoke:delete"
  | Inv_revoke _ -> "invoke:revoke"
  | Inv_cancel_badged_sends _ -> "invoke:cancel_badged_sends"
  | Inv_tcb_priority _ -> "invoke:tcb_priority"
  | Inv_tcb_configure _ -> "invoke:tcb_configure"
  | Inv_tcb_suspend _ -> "invoke:tcb_suspend"
  | Inv_tcb_resume _ -> "invoke:tcb_resume"
  | Inv_map_frame _ -> "invoke:map_frame"
  | Inv_unmap_frame _ -> "invoke:unmap_frame"
  | Inv_map_page_table _ -> "invoke:map_page_table"
  | Inv_make_asid_pool _ -> "invoke:make_asid_pool"
  | Inv_assign_asid _ -> "invoke:assign_asid"
  | Inv_irq_handler _ -> "invoke:irq_handler"
  | Inv_bind_irq_notification _ -> "invoke:bind_irq_notification"

let event_label = function
  | Ev_signal _ -> "signal"
  | Ev_wait _ -> "wait"
  | Ev_poll _ -> "poll"
  | Ev_call _ -> "call"
  | Ev_send _ -> "send"
  | Ev_recv _ -> "recv"
  | Ev_reply_recv _ -> "reply_recv"
  | Ev_yield -> "yield"
  | Ev_invoke inv -> invocation_label inv
  | Ev_interrupt -> "interrupt"
  | Ev_page_fault _ -> "page_fault"
  | Ev_undefined_instruction -> "undefined_instruction"

let outcome_label = function
  | Completed -> "completed"
  | Preempted -> "preempted"
  | Failed e -> "failed: " ^ e

let lookup t cptr =
  Cspace.resolve t.ctx ~root_cap:t.current.cspace_root ~cptr

let ( let* ) r f =
  match r with
  | Cspace.Ok_slot (slot, _) -> f slot
  | Cspace.Error e -> Failed (Fmt.to_to_string Cspace.pp_error e)

let progress_outcome = function
  | Vspace.Done -> Completed
  | Vspace.Preempted -> Preempted

(* Retype out of the untyped in [ut_slot], then [finish] with the new
   capabilities. *)
let retype t ~ut_slot obj_type ~count ~dest_slots finish =
  match
    Untyped_ops.retype t.ctx ~fresh_id:(fun () -> fresh_id t)
      ~register:(register t) ~ut_slot obj_type ~count ~dest_slots
  with
  | Untyped_ops.Done caps -> finish caps
  | Untyped_ops.Preempted -> Preempted
  | Untyped_ops.Error e -> Failed (Fmt.to_to_string Untyped_ops.pp_error e)

let install_irq_handler t line cap =
  if line < 0 || line >= num_irqs then Failed "irq line out of range"
  else begin
    Ctx.exec t.ctx Layout.R.irq_control Costs.set_state_instrs;
    t.irq_handlers.(line) <- Some cap;
    Ctx.store t.ctx (Layout.irq_handler_table + (4 * line));
    Completed
  end

(* [cap] carrying [badge], or [Null_cap] if it cannot carry one. *)
let with_badge cap = function
  | None -> cap
  | Some badge -> (
      match cap with
      | Endpoint_cap c -> Endpoint_cap { c with badge }
      | Notification_cap c -> Notification_cap { c with badge }
      | _ -> Null_cap)

(* Dispatch one decoded invocation. *)
let dispatch_invocation t inv =
  match inv with
  | Inv_retype { ut; obj_type; count; dest_slots } ->
      let* ut_slot = lookup t ut in
      retype t ~ut_slot obj_type ~count ~dest_slots (fun _ -> Completed)
  | Inv_copy { src; dest_slot; badge } -> (
      let* src_slot = lookup t src in
      if not (cap_is_null dest_slot.cap) then Failed "destination occupied"
      else if cap_is_null src_slot.cap then Failed "source empty"
      else
        match with_badge src_slot.cap badge with
        | Null_cap -> Failed "only endpoint and notification caps can be badged"
        | cap ->
            dest_slot.cap <- cap;
            incref t cap;
            Cdt.insert_child t.ctx ~parent:src_slot ~child:dest_slot;
            Completed)
  | Inv_move { src; dest_slot } -> (
      let* src_slot = lookup t src in
      if not (cap_is_null dest_slot.cap) then Failed "destination occupied"
      else
        match src_slot.cap with
        | Null_cap -> Failed "source empty"
        | cap ->
            Ctx.exec t.ctx Layout.R.cnode_ops Costs.cdt_insert_instrs;
            dest_slot.cap <- cap;
            src_slot.cap <- Null_cap;
            Cdt.replace t.ctx ~old_slot:src_slot ~new_slot:dest_slot;
            Completed)
  | Inv_delete { target } ->
      let* slot = lookup t target in
      progress_outcome (delete_cap t slot)
  | Inv_revoke { target } ->
      let* slot = lookup t target in
      progress_outcome (revoke_cap t slot)
  | Inv_cancel_badged_sends { ep; badge } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | Endpoint_cap { ep; _ } ->
          progress_outcome
            (cancel_badged_sends t ep ~badge ~initiator:t.current)
      | _ -> Failed "not an endpoint")
  | Inv_tcb_priority { target; _ }
  | Inv_tcb_configure { target; _ }
  | Inv_tcb_suspend { target }
  | Inv_tcb_resume { target } -> (
      let* slot = lookup t target in
      match (slot.cap, inv) with
      | Tcb_cap tcb, Inv_tcb_priority { prio; _ } ->
          Ctx.exec t.ctx Layout.R.tcb_ops Costs.set_state_instrs;
          if tcb.in_run_queue then begin
            Sched.dequeue t.ctx t.sched tcb;
            tcb.priority <- prio;
            Sched.enqueue t.ctx t.sched tcb
          end
          else tcb.priority <- prio;
          Completed
      | Tcb_cap tcb, Inv_tcb_configure { cspace; vspace; fault_ep; _ } ->
          Ctx.exec t.ctx Layout.R.tcb_ops (3 * Costs.set_state_instrs);
          let* cspace_slot = lookup t cspace in
          let* vspace_slot = lookup t vspace in
          tcb.cspace_root <- cspace_slot.cap;
          tcb.vspace_root <- vspace_slot.cap;
          tcb.fault_handler_cptr <- Some fault_ep;
          Completed
      | Tcb_cap tcb, Inv_tcb_suspend _ ->
          Ctx.exec t.ctx Layout.R.tcb_ops Costs.set_state_instrs;
          cancel_ipc t tcb;
          set_state t tcb Inactive;
          if tcb.in_run_queue then Sched.dequeue t.ctx t.sched tcb;
          if tcb == t.current then reschedule t;
          Completed
      | Tcb_cap tcb, Inv_tcb_resume _ ->
          Ctx.exec t.ctx Layout.R.tcb_ops Costs.set_state_instrs;
          (* seL4's Resume restarts the thread: any pending IPC is
             cancelled (dequeued) before it becomes runnable. *)
          if not (is_runnable tcb) then begin
            cancel_ipc t tcb;
            wake t ~direct:false tcb
          end;
          Completed
      | _ -> Failed "not a tcb")
  | Inv_map_frame { frame = obj; pd; vaddr }
  | Inv_map_page_table { pt = obj; pd; vaddr } -> (
      let* slot = lookup t obj in
      let* pd_slot = lookup t pd in
      try
        match (slot.cap, inv) with
        | Frame_cap fc, Inv_map_frame _ ->
            let pd = Vspace.resolve_vspace t.ctx t.build t.asids pd_slot.cap in
            Vspace.map_frame t.ctx t.build fc ~slot pd ~vaddr;
            Completed
        | Page_table_cap ptc, Inv_map_page_table _ ->
            let pd = Vspace.resolve_vspace t.ctx t.build t.asids pd_slot.cap in
            Vspace.map_page_table t.ctx pd ~vaddr ptc;
            Completed
        | _, Inv_map_frame _ -> Failed "not a frame"
        | _ -> Failed "not a page table"
      with Vspace.Vm_error e -> Failed (Fmt.to_to_string Vspace.pp_map_error e))
  | Inv_unmap_frame { frame } -> (
      let* frame_slot = lookup t frame in
      match frame_slot.cap with
      | Frame_cap fc ->
          Vspace.unmap_frame t.ctx t.build t.asids fc;
          Completed
      | _ -> Failed "not a frame")
  | Inv_make_asid_pool { ut; dest_slot; top_index } ->
      let* ut_slot = lookup t ut in
      let table = t.asids.Vspace.table in
      if top_index < 0 || top_index >= Array.length table then
        Failed "asid pool index out of range"
      else if table.(top_index) <> None then Failed "asid slot occupied"
      else
        retype t ~ut_slot Asid_pool_object ~count:1 ~dest_slots:[ dest_slot ]
          (function
          | [ Asid_pool_cap pool ] ->
              table.(top_index) <- Some pool;
              Completed
          | _ -> Failed "unexpected retype result")
  | Inv_assign_asid { pool; pd } -> (
      let* pool_slot = lookup t pool in
      let* pd_slot = lookup t pd in
      match (pool_slot.cap, pd_slot.cap) with
      | Asid_pool_cap p, Page_directory_cap pdc -> (
          let top = asid_pool_slot t p in
          if top < 0 then Failed "pool not installed"
          else
            match Vspace.asid_alloc t.ctx t.asids p ~pool_slot:top pdc.pd with
            | Some asid ->
                pdc.pdc_asid <- Some asid;
                Completed
            | None -> Failed "pool full")
      | _ -> Failed "bad asid assignment")
  | Inv_irq_handler { line; ep } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | (Endpoint_cap _ | Notification_cap _) as cap ->
          install_irq_handler t line cap
      | _ -> Failed "handler must be an endpoint or notification")
  | Inv_bind_irq_notification { line; ntfn } -> (
      let* slot = lookup t ntfn in
      match slot.cap with
      | Notification_cap _ as cap -> install_irq_handler t line cap
      | _ -> Failed "not a notification")

let deliver_fault t ~fault_code =
  Ctx.exec t.ctx Layout.R.fault_path Costs.slowpath_ipc_instrs;
  let handler_cap =
    match t.current.fault_handler_cptr with
    | None -> Null_cap
    | Some cptr -> (
        (* One capability decode per fault (Section 6.1). *)
        match lookup t cptr with
        | Cspace.Ok_slot (slot, _) -> slot.cap
        | Cspace.Error _ -> Null_cap)
  in
  match handler_cap with
  | Endpoint_cap { ep; badge; _ } when ep.ep_active -> (
      let faulter = t.current in
      faulter.regs.(0) <- fault_code;
      match ep.ep_queue_kind with
      | Ep_receivers -> (
          match Ep_queue.pop t.ctx ep with
          | Some handler ->
              transfer_message t ~sender:faulter ~receiver:handler ~msg_len:2
                ~badge;
              set_state t faulter Blocked_on_reply;
              handler.caller <- Some faulter;
              faulter.reply_target <- Some handler;
              wake t handler;
              Completed
          | None -> Completed)
      | Ep_idle | Ep_senders ->
          (* Queue the faulter as a sender on the fault endpoint. *)
          set_state t faulter (Blocked_on_send ep);
          faulter.ep_badge <- badge;
          faulter.ep_is_call <- true;
          ep.ep_queue_kind <- Ep_senders;
          Ep_queue.enqueue t.ctx ep faulter;
          Completed)
  | _ ->
      (* No handler: the thread stops. *)
      set_state t t.current Inactive;
      Completed

(* The tail of the system calls that can block the caller. *)
let ipc_done t =
  if not (is_runnable t.current) then reschedule t;
  Completed

let dispatch t event =
  (* Every system call decodes its arguments, once; interrupts and faults
     carry none. *)
  (match event with
  | Ev_interrupt | Ev_page_fault _ | Ev_undefined_instruction -> ()
  | _ -> Ctx.exec t.ctx Layout.R.decode Costs.decode_instrs);
  match event with
  | Ev_interrupt ->
      handle_interrupt_internal t;
      Completed
  | Ev_page_fault _ -> deliver_fault t ~fault_code:1
  | Ev_undefined_instruction -> deliver_fault t ~fault_code:2
  | Ev_yield ->
      requeue_current t;
      reschedule t;
      Completed
  | Ev_invoke inv -> dispatch_invocation t inv
  | Ev_signal { ntfn } -> (
      let* slot = lookup t ntfn in
      match slot.cap with
      | Notification_cap { ntfn; badge; _ } when ntfn.ntfn_active ->
          signal_notification t ntfn ~badge:(max badge 1);
          Completed
      | Notification_cap _ -> Failed "notification inactive"
      | _ -> Failed "not a notification")
  | Ev_wait { ntfn } -> (
      let* slot = lookup t ntfn in
      match slot.cap with
      | Notification_cap { ntfn; _ } when ntfn.ntfn_active ->
          ignore (wait_notification t ntfn ~waiter:t.current);
          ipc_done t
      | Notification_cap _ -> Failed "notification inactive"
      | _ -> Failed "not a notification")
  | Ev_poll { ntfn } -> (
      let* slot = lookup t ntfn in
      match slot.cap with
      | Notification_cap { ntfn; _ } ->
          (* No liveness check, unlike Signal and Wait: Poll reads an
             inactive notification's word too. *)
          ignore (poll_notification t ntfn ~waiter:t.current);
          Completed
      | _ -> Failed "not a notification")
  | Ev_call { ep; badge_hint = _; msg_len; extra_caps } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | Endpoint_cap { ep; badge; rights } when ep.ep_active ->
          if fastpath_eligible t ~ep ~msg_len ~extra_caps then
            fastpath_call t ~ep ~badge ~msg_len
          else
            ignore
              (send_ipc t ~ep ~badge ~msg_len ~extra_caps
                 ~can_grant:rights.grant ~is_call:true ~blocking:true
                 ~sender:t.current);
          ipc_done t
      | Endpoint_cap _ -> Failed "endpoint inactive"
      | _ -> Failed "not an endpoint")
  | Ev_send { ep; msg_len; extra_caps; blocking } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | Endpoint_cap { ep; badge; rights } when ep.ep_active ->
          ignore
            (send_ipc t ~ep ~badge ~msg_len ~extra_caps ~can_grant:rights.grant
               ~is_call:false ~blocking ~sender:t.current);
          ipc_done t
      | Endpoint_cap _ -> Failed "endpoint inactive"
      | _ -> Failed "not an endpoint")
  | Ev_recv { ep } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | Endpoint_cap { ep; _ } when ep.ep_active ->
          ignore (recv_ipc t ~ep ~receiver:t.current);
          ipc_done t
      | Endpoint_cap _ -> Failed "endpoint inactive"
      | _ -> Failed "not an endpoint")
  | Ev_reply_recv { ep; msg_len } -> (
      let* slot = lookup t ep in
      match slot.cap with
      | Endpoint_cap { ep; _ } when ep.ep_active ->
          do_reply t ~replier:t.current ~msg_len;
          ignore (recv_ipc t ~ep ~receiver:t.current);
          ipc_done t
      | Endpoint_cap _ -> Failed "endpoint inactive"
      | _ -> Failed "not an endpoint")

(* One kernel entry: exception vector in, event handling, and either a
   clean exit or a preemption (in which case the pending interrupt is
   handled before returning — "a preempted kernel operation will return up
   the call stack and then call the kernel's interrupt handler",
   Section 5.2). *)
let kernel_entry t event =
  if Ctx.tracing t.ctx then
    Ctx.emit t.ctx (Obs.Trace.Kernel_enter { event = event_label event });
  Ctx.exec t.ctx Layout.R.vector_entry Costs.entry_instrs;
  Ctx.store_block t.ctx Layout.stack_base 64;
  if t.current.restart_syscall then begin
    t.current.restart_syscall <- false;
    t.syscall_restarts <- t.syscall_restarts + 1
  end;
  let outcome = dispatch t event in
  (match outcome with
  | Preempted ->
      t.preempted_events <- t.preempted_events + 1;
      t.current.restart_syscall <- true;
      handle_interrupt_internal t
  | Completed | Failed _ ->
      (* Interrupts that arrived during this entry are taken on the exit
         path, before control reaches user mode again. *)
      if Ctx.irq_pending t.ctx then handle_interrupt_internal t);
  Ctx.exec t.ctx Layout.R.vector_exit Costs.exit_instrs;
  Ctx.load_block t.ctx Layout.stack_base 64;
  if Ctx.tracing t.ctx then
    Ctx.emit t.ctx (Obs.Trace.Kernel_exit { outcome = outcome_label outcome });
  outcome

(* Re-execute a preempted system call until it completes (or has been
   restarted [max_restarts] times).  This is what user level does
   implicitly by restarting the faulted SWI. *)
let max_restarts = 1_000_000

let run_to_completion t event =
  let rec go n outcome =
    match outcome with
    | Preempted when n < max_restarts -> go (n + 1) (kernel_entry t event)
    | other -> other
  in
  go 0 (kernel_entry t event)

let worst_irq_latency t = t.irq_line_worst
let preempted_events t = t.preempted_events
