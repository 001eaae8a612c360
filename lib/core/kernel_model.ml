(* WCET timing skeletons: the static-analysis view of the kernel.

   The paper's toolchain extracts a CFG from the compiled kernel binary
   (Section 5.2).  Our stand-in builds the CFGs declaratively, but from
   the *same* cost constants ({!Sel4.Costs}) and the *same* code-region
   addresses ({!Sel4.Layout}) that the executable kernel charges, so the
   analysis and the measurements agree structurally and differ only where
   the paper's do: conservative cache modelling and infeasible paths.

   Response-time semantics (Sections 5.2-5.3): an analysed path ends
   either at the return to user or at a preemption point (where a pending
   interrupt is serviced), so preemptible loops are bounded by the work
   between preemption points — one iteration.  With preemption points
   disabled (the "before" kernel), the same loops are bounded by the full
   data-structure sizes, which is exactly what Table 2's "before" column
   pays. *)

module F = Cfg.Flowgraph
module T = Wcet.Timing

(* Wall-time spans of {!spec}'s two per-spec analysis stages, beside
   Ipet's [ipet.*] spans: the Section 5.3 loop-bound chain for the clear
   loop and the Section 5.2 derivation over the stale-dequeue model.  The
   decode and priority-scan bounds ({!Kernel_loops.decode},
   {!Kernel_loops.priority_scan}) and the delivery model's constraints
   ({!delivery_derived}) take no parameter and are computed once, when
   the modules are initialised.  The rest of a spec is building its
   CFGs. *)
let span_loop_bounds = Obs.Metrics.histogram "kernel_model.loop_bounds"
let span_derive = Obs.Metrics.histogram "kernel_model.derive_constraints"

type params = {
  decode_depth : int;  (* capability-space levels (Figure 7) *)
  msg_words : int;  (* message registers copied per IPC phase *)
  extra_caps : int;  (* capabilities granted per IPC *)
  max_frame_bits : int;  (* largest object retyped in the scenario *)
  max_ep_waiters : int;  (* endpoint queue length bound *)
  max_parked : int;  (* stale threads lazy scheduling can park *)
  preemptible_call : bool;
      (* Section 6.1's suggested improvement: a preemption point between
         the send and receive phases of the atomic call, so the analysed
         interrupts-off path covers one phase, not both. *)
}

let default_params =
  {
    decode_depth = Sel4.Costs.max_cspace_depth;
    msg_words = Sel4.Costs.max_msg_len;
    extra_caps = Sel4.Costs.max_extra_caps;
    max_frame_bits = 17;
    (* 128 KiB: the open-system scenario's largest object *)
    max_ep_waiters = 256;
    max_parked = 64;
    preemptible_call = false;
  }

(* --- block construction helpers --- *)

module C = Sel4.Costs
module L = Sel4.Layout
module R = L.R

(* A function under construction.  [offsets] tracks the instructions
   emitted per code region, so consecutive blocks occupy consecutive
   I-cache lines of their region; [loops] the bounds of the loops built
   so far, by header block, newest first. *)
type fb = {
  builder : T.t F.Builder.t;
  mutable offsets : (L.code_region * int ref) list;
  mutable loops : (int * int) list;
}

let fb name = { builder = F.Builder.create name; offsets = []; loops = [] }

let dyn ?(write = false) count = T.Dynamic { write; count }
let static ?(write = false) addr = T.Static { addr; write }

let block f ~(region : L.code_region) ~label ~instrs ?(accesses = [])
    ?branch ?call () =
  let off =
    match List.assq_opt region f.offsets with
    | Some r -> r
    | None ->
        let r = ref 0 in
        f.offsets <- (region, r) :: f.offsets;
        r
  in
  (* Wrap within the region's instruction budget. *)
  let base = region.base + (4 * (!off mod region.instrs)) in
  off := !off + instrs;
  F.Builder.add ?call f.builder ~label
    (T.make ~accesses ?branch ~base ~instrs ())

let edge f a b = F.Builder.edge f.builder a b

(* Bound the loop headed by block [head]: at most [n] header visits per
   entry into the loop. *)
let bound f head n = f.loops <- (head, n) :: f.loops

(* A bounded loop: from -> head -> body -> head, head -> exit, where
   [body] is the chain of blocks one iteration runs (a preemptible loop
   ends its chain with the preemption point). *)
let rec chain f ~head a = function
  | [] -> edge f a head
  | b :: rest ->
      edge f a b;
      chain f ~head b rest

let loop f ~from ~head ~body ~exit n =
  edge f from head;
  chain f ~head head body;
  edge f head exit;
  bound f head n

let finish f =
  let fn = F.Builder.finish f.builder in
  ( fn,
    List.rev_map
      (fun (head, bound) ->
        { Wcet.Ipet.func = fn.name; header = fn.blocks.(head).label; bound })
      f.loops )

(* --- shared functions --- *)

(* Capability lookup: one loop iteration per decode level (Figure 7), two
   pointer-chasing loads per level; the decode loop's bound comes from the
   {!Kernel_loops} chain (Section 5.3). *)
let lookup_fn () =
  let f = fb "lookup" in
  let r = R.cspace_lookup in
  let entry =
    block f ~region:r ~label:"l_setup" ~instrs:6 ~accesses:[ dyn 1 ] ()
  in
  let head = block f ~region:r ~label:"l_head" ~instrs:2 () in
  let body =
    block f ~region:r ~label:"l_body" ~instrs:C.cspace_level_instrs
      ~accesses:[ dyn 2 ] ()
  in
  let exit_ = block f ~region:r ~label:"l_exit" ~instrs:1 () in
  loop f ~from:entry ~head ~body:[ body ] ~exit:exit_
    (Kernel_loops.bound_of Kernel_loops.decode);
  finish f

(* Message copy, one cache line (8 words) per iteration: the memory cost
   is line-granular on the hardware, so modelling it per word would be
   pessimism the real analysis does not have. *)
let words_per_line = 8

let msgcopy_fn (p : params) =
  let f = fb "msgcopy" in
  let r = R.slowpath_ipc in
  let entry = block f ~region:r ~label:"m_setup" ~instrs:3 () in
  let head = block f ~region:r ~label:"m_head" ~instrs:2 () in
  let body =
    block f ~region:r ~label:"m_body"
      ~instrs:(words_per_line * C.per_message_word_instrs)
      ~accesses:[ dyn 1; dyn ~write:true 1 ] ()
  in
  let exit_ = block f ~region:r ~label:"m_exit" ~instrs:1 () in
  loop f ~from:entry ~head ~body:[ body ] ~exit:exit_
    (((p.msg_words + words_per_line - 1) / words_per_line) + 1);
  finish f

(* Capability transfer: per granted cap, a full source lookup plus
   derivation-tree surgery. *)
let capxfer_fn (p : params) =
  let f = fb "capxfer" in
  let r = R.transfer_caps in
  let entry = block f ~region:r ~label:"x_setup" ~instrs:4 () in
  let head = block f ~region:r ~label:"x_head" ~instrs:2 () in
  let look = block f ~region:r ~label:"x_lookup" ~call:"lookup" ~instrs:2 () in
  let install =
    block f ~region:r ~label:"x_install" ~instrs:C.cap_transfer_instrs
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  let exit_ = block f ~region:r ~label:"x_exit" ~instrs:1 () in
  loop f ~from:entry ~head ~body:[ look; install ] ~exit:exit_
    (p.extra_caps + 1);
  finish f

(* Scheduler chooseThread, per variant.  The priority scans take their
   bound from the {!Kernel_loops} chain. *)
let choose_fn (build : Sel4.Build.t) (p : params) =
  let f = fb "choose" in
  let r = R.sched_choose in
  (match build.Sel4.Build.sched with
  | Sel4.Build.Benno_bitmap ->
      (* Two loads and two CLZ: loop-free (Section 3.2). *)
      ignore
        (block f ~region:r ~label:"ch_bitmap"
           ~instrs:C.choose_thread_bitmap_instrs
           ~accesses:
             [
               static L.bitmap_top;
               dyn 1 (* bucket word *);
               dyn 1 (* queue head *);
               dyn 1 (* chosen tcb *);
             ]
           ())
  | Sel4.Build.Benno ->
      (* Figure 3: scan priorities; heads are runnable by invariant. *)
      let entry = block f ~region:r ~label:"ch_setup" ~instrs:2 () in
      let head = block f ~region:r ~label:"ch_head" ~instrs:2 () in
      let body =
        block f ~region:r ~label:"ch_body"
          ~instrs:C.choose_thread_scan_per_prio_instrs ~accesses:[ dyn 1 ] ()
      in
      let exit_ = block f ~region:r ~label:"ch_exit" ~instrs:1 () in
      loop f ~from:entry ~head ~body:[ body ] ~exit:exit_
        (Kernel_loops.bound_of Kernel_loops.priority_scan)
  | Sel4.Build.Lazy ->
      (* Figure 2: scan priorities, dequeueing stale blocked threads.  The
         stale loop (ch_scan) nests in the priority loop (ch_head) and
         shares its edges, so the outer bound is stated on its own. *)
      let entry = block f ~region:r ~label:"ch_setup" ~instrs:2 () in
      let head = block f ~region:r ~label:"ch_head" ~instrs:2 () in
      let scan =
        block f ~region:r ~label:"ch_scan"
          ~instrs:C.choose_thread_scan_per_prio_instrs ~accesses:[ dyn 1 ] ()
      in
      let stale =
        block f ~region:r ~label:"ch_stale"
          ~instrs:(C.lazy_dequeue_blocked_instrs + C.dequeue_instrs)
          ~accesses:[ dyn ~write:true 3 ] ()
      in
      let exit_ = block f ~region:r ~label:"ch_exit" ~instrs:1 () in
      let scan_bound = Kernel_loops.bound_of Kernel_loops.priority_scan in
      bound f head scan_bound;
      edge f entry head;
      loop f ~from:head ~head:scan ~body:[ stale ] ~exit:head
        (scan_bound + p.max_parked);
      edge f head exit_);
  finish f

let ctxswitch_fn () =
  let f = fb "ctxswitch" in
  ignore
    (block f ~region:R.context_switch ~label:"cs"
       ~instrs:C.context_switch_instrs
       ~accesses:[ static ~write:true L.cur_thread_ptr; dyn 1 ] ());
  finish f

(* --- entry-point mains --- *)

(* Preemption-point polling block. *)
let preempt_block f ~label =
  block f ~region:R.preempt_check ~label ~instrs:C.preempt_check_instrs
    ~accesses:[ static L.irq_pending_word ] ()

let lines_per_chunk build = build.Sel4.Build.preempt_chunk / 32

(* Header visits per entry of a preemptible loop (Section 5.3): one unit
   of work between preemption points when they exist, the full structure
   otherwise, plus the visit that leaves. *)
let preemptible (build : Sel4.Build.t) ~full =
  (if build.Sel4.Build.preemption_points then 1 else full) + 1

let vector_entry_block f =
  let sp = L.stack_base in
  block f ~region:R.vector_entry ~label:"vec_entry" ~instrs:C.entry_instrs
    ~accesses:[ static ~write:true sp; static ~write:true (sp + 32) ] ()

(* The common exit of every entry point: schedule, switch to the chosen
   thread, return to user.  Finishes the function. *)
let return_to_user f ~sched ~switch ~from =
  let s =
    block f ~region:R.sched_choose ~label:sched ~call:"choose" ~instrs:1 ()
  in
  let w =
    block f ~region:R.context_switch ~label:switch ~call:"ctxswitch"
      ~instrs:1 ()
  in
  let x =
    block f ~region:R.vector_exit ~label:"vec_exit" ~instrs:C.exit_instrs
      ~accesses:[ static L.stack_base; static (L.stack_base + 32) ] ()
  in
  List.iter (fun b -> edge f b s) from;
  edge f s w;
  edge f w x;
  finish f

(* The system-call entry point: decode, then one of the kernel's
   operations, then schedule and return. *)
let syscall_program (build : Sel4.Build.t) (p : params) =
  let f = fb "syscall" in
  let entry = vector_entry_block f in
  let decode =
    block f ~region:R.decode ~label:"sc_decode" ~instrs:C.decode_instrs
      ~accesses:[ dyn 1 ] ()
  in
  edge f entry decode;
  let join = block f ~region:R.decode ~label:"sc_join" ~instrs:2 () in
  (* Each operation arm starts with the lookup of its object's cap. *)
  let op label =
    let b = block f ~region:R.decode ~label ~call:"lookup" ~instrs:2 () in
    edge f decode b;
    b
  in
  (* --- operation arm: atomic send-receive IPC --- *)
  let ipc_lookup = op "op_ipc" in
  let sp = R.slowpath_ipc in
  let sp_fixed =
    block f ~region:sp ~label:"sp_fixed" ~instrs:C.slowpath_ipc_instrs
      ~accesses:[ dyn 1; dyn ~write:true 3 ] ()
  in
  edge f ipc_lookup sp_fixed;
  (* Receiver waiting (dequeue + copy + grant) vs sender blocks. *)
  let sp_dequeue =
    block f ~region:R.endpoint_queue ~label:"sp_dequeue"
      ~instrs:C.ep_dequeue_instrs ~accesses:[ dyn ~write:true 3 ] ()
  in
  let sp_enqueue =
    block f ~region:R.endpoint_queue ~label:"sp_enqueue"
      ~instrs:(C.ep_enqueue_instrs + C.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  edge f sp_fixed sp_dequeue;
  edge f sp_fixed sp_enqueue;
  (* Figure 6 in miniature: the transferred-capability type is switched on
     twice on the delivery path (validation, then installation).  Frame
     caps are expensive to validate; endpoint caps are expensive to
     install.  Without the consistent-with constraints the ILP combines
     the expensive arm of each switch — an infeasible path. *)
  let sp_t1_frame =
    block f ~region:sp ~label:"sp_t1_frame" ~instrs:40 ~accesses:[ dyn 5 ] ()
  in
  let sp_t1_ep = block f ~region:sp ~label:"sp_t1_ep" ~instrs:6 () in
  let sp_m1 = block f ~region:sp ~label:"sp_m1" ~instrs:1 () in
  edge f sp_dequeue sp_t1_frame;
  edge f sp_dequeue sp_t1_ep;
  edge f sp_t1_frame sp_m1;
  edge f sp_t1_ep sp_m1;
  let sp_copy =
    block f ~region:sp ~label:"sp_copy" ~call:"msgcopy" ~instrs:1 ()
  in
  let sp_copied = block f ~region:sp ~label:"sp_copied" ~instrs:1 () in
  edge f sp_m1 sp_copy;
  edge f sp_copy sp_copied;
  let sp_t2_frame = block f ~region:sp ~label:"sp_t2_frame" ~instrs:6 () in
  let sp_t2_ep =
    block f ~region:sp ~label:"sp_t2_ep" ~instrs:40 ~accesses:[ dyn 5 ] ()
  in
  let sp_m2 = block f ~region:sp ~label:"sp_m2" ~instrs:1 () in
  edge f sp_copied sp_t2_frame;
  edge f sp_copied sp_t2_ep;
  edge f sp_t2_frame sp_m2;
  edge f sp_t2_ep sp_m2;
  let sp_grant =
    block f ~region:sp ~label:"sp_grant" ~call:"capxfer" ~instrs:1 ()
  in
  let sp_nogrant = block f ~region:sp ~label:"sp_nogrant" ~instrs:1 () in
  let sp_wake =
    block f ~region:R.set_thread_state ~label:"sp_wake"
      ~instrs:(2 * C.set_state_instrs) ~accesses:[ dyn ~write:true 2 ] ()
  in
  let sp_done = block f ~region:sp ~label:"sp_done" ~instrs:1 () in
  edge f sp_m2 sp_grant;
  edge f sp_m2 sp_nogrant;
  edge f sp_grant sp_wake;
  edge f sp_nogrant sp_wake;
  edge f sp_wake sp_done;
  edge f sp_enqueue sp_done;
  (* Receive phase of the atomic send-receive: ReplyRecv decodes the wait
     endpoint; a plain Call skips straight to the wait.  The WCET path
     takes the decode; the measured Call path does not — one of the
     legitimate gaps of Figure 8.

     With [preemptible_call] (the Section 6.1 suggestion), a preemption
     point separates the phases: the analysed interrupts-off path through
     the send phase ends there, and the receive phase is reached only via
     a restarted call (a separate decode arm), so the ILP maximises over
     the phases instead of summing them. *)
  let rp_lookup =
    block f ~region:sp ~label:"rp_lookup" ~call:"lookup" ~instrs:2 ()
  in
  let rp_ret = block f ~region:sp ~label:"rp_ret" ~instrs:1 () in
  let rp_merge = block f ~region:sp ~label:"rp_merge" ~instrs:1 () in
  if p.preemptible_call then begin
    let call_preempt = preempt_block f ~label:"call_preempt" in
    edge f sp_done call_preempt;
    edge f call_preempt join;
    let resume =
      block f ~region:R.decode ~label:"op_ipc_resume" ~instrs:4
        ~accesses:[ dyn 1 ] ()
    in
    edge f decode resume;
    edge f resume rp_lookup
  end
  else begin
    edge f sp_done rp_lookup;
    edge f sp_done rp_merge
  end;
  edge f rp_lookup rp_ret;
  edge f rp_ret rp_merge;
  let rp_copy =
    block f ~region:sp ~label:"rp_copy" ~call:"msgcopy" ~instrs:1 ()
  in
  let rp_block =
    block f ~region:R.endpoint_queue ~label:"rp_block"
      ~instrs:(C.ep_enqueue_instrs + C.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  edge f rp_merge rp_copy;
  edge f rp_merge rp_block;
  edge f rp_copy join;
  edge f rp_block join;
  (* --- operation arm: untyped retype (object creation, Section 3.5) --- *)
  let rt_lookup = op "op_retype" in
  let rt = R.untyped_retype in
  let rt_fixed =
    block f ~region:rt ~label:"rt_fixed" ~instrs:C.retype_fixed_instrs
      ~accesses:[ dyn 2; dyn ~write:true 2 ] ()
  in
  edge f rt_lookup rt_fixed;
  let clear_head =
    block f ~region:R.clear_memory ~label:"clear_head" ~instrs:2 ()
  in
  let clear_body =
    block f ~region:R.clear_memory ~label:"clear_body"
      ~instrs:(C.clear_line_instrs * lines_per_chunk build)
      ~accesses:[ dyn ~write:true (lines_per_chunk build) ] ()
  in
  let clear_preempt = preempt_block f ~label:"clear_preempt" in
  let rt_book =
    block f ~region:rt ~label:"rt_book" ~instrs:C.retype_fixed_instrs
      ~accesses:[ dyn ~write:true 4 ] ()
  in
  (* Page-directory creation additionally copies the kernel mappings:
     1 KiB, deliberately unpreemptible. *)
  let rt_pd_copy =
    block f ~region:R.pd_create ~label:"rt_pd_copy"
      ~instrs:(C.clear_line_instrs * (1024 / 32))
      ~accesses:[ dyn (1024 / 32); dyn ~write:true (1024 / 32) ] ()
  in
  let rt_no_pd = block f ~region:rt ~label:"rt_no_pd" ~instrs:1 () in
  let full_chunks =
    Obs.Metrics.span span_loop_bounds (fun () ->
        Kernel_loops.bound
          (Kernel_loops.clear_loop ~max_bytes:(1 lsl p.max_frame_bits)
             ~chunk:build.Sel4.Build.preempt_chunk))
    - 1
  in
  loop f ~from:rt_fixed ~head:clear_head ~body:[ clear_body; clear_preempt ]
    ~exit:rt_book (preemptible build ~full:full_chunks);
  edge f rt_book rt_pd_copy;
  edge f rt_book rt_no_pd;
  edge f rt_pd_copy join;
  edge f rt_no_pd join;
  (* --- operation arm: endpoint deletion (Section 3.3) --- *)
  let del_lookup = op "op_delete" in
  let del = R.endpoint_delete in
  let del_head = block f ~region:del ~label:"del_head" ~instrs:2 () in
  let del_body =
    block f ~region:del ~label:"del_body"
      ~instrs:(C.ep_dequeue_instrs + C.enqueue_instrs + C.set_state_instrs)
      ~accesses:[ dyn ~write:true 5 ] ()
  in
  let del_preempt = preempt_block f ~label:"del_preempt" in
  let del_done =
    block f ~region:del ~label:"del_done" ~instrs:8
      ~accesses:[ dyn ~write:true 2 ] ()
  in
  loop f ~from:del_lookup ~head:del_head ~body:[ del_body; del_preempt ]
    ~exit:del_done (preemptible build ~full:p.max_ep_waiters);
  edge f del_done join;
  (* --- operation arm: badged abort (Section 3.4) --- *)
  let ab_lookup = op "op_abort" in
  let ab = R.badge_abort in
  let ab_head = block f ~region:ab ~label:"ab_head" ~instrs:2 () in
  let ab_body =
    block f ~region:ab ~label:"ab_body"
      ~instrs:(C.badge_scan_instrs + C.ep_dequeue_instrs)
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  let ab_preempt = preempt_block f ~label:"ab_preempt" in
  let ab_done =
    block f ~region:ab ~label:"ab_done" ~instrs:6
      ~accesses:[ dyn ~write:true 1 ] ()
  in
  loop f ~from:ab_lookup ~head:ab_head ~body:[ ab_body; ab_preempt ]
    ~exit:ab_done (preemptible build ~full:p.max_ep_waiters);
  edge f ab_done join;
  (* --- operation arm: address-space management (Section 3.6) --- *)
  let vs_lookup = op "op_vspace" in
  (match build.Sel4.Build.vspace with
  | Sel4.Build.Shadow_tables ->
      (* Preemptible per-entry teardown. *)
      let vs = R.vspace_delete in
      let vs_head = block f ~region:vs ~label:"vs_head" ~instrs:2 () in
      let vs_body =
        block f ~region:vs ~label:"vs_body" ~instrs:C.unmap_entry_instrs
          ~accesses:[ dyn 2; dyn ~write:true 2 ] ()
      in
      let vs_preempt = preempt_block f ~label:"vs_preempt" in
      let vs_done =
        block f ~region:vs ~label:"vs_done" ~instrs:C.tlb_invalidate_instrs ()
      in
      loop f ~from:vs_lookup ~head:vs_head ~body:[ vs_body; vs_preempt ]
        ~exit:vs_done
        (preemptible build ~full:Sel4.Ktypes.kernel_pde_first);
      edge f vs_done join
  | Sel4.Build.Asid_table ->
      (* The unpreemptible ASID loops: free-slot search on assignment and
         the 1024-entry pool teardown. *)
      let asid = R.asid_ops in
      let as_head = block f ~region:asid ~label:"as_head" ~instrs:2 () in
      let as_body =
        block f ~region:asid ~label:"as_body"
          ~instrs:C.asid_search_per_slot_instrs ~accesses:[ dyn 1 ] ()
      in
      let as_done =
        block f ~region:asid ~label:"as_done" ~instrs:C.tlb_invalidate_instrs
          ~accesses:[ dyn ~write:true 2 ] ()
      in
      loop f ~from:vs_lookup ~head:as_head ~body:[ as_body ] ~exit:as_done
        (Sel4.Ktypes.asid_pool_size + 1);
      edge f as_done join;
      let pool_lookup = op "op_pool_delete" in
      let pool_head = block f ~region:asid ~label:"pool_head" ~instrs:2 () in
      let pool_body =
        block f ~region:asid ~label:"pool_body"
          ~instrs:C.asid_search_per_slot_instrs
          ~accesses:[ dyn 1; dyn ~write:true 1 ] ()
      in
      let pool_done =
        block f ~region:asid ~label:"pool_done"
          ~instrs:C.tlb_invalidate_instrs ()
      in
      loop f ~from:pool_lookup ~head:pool_head ~body:[ pool_body ]
        ~exit:pool_done (Sel4.Ktypes.asid_pool_size + 1);
      edge f pool_done join);
  return_to_user f ~sched:"sc_sched" ~switch:"sc_switch" ~from:[ join ]

(* Interrupt entry: vector in, interrupt path, deliver to the handler
   endpoint, schedule, return. *)
let interrupt_program () =
  let f = fb "interrupt" in
  let entry = vector_entry_block f in
  let irq =
    block f ~region:R.irq_path ~label:"irq_dispatch" ~instrs:C.irq_path_instrs
      ~accesses:[ static L.irq_pending_word; static L.irq_handler_table; dyn 1 ]
      ()
  in
  let deliver =
    block f ~region:R.irq_path ~label:"irq_deliver"
      ~instrs:(C.ep_dequeue_instrs + C.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  let no_handler =
    block f ~region:R.irq_path ~label:"irq_nohandler" ~instrs:2 ()
  in
  edge f entry irq;
  edge f irq deliver;
  edge f irq no_handler;
  return_to_user f ~sched:"irq_sched" ~switch:"irq_switch"
    ~from:[ deliver; no_handler ]

(* Fault entries (page fault / undefined instruction): one capability
   decode to the fault handler, a short fault message, schedule, return. *)
let fault_program ~name =
  let f = fb name in
  let r = R.fault_path in
  let entry = vector_entry_block f in
  let fault =
    block f ~region:r ~label:(name ^ "_save") ~instrs:C.slowpath_ipc_instrs
      ~accesses:[ dyn 2; dyn ~write:true 2 ] ()
  in
  let look =
    block f ~region:r ~label:(name ^ "_lookup") ~call:"lookup" ~instrs:2 ()
  in
  let looked = block f ~region:r ~label:(name ^ "_looked") ~instrs:1 () in
  let deliver =
    block f ~region:r ~label:(name ^ "_deliver")
      ~instrs:
        (C.ep_dequeue_instrs + (4 * C.per_message_word_instrs)
       + (2 * C.set_state_instrs))
      ~accesses:[ dyn 2; dyn ~write:true 3 ] ()
  in
  let queue =
    block f ~region:r ~label:(name ^ "_queue")
      ~instrs:(C.ep_enqueue_instrs + C.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ] ()
  in
  edge f entry fault;
  edge f fault look;
  edge f look looked;
  edge f looked deliver;
  edge f looked queue;
  return_to_user f ~sched:(name ^ "_sched") ~switch:(name ^ "_switch")
    ~from:[ deliver; queue ]

(* --- assembled specs --- *)

type entry_point = Syscall | Interrupt | Page_fault | Undefined_instruction

let entry_points = [ Syscall; Interrupt; Page_fault; Undefined_instruction ]

let entry_name = function
  | Syscall -> "System call"
  | Interrupt -> "Interrupt"
  | Page_fault -> "Page fault"
  | Undefined_instruction -> "Undefined instruction"

let entry_main = function
  | Syscall -> "syscall"
  | Interrupt -> "interrupt"
  | Page_fault -> "page_fault"
  | Undefined_instruction -> "undef"

let shared_functions build p =
  [
    lookup_fn ();
    msgcopy_fn p;
    capxfer_fn p;
    choose_fn build p;
    ctxswitch_fn ();
  ]

(* Only the lazy scheduler's chooseThread has the stale-dequeue arm
   ([ch_stale]) that its constraint and decision model name. *)
let parks (build : Sel4.Build.t) = build.Sel4.Build.sched = Sel4.Build.Lazy

(* The manual ILP constraints of Section 5.2.  The consistent-with pair
   plays the Figure 6 role (the capability type is switched on twice along
   the delivery path); the executes-at-most form caps the lazy scheduler's
   stale dequeues by the parked-thread population, which the natural loop
   bound cannot express. *)
let constraints ~parks (p : params) ~main =
  (if parks then
     [
       Wcet.User_constraint.executes_at_most ~func:"choose" "ch_stale"
         p.max_parked;
     ]
   else [])
  @
  if main <> "syscall" then []
  else
    [
      Wcet.User_constraint.consistent ~func:"syscall" "sp_t1_frame"
        "sp_t2_frame";
      Wcet.User_constraint.consistent ~func:"syscall" "sp_t1_ep" "sp_t2_ep";
    ]

(* --- Section 5.2 decision models --- *)

(* The delivery path switches on the transferred capability's type twice
   (the Figure 6 duplicated-switch pattern), once per transfer leg.
   Re-expressed as a TAC decision model over the run-constant [captype],
   the abstract interpreter proves the two switches consistent and the
   cross arms mutually exclusive. *)
let delivery_model : Wcet.Derive_constraints.model =
  let open Tac.Lang in
  let b label instrs term = { label; instrs; term } in
  {
    dm_name = "delivery";
    dm_func = "syscall";
    dm_program =
      {
        entry = "entry";
        params = [ { name = "captype"; lo = 0; hi = 1 } ];
        blocks =
          [
            b "entry" [] (Jump "t1");
            b "t1" []
              (Branch (Eq, Reg "captype", Imm 0, "t1_frame", "t1_ep"));
            b "t1_frame" [] (Jump "m1");
            b "t1_ep" [] (Jump "m1");
            b "m1" [] (Jump "t2");
            b "t2" []
              (Branch (Eq, Reg "captype", Imm 0, "t2_frame", "t2_ep"));
            b "t2_frame" [] (Jump "m2");
            b "t2_ep" [] (Jump "m2");
            b "m2" [] Halt;
          ];
      };
    dm_labels =
      [
        ("t1_frame", "sp_t1_frame");
        ("t1_ep", "sp_t1_ep");
        ("t2_frame", "sp_t2_frame");
        ("t2_ep", "sp_t2_ep");
      ];
    dm_calls_bound = 1;
  }

(* The lazy scheduler pops at most [max_parked] stale threads before it
   finds a runnable one: the stale arm sits in a loop whose trip count
   is the parked population, which the interval analysis bounds. *)
let stale_model (p : params) : Wcet.Derive_constraints.model =
  let open Tac.Lang in
  let b label instrs term = { label; instrs; term } in
  {
    dm_name = "stale";
    dm_func = "choose";
    dm_program =
      {
        entry = "entry";
        params = [ { name = "parked"; lo = 0; hi = p.max_parked } ];
        blocks =
          [
            b "entry" [ Assign ("i", Imm 0) ] (Jump "head");
            b "head" []
              (Branch (Lt, Reg "i", Reg "parked", "stale", "done"));
            b "stale" [ Binop ("i", Add, Reg "i", Imm 1) ] (Jump "head");
            b "done" [] Halt;
          ];
      };
    dm_labels = [ ("stale", "ch_stale") ];
    dm_calls_bound = 1;
  }

(* The delivery model takes no parameter: derived once. *)
let delivery_derived =
  (Wcet.Derive_constraints.derive [ delivery_model ])
    .Wcet.Derive_constraints.rep_derived

let models ~parks (p : params) ~main =
  (if parks then [ stale_model p ] else [])
  @ if main = "syscall" then [ delivery_model ] else []

let decision_models (p : params) build ~main =
  models ~parks:(parks build) p ~main

(* The audit covers every manual constraint the model states for some
   build, the lazy scheduler's included. *)
let constraint_report ?(params = default_params) ~main () =
  Wcet.Derive_constraints.audit
    ~models:(models ~parks:true params ~main)
    ~manual:(constraints ~parks:true params ~main)

let spec ?(params = default_params) (build : Sel4.Build.t) entry =
  let main = entry_main entry in
  let program, main_bounds =
    match entry with
    | Syscall -> syscall_program build params
    | Interrupt -> interrupt_program ()
    | Page_fault -> fault_program ~name:"page_fault"
    | Undefined_instruction -> fault_program ~name:"undef"
  in
  let shared = shared_functions build params in
  let parks = parks build in
  (* [derive] over both models gives the stale model's constraints, then
     the delivery model's: the two name different functions, so neither
     drops the other's as a duplicate. *)
  let derived =
    (if parks then
       Obs.Metrics.span span_derive (fun () ->
           (Wcet.Derive_constraints.derive [ stale_model params ])
             .Wcet.Derive_constraints.rep_derived)
     else [])
    @ if main = "syscall" then delivery_derived else []
  in
  {
    Wcet.Ipet.program = { F.funcs = program :: List.map fst shared; main };
    bounds = List.concat_map snd shared @ main_bounds;
    constraints = constraints ~parks params ~main;
    derived;
  }

(* The realisable worst-ish path for Figure 8: the block counts our
   adversarial workload actually executes on the syscall path (full-depth
   decodes, full message, granted caps, receiver present, badged). *)
let realisable_syscall_path (p : params) =
  [
    ("syscall", "op_ipc", 1);
    ("syscall", "op_retype", 0);
    ("syscall", "op_delete", 0);
    ("syscall", "op_abort", 0);
    ("syscall", "op_vspace", 0);
    ("syscall", "sp_dequeue", 1);
    ("syscall", "sp_enqueue", 0);
    ("syscall", "sp_t1_ep", 1);
    ("syscall", "sp_t2_ep", 1);
    ("syscall", "rp_lookup", 0);
    ("syscall", "sp_grant", 1);
    ("syscall", "rp_block", 1);
    ("syscall", "rp_copy", 0);
    ("lookup", "l_body", (1 + p.extra_caps) * p.decode_depth);
    ("msgcopy", "m_body", (p.msg_words + words_per_line - 1) / words_per_line);
    ("capxfer", "x_install", p.extra_caps);
  ]

let realisable_fault_path (p : params) ~name =
  [
    (name, name ^ "_deliver", 1);
    (name, name ^ "_queue", 0);
    ("lookup", "l_body", p.decode_depth);
  ]

let realisable_path ?(params = default_params) entry =
  match entry with
  | Syscall -> realisable_syscall_path params
  | Interrupt ->
      [ ("interrupt", "irq_deliver", 1); ("interrupt", "irq_nohandler", 0) ]
  | Page_fault -> realisable_fault_path params ~name:"page_fault"
  | Undefined_instruction -> realisable_fault_path params ~name:"undef"
