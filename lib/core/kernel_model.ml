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

(* Per-function instruction-offset tracking so consecutive blocks occupy
   consecutive I-cache lines of the function's code region. *)
type fb = {
  builder : T.t F.Builder.t;
  mutable offsets : (string * int ref) list;  (* region -> instrs emitted *)
}

let fb name = { builder = F.Builder.create name; offsets = [] }

let dyn ?(write = false) count = T.Dynamic { write; count }
let static ?(write = false) addr = T.Static { addr; write }

let block fb ~region ~label ~instrs ?(accesses = []) ?branch ?call () =
  let off =
    match List.assoc_opt region fb.offsets with
    | Some r -> r
    | None ->
        let r = ref 0 in
        fb.offsets <- (region, r) :: fb.offsets;
        r
  in
  let code = Sel4.Layout.code region in
  (* Wrap within the region's instruction budget. *)
  let base = code.Sel4.Layout.base + (4 * (!off mod code.Sel4.Layout.instrs)) in
  off := !off + instrs;
  F.Builder.add ?call fb.builder ~label
    (T.make ~accesses ?branch ~base ~instrs ())

(* A bounded loop: pre -> head -> body -> head, head -> (returns exit).
   Returns (entry=head, exit, header label for the bound). *)
let simple_loop fb ~name ~region ~body_instrs ~body_accesses =
  let head =
    block fb ~region ~label:(name ^ "_head") ~instrs:2 ()
  in
  let body =
    block fb ~region ~label:(name ^ "_body") ~instrs:body_instrs
      ~accesses:body_accesses ()
  in
  let exit_ = block fb ~region ~label:(name ^ "_exit") ~instrs:1 () in
  F.Builder.edge fb.builder head body;
  F.Builder.edge fb.builder body head;
  F.Builder.edge fb.builder head exit_;
  (head, exit_, name ^ "_head")

(* --- shared functions --- *)

(* Capability lookup: one loop iteration per decode level (Figure 7), two
   pointer-chasing loads per level. *)
let lookup_fn () =
  let f = fb "lookup" in
  let entry =
    block f ~region:"cspace_lookup" ~label:"l_setup" ~instrs:6
      ~accesses:[ dyn 1 ] ()
  in
  let head, exit_, header =
    simple_loop f ~name:"l" ~region:"cspace_lookup"
      ~body_instrs:Sel4.Costs.cspace_level_instrs ~body_accesses:[ dyn 2 ]
  in
  F.Builder.edge f.builder entry head;
  ignore exit_;
  (F.Builder.finish f.builder, header)

(* Message copy, one cache line (8 words) per iteration: the memory cost
   is line-granular on the hardware, so modelling it per word would be
   pessimism the real analysis does not have. *)
let words_per_line = 8

let msgcopy_fn () =
  let f = fb "msgcopy" in
  let entry = block f ~region:"slowpath_ipc" ~label:"m_setup" ~instrs:3 () in
  let head, _, header =
    simple_loop f ~name:"m" ~region:"slowpath_ipc"
      ~body_instrs:(words_per_line * Sel4.Costs.per_message_word_instrs)
      ~body_accesses:[ dyn 1; dyn ~write:true 1 ]
  in
  F.Builder.edge f.builder entry head;
  (F.Builder.finish f.builder, header)

(* Capability transfer: per granted cap, a full source lookup plus
   derivation-tree surgery. *)
let capxfer_fn () =
  let f = fb "capxfer" in
  let entry = block f ~region:"transfer_caps" ~label:"x_setup" ~instrs:4 () in
  let head = block f ~region:"transfer_caps" ~label:"x_head" ~instrs:2 () in
  let look =
    block f ~region:"transfer_caps" ~label:"x_lookup" ~call:"lookup" ~instrs:2 ()
  in
  let install =
    block f ~region:"transfer_caps" ~label:"x_install"
      ~instrs:Sel4.Costs.cap_transfer_instrs
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  let exit_ = block f ~region:"transfer_caps" ~label:"x_exit" ~instrs:1 () in
  F.Builder.edge f.builder entry head;
  F.Builder.edge f.builder head look;
  F.Builder.edge f.builder look install;
  F.Builder.edge f.builder install head;
  F.Builder.edge f.builder head exit_;
  (F.Builder.finish f.builder, "x_head")

let block_fb = block

(* Scheduler chooseThread, per variant. *)
let choose_fn (build : Sel4.Build.t) =
  let f = fb "choose" in
  (match build.Sel4.Build.sched with
  | Sel4.Build.Benno_bitmap ->
      (* Two loads and two CLZ: loop-free (Section 3.2). *)
      let b =
        block f ~region:"sched_choose" ~label:"ch_bitmap"
          ~instrs:Sel4.Costs.choose_thread_bitmap_instrs
          ~accesses:
            [
              static Sel4.Layout.bitmap_top;
              dyn 1 (* bucket word *);
              dyn 1 (* queue head *);
              dyn 1 (* chosen tcb *);
            ]
          ()
      in
      ignore b
  | Sel4.Build.Benno ->
      (* Figure 3: scan priorities; heads are runnable by invariant. *)
      let entry = block f ~region:"sched_choose" ~label:"ch_setup" ~instrs:2 () in
      let head, _, _ =
        simple_loop f ~name:"ch" ~region:"sched_choose"
          ~body_instrs:Sel4.Costs.choose_thread_scan_per_prio_instrs
          ~body_accesses:[ dyn 1 ]
      in
      F.Builder.edge f.builder entry head
  | Sel4.Build.Lazy ->
      (* Figure 2: scan priorities, dequeueing stale blocked threads. *)
      let entry = block f ~region:"sched_choose" ~label:"ch_setup" ~instrs:2 () in
      let head = block f ~region:"sched_choose" ~label:"ch_head" ~instrs:2 () in
      let scan =
        block f ~region:"sched_choose" ~label:"ch_scan"
          ~instrs:Sel4.Costs.choose_thread_scan_per_prio_instrs
          ~accesses:[ dyn 1 ] ()
      in
      let stale =
        block f ~region:"sched_choose" ~label:"ch_stale"
          ~instrs:
            (Sel4.Costs.lazy_dequeue_blocked_instrs
           + Sel4.Costs.dequeue_instrs)
          ~accesses:[ dyn ~write:true 3 ]
          ()
      in
      let exit_ = block f ~region:"sched_choose" ~label:"ch_exit" ~instrs:1 () in
      F.Builder.edge f.builder entry head;
      F.Builder.edge f.builder head scan;
      F.Builder.edge f.builder scan stale;
      F.Builder.edge f.builder stale scan;
      F.Builder.edge f.builder scan head;
      F.Builder.edge f.builder head exit_);
  F.Builder.finish f.builder

let ctxswitch_fn () =
  let f = fb "ctxswitch" in
  ignore
    (block f ~region:"context_switch" ~label:"cs"
       ~instrs:Sel4.Costs.context_switch_instrs
       ~accesses:
         [ static ~write:true Sel4.Layout.cur_thread_ptr; dyn 1 ]
       ());
  F.Builder.finish f.builder

(* Preemption-point polling block. *)
let preempt_block f ~label =
  block_fb f ~region:"preempt_check" ~label
    ~instrs:Sel4.Costs.preempt_check_instrs
    ~accesses:[ static Sel4.Layout.irq_pending_word ]
    ()

(* --- entry-point mains --- *)

let lines_per_chunk build = build.Sel4.Build.preempt_chunk / 32

(* Loop bound between preemption points (Section 5.3): one unit of work
   when preemption points exist, the full structure otherwise. *)
let preemptible_bound (build : Sel4.Build.t) ~full =
  if build.Sel4.Build.preemption_points then 1 else full

let vector_entry_block f =
  block_fb f ~region:"vector_entry" ~label:"vec_entry"
    ~instrs:Sel4.Costs.entry_instrs
    ~accesses:
      [
        static ~write:true Sel4.Layout.stack_base;
        static ~write:true (Sel4.Layout.stack_base + 32);
      ]
    ()

let vector_exit_block f =
  block_fb f ~region:"vector_exit" ~label:"vec_exit"
    ~instrs:Sel4.Costs.exit_instrs
    ~accesses:
      [ static Sel4.Layout.stack_base; static (Sel4.Layout.stack_base + 32) ]
    ()

(* The system-call entry point: decode, then one of the kernel's
   operations, then schedule and return. *)
let syscall_program (build : Sel4.Build.t) (p : params) =
  let f = fb "syscall" in
  let entry = vector_entry_block f in
  let decode =
    block_fb f ~region:"decode" ~label:"sc_decode"
      ~instrs:Sel4.Costs.decode_instrs ~accesses:[ dyn 1 ] ()
  in
  F.Builder.edge f.builder entry decode;
  let join = block_fb f ~region:"decode" ~label:"sc_join" ~instrs:2 () in
  (* --- operation arm: atomic send-receive IPC --- *)
  let ipc_lookup =
    block_fb f ~region:"decode" ~label:"op_ipc" ~call:"lookup" ~instrs:2 ()
  in
  F.Builder.edge f.builder decode ipc_lookup;
  let sp_fixed =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_fixed"
      ~instrs:Sel4.Costs.slowpath_ipc_instrs
      ~accesses:[ dyn 1; dyn ~write:true 3 ]
      ()
  in
  F.Builder.edge f.builder ipc_lookup sp_fixed;
  (* Receiver waiting (dequeue + copy + grant) vs sender blocks. *)
  let sp_dequeue =
    block_fb f ~region:"endpoint_queue" ~label:"sp_dequeue"
      ~instrs:Sel4.Costs.ep_dequeue_instrs
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  let sp_enqueue =
    block_fb f ~region:"endpoint_queue" ~label:"sp_enqueue"
      ~instrs:(Sel4.Costs.ep_enqueue_instrs + Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  F.Builder.edge f.builder sp_fixed sp_dequeue;
  F.Builder.edge f.builder sp_fixed sp_enqueue;
  (* Figure 6 in miniature: the transferred-capability type is switched on
     twice on the delivery path (validation, then installation).  Frame
     caps are expensive to validate; endpoint caps are expensive to
     install.  Without the consistent-with constraints the ILP combines
     the expensive arm of each switch — an infeasible path. *)
  let sp_t1_frame =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_t1_frame" ~instrs:40
      ~accesses:[ dyn 5 ] ()
  in
  let sp_t1_ep = block_fb f ~region:"slowpath_ipc" ~label:"sp_t1_ep" ~instrs:6 () in
  let sp_m1 = block_fb f ~region:"slowpath_ipc" ~label:"sp_m1" ~instrs:1 () in
  F.Builder.edge f.builder sp_dequeue sp_t1_frame;
  F.Builder.edge f.builder sp_dequeue sp_t1_ep;
  F.Builder.edge f.builder sp_t1_frame sp_m1;
  F.Builder.edge f.builder sp_t1_ep sp_m1;
  let sp_copy =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_copy" ~call:"msgcopy" ~instrs:1 ()
  in
  let sp_copied = block_fb f ~region:"slowpath_ipc" ~label:"sp_copied" ~instrs:1 () in
  F.Builder.edge f.builder sp_m1 sp_copy;
  F.Builder.edge f.builder sp_copy sp_copied;
  let sp_t2_frame =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_t2_frame" ~instrs:6 ()
  in
  let sp_t2_ep =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_t2_ep" ~instrs:40
      ~accesses:[ dyn 5 ] ()
  in
  let sp_m2 = block_fb f ~region:"slowpath_ipc" ~label:"sp_m2" ~instrs:1 () in
  F.Builder.edge f.builder sp_copied sp_t2_frame;
  F.Builder.edge f.builder sp_copied sp_t2_ep;
  F.Builder.edge f.builder sp_t2_frame sp_m2;
  F.Builder.edge f.builder sp_t2_ep sp_m2;
  let sp_grant =
    block_fb f ~region:"slowpath_ipc" ~label:"sp_grant" ~call:"capxfer" ~instrs:1 ()
  in
  let sp_nogrant = block_fb f ~region:"slowpath_ipc" ~label:"sp_nogrant" ~instrs:1 () in
  let sp_wake =
    block_fb f ~region:"set_thread_state" ~label:"sp_wake"
      ~instrs:(2 * Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 2 ]
      ()
  in
  let sp_done = block_fb f ~region:"slowpath_ipc" ~label:"sp_done" ~instrs:1 () in
  F.Builder.edge f.builder sp_m2 sp_grant;
  F.Builder.edge f.builder sp_m2 sp_nogrant;
  F.Builder.edge f.builder sp_grant sp_wake;
  F.Builder.edge f.builder sp_nogrant sp_wake;
  F.Builder.edge f.builder sp_wake sp_done;
  F.Builder.edge f.builder sp_enqueue sp_done;
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
    block_fb f ~region:"slowpath_ipc" ~label:"rp_lookup" ~call:"lookup" ~instrs:2 ()
  in
  let rp_ret = block_fb f ~region:"slowpath_ipc" ~label:"rp_ret" ~instrs:1 () in
  let rp_merge = block_fb f ~region:"slowpath_ipc" ~label:"rp_merge" ~instrs:1 () in
  if p.preemptible_call then begin
    let call_preempt = preempt_block f ~label:"call_preempt" in
    F.Builder.edge f.builder sp_done call_preempt;
    F.Builder.edge f.builder call_preempt join;
    let resume =
      block_fb f ~region:"decode" ~label:"op_ipc_resume" ~instrs:4
        ~accesses:[ dyn 1 ] ()
    in
    F.Builder.edge f.builder decode resume;
    F.Builder.edge f.builder resume rp_lookup
  end
  else begin
    F.Builder.edge f.builder sp_done rp_lookup;
    F.Builder.edge f.builder sp_done rp_merge
  end;
  F.Builder.edge f.builder rp_lookup rp_ret;
  F.Builder.edge f.builder rp_ret rp_merge;
  let rp_copy =
    block_fb f ~region:"slowpath_ipc" ~label:"rp_copy" ~call:"msgcopy" ~instrs:1 ()
  in
  let rp_block =
    block_fb f ~region:"endpoint_queue" ~label:"rp_block"
      ~instrs:(Sel4.Costs.ep_enqueue_instrs + Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  F.Builder.edge f.builder rp_merge rp_copy;
  F.Builder.edge f.builder rp_merge rp_block;
  F.Builder.edge f.builder rp_copy join;
  F.Builder.edge f.builder rp_block join;
  (* --- operation arm: untyped retype (object creation, Section 3.5) --- *)
  let rt_lookup =
    block_fb f ~region:"decode" ~label:"op_retype" ~call:"lookup" ~instrs:2 ()
  in
  F.Builder.edge f.builder decode rt_lookup;
  let rt_fixed =
    block_fb f ~region:"untyped_retype" ~label:"rt_fixed"
      ~instrs:Sel4.Costs.retype_fixed_instrs
      ~accesses:[ dyn 2; dyn ~write:true 2 ]
      ()
  in
  F.Builder.edge f.builder rt_lookup rt_fixed;
  let clear_head = block_fb f ~region:"clear_memory" ~label:"clear_head" ~instrs:2 () in
  let clear_body =
    block_fb f ~region:"clear_memory" ~label:"clear_body"
      ~instrs:(Sel4.Costs.clear_line_instrs * lines_per_chunk build)
      ~accesses:[ dyn ~write:true (lines_per_chunk build) ]
      ()
  in
  let clear_preempt = preempt_block f ~label:"clear_preempt" in
  let rt_book =
    block_fb f ~region:"untyped_retype" ~label:"rt_book"
      ~instrs:Sel4.Costs.retype_fixed_instrs
      ~accesses:[ dyn ~write:true 4 ]
      ()
  in
  (* Page-directory creation additionally copies the kernel mappings:
     1 KiB, deliberately unpreemptible. *)
  let rt_pd_copy =
    block_fb f ~region:"pd_create" ~label:"rt_pd_copy"
      ~instrs:(Sel4.Costs.clear_line_instrs * (1024 / 32))
      ~accesses:[ dyn (1024 / 32); dyn ~write:true (1024 / 32) ]
      ()
  in
  let rt_no_pd = block_fb f ~region:"untyped_retype" ~label:"rt_no_pd" ~instrs:1 () in
  F.Builder.edge f.builder rt_fixed clear_head;
  F.Builder.edge f.builder clear_head clear_body;
  F.Builder.edge f.builder clear_body clear_preempt;
  F.Builder.edge f.builder clear_preempt clear_head;
  F.Builder.edge f.builder clear_head rt_book;
  F.Builder.edge f.builder rt_book rt_pd_copy;
  F.Builder.edge f.builder rt_book rt_no_pd;
  F.Builder.edge f.builder rt_pd_copy join;
  F.Builder.edge f.builder rt_no_pd join;
  (* --- operation arm: endpoint deletion (Section 3.3) --- *)
  let del_lookup =
    block_fb f ~region:"decode" ~label:"op_delete" ~call:"lookup" ~instrs:2 ()
  in
  F.Builder.edge f.builder decode del_lookup;
  let del_head = block_fb f ~region:"endpoint_delete" ~label:"del_head" ~instrs:2 () in
  let del_body =
    block_fb f ~region:"endpoint_delete" ~label:"del_body"
      ~instrs:
        (Sel4.Costs.ep_dequeue_instrs + Sel4.Costs.enqueue_instrs
       + Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 5 ]
      ()
  in
  let del_preempt = preempt_block f ~label:"del_preempt" in
  let del_done =
    block_fb f ~region:"endpoint_delete" ~label:"del_done" ~instrs:8
      ~accesses:[ dyn ~write:true 2 ] ()
  in
  F.Builder.edge f.builder del_lookup del_head;
  F.Builder.edge f.builder del_head del_body;
  F.Builder.edge f.builder del_body del_preempt;
  F.Builder.edge f.builder del_preempt del_head;
  F.Builder.edge f.builder del_head del_done;
  F.Builder.edge f.builder del_done join;
  (* --- operation arm: badged abort (Section 3.4) --- *)
  let ab_lookup =
    block_fb f ~region:"decode" ~label:"op_abort" ~call:"lookup" ~instrs:2 ()
  in
  F.Builder.edge f.builder decode ab_lookup;
  let ab_head = block_fb f ~region:"badge_abort" ~label:"ab_head" ~instrs:2 () in
  let ab_body =
    block_fb f ~region:"badge_abort" ~label:"ab_body"
      ~instrs:(Sel4.Costs.badge_scan_instrs + Sel4.Costs.ep_dequeue_instrs)
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  let ab_preempt = preempt_block f ~label:"ab_preempt" in
  let ab_done =
    block_fb f ~region:"badge_abort" ~label:"ab_done" ~instrs:6
      ~accesses:[ dyn ~write:true 1 ] ()
  in
  F.Builder.edge f.builder ab_lookup ab_head;
  F.Builder.edge f.builder ab_head ab_body;
  F.Builder.edge f.builder ab_body ab_preempt;
  F.Builder.edge f.builder ab_preempt ab_head;
  F.Builder.edge f.builder ab_head ab_done;
  F.Builder.edge f.builder ab_done join;
  (* --- operation arm: address-space management (Section 3.6) --- *)
  let vs_lookup =
    block_fb f ~region:"decode" ~label:"op_vspace" ~call:"lookup" ~instrs:2 ()
  in
  F.Builder.edge f.builder decode vs_lookup;
  (match build.Sel4.Build.vspace with
  | Sel4.Build.Shadow_tables ->
      (* Preemptible per-entry teardown. *)
      let vs_head = block_fb f ~region:"vspace_delete" ~label:"vs_head" ~instrs:2 () in
      let vs_body =
        block_fb f ~region:"vspace_delete" ~label:"vs_body"
          ~instrs:Sel4.Costs.unmap_entry_instrs
          ~accesses:[ dyn 2; dyn ~write:true 2 ]
          ()
      in
      let vs_preempt = preempt_block f ~label:"vs_preempt" in
      let vs_done =
        block_fb f ~region:"vspace_delete" ~label:"vs_done"
          ~instrs:Sel4.Costs.tlb_invalidate_instrs ()
      in
      F.Builder.edge f.builder vs_lookup vs_head;
      F.Builder.edge f.builder vs_head vs_body;
      F.Builder.edge f.builder vs_body vs_preempt;
      F.Builder.edge f.builder vs_preempt vs_head;
      F.Builder.edge f.builder vs_head vs_done;
      F.Builder.edge f.builder vs_done join
  | Sel4.Build.Asid_table ->
      (* The unpreemptible ASID loops: free-slot search on assignment and
         the 1024-entry pool teardown. *)
      let as_search_head =
        block_fb f ~region:"asid_ops" ~label:"as_head" ~instrs:2 ()
      in
      let as_search_body =
        block_fb f ~region:"asid_ops" ~label:"as_body"
          ~instrs:Sel4.Costs.asid_search_per_slot_instrs ~accesses:[ dyn 1 ] ()
      in
      let as_done =
        block_fb f ~region:"asid_ops" ~label:"as_done"
          ~instrs:Sel4.Costs.tlb_invalidate_instrs
          ~accesses:[ dyn ~write:true 2 ]
          ()
      in
      F.Builder.edge f.builder vs_lookup as_search_head;
      F.Builder.edge f.builder as_search_head as_search_body;
      F.Builder.edge f.builder as_search_body as_search_head;
      F.Builder.edge f.builder as_search_head as_done;
      F.Builder.edge f.builder as_done join;
      let pool_lookup =
        block_fb f ~region:"decode" ~label:"op_pool_delete" ~call:"lookup"
          ~instrs:2 ()
      in
      F.Builder.edge f.builder decode pool_lookup;
      let pool_head = block_fb f ~region:"asid_ops" ~label:"pool_head" ~instrs:2 () in
      let pool_body =
        block_fb f ~region:"asid_ops" ~label:"pool_body"
          ~instrs:Sel4.Costs.asid_search_per_slot_instrs
          ~accesses:[ dyn 1; dyn ~write:true 1 ]
          ()
      in
      let pool_done =
        block_fb f ~region:"asid_ops" ~label:"pool_done"
          ~instrs:Sel4.Costs.tlb_invalidate_instrs ()
      in
      F.Builder.edge f.builder pool_lookup pool_head;
      F.Builder.edge f.builder pool_head pool_body;
      F.Builder.edge f.builder pool_body pool_head;
      F.Builder.edge f.builder pool_head pool_done;
      F.Builder.edge f.builder pool_done join);
  (* --- common exit: schedule and return to user --- *)
  let sched =
    block_fb f ~region:"sched_choose" ~label:"sc_sched" ~call:"choose" ~instrs:1 ()
  in
  let switch =
    block_fb f ~region:"context_switch" ~label:"sc_switch" ~call:"ctxswitch"
      ~instrs:1 ()
  in
  let exit_ = vector_exit_block f in
  F.Builder.edge f.builder join sched;
  F.Builder.edge f.builder sched switch;
  F.Builder.edge f.builder switch exit_;
  F.Builder.finish f.builder

(* Interrupt entry: vector in, interrupt path, deliver to the handler
   endpoint, schedule, return. *)
let interrupt_program (_build : Sel4.Build.t) =
  let f = fb "interrupt" in
  let entry = vector_entry_block f in
  let irq =
    block_fb f ~region:"irq_path" ~label:"irq_dispatch"
      ~instrs:Sel4.Costs.irq_path_instrs
      ~accesses:
        [
          static Sel4.Layout.irq_pending_word;
          static Sel4.Layout.irq_handler_table;
          dyn 1;
        ]
      ()
  in
  let deliver =
    block_fb f ~region:"irq_path" ~label:"irq_deliver"
      ~instrs:(Sel4.Costs.ep_dequeue_instrs + Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  let no_handler = block_fb f ~region:"irq_path" ~label:"irq_nohandler" ~instrs:2 () in
  let sched =
    block_fb f ~region:"sched_choose" ~label:"irq_sched" ~call:"choose" ~instrs:1 ()
  in
  let switch =
    block_fb f ~region:"context_switch" ~label:"irq_switch" ~call:"ctxswitch"
      ~instrs:1 ()
  in
  let exit_ = vector_exit_block f in
  F.Builder.edge f.builder entry irq;
  F.Builder.edge f.builder irq deliver;
  F.Builder.edge f.builder irq no_handler;
  F.Builder.edge f.builder deliver sched;
  F.Builder.edge f.builder no_handler sched;
  F.Builder.edge f.builder sched switch;
  F.Builder.edge f.builder switch exit_;
  F.Builder.finish f.builder

(* Fault entries (page fault / undefined instruction): one capability
   decode to the fault handler, a short fault message, schedule, return. *)
let fault_program (_build : Sel4.Build.t) ~name =
  let f = fb name in
  let entry = vector_entry_block f in
  let fault =
    block_fb f ~region:"fault_path" ~label:(name ^ "_save")
      ~instrs:Sel4.Costs.slowpath_ipc_instrs
      ~accesses:[ dyn 2; dyn ~write:true 2 ]
      ()
  in
  let look =
    block_fb f ~region:"fault_path" ~label:(name ^ "_lookup") ~call:"lookup"
      ~instrs:2 ()
  in
  let looked = block_fb f ~region:"fault_path" ~label:(name ^ "_looked") ~instrs:1 () in
  let deliver =
    block_fb f ~region:"fault_path" ~label:(name ^ "_deliver")
      ~instrs:
        (Sel4.Costs.ep_dequeue_instrs + (4 * Sel4.Costs.per_message_word_instrs)
       + (2 * Sel4.Costs.set_state_instrs))
      ~accesses:[ dyn 2; dyn ~write:true 3 ]
      ()
  in
  let queue =
    block_fb f ~region:"fault_path" ~label:(name ^ "_queue")
      ~instrs:(Sel4.Costs.ep_enqueue_instrs + Sel4.Costs.set_state_instrs)
      ~accesses:[ dyn ~write:true 3 ]
      ()
  in
  let sched =
    block_fb f ~region:"sched_choose" ~label:(name ^ "_sched") ~call:"choose"
      ~instrs:1 ()
  in
  let switch =
    block_fb f ~region:"context_switch" ~label:(name ^ "_switch")
      ~call:"ctxswitch" ~instrs:1 ()
  in
  let exit_ = vector_exit_block f in
  F.Builder.edge f.builder entry fault;
  F.Builder.edge f.builder fault look;
  F.Builder.edge f.builder look looked;
  F.Builder.edge f.builder looked deliver;
  F.Builder.edge f.builder looked queue;
  F.Builder.edge f.builder deliver sched;
  F.Builder.edge f.builder queue sched;
  F.Builder.edge f.builder sched switch;
  F.Builder.edge f.builder switch exit_;
  F.Builder.finish f.builder

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

let shared_functions build =
  let lookup, _ = lookup_fn () in
  let msgcopy, _ = msgcopy_fn () in
  let capxfer, _ = capxfer_fn () in
  [ lookup; msgcopy; capxfer; choose_fn build; ctxswitch_fn () ]

(* Loop bounds.  The decode, priority-scan and clearing loops take their
   bounds from the {!Kernel_loops} chain (Section 5.3); the rest carry the
   structural annotations described above. *)
let bounds (build : Sel4.Build.t) (p : params) ~main =
  let mk func header bound = { Wcet.Ipet.func; header; bound } in
  let scan () = Kernel_loops.bound Kernel_loops.priority_scan_loop in
  [
    mk "lookup" "l_head" (Kernel_loops.bound Kernel_loops.decode_loop);
    mk "msgcopy" "m_head" (((p.msg_words + words_per_line - 1) / words_per_line) + 1);
    mk "capxfer" "x_head" (p.extra_caps + 1);
  ]
  @ (match build.Sel4.Build.sched with
    | Sel4.Build.Benno_bitmap -> []
    | Sel4.Build.Benno -> [ mk "choose" "ch_head" (scan ()) ]
    | Sel4.Build.Lazy ->
        let scan_bound = scan () in
        [
          mk "choose" "ch_head" scan_bound;
          mk "choose" "ch_scan" (scan_bound + p.max_parked);
        ])
  @
  if main <> "syscall" then []
  else
    let full_chunks =
      Kernel_loops.bound
        (Kernel_loops.clear_loop ~max_bytes:(1 lsl p.max_frame_bits)
           ~chunk:build.Sel4.Build.preempt_chunk)
      - 1
    in
    [
      mk "syscall" "clear_head"
        (preemptible_bound build ~full:full_chunks + 1);
      mk "syscall" "del_head"
        (preemptible_bound build ~full:p.max_ep_waiters + 1);
      mk "syscall" "ab_head"
        (preemptible_bound build ~full:p.max_ep_waiters + 1);
    ]
    @ (match build.Sel4.Build.vspace with
      | Sel4.Build.Shadow_tables ->
          [
            mk "syscall" "vs_head"
              (preemptible_bound build ~full:Sel4.Ktypes.kernel_pde_first + 1);
          ]
      | Sel4.Build.Asid_table ->
          [
            mk "syscall" "as_head" (Sel4.Ktypes.asid_pool_size + 1);
            mk "syscall" "pool_head" (Sel4.Ktypes.asid_pool_size + 1);
          ])

(* The manual ILP constraints of Section 5.2.  The consistent-with pair
   plays the Figure 6 role (the capability type is switched on twice along
   the delivery path); the executes-at-most form caps the lazy scheduler's
   stale dequeues by the parked-thread population, which the natural loop
   bound cannot express. *)
let constraints (p : params) ~main =
  [
    Wcet.User_constraint.executes_at_most ~func:"choose" "ch_stale"
      p.max_parked;
  ]
  @
  if main <> "syscall" then []
  else
    [
      Wcet.User_constraint.consistent ~func:"syscall" "sp_t1_frame" "sp_t2_frame";
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

let decision_models (p : params) ~main =
  stale_model p :: (if main = "syscall" then [ delivery_model ] else [])

let constraint_report ?(params = default_params) ~main () =
  Wcet.Derive_constraints.audit
    ~models:(decision_models params ~main)
    ~manual:(constraints params ~main)

let spec ?(params = default_params) (build : Sel4.Build.t) entry =
  let main = entry_main entry in
  let program =
    match entry with
    | Syscall -> syscall_program build params
    | Interrupt -> interrupt_program build
    | Page_fault -> fault_program build ~name:"page_fault"
    | Undefined_instruction -> fault_program build ~name:"undef"
  in
  let derived =
    (Wcet.Derive_constraints.derive (decision_models params ~main))
      .Wcet.Derive_constraints.rep_derived
  in
  {
    Wcet.Ipet.program =
      { F.funcs = program :: shared_functions build; main };
    bounds = bounds build params ~main;
    constraints = constraints params ~main;
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

let realisable_interrupt_path (_p : params) =
  [ ("interrupt", "irq_deliver", 1); ("interrupt", "irq_nohandler", 0) ]

let realisable_path ?(params = default_params) entry =
  match entry with
  | Syscall -> realisable_syscall_path params
  | Interrupt -> realisable_interrupt_path params
  | Page_fault -> realisable_fault_path params ~name:"page_fault"
  | Undefined_instruction -> realisable_fault_path params ~name:"undef"
