(* The proof-invariant catalogue of Section 2.2, as executable checks.

   The paper's verified kernel maintains hundreds of invariants; the ones
   its modifications touch are checked here after every operation in the
   property tests:

   - well-formed data structures (doubly-linked lists with correct
     back-pointers, no cycles);
   - object alignment and non-overlap;
   - the new Benno-scheduling invariant: every thread in a run queue is
     runnable (Section 3.1), with the existing invariant that every
     runnable thread is queued or currently executing;
   - the bitmap invariant: the priority bitmap precisely mirrors run-queue
     occupancy (Section 3.2), in every build (the scanning schedulers find
     the next non-empty priority there);
   - book-keeping: the derivation tree is well formed, and — in the shadow
     design — mapping entries and frame-cap back-pointers agree in both
     directions (Section 3.6);
   - page directories contain the global kernel mappings (Section 3.5). *)

open Ktypes

exception Violation of string

let fail fmt = Fmt.kstr (fun s -> raise (Violation s)) fmt

(* Walk an intrusive doubly-linked list checking back-pointers and
   detecting cycles; returns the member list.  [what] names the list in a
   violation: a thunk, so the label is only formatted on failure (the
   sampler walks hundreds of lists per check). *)
let check_linked_list ~what ~head ~next ~prev =
  let rec walk seen node_prev node =
    match node with
    | None -> List.rev seen
    | Some tcb ->
        if List.memq tcb seen then
          fail "%s: cycle at tcb%d" (what ()) tcb.tcb_id;
        (match (prev tcb, node_prev) with
        | None, None -> ()
        | Some p, Some q when p == q -> ()
        | _ -> fail "%s: bad back-pointer at tcb%d" (what ()) tcb.tcb_id);
        walk (tcb :: seen) node (next tcb)
  in
  walk [] None head

(* Every member of run queue [prio] is flagged queued and has that
   priority.  Recursive rather than [List.iter] over a closure: it runs
   for all 256 queues on every sampled entry. *)
let rec check_queued prio = function
  | [] -> ()
  | tcb :: rest ->
      if not tcb.in_run_queue then
        fail "tcb%d queued but not flagged" tcb.tcb_id;
      if tcb.priority <> prio then
        fail "tcb%d in queue %d but has priority %d" tcb.tcb_id prio
          tcb.priority;
      check_queued prio rest

let check_run_queues (k : Kernel.t) =
  let sched = k.Kernel.sched in
  for prio = 0 to Sched.num_priorities - 1 do
    let q = Sched.queue sched prio in
    let members =
      match q.head with
      | None -> [] (* most queues: nothing to walk, nothing allocated *)
      | head ->
          check_linked_list
            ~what:(fun () -> Fmt.str "run queue %d" prio)
            ~head
            ~next:(fun tcb -> tcb.sched_next)
            ~prev:(fun tcb -> tcb.sched_prev)
    in
    (match (members, q.tail) with
    | [], None -> ()
    | [], Some _ -> fail "run queue %d: tail set on empty queue" prio
    | members, Some tail ->
        if not (List.nth members (List.length members - 1) == tail) then
          fail "run queue %d: tail mismatch" prio
    | _ :: _, None -> fail "run queue %d: missing tail" prio);
    check_queued prio members;
    (* The bitmap mirrors queue occupancy exactly (Section 3.2).  Every
       build keeps it on the host: the scanning schedulers look up the
       next non-empty priority there. *)
    let bit = Sched.bitmap_bit_set sched prio in
    if bit <> (members <> []) then
      fail "bitmap bit for priority %d is %b but queue has %d members" prio
        bit (List.length members);
    (* The Benno invariant: all queued threads are runnable. *)
    (match k.Kernel.build.Build.sched with
    | Build.Benno | Build.Benno_bitmap ->
        List.iter
          (fun tcb ->
            if not (is_runnable tcb) then
              fail "Benno invariant: blocked tcb%d in run queue" tcb.tcb_id)
          members
    | Build.Lazy -> ())
  done;
  (* Existing invariant (all builds): every runnable thread is queued or
     currently executing. *)
  List.iter
    (fun obj ->
      match obj with
      | Any_tcb tcb ->
          if
            is_runnable tcb
            && (not tcb.in_run_queue)
            && (not (tcb == k.Kernel.current))
            && not (tcb == k.Kernel.idle)
          then
            fail "runnable tcb%d neither queued nor current" tcb.tcb_id
      | _ -> ())
    k.Kernel.objects

let check_notifications (k : Kernel.t) =
  List.iter
    (fun obj ->
      match obj with
      | Any_notification ntfn ->
          let members =
            check_linked_list
              ~what:(fun () -> Fmt.str "ntfn%d queue" ntfn.ntfn_id)
              ~head:ntfn.ntfn_queue.head
              ~next:(fun tcb -> tcb.ep_next)
              ~prev:(fun tcb -> tcb.ep_prev)
          in
          (* A notification never holds both pending signals and blocked
             waiters. *)
          if ntfn.ntfn_word <> 0 && members <> [] then
            fail "ntfn%d: pending word with waiters queued" ntfn.ntfn_id;
          List.iter
            (fun tcb ->
              match tcb.state with
              | Blocked_on_notification n when n == ntfn -> ()
              | _ ->
                  fail "ntfn%d: queued tcb%d in state %a" ntfn.ntfn_id
                    tcb.tcb_id pp_thread_state tcb.state)
            members
      | _ -> ())
    k.Kernel.objects

let check_endpoints (k : Kernel.t) =
  List.iter
    (fun obj ->
      match obj with
      | Any_endpoint ep ->
          let members =
            check_linked_list
              ~what:(fun () -> Fmt.str "ep%d queue" ep.ep_id)
              ~head:ep.ep_queue.head
              ~next:(fun tcb -> tcb.ep_next)
              ~prev:(fun tcb -> tcb.ep_prev)
          in
          (match (ep.ep_queue_kind, members) with
          | Ep_idle, _ :: _ -> fail "ep%d: idle but queue non-empty" ep.ep_id
          | (Ep_senders | Ep_receivers), [] ->
              fail "ep%d: kind set but queue empty" ep.ep_id
          | _ -> ());
          List.iter
            (fun tcb ->
              match (ep.ep_queue_kind, tcb.state) with
              | Ep_senders, Blocked_on_send ep' when ep' == ep -> ()
              | Ep_receivers, Blocked_on_receive ep' when ep' == ep -> ()
              | _ ->
                  fail "ep%d: queued tcb%d in state %a" ep.ep_id tcb.tcb_id
                    pp_thread_state tcb.state)
            members
      | _ -> ())
    k.Kernel.objects

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_alignment (k : Kernel.t) =
  List.iter
    (fun obj ->
      let addr = Objects.addr_of obj and size = Objects.size_of obj in
      if is_pow2 size && addr mod size <> 0 then
        fail "%a: misaligned (size %d)" Objects.pp obj size)
    k.Kernel.objects;
  (* Non-overlap: non-untyped objects must be pairwise disjoint (objects
     retyped out of an untyped live inside it, so untypeds are exempt from
     the pairing). *)
  let solid =
    List.filter_map
      (fun obj ->
        match obj with
        | Any_untyped _ -> None
        | _ -> Some (Objects.addr_of obj, Objects.size_of obj, obj))
      k.Kernel.objects
  in
  (* Sort on scalar keys only: kernel objects are cyclic, so polymorphic
     comparison must never reach them. *)
  let sorted =
    List.sort
      (fun (a1, s1, _) (a2, s2, _) -> Stdlib.compare (a1, s1) (a2, s2))
      solid
  in
  let rec scan = function
    | (a1, s1, o1) :: ((a2, _, o2) :: _ as rest) ->
        if a1 + s1 > a2 then
          fail "%a and %a overlap" Objects.pp o1 Objects.pp o2;
        scan rest
    | _ -> ()
  in
  scan sorted

let check_cdt_slot slot =
  if not (Cdt.check_well_formed slot) then
    fail "CDT ill-formed below slot %d" slot.sl_index;
  (* A slot participating in the tree must hold a capability. *)
  if
    cap_is_null slot.cap
    && (slot.cdt_parent <> None || slot.cdt_first_child <> None)
  then fail "empty slot %d threaded into the CDT" slot.sl_index

(* Every slot: the root CNode's, then each CNode object's in object
   order, walked in place rather than gathered into one list. *)
let check_cdt (k : Kernel.t) =
  List.iter check_cdt_slot k.Kernel.root_slots;
  List.iter
    (fun obj ->
      match obj with
      | Any_cnode cn -> Array.iter check_cdt_slot cn.cn_slots
      | _ -> ())
    k.Kernel.objects

let check_shadow_tables (k : Kernel.t) =
  if k.Kernel.build.Build.vspace = Build.Shadow_tables then
    List.iter
      (fun obj ->
        match obj with
        | Any_page_table pt ->
            Array.iteri
              (fun j entry ->
                match (entry, pt.pt_shadow.(j)) with
                | Pte_invalid, Some _ ->
                    fail "pt%d[%d]: shadow without mapping" pt.pt_id j
                | Pte_frame _, None ->
                    fail "pt%d[%d]: mapping without shadow" pt.pt_id j
                | Pte_frame f, Some slot -> (
                    match slot.cap with
                    | Frame_cap fc ->
                        if not (fc.frame == f) then
                          fail "pt%d[%d]: shadow names wrong frame" pt.pt_id j;
                        (match fc.fc_mapping with
                        | Some { fm_vaddr; _ } ->
                            if Vspace.pt_index fm_vaddr <> j then
                              fail "pt%d[%d]: back-pointer vaddr mismatch"
                                pt.pt_id j
                        | None ->
                            fail "pt%d[%d]: mapped frame cap has no mapping"
                              pt.pt_id j)
                    | _ -> fail "pt%d[%d]: shadow points at non-frame" pt.pt_id j)
                | Pte_invalid, None -> ())
              pt.pt_entries
        | Any_frame _ -> ()
        | _ -> ())
      k.Kernel.objects

let check_kernel_mappings (k : Kernel.t) =
  List.iter
    (fun obj ->
      match obj with
      | Any_page_directory pd ->
          (* Invariant from Section 3.5: all page directories contain the
             global kernel mappings (established before the object becomes
             visible). *)
          if not pd.pd_kernel_mapped then
            fail "pd%d: kernel mappings missing" pd.pd_id;
          for i = kernel_pde_first to pd_entries_count - 1 do
            if pd.pd_entries.(i) <> Pde_kernel then
              fail "pd%d[%d]: kernel mapping clobbered" pd.pd_id i
          done
      | _ -> ())
    k.Kernel.objects

let check_cleared (k : Kernel.t) =
  List.iter
    (fun obj ->
      let size = Objects.size_of obj in
      match obj with
      | Any_frame _ | Any_page_table _ | Any_page_directory _ | Any_cnode _ ->
          let cleared = Objects.cleared_of obj in
          if cleared <> 0 && cleared < size then
            fail "%a: visible but only partially cleared (%d/%d)" Objects.pp
              obj cleared size
      | _ -> ())
    k.Kernel.objects

(* A thread is never on two run queues (nor twice in one): walk every
   queue and record each TCB's first home.  Double-enqueue corrupts both
   intrusive lists; this check names the offending thread instead of
   leaving the damage to surface as a cycle or bad back-pointer
   elsewhere.  Revisiting a TCB also bounds the walk, so a cyclic queue
   (reported precisely by [check_run_queues]) cannot hang this check. *)
let rec walk_membership seen prio = function
  | None -> ()
  | Some tcb -> (
      match Hashtbl.find_opt seen tcb.tcb_id with
      | Some first ->
          fail "tcb%d on two run queues (priorities %d and %d)" tcb.tcb_id
            first prio
      | None ->
          Hashtbl.add seen tcb.tcb_id prio;
          walk_membership seen prio tcb.sched_next)

let check_queue_membership (k : Kernel.t) =
  let seen = Hashtbl.create 64 in
  let sched = k.Kernel.sched in
  for prio = 0 to Sched.num_priorities - 1 do
    walk_membership seen prio (Sched.queue sched prio).head
  done

(* Migration/affinity invariant (SMP model): threads never migrate, so a
   thread only executes on — and only queues on — the core it was
   created on.  Trivially satisfied on the single-core model (everything
   has affinity 0); the per-core kernels of the SMP soak give it teeth. *)
let rec walk_affinity home seen = function
  | None -> ()
  | Some tcb ->
      (* A cyclic queue is [check_run_queues]'s violation to report;
         just bound the walk here. *)
      if List.memq tcb seen then ()
      else begin
        if tcb.tcb_affinity <> home then
          fail "tcb%d (affinity %d) queued on core %d" tcb.tcb_id
            tcb.tcb_affinity home;
        walk_affinity home (tcb :: seen) tcb.sched_next
      end

let check_affinity (k : Kernel.t) =
  let home = k.Kernel.cpu_id in
  let cur = k.Kernel.current in
  if cur.tcb_affinity <> home then
    fail "tcb%d (affinity %d) running on core %d" cur.tcb_id cur.tcb_affinity
      home;
  let sched = k.Kernel.sched in
  for prio = 0 to Sched.num_priorities - 1 do
    walk_affinity home [] (Sched.queue sched prio).head
  done

(* The catalogue, named for reporting. *)
let catalogue =
  [
    ("run_queues", check_run_queues);
    ("queue_membership", check_queue_membership);
    ("affinity", check_affinity);
    ("endpoints", check_endpoints);
    ("notifications", check_notifications);
    ("alignment", check_alignment);
    ("cdt", check_cdt);
    ("shadow_tables", check_shadow_tables);
    ("kernel_mappings", check_kernel_mappings);
    ("cleared", check_cleared);
  ]

(* Run the whole catalogue, stopping at the first violation. *)
let check (k : Kernel.t) = List.iter (fun (_, chk) -> chk k) catalogue

(* Run the whole catalogue to the end and report every violation (one per
   failing check), so schedule-campaign failure reports show the complete
   damage rather than whichever invariant happens to be checked first. *)
let check_result k =
  let violations =
    List.filter_map
      (fun (name, chk) ->
        try
          chk k;
          None
        with Violation m -> Some (name ^ ": " ^ m))
      catalogue
  in
  match violations with [] -> Result.Ok () | vs -> Result.Error vs
