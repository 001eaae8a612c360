(* Canonical rendering of the scheduler-independent kernel state.

   Run queues, [in_run_queue] flags and memoised lowest-mapped hints are
   excluded: lazy scheduling parks blocked threads in the queues by
   design, and the hints are performance state, not semantics.  Everything
   that survives into the digest is sorted by object id, never by
   hash-table or registry iteration order, so two states that differ only
   in bookkeeping order digest identically.

   Shared by the preemption-schedule campaign (differential final states
   and state deduplication), its badged-abort workload (the abort-scan
   progress measure) and the soak simulator (invariant-violation
   forensics). *)

open Ktypes

(* Length of the remaining abort scan: nodes from the cursor to the
   end-of-queue marker captured when the abort began. *)
let abort_scan_len (ep : endpoint) =
  match ep.ep_abort with
  | None -> 0
  | Some p ->
      let rec go n = function
        | None -> n
        | Some t -> (
            let n = n + 1 in
            match p.ab_last with
            | Some l when l == t -> n
            | _ -> go n t.ep_next)
      in
      go 0 p.ab_cursor

let of_kernel (k : Kernel.t) =
  let b = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  let slot_coord (s : slot) =
    match s.sl_cnode with
    | Some cn -> Fmt.str "cn%d[%d]" cn.cn_id s.sl_index
    | None -> Fmt.str "root[%d]" s.sl_index
  in
  let cap_str c = Fmt.to_to_string pp_cap c in
  let tcb_ids q =
    let rec go acc = function
      | None -> List.rev acc
      | Some t -> go (t.tcb_id :: acc) t.ep_next
    in
    go [] q.head
  in
  let obj_id = function
    | Any_tcb t -> t.tcb_id
    | Any_endpoint e -> e.ep_id
    | Any_notification n -> n.ntfn_id
    | Any_cnode c -> c.cn_id
    | Any_untyped u -> u.ut_id
    | Any_frame f -> f.f_id
    | Any_page_table pt -> pt.pt_id
    | Any_page_directory pd -> pd.pd_id
    | Any_asid_pool p -> p.ap_id
  in
  let objs =
    List.sort (fun a b -> compare (obj_id a) (obj_id b)) k.Kernel.objects
  in
  List.iter
    (fun obj ->
      match obj with
      | Any_tcb t ->
          add "tcb%d prio=%d state=%a restart=%b caller=%s@." t.tcb_id
            t.priority pp_thread_state t.state t.restart_syscall
            (match t.caller with Some c -> string_of_int c.tcb_id | None -> "-")
      | Any_endpoint e ->
          add "ep%d active=%b kind=%s q=%a abort=%s@." e.ep_id e.ep_active
            (match e.ep_queue_kind with
            | Ep_idle -> "idle"
            | Ep_senders -> "send"
            | Ep_receivers -> "recv")
            Fmt.(Dump.list int)
            (tcb_ids e.ep_queue)
            (match e.ep_abort with
            | None -> "-"
            | Some p ->
                Fmt.str "badge=%d remaining=%d" p.ab_badge (abort_scan_len e))
      | Any_notification n ->
          add "ntfn%d active=%b word=%d@." n.ntfn_id n.ntfn_active n.ntfn_word
      | Any_cnode c ->
          add "cnode%d bits=%d@." c.cn_id c.cn_bits;
          Array.iter
            (fun s ->
              if not (cap_is_null s.cap) then
                add "  %s = %s parent=%s@." (slot_coord s) (cap_str s.cap)
                  (match s.cdt_parent with
                  | Some p -> slot_coord p
                  | None -> "-"))
            c.cn_slots
      | Any_untyped u ->
          add "ut%d size=%d watermark=%d creating=%s@." u.ut_id u.ut_size_bits
            u.ut_watermark
            (match u.ut_creating with
            | None -> "-"
            | Some cr ->
                Fmt.str "cursor=%d/%d" cr.cr_cursor (List.length cr.cr_entries))
      | Any_frame f ->
          add "frame%d bits=%d cleared=%d@." f.f_id f.f_size_bits f.f_cleared
      | Any_page_table pt ->
          add "pt%d mapped_in=%s@." pt.pt_id
            (match pt.pt_mapped_in with
            | Some (pd, i) -> Fmt.str "pd%d[%d]" pd.pd_id i
            | None -> "-");
          for j = 0 to pt_entries_count - 1 do
            (match pt.pt_entries.(j) with
            | Pte_invalid -> ()
            | Pte_frame f -> add "  pte[%d]=frame%d@." j f.f_id);
            match pt.pt_shadow.(j) with
            | Some s -> add "  pts[%d]=%s@." j (slot_coord s)
            | None -> ()
          done
      | Any_page_directory pd ->
          add "pd%d asid=%s kernel=%b@." pd.pd_id
            (match pd.pd_asid with Some a -> string_of_int a | None -> "-")
            pd.pd_kernel_mapped;
          for i = 0 to kernel_pde_first - 1 do
            (match pd.pd_entries.(i) with
            | Pde_invalid | Pde_kernel -> ()
            | Pde_section f -> add "  pde[%d]=section:frame%d@." i f.f_id
            | Pde_page_table pt -> add "  pde[%d]=pt%d@." i pt.pt_id);
            match pd.pd_shadow.(i) with
            | Some s -> add "  pds[%d]=%s@." i (slot_coord s)
            | None -> ()
          done
      | Any_asid_pool p ->
          add "asid_pool%d@." p.ap_id;
          Array.iteri
            (fun i e ->
              match e with
              | Some pd -> add "  asid[%d]=pd%d@." i pd.pd_id
              | None -> ())
            p.ap_entries)
    objs;
  List.iter
    (fun s ->
      if not (cap_is_null s.cap) then
        add "rootslot[%d] = %s@." s.sl_index (cap_str s.cap))
    k.Kernel.root_slots;
  (* Live capability reference counts, sorted by object id: the Hashtbl's
     iteration order depends on insertion history and must never leak into
     the digest. *)
  let refs =
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) k.Kernel.cap_refs []
    |> List.sort Stdlib.compare
  in
  List.iter (fun (id, n) -> if n > 0 then add "refs[%d] = %d@." id n) refs;
  Buffer.contents b
