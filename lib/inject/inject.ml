(* The workloads of the preemption-schedule campaign ({!Explore}): the
   four long-running operations, their populated environments, progress
   measures and scheduler variants, plus the schedule shrinker.

   Schedules are indexed by preemption-point poll, not by cycle: the poll
   sequence of an operation is a pure function of the work it has left,
   so a schedule means the same thing under lazy, Benno and Benno+bitmap
   scheduling, and the three final states can be compared byte for
   byte. *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

type op = Ep_delete | Badged_abort | Retype_clear | Vspace_delete

let all_ops = [ Ep_delete; Badged_abort; Retype_clear; Vspace_delete ]

let op_name = function
  | Ep_delete -> "ep_delete"
  | Badged_abort -> "badged_abort"
  | Retype_clear -> "retype_clear"
  | Vspace_delete -> "vspace_delete"

(* --- workload sizes --- *)

type sizes = {
  sz_waiters : int;  (* blocked senders queued for deletion *)
  sz_abort_waiters : int;  (* blocked badged senders *)
  sz_frame_bits : int;  (* retyped frame size (cleared in chunks) *)
  sz_ptes : int;  (* small pages mapped through the page table *)
  sz_sections : int;  (* 1 MiB sections mapped in the directory *)
}

let sizes =
  {
    sz_waiters = 12;
    sz_abort_waiters = 14;
    sz_frame_bits = 14;
    sz_ptes = 10;
    sz_sections = 2;
  }

(* --- scheduler variants under differential test --- *)

let variants ~(base : Sel4.Build.t) op =
  let vspace =
    (* Preemptible address-space teardown exists only in the shadow
       design; the ASID design deletes in O(1) with nothing to inject
       into. *)
    match op with
    | Vspace_delete -> Sel4.Build.Shadow_tables
    | _ -> base.Sel4.Build.vspace
  in
  List.map
    (fun sched ->
      { base with Sel4.Build.sched; vspace; preemption_points = true })
    [ Sel4.Build.Lazy; Sel4.Build.Benno; Sel4.Build.Benno_bitmap ]

(* --- operation drivers --- *)

type driver = {
  d_event : K.event;
  d_initiator : tcb;
  d_measure : unit -> int;
      (* Progress toward completion; must strictly decrease between
         consecutive preemptions and reach 0 on completion. *)
}

let expect_done what = function
  | K.Completed -> ()
  | K.Preempted -> raise (B.Boot_failure (what ^ ": preempted during setup"))
  | K.Failed e -> raise (B.Boot_failure (what ^ ": " ^ e))

(* Park [n] low-priority senders on the endpoint at [ep_cptr], sending
   through [cptr_of i] (a badged or plain endpoint cap). *)
let park_senders env ~n ~first_slot ~cptr_of =
  for i = 0 to n - 1 do
    let sender = B.spawn_thread env ~priority:50 ~dest:(first_slot + i) in
    B.make_runnable env sender;
    K.force_run env.B.k sender;
    expect_done "park sender"
      (K.kernel_entry env.B.k
         (K.Ev_send
            { ep = cptr_of i; msg_len = 1; extra_caps = []; blocking = true }))
  done;
  K.force_run env.B.k env.B.root_tcb

let setup_ep_delete env sz =
  let ep = B.spawn_endpoint env ~dest:10 in
  park_senders env ~n:sz.sz_waiters ~first_slot:20 ~cptr_of:(fun _ -> B.cptr 10);
  {
    d_event = K.Ev_invoke (K.Inv_delete { target = B.cptr 10 });
    d_initiator = env.B.root_tcb;
    d_measure =
      (fun () -> (if ep.ep_active then 1 else 0) + Sel4.Ep_queue.length ep);
  }

let setup_badged_abort env sz =
  let ep = B.spawn_endpoint env ~dest:10 in
  let mint dest badge =
    expect_done "mint badged cap"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_copy
               {
                 src = B.cptr 10;
                 dest_slot = env.B.root_cnode.cn_slots.(dest);
                 badge = Some badge;
               })))
  in
  mint 11 7;
  mint 12 9;
  (* Alternate badges so the abort must scan past non-matching waiters. *)
  park_senders env ~n:sz.sz_abort_waiters ~first_slot:20 ~cptr_of:(fun i ->
      B.cptr (if i mod 2 = 0 then 11 else 12));
  {
    d_event = K.Ev_invoke (K.Inv_cancel_badged_sends { ep = B.cptr 10; badge = 7 });
    d_initiator = env.B.root_tcb;
    d_measure = (fun () -> Sel4.Digest.abort_scan_len ep);
  }

let setup_retype_clear env sz =
  let ut =
    match env.B.ut_slot.cap with
    | Untyped_cap ut -> ut
    | _ -> raise (B.Boot_failure "no boot untyped")
  in
  let dest_slots =
    [ env.B.root_cnode.cn_slots.(40); env.B.root_cnode.cn_slots.(41) ]
  in
  let uncleared () =
    match ut.ut_creating with
    | None -> 0
    | Some cr ->
        List.fold_left
          (fun acc (_, obj) ->
            acc + Sel4.Objects.size_of obj - Sel4.Objects.cleared_of obj)
          0 cr.cr_entries
  in
  {
    d_event =
      K.Ev_invoke
        (K.Inv_retype
           {
             ut = B.ut_cptr;
             obj_type = Frame_object sz.sz_frame_bits;
             count = 2;
             dest_slots;
           });
    d_initiator = env.B.root_tcb;
    d_measure = uncleared;
  }

let setup_vspace_delete env sz =
  let slot i = env.B.root_cnode.cn_slots.(i) in
  ignore (B.retype_syscall env Page_directory_object ~count:1 ~dest:30);
  ignore (B.retype_syscall env Page_table_object ~count:1 ~dest:31);
  ignore (B.retype_syscall env (Frame_object 12) ~count:sz.sz_ptes ~dest:32);
  ignore
    (B.retype_syscall env (Frame_object 20) ~count:sz.sz_sections
       ~dest:(32 + sz.sz_ptes));
  let pd =
    match (slot 30).cap with
    | Page_directory_cap { pd; _ } -> pd
    | _ -> raise (B.Boot_failure "no pd")
  in
  expect_done "map pt"
    (K.run_to_completion env.B.k
       (K.Ev_invoke
          (K.Inv_map_page_table { pt = B.cptr 31; pd = B.cptr 30; vaddr = 0 })));
  for i = 0 to sz.sz_ptes - 1 do
    expect_done "map frame"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_map_frame
               { frame = B.cptr (32 + i); pd = B.cptr 30; vaddr = i * 4096 })))
  done;
  for i = 0 to sz.sz_sections - 1 do
    expect_done "map section"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_map_frame
               {
                 frame = B.cptr (32 + sz.sz_ptes + i);
                 pd = B.cptr 30;
                 vaddr = (1 + i) * 0x100000;
               })))
  done;
  let live_mappings () =
    let pt_live pt =
      let n = ref 0 in
      for j = 0 to pt_entries_count - 1 do
        if pt.pt_entries.(j) <> Pte_invalid || pt.pt_shadow.(j) <> None then
          incr n
      done;
      !n
    in
    let n = ref 0 in
    for i = 0 to kernel_pde_first - 1 do
      match pd.pd_entries.(i) with
      | Pde_invalid -> if pd.pd_shadow.(i) <> None then incr n
      | Pde_section _ -> incr n
      | Pde_page_table pt -> n := !n + 1 + pt_live pt
      | Pde_kernel -> ()
    done;
    !n
  in
  {
    d_event = K.Ev_invoke (K.Inv_delete { target = B.cptr 30 });
    d_initiator = env.B.root_tcb;
    d_measure = live_mappings;
  }

let setup env sz = function
  | Ep_delete -> setup_ep_delete env sz
  | Badged_abort -> setup_badged_abort env sz
  | Retype_clear -> setup_retype_clear env sz
  | Vspace_delete -> setup_vspace_delete env sz

(* --- shrinking --- *)

(* Greedy one-at-a-time removal, restarting the scan after every
   successful removal: the result is 1-minimal (removing any single
   remaining element no longer reproduces the failure). *)
let shrink ~fails schedule =
  let remove_nth i l = List.filteri (fun j _ -> j <> i) l in
  let rec minimise sched =
    let rec scan i =
      if i >= List.length sched then sched
      else
        let cand = remove_nth i sched in
        if fails cand then minimise cand else scan (i + 1)
    in
    scan 0
  in
  minimise schedule
