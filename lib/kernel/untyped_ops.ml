(* Untyped memory retype: object creation with preemptible clearing.

   Section 3.5's restructured creation path:

   1. All object memory is cleared *before* any other kernel state is
      modified, in [Build.preempt_chunk]-sized chunks with a preemption
      point between chunks.  Progress lives in the objects (and the
      in-flight [creating] record on the untyped), so a preempted retype
      is simply re-executed and resumes where it left off.
   2. Once everything is cleared, the remaining bookkeeping — installing
      capabilities in the destination slots and linking them into the
      derivation tree as children of the untyped — is one short atomic
      pass. *)

open Ktypes

type error =
  | Not_enough_memory
  | Dest_slot_occupied
  | Invalid_count
  | Not_untyped
  | Untyped_has_children

type outcome = Done of cap list | Preempted | Error of error

let align_up v a = (v + a - 1) / a * a

(* Allocate the object records (no clearing yet). *)
let allocate ~fresh_id (ut : untyped) obj_type ~count ~dest_slots =
  let size = obj_size_bytes obj_type in
  let total = 1 lsl ut.ut_size_bits in
  let first = align_up ut.ut_watermark size in
  if first + (size * count) > total then None
  else begin
    let make i =
      let addr = ut.ut_addr + first + (i * size) in
      let id = fresh_id () in
      match obj_type with
      | Tcb_object -> Any_tcb (Objects.make_tcb ~id ~addr ~priority:0)
      | Endpoint_object -> Any_endpoint (Objects.make_endpoint ~id ~addr)
      | Notification_object ->
          Any_notification (Objects.make_notification ~id ~addr)
      | Cnode_object bits -> Any_cnode (Objects.make_cnode ~id ~addr ~bits)
      | Frame_object bits -> Any_frame (Objects.make_frame ~id ~addr ~size_bits:bits)
      | Page_table_object -> Any_page_table (Objects.make_page_table ~id ~addr)
      | Page_directory_object ->
          Any_page_directory (Objects.make_page_directory ~id ~addr)
      | Untyped_object bits ->
          Any_untyped (Objects.make_untyped ~id ~addr ~size_bits:bits)
      | Asid_pool_object -> Any_asid_pool (Objects.make_asid_pool ~id ~addr)
    in
    ut.ut_watermark <- first + (size * count);
    let objs = List.init count make in
    Some
      {
        cr_type = obj_type;
        cr_entries = List.combine dest_slots objs;
        cr_cursor = 0;
      }
  end

(* Clear the remaining memory of the in-flight creation, one chunk per
   preemption point. *)
let clear_step ctx (creating : creating) =
  let chunk = (Ctx.build ctx).Build.preempt_chunk in
  let entries = Array.of_list creating.cr_entries in
  let n = Array.length entries in
  let rec obj_loop () =
    if creating.cr_cursor >= n then Vspace.Done
    else begin
      let _, obj = entries.(creating.cr_cursor) in
      let size = Objects.size_of obj in
      let rec chunk_loop () =
        let done_ = Objects.cleared_of obj in
        if done_ >= size then begin
          creating.cr_cursor <- creating.cr_cursor + 1;
          obj_loop ()
        end
        else begin
          let bytes = Int.min chunk (size - done_) in
          Ctx.exec ctx Layout.R.clear_memory
            (Costs.clear_line_instrs * ((bytes + 31) / 32));
          Ctx.store_block ctx (Objects.addr_of obj + done_) bytes;
          if Ctx.tracing ctx then
            Ctx.emit ctx
              (Obs.Trace.Untyped_clear
                 { addr = Objects.addr_of obj + done_; bytes });
          Objects.set_cleared obj (done_ + bytes);
          if Ctx.preemption_point ctx then Vspace.Preempted else chunk_loop ()
        end
      in
      chunk_loop ()
    end
  in
  obj_loop ()

(* Install a fresh capability for a new object. *)
let cap_for obj =
  match obj with
  | Any_tcb t -> Tcb_cap t
  | Any_endpoint e -> Endpoint_cap { ep = e; badge = 0; rights = all_rights }
  | Any_notification n ->
      Notification_cap { ntfn = n; badge = 0; rights = all_rights }
  | Any_cnode c -> Cnode_cap { cnode = c; guard = 0; guard_bits = 0 }
  | Any_untyped u -> Untyped_cap u
  | Any_frame f -> Frame_cap { frame = f; fc_rights = rw_rights; fc_mapping = None }
  | Any_page_table pt -> Page_table_cap { pt; ptc_mapping = None }
  | Any_page_directory pd -> Page_directory_cap { pd; pdc_asid = None }
  | Any_asid_pool p -> Asid_pool_cap p

(* The retype entry point; restartable.  [ut_slot] holds the untyped cap
   (new caps become its CDT children); [register] records new objects in
   the kernel registry for the invariant checker. *)
let retype ctx ~fresh_id ~register ~(ut_slot : slot) obj_type ~count ~dest_slots
    =
  match ut_slot.cap with
  | Untyped_cap ut -> (
      let creating =
        match ut.ut_creating with
        | Some c -> Some c (* restarted syscall: resume clearing *)
        | None ->
            if count <= 0 || List.length dest_slots <> count then None
            else if
              List.exists (fun s -> not (cap_is_null s.cap)) dest_slots
            then None
            else begin
              (* seL4 refuses to retype an untyped that already has live
                 children covering its memory; we require derived caps to
                 be revoked first. *)
              allocate ~fresh_id ut obj_type ~count ~dest_slots
            end
      in
      match creating with
      | None ->
          if count <= 0 || List.length dest_slots <> count then
            Error Invalid_count
          else if List.exists (fun s -> not (cap_is_null s.cap)) dest_slots
          then Error Dest_slot_occupied
          else Error Not_enough_memory
      | Some creating -> (
          ut.ut_creating <- Some creating;
          match clear_step ctx creating with
          | Vspace.Preempted -> Preempted
          | Vspace.Done ->
              (* Atomic bookkeeping pass. *)
              Ctx.exec ctx Layout.R.untyped_retype
                (Costs.retype_fixed_instrs * count);
              let caps =
                List.map
                  (fun (slot, obj) ->
                    (* New page directories receive the global kernel
                       mappings here — a 1 KiB copy that is deliberately
                       not preemptible (Section 3.5). *)
                    (match obj with
                    | Any_page_directory pd -> Vspace.copy_kernel_mappings ctx pd
                    | _ -> ());
                    let cap = cap_for obj in
                    slot.cap <- cap;
                    Ctx.store ctx (Cdt.slot_addr slot);
                    Cdt.insert_child ctx ~parent:ut_slot ~child:slot;
                    register obj;
                    cap)
                  creating.cr_entries
              in
              ut.ut_creating <- None;
              Done caps))
  | _ -> Error Not_untyped

let pp_error ppf e =
  Fmt.string ppf
    (match e with
    | Not_enough_memory -> "not enough memory"
    | Dest_slot_occupied -> "destination slot occupied"
    | Invalid_count -> "invalid count"
    | Not_untyped -> "not an untyped"
    | Untyped_has_children -> "untyped has children")
