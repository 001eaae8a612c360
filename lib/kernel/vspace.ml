(* Virtual address-space management, in both designs of Section 3.6.

   Original design ([Build.Asid_table]): frame caps name their address
   space through an ASID — an index into a two-level lookup table.  Stale
   ASIDs are harmless (checked against the page table on use), making
   address-space deletion O(1), but allocating an ASID scans up to 1024
   slots and deleting an ASID pool visits up to 1024 address spaces, both
   with interrupts disabled.

   Shadow design ([Build.Shadow_tables]): frame caps point directly at
   the page directory; each page table and page directory carries a shadow
   array of back-pointers from mapping entries to the frame-cap slots used
   to create them.  All mapping state is kept exact eagerly, so deletion
   must walk the tables — but each entry is a preemption point, and the
   lowest-mapped index is memoised so no work repeats (incremental
   consistency). *)

open Ktypes

type progress = Done | Preempted

let pd_index vaddr = (vaddr lsr pt_coverage_bits) land (pd_entries_count - 1)
let pt_index vaddr = (vaddr lsr page_bits) land (pt_entries_count - 1)

let pde_addr pd i = pd.pd_addr + (4 * i)
let pde_shadow_addr pd i = pd.pd_addr + 16384 + (4 * i)
let pte_addr pt i = pt.pt_addr + (4 * i)
let pte_shadow_addr pt i = pt.pt_addr + 1024 + (4 * i)

(* --- ASID table (original design) --- *)

type asid_state = {
  table : asid_pool option array;  (* top level: 256 pool slots *)
}

let asid_top_slots = 256

let create_asid_state () = { table = Array.make asid_top_slots None }

let asid_pool_index asid = asid / asid_pool_size
let asid_entry_index asid = asid mod asid_pool_size

let asid_lookup ctx st asid =
  Ctx.exec ctx Layout.R.asid_ops Costs.asid_lookup_instrs;
  Ctx.load ctx (Layout.asid_table_base + (4 * asid_pool_index asid));
  match st.table.(asid_pool_index asid) with
  | None -> None
  | Some pool ->
      Ctx.load ctx (pool.ap_addr + (4 * asid_entry_index asid));
      pool.ap_entries.(asid_entry_index asid)

(* Find a free slot in a pool: the unpreemptible search the paper calls
   out ("a pathological case may require searching over 1024 possible
   ASIDs").  Returns the allocated ASID. *)
let asid_alloc ctx st pool ~pool_slot pd =
  let rec search i =
    if i >= asid_pool_size then None
    else begin
      Ctx.exec ctx Layout.R.asid_ops Costs.asid_search_per_slot_instrs;
      Ctx.load ctx (pool.ap_addr + (4 * i));
      match pool.ap_entries.(i) with
      | None ->
          pool.ap_entries.(i) <- Some pd;
          Ctx.store ctx (pool.ap_addr + (4 * i));
          let asid = (pool_slot * asid_pool_size) + i in
          pd.pd_asid <- Some asid;
          Ctx.store ctx pd.pd_addr;
          Some asid
      | Some _ -> search (i + 1)
    end
  in
  assert (match st.table.(pool_slot) with Some p -> p == pool | None -> false);
  search 0

(* O(1) address-space deletion in the ASID design: drop the table entry
   and invalidate the TLB; frame caps keep stale references. *)
let asid_delete_vspace ctx st pd =
  match pd.pd_asid with
  | None -> ()
  | Some asid -> (
      Ctx.exec ctx Layout.R.asid_ops Costs.asid_lookup_instrs;
      match st.table.(asid_pool_index asid) with
      | None -> ()
      | Some pool ->
          pool.ap_entries.(asid_entry_index asid) <- None;
          Ctx.store ctx (pool.ap_addr + (4 * asid_entry_index asid));
          pd.pd_asid <- None;
          Ctx.store ctx pd.pd_addr;
          Ctx.exec ctx Layout.R.asid_ops Costs.tlb_invalidate_instrs)

(* Deleting a whole pool visits every address space in it — unpreemptible
   in the original design (Section 3.6). *)
let asid_pool_delete ctx st ~pool_slot =
  match st.table.(pool_slot) with
  | None -> ()
  | Some pool ->
      for i = 0 to asid_pool_size - 1 do
        Ctx.exec ctx Layout.R.asid_ops Costs.asid_search_per_slot_instrs;
        Ctx.load ctx (pool.ap_addr + (4 * i));
        match pool.ap_entries.(i) with
        | None -> ()
        | Some pd ->
            pd.pd_asid <- None;
            Ctx.store ctx pd.pd_addr;
            pool.ap_entries.(i) <- None;
            Ctx.store ctx (pool.ap_addr + (4 * i))
      done;
      Ctx.exec ctx Layout.R.asid_ops Costs.tlb_invalidate_instrs;
      st.table.(pool_slot) <- None;
      Ctx.store ctx (Layout.asid_table_base + (4 * pool_slot))

(* --- kernel global mappings (both designs) --- *)

(* Copy the kernel's global mappings into a fresh page directory: 256
   entries, 1 KiB of copying, deliberately *not* preemptible — the 20 us
   latency the paper measured and tolerated (Section 3.5). *)
let copy_kernel_mappings ctx pd =
  assert (not pd.pd_kernel_mapped);
  Ctx.exec ctx Layout.R.pd_create (Costs.clear_line_instrs * (1024 / 32));
  Ctx.load_block ctx Layout.data_base 1024;
  Ctx.store_block ctx (pde_addr pd kernel_pde_first) 1024;
  for i = kernel_pde_first to pd_entries_count - 1 do
    pd.pd_entries.(i) <- Pde_kernel
  done;
  pd.pd_kernel_mapped <- true

(* --- mapping --- *)

type map_error =
  | Already_mapped
  | No_page_table
  | Pde_occupied
  | Bad_vspace
  | Kernel_region

exception Vm_error of map_error

let require cond err = if not cond then raise (Vm_error err)

let resolve_vspace ctx build asid_state (cap : cap) =
  match (cap, build.Build.vspace) with
  | Page_directory_cap { pd; pdc_asid = Some asid }, Build.Asid_table -> (
      match asid_lookup ctx asid_state asid with
      | Some pd' when pd' == pd -> pd
      | _ -> raise (Vm_error Bad_vspace))
  | Page_directory_cap { pd; _ }, Build.Shadow_tables -> pd
  | _ -> raise (Vm_error Bad_vspace)

let map_page_table ctx pd ~vaddr (pt_cap : pt_cap_data) =
  let i = pd_index vaddr in
  require (i < kernel_pde_first) Kernel_region;
  require (pt_cap.ptc_mapping = None) Already_mapped;
  Ctx.exec ctx Layout.R.vspace_map Costs.pte_update_instrs;
  Ctx.load ctx (pde_addr pd i);
  require (pd.pd_entries.(i) = Pde_invalid) Pde_occupied;
  pd.pd_entries.(i) <- Pde_page_table pt_cap.pt;
  Ctx.store ctx (pde_addr pd i);
  pt_cap.pt.pt_mapped_in <- Some (pd, i);
  Ctx.store ctx pt_cap.pt.pt_addr;
  pt_cap.ptc_mapping <- Some (pd, i);
  if i < pd.pd_lowest_mapped then pd.pd_lowest_mapped <- i

(* Map a frame cap at [vaddr].  The mapping reference stored in the cap —
   ASID or direct pointer — is the crux of Section 3.6. *)
let map_frame ctx build (fc : frame_cap_data) ~slot pd ~vaddr =
  require (fc.fc_mapping = None) Already_mapped;
  require (pd_index vaddr < kernel_pde_first) Kernel_region;
  Ctx.exec ctx Layout.R.vspace_map Costs.pte_update_instrs;
  let vref =
    match build.Build.vspace with
    | Build.Asid_table -> (
        match pd.pd_asid with
        | Some asid -> Via_asid asid
        | None -> raise (Vm_error Bad_vspace))
    | Build.Shadow_tables -> Direct pd
  in
  if fc.frame.f_size_bits >= pt_coverage_bits then begin
    (* Section mapping directly in the page directory. *)
    let i = pd_index vaddr in
    Ctx.load ctx (pde_addr pd i);
    require (pd.pd_entries.(i) = Pde_invalid) Pde_occupied;
    pd.pd_entries.(i) <- Pde_section fc.frame;
    Ctx.store ctx (pde_addr pd i);
    if build.Build.vspace = Build.Shadow_tables then begin
      pd.pd_shadow.(i) <- Some slot;
      Ctx.store ctx (pde_shadow_addr pd i)
    end;
    if i < pd.pd_lowest_mapped then pd.pd_lowest_mapped <- i
  end
  else begin
    let i = pd_index vaddr in
    Ctx.load ctx (pde_addr pd i);
    match pd.pd_entries.(i) with
    | Pde_page_table pt ->
        let j = pt_index vaddr in
        Ctx.load ctx (pte_addr pt j);
        require (pt.pt_entries.(j) = Pte_invalid) Pde_occupied;
        pt.pt_entries.(j) <- Pte_frame fc.frame;
        Ctx.store ctx (pte_addr pt j);
        if build.Build.vspace = Build.Shadow_tables then begin
          pt.pt_shadow.(j) <- Some slot;
          Ctx.store ctx (pte_shadow_addr pt j)
        end;
        if j < pt.pt_lowest_mapped then pt.pt_lowest_mapped <- j
    | _ -> raise (Vm_error No_page_table)
  end;
  fc.fc_mapping <- Some { fm_vspace = vref; fm_vaddr = vaddr }

(* Unmap one frame cap.  In the ASID design the reference may be stale:
   the mapping is checked against the frame before being cleared ("it can
   be simply checked that the mapping in the address space (if any still
   exist) agrees with the frame cap"). *)
let unmap_frame ctx build asid_state (fc : frame_cap_data) =
  match fc.fc_mapping with
  | None -> ()
  | Some { fm_vspace; fm_vaddr } ->
      Ctx.exec ctx Layout.R.vspace_unmap Costs.unmap_entry_instrs;
      let pd_opt =
        match fm_vspace with
        | Via_asid asid -> asid_lookup ctx asid_state asid
        | Direct pd -> Some pd
      in
      (match pd_opt with
      | None -> () (* stale ASID: harmless dangling reference *)
      | Some pd -> (
          let i = pd_index fm_vaddr in
          Ctx.load ctx (pde_addr pd i);
          match pd.pd_entries.(i) with
          | Pde_section f when f == fc.frame ->
              pd.pd_entries.(i) <- Pde_invalid;
              Ctx.store ctx (pde_addr pd i);
              if build.Build.vspace = Build.Shadow_tables then begin
                pd.pd_shadow.(i) <- None;
                Ctx.store ctx (pde_shadow_addr pd i)
              end;
              Ctx.exec ctx Layout.R.vspace_unmap Costs.tlb_invalidate_instrs
          | Pde_page_table pt -> (
              let j = pt_index fm_vaddr in
              Ctx.load ctx (pte_addr pt j);
              match pt.pt_entries.(j) with
              | Pte_frame f when f == fc.frame ->
                  pt.pt_entries.(j) <- Pte_invalid;
                  Ctx.store ctx (pte_addr pt j);
                  if build.Build.vspace = Build.Shadow_tables then begin
                    pt.pt_shadow.(j) <- None;
                    Ctx.store ctx (pte_shadow_addr pt j)
                  end;
                  Ctx.exec ctx Layout.R.vspace_unmap Costs.tlb_invalidate_instrs
              | _ -> () (* mapping disagrees: stale, ignore *))
          | _ -> ()));
      fc.fc_mapping <- None

(* Clear one page-table entry during teardown, following the shadow
   back-pointer to purge the frame cap's mapping info eagerly. *)
let clear_pte ctx pt j =
  Ctx.exec ctx Layout.R.vspace_delete Costs.unmap_entry_instrs;
  Ctx.load ctx (pte_addr pt j);
  (match pt.pt_shadow.(j) with
  | Some slot -> (
      Ctx.load ctx (pte_shadow_addr pt j);
      match slot.cap with
      | Frame_cap fc ->
          fc.fc_mapping <- None;
          Ctx.store ctx (Cdt.slot_addr slot)
      | _ -> ())
  | None -> ());
  pt.pt_entries.(j) <- Pte_invalid;
  pt.pt_shadow.(j) <- None;
  Ctx.store ctx (pte_addr pt j);
  Ctx.store ctx (pte_shadow_addr pt j);
  if Ctx.tracing ctx then
    Ctx.emit ctx (Obs.Trace.Vspace_unmap { addr = pte_addr pt j })

(* Tear down all mappings of a page table, resuming from the memoised
   lowest mapped index; one preemption point per entry (Section 3.6: "the
   natural preemption point in the deletion path is to preempt after
   unmapping each entry"). *)
let delete_page_table_mappings ctx pt =
  let rec loop j =
    if j >= pt_entries_count then begin
      pt.pt_lowest_mapped <- pt_entries_count;
      Done
    end
    else begin
      pt.pt_lowest_mapped <- j;
      if pt.pt_entries.(j) <> Pte_invalid || pt.pt_shadow.(j) <> None then begin
        clear_pte ctx pt j;
        if Ctx.preemption_point ctx then Preempted else loop (j + 1)
      end
      else loop (j + 1)
    end
  in
  let r = loop pt.pt_lowest_mapped in
  if r = Done then begin
    (match pt.pt_mapped_in with
    | Some (pd, i) ->
        pd.pd_entries.(i) <- Pde_invalid;
        Ctx.store ctx (pde_addr pd i);
        pt.pt_mapped_in <- None
    | None -> ());
    pt.pt_lowest_mapped <- 0;
    Ctx.exec ctx Layout.R.vspace_delete Costs.tlb_invalidate_instrs
  end;
  r

(* Tear down an address space in the shadow design: unmap every section
   and every page table, one entry at a time with preemption points.
   The shadow design has no harmless dangling references, so a page table
   reached through the directory is emptied *eagerly* — clearing its
   entries and the mapped frame caps' back-pointers — before its slot in
   the directory goes away ("all mapping and unmapping operations, along
   with address space deletion must eagerly update all back-pointers",
   Section 3.6).  A preemption inside the nested table walk resumes
   through the memoised indices at both levels. *)
let delete_vspace_shadow ctx pd =
  let clear_section i =
    (match pd.pd_shadow.(i) with
    | Some slot -> (
        match slot.cap with Frame_cap fc -> fc.fc_mapping <- None | _ -> ())
    | None -> ());
    pd.pd_entries.(i) <- Pde_invalid;
    pd.pd_shadow.(i) <- None;
    Ctx.store ctx (pde_addr pd i);
    Ctx.store ctx (pde_shadow_addr pd i);
    if Ctx.tracing ctx then
      Ctx.emit ctx (Obs.Trace.Vspace_unmap { addr = pde_addr pd i })
  in
  let rec loop i =
    if i >= kernel_pde_first then begin
      pd.pd_lowest_mapped <- pd_entries_count;
      Done
    end
    else begin
      pd.pd_lowest_mapped <- i;
      Ctx.exec ctx Layout.R.vspace_delete Costs.unmap_entry_instrs;
      Ctx.load ctx (pde_addr pd i);
      match pd.pd_entries.(i) with
      | Pde_kernel -> loop (i + 1)
      | Pde_invalid ->
          if pd.pd_shadow.(i) <> None then clear_section i;
          loop (i + 1)
      | Pde_section _ ->
          clear_section i;
          if Ctx.preemption_point ctx then Preempted else loop (i + 1)
      | Pde_page_table pt -> (
          (* Nested preemptible walk; [pt_mapped_in] goes only once the
             table is empty, so a restart finds it again through the
             directory entry. *)
          match delete_page_table_mappings ctx pt with
          | Preempted -> Preempted
          | Done ->
              pd.pd_entries.(i) <- Pde_invalid;
              pd.pd_shadow.(i) <- None;
              Ctx.store ctx (pde_addr pd i);
              Ctx.store ctx (pde_shadow_addr pd i);
              if Ctx.preemption_point ctx then Preempted else loop (i + 1))
    end
  in
  let r = loop pd.pd_lowest_mapped in
  if r = Done then begin
    pd.pd_lowest_mapped <- 0;
    Ctx.exec ctx Layout.R.vspace_delete Costs.tlb_invalidate_instrs
  end;
  r

let pp_map_error ppf e =
  Fmt.string ppf
    (match e with
    | Already_mapped -> "already mapped"
    | No_page_table -> "no page table"
    | Pde_occupied -> "pde occupied"
    | Bad_vspace -> "bad vspace"
    | Kernel_region -> "kernel region")
