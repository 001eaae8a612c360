(** Virtual address-space management in both designs of Section 3.6:

    - [Asid_table]: frame caps name their address space through an ASID
      index; stale ASIDs are harmless (checked on use), making deletion
      O(1), but ASID allocation scans up to 1024 slots and pool teardown
      visits up to 1024 address spaces, unpreemptibly.
    - [Shadow_tables]: frame caps point directly at the page directory;
      page tables and directories carry shadow arrays of back-pointers to
      the frame-cap slots.  All state is exact and eager, so deletion
      walks the tables — one preemption point per entry, with the lowest
      mapped index memoised (incremental consistency). *)

open Ktypes

type progress = Done | Preempted

val pt_index : int -> int

(** {1 ASID table (original design)} *)

type asid_state = { table : asid_pool option array }

val create_asid_state : unit -> asid_state

val asid_alloc :
  Ctx.t -> asid_state -> asid_pool -> pool_slot:int -> page_directory ->
  int option
(** Find a free slot in the pool — the unpreemptible search the paper
    calls out.  Returns the allocated ASID. *)

val asid_delete_vspace : Ctx.t -> asid_state -> page_directory -> unit
(** O(1) deletion: drop the table entry and invalidate the TLB; frame caps
    keep harmless stale references. *)

val asid_pool_delete : Ctx.t -> asid_state -> pool_slot:int -> unit
(** The unpreemptible 1024-entry teardown of the original design. *)

(** {1 Kernel global mappings (both designs)} *)

val copy_kernel_mappings : Ctx.t -> page_directory -> unit
(** The 1 KiB copy into a fresh page directory — deliberately not
    preemptible (the tolerated ~20 us latency of Section 3.5). *)

(** {1 Mapping} *)

type map_error =
  | Already_mapped
  | No_page_table
  | Pde_occupied
  | Bad_vspace
  | Kernel_region

exception Vm_error of map_error

val resolve_vspace : Ctx.t -> Build.t -> asid_state -> cap -> page_directory
(** @raise Vm_error on a stale or invalid vspace reference. *)

val map_page_table : Ctx.t -> page_directory -> vaddr:int -> pt_cap_data -> unit
val map_frame :
  Ctx.t -> Build.t -> frame_cap_data -> slot:slot -> page_directory ->
  vaddr:int -> unit

val unmap_frame : Ctx.t -> Build.t -> asid_state -> frame_cap_data -> unit
(** In the ASID design the reference may be stale: the mapping is checked
    against the frame before being cleared. *)

(** {1 Preemptible teardown (shadow design)} *)

val delete_page_table_mappings : Ctx.t -> page_table -> progress
(** Clear every entry and its frame cap's back-pointer, one preemption
    point per entry, resuming from the memoised lowest mapped index. *)

val delete_vspace_shadow : Ctx.t -> page_directory -> progress
(** Eager whole-space teardown: sections and page tables, with nested
    preemptible page-table walks. *)

val pp_map_error : map_error Fmt.t
