(* Synthetic address layout of the simulated kernel.

   Cache behaviour depends only on addresses, so a deterministic layout
   suffices.  Mirrors the paper's platform: the kernel owns the top 256 MiB
   of the virtual address space; its text is small (the compiled seL4 is
   36 KiB); the kernel stack and key globals are what Section 4 pins. *)

let kernel_base = 0xF000_0000

(* Code: one region per kernel function, allocated contiguously. *)
let text_base = kernel_base

(* Kernel stack (seL4 is event-based: one stack). *)
let stack_base = 0xF010_0000
let stack_bytes = 4096

(* Global kernel data: scheduler queues, priority bitmaps, IRQ state. *)
let data_base = 0xF020_0000

(* Scheduler run-queue heads: 256 priorities * 8 bytes (head/tail). *)
let run_queue_base = data_base
let run_queue_entry_bytes = 8
let run_queue_entry prio = run_queue_base + (prio * run_queue_entry_bytes)

(* Two-level priority bitmap: one top word + 8 bucket words. *)
let bitmap_top = data_base + 0x1000
let bitmap_bucket i = data_base + 0x1020 + (i * 4)

(* Current-thread pointer, IRQ pending word and handler table. *)
let cur_thread_ptr = data_base + 0x2000
let irq_pending_word = data_base + 0x2010
let irq_handler_table = data_base + 0x2020

(* ASID lookup table root (original design, Section 3.6). *)
let asid_table_base = data_base + 0x3000

(* Physical memory that untyped objects carve up: 128 MiB as on the KZM
   board. *)
let phys_base = 0x0000_0000
let phys_bytes = 128 * 1024 * 1024

(* Code regions: one per kernel function, with a fixed instruction-space
   budget, laid out contiguously in declaration order, each rounded to a
   32-byte line.  Both the executor and the WCET timing skeletons name
   these values, so the two sides agree on instruction-cache behaviour by
   construction.  The total is in the region of the real kernel's 36 KiB
   text. *)

type code_region = { name : string; base : int; instrs : int }

let text_end = ref text_base

let region name instrs =
  let base = !text_end in
  text_end := base + (((instrs * 4) + 31) / 32 * 32);
  { name; base; instrs }

module R = struct
  let vector_entry = region "vector_entry" 64
  let vector_exit = region "vector_exit" 64
  let decode = region "decode" 48
  let cspace_lookup = region "cspace_lookup" 64
  let fastpath = region "fastpath" 128
  let slowpath_ipc = region "slowpath_ipc" 256
  let transfer_caps = region "transfer_caps" 96
  let sched_enqueue = region "sched_enqueue" 32
  let sched_dequeue = region "sched_dequeue" 32
  let sched_choose = region "sched_choose" 64
  let sched_bitmap = region "sched_bitmap" 32
  let context_switch = region "context_switch" 64
  let set_thread_state = region "set_thread_state" 24
  let endpoint_queue = region "endpoint_queue" 48
  let endpoint_delete = region "endpoint_delete" 96
  let badge_abort = region "badge_abort" 96
  let untyped_retype = region "untyped_retype" 160
  let clear_memory = region "clear_memory" 48
  let vspace_map = region "vspace_map" 160
  let vspace_unmap = region "vspace_unmap" 128
  let vspace_delete = region "vspace_delete" 128
  let asid_ops = region "asid_ops" 96
  let pd_create = region "pd_create" 96
  let cdt_ops = region "cdt_ops" 96
  let cnode_ops = region "cnode_ops" 128
  let tcb_ops = region "tcb_ops" 96
  let irq_path = region "irq_path" 96
  let irq_control = region "irq_control" 64
  let preempt_check = region "preempt_check" 16
  let fault_path = region "fault_path" 96
end

let text_bytes = !text_end - text_base
