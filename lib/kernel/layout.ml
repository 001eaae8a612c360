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
   budget, laid out contiguously in declaration order.  Both the executor
   and the WCET timing skeletons fetch from these addresses, so the two
   sides agree on instruction-cache behaviour by construction.  The total
   is in the region of the real kernel's 36 KiB text. *)

type code_region = { name : string; base : int; instrs : int }

let declared =
  [
    ("vector_entry", 64);
    ("vector_exit", 64);
    ("decode", 48);
    ("cspace_lookup", 64);
    ("fastpath", 128);
    ("slowpath_ipc", 256);
    ("transfer_caps", 96);
    ("sched_enqueue", 32);
    ("sched_dequeue", 32);
    ("sched_choose", 64);
    ("sched_bitmap", 32);
    ("context_switch", 64);
    ("set_thread_state", 24);
    ("endpoint_queue", 48);
    ("endpoint_delete", 96);
    ("badge_abort", 96);
    ("untyped_retype", 160);
    ("clear_memory", 48);
    ("vspace_map", 160);
    ("vspace_unmap", 128);
    ("vspace_delete", 128);
    ("asid_ops", 96);
    ("pd_create", 96);
    ("cdt_ops", 96);
    ("cnode_ops", 128);
    ("tcb_ops", 96);
    ("irq_path", 96);
    ("irq_control", 64);
    ("preempt_check", 16);
    ("fault_path", 96);
  ]

let regions : (string * code_region) list =
  let next = ref text_base in
  List.map
    (fun (name, instrs) ->
      let base = !next in
      (* Round each function to a 32-byte line boundary. *)
      next := base + (((instrs * 4) + 31) / 32 * 32);
      (name, { name; base; instrs }))
    declared

(* Lookup by name, for the analysis side (timing skeletons name their
   regions); the simulator's charge sites use {!R} instead. *)
let by_name : (string, code_region) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, r) -> Hashtbl.replace tbl name r) regions;
  tbl

let code name =
  try Hashtbl.find by_name name
  with Not_found -> invalid_arg ("Layout.code: unknown region " ^ name)

(* One resolved region per entry of [declared], bound once at module
   initialisation: the kernel's charge sites pass these values, so no
   charge looks a region up by name. *)
module R = struct
  let vector_entry = code "vector_entry"
  let vector_exit = code "vector_exit"
  let decode = code "decode"
  let cspace_lookup = code "cspace_lookup"
  let fastpath = code "fastpath"
  let slowpath_ipc = code "slowpath_ipc"
  let transfer_caps = code "transfer_caps"
  let sched_enqueue = code "sched_enqueue"
  let sched_dequeue = code "sched_dequeue"
  let sched_choose = code "sched_choose"
  let sched_bitmap = code "sched_bitmap"
  let context_switch = code "context_switch"
  let set_thread_state = code "set_thread_state"
  let endpoint_queue = code "endpoint_queue"
  let endpoint_delete = code "endpoint_delete"
  let badge_abort = code "badge_abort"
  let untyped_retype = code "untyped_retype"
  let clear_memory = code "clear_memory"
  let vspace_map = code "vspace_map"
  let vspace_unmap = code "vspace_unmap"
  let vspace_delete = code "vspace_delete"
  let asid_ops = code "asid_ops"
  let pd_create = code "pd_create"
  let cdt_ops = code "cdt_ops"
  let cnode_ops = code "cnode_ops"
  let tcb_ops = code "tcb_ops"
  let irq_path = code "irq_path"
  let irq_control = code "irq_control"
  let preempt_check = code "preempt_check"
  let fault_path = code "fault_path"
end

let text_bytes =
  List.fold_left (fun acc (_, r) -> acc + (((r.instrs * 4) + 31) / 32 * 32)) 0
    regions
