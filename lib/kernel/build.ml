(* Kernel build configuration: the paper's "before" and "after" kernels.

   The EuroSys'12 paper modifies seL4 in four independent dimensions; each
   is a switch here so that Table 2's before/after comparison — and
   per-dimension ablations — run against the same code base:

   - scheduler: lazy scheduling (Figure 2), Benno scheduling (Figure 3), or
     Benno scheduling plus the two-level CLZ priority bitmap (Section 3.2);
   - address spaces: the original ASID lookup table or the shadow
     page-table design (Section 3.6);
   - preemption points in endpoint deletion, badged aborts, object
     creation and address-space deletion (Sections 3.3-3.6);
   - the preemption granularity of block clear/copy operations (1 KiB,
     chosen because the unpreemptible kernel-mapping copy is 1 KiB). *)

type sched_variant = Lazy | Benno | Benno_bitmap

type vspace_model = Asid_table | Shadow_tables

type t = {
  sched : sched_variant;
  vspace : vspace_model;
  preemption_points : bool;
  preempt_chunk : int;  (* bytes cleared/copied between preemption points *)
}

(* The original seL4 of the "before" column of Table 2. *)
let original =
  {
    sched = Lazy;
    vspace = Asid_table;
    preemption_points = false;
    preempt_chunk = 1024;
  }

(* The modified kernel of the "after" columns. *)
let improved =
  {
    sched = Benno_bitmap;
    vspace = Shadow_tables;
    preemption_points = true;
    preempt_chunk = 1024;
  }

(* The one spelling of each scheduler variant in labels and cache keys. *)
let sched_name = function
  | Lazy -> "lazy"
  | Benno -> "benno"
  | Benno_bitmap -> "benno_bitmap"

let pp ppf t =
  Fmt.pf ppf "sched=%s vspace=%s preempt=%b chunk=%d"
    (match t.sched with
    | Lazy -> "lazy"
    | Benno -> "benno"
    | Benno_bitmap -> "benno+bitmap")
    (match t.vspace with
    | Asid_table -> "asid"
    | Shadow_tables -> "shadow")
    t.preemption_points t.preempt_chunk
