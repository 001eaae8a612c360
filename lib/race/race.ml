(* Static interference analysis over preemption-delimited sections.

   Every preemption-delimited section of the four long-running operations
   (Sections 3.3-3.6) and the IRQ-delivery path declares a read/write
   footprint over abstract kernel state variables.  The variables are
   anchored on the concrete state the kernel manipulates — fields of
   [Kernel.t], the objects in its registry, and the globals of [Layout]:

     Tcb          per-TCB fields (state, restart flag, queue links, regs)
     Endpoint     endpoint queues, active flag, abort cursor
     Notification notification word, active flag, wait queue
     Cap          capability slots: the cap value and its CDT parent
     Cdt_links    CDT sibling/first-child links (bookkeeping only:
                  invisible to the canonical state digest)
     Untyped      untyped watermark and in-progress creation cursor
     Frame        frame contents and clearing progress
     Page_table   PTEs, shadow slots, mapping back-pointers
     Page_dir     PDEs, shadow slots, ASID binding
     Asid_pool    ASID pool entries
     Asid_table   the global ASID lookup table (Layout.asid_table_base)
     Sched_queues run queues and the priority bitmap (Layout.run_queue_base)
     Cur_thread   the current-thread pointer (Layout.cur_thread_ptr)
     Irq_state    pending word and handler table (Layout.irq_pending_word)
     Kernel_stack the single kernel stack (Layout.stack_base)

   Two sections interfere when their footprints overlap on a variable at
   least one of them writes.  Variables are split into *semantic* ones —
   those rendered into the canonical state digest ({!Sel4.Digest}) — and
   scheduler bookkeeping (run queues, current thread, CDT link order,
   stack, IRQ words), which every section touches but which is invisible
   to user level and excluded from the digest by design.  The semantic
   interference relation is what the DPOR explorer prunes with; the full
   relation is reported alongside it.

   The declared footprints are audited against reality: the campaign's
   preempt-everywhere replay of each operation ({!Explore.audit}) logs
   every data load and store of its kernel entries, and {!audit_add}
   fails any that classifies to a variable outside the executing
   section's declared footprint. *)

(* --- the operations --- *)

type op = Ep_delete | Badged_abort | Retype_clear | Vspace_delete

let ops = [ Ep_delete; Badged_abort; Retype_clear; Vspace_delete ]

let op_name = function
  | Ep_delete -> "ep_delete"
  | Badged_abort -> "badged_abort"
  | Retype_clear -> "retype_clear"
  | Vspace_delete -> "vspace_delete"

type cls =
  | Tcb
  | Endpoint
  | Notification
  | Cap
  | Cdt_links
  | Untyped
  | Frame
  | Page_table
  | Page_dir
  | Asid_pool
  | Asid_table
  | Sched_queues
  | Cur_thread
  | Irq_state
  | Kernel_stack

let cls_name = function
  | Tcb -> "tcb"
  | Endpoint -> "endpoint"
  | Notification -> "notification"
  | Cap -> "cap"
  | Cdt_links -> "cdt_links"
  | Untyped -> "untyped"
  | Frame -> "frame"
  | Page_table -> "page_table"
  | Page_dir -> "page_dir"
  | Asid_pool -> "asid_pool"
  | Asid_table -> "asid_table"
  | Sched_queues -> "sched_queues"
  | Cur_thread -> "cur_thread"
  | Irq_state -> "irq_state"
  | Kernel_stack -> "kernel_stack"

(* A variable is semantic when it is rendered into the canonical state
   digest: changes to it are observable in a final-state comparison.
   Scheduler bookkeeping is excluded from the digest by design (lazy
   scheduling parks blocked threads in the queues), and so is the CDT
   sibling order — only the cap value and parent survive. *)
let semantic = function
  | Tcb | Endpoint | Notification | Cap | Untyped | Frame | Page_table
  | Page_dir | Asid_pool | Asid_table ->
      true
  | Cdt_links | Sched_queues | Cur_thread | Irq_state | Kernel_stack -> false

(* --- footprints --- *)

type access = { a_cls : cls; a_obj : int option; a_write : bool }
(* [a_obj = None] means "any instance of the class" (the class-level
   catalogue); instantiated footprints (the explorer's) name object ids —
   or root-CNode slot indices for [Cap]. *)

type footprint = access list

let r ?obj cls = { a_cls = cls; a_obj = obj; a_write = false }
let w ?obj cls = { a_cls = cls; a_obj = obj; a_write = true }
let rw ?obj cls = [ r ?obj cls; w ?obj cls ]

(* Two accesses touch the same variable when the class matches and the
   instances can coincide ([None] = any instance). *)
let overlaps a b =
  a.a_cls = b.a_cls
  &&
  match (a.a_obj, b.a_obj) with
  | None, _ | _, None -> true
  | Some i, Some j -> i = j

let conflicts ?(semantic_only = false) (f1 : footprint) (f2 : footprint) =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            overlaps a b
            && (a.a_write || b.a_write)
            && ((not semantic_only) || semantic a.a_cls)
          then Some (a, b)
          else None)
        f2)
    f1

let independent ?semantic_only f1 f2 = conflicts ?semantic_only f1 f2 = []

(* --- the section catalogue --- *)

type section = { sec_name : string; sec_op : op option; sec_fp : footprint }

let step op fp =
  { sec_name = op_name op ^ ".step"; sec_op = Some op; sec_fp = fp }

let finalise op fp =
  { sec_name = op_name op ^ ".finalise"; sec_op = Some op; sec_fp = fp }

(* Every kernel entry shares the entry/exit overhead: the stack save and
   restore, a capability lookup during decode, and the pending-word load
   at each preemption poll. *)
let overhead = rw Kernel_stack @ [ r Cap; r Irq_state ]

let catalogue : section list =
  [
    (* §3.3: one waiter dequeued and woken per preemption point. *)
    step Ep_delete (overhead @ rw Endpoint @ rw Tcb @ rw Sched_queues);
    (* The final entry also retires the capability: slot cleared, CDT
       unlinked. *)
    finalise Ep_delete
      (overhead @ rw Endpoint @ rw Tcb @ rw Sched_queues
      @ [ w Cap; w Cdt_links ]);
    (* §3.4: the abort cursor scans one queued sender per point, waking
       badge matches. *)
    step Badged_abort (overhead @ rw Endpoint @ rw Tcb @ rw Sched_queues);
    finalise Badged_abort (overhead @ rw Endpoint @ rw Tcb @ rw Sched_queues);
    (* §3.5: one chunk of the new objects cleared per point; the watermark
       and creation cursor live in the untyped. *)
    step Retype_clear (overhead @ rw Untyped @ [ w Frame ]);
    (* The final entry installs the created caps into their slots. *)
    finalise Retype_clear
      (overhead @ rw Untyped @ [ w Frame; w Cap; w Cdt_links ]);
    (* §3.6: one mapping entry unwound per point (shadow design); frame
       caps' mapping slots are rewritten as entries die. *)
    step Vspace_delete (overhead @ rw Page_dir @ rw Page_table @ [ w Cap ]);
    (* Completion releases the ASID and retires the PD cap. *)
    finalise Vspace_delete
      (overhead @ rw Page_dir @ rw Page_table @ rw Asid_pool @ rw Asid_table
      @ [ w Cap; w Cdt_links ]);
    (* The IRQ-delivery path taken after a preemption: acknowledge, requeue
       the preempted thread (timer tick), reschedule, restore the stack.
       With no handler registered it touches no semantic state beyond the
       restart flag (Tcb). *)
    {
      sec_name = "irq.deliver";
      sec_op = None;
      sec_fp =
        rw Kernel_stack @ rw Sched_queues @ rw Tcb
        @ [ r Irq_state; w Cur_thread ];
    };
    (* A bound handler adds the seL4 delivery mechanism: signal the
       handler notification, or hand off to a receiver queued on the
       handler endpoint. *)
    {
      sec_name = "irq.deliver_bound";
      sec_op = None;
      sec_fp =
        rw Kernel_stack @ rw Sched_queues @ rw Tcb @ rw Endpoint
        @ [ r Irq_state; w Cur_thread; w Notification; r Cap ];
    };
  ]

let section_exn name =
  match List.find_opt (fun s -> s.sec_name = name) catalogue with
  | Some s -> s
  | None -> invalid_arg ("Race.section_exn: unknown section " ^ name)

let interferes ?semantic_only s1 s2 =
  conflicts ?semantic_only s1.sec_fp s2.sec_fp
  |> List.map (fun (a, _) -> a.a_cls)
  |> List.sort_uniq compare

(* --- the pairwise interference matrix --- *)

type pair = {
  p_left : string;
  p_right : string;
  p_classes : cls list;  (* conflicting classes, full relation *)
  p_semantic : cls list;  (* the digest-visible subset *)
}

let matrix () =
  let rec go acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let acc =
          List.fold_left
            (fun acc s' ->
              let full = interferes s s' in
              if full = [] then acc
              else
                {
                  p_left = s.sec_name;
                  p_right = s'.sec_name;
                  p_classes = full;
                  p_semantic = interferes ~semantic_only:true s s';
                }
                :: acc)
            acc rest
        in
        go acc rest
  in
  go [] catalogue

(* --- Owicki-Gries non-interference report --- *)

(* What each operation's progress measure reads (the [d_measure] closures
   of the campaign's drivers): the variables whose perturbation could
   break the strict-decrease restart guarantee. *)
let measure_reads = function
  | Ep_delete | Badged_abort -> [ Endpoint ]
  | Retype_clear -> [ Untyped; Frame ]
  | Vspace_delete -> [ Page_table; Page_dir ]

type og_row = {
  og_op : op;
  og_reads : cls list;  (* the progress measure's read set *)
  og_perturbers : string list;
      (* foreign sections writing into it: the interference an O-G proof
         must reason about *)
  og_safe : string list;  (* foreign sections proven non-interfering *)
}

let og_report () =
  List.map
    (fun op ->
      let reads = measure_reads op in
      let foreign = List.filter (fun s -> s.sec_op <> Some op) catalogue in
      let writes_measure s =
        List.exists
          (fun a -> a.a_write && List.mem a.a_cls reads)
          s.sec_fp
      in
      let perturbers, safe = List.partition writes_measure foreign in
      {
        og_op = op;
        og_reads = reads;
        og_perturbers = List.map (fun s -> s.sec_name) perturbers;
        og_safe = List.map (fun s -> s.sec_name) safe;
      })
    ops

(* --- metrics --- *)

let m_sections = Obs.Metrics.counter "race.sections"
let m_pairs = Obs.Metrics.counter "race.pairs_interfering"
let m_audit_runs = Obs.Metrics.counter "race.audit_runs"
let m_audit_accesses = Obs.Metrics.counter "race.audit_accesses"
let m_audit_violations = Obs.Metrics.counter "race.audit_violations"

(* --- footprint audit --- *)

(* Address classification: globals by the [Layout] map, objects by their
   registered address ranges.  Object ranges nest (frames are carved out
   of untypeds), so the smallest containing range wins. *)

type range = { lo : int; hi : int; r_cls : cls }

let globals =
  let d = Sel4.Layout.data_base in
  [
    { lo = Sel4.Layout.run_queue_base; hi = d + 0x2000; r_cls = Sched_queues };
    { lo = Sel4.Layout.cur_thread_ptr; hi = d + 0x2010; r_cls = Cur_thread };
    { lo = Sel4.Layout.irq_pending_word; hi = d + 0x3000; r_cls = Irq_state };
    { lo = Sel4.Layout.asid_table_base; hi = d + 0x4000; r_cls = Asid_table };
    (* Harness-owned root slots (Cdt.slot_addr for slots outside any
       CNode). *)
    { lo = d + 0x8000; hi = d + 0x9000; r_cls = Cap };
    {
      lo = Sel4.Layout.stack_base;
      hi = Sel4.Layout.stack_base + Sel4.Layout.stack_bytes;
      r_cls = Kernel_stack;
    };
  ]

let cls_of_object = function
  | Sel4.Ktypes.Any_tcb _ -> Tcb
  | Any_endpoint _ -> Endpoint
  | Any_notification _ -> Notification
  | Any_cnode _ -> Cap
  | Any_untyped _ -> Untyped
  | Any_frame _ -> Frame
  | Any_page_table _ -> Page_table
  | Any_page_directory _ -> Page_dir
  | Any_asid_pool _ -> Asid_pool

let range_of_object obj =
  let lo = Sel4.Objects.addr_of obj in
  { lo; hi = lo + Sel4.Objects.size_of obj; r_cls = cls_of_object obj }

(* [classify ranges addr] — smallest containing range, or None. *)
let classify ranges addr =
  List.fold_left
    (fun best r ->
      if addr >= r.lo && addr < r.hi then
        match best with
        | Some b when b.hi - b.lo <= r.hi - r.lo -> best
        | _ -> Some r
      else best)
    None ranges

(* Does [fp] cover an observed access to [cls]?  Slot addresses cannot be
   attributed to the cap value vs. the CDT links by address alone, so an
   observed [Cap] access is covered by either declaration. *)
let covers fp cls ~write =
  let matches c = c = cls || (cls = Cap && c = Cdt_links) in
  List.exists (fun a -> matches a.a_cls && (a.a_write || not write)) fp

type audit_violation = {
  av_section : string;
  av_cls : cls;
  av_write : bool;
  av_addr : int;
}

type audit_report = {
  ar_runs : int;
  ar_entries : int;
  ar_accesses : int;
  ar_violations : audit_violation list;
}

let audit_ok a = a.ar_violations = []

let audit_empty =
  { ar_runs = 0; ar_entries = 0; ar_accesses = 0; ar_violations = [] }

type entry_log = { el_section : (int * bool) list; el_irq : (int * bool) list }

(* One replay of [op] preempted at *every* poll, so each kernel entry
   executes exactly one preemption-delimited section.  What an entry
   accessed before its poll fired belongs to the operation's section (the
   finalise section on the last entry, which completes); everything after
   it (the unwind, the interrupt handler, the exit path) to the
   IRQ-delivery path.  Windows are numbered 2*entry for the section and
   2*entry+1 for the IRQ tail; each (window, address, direction) counts
   once. *)
let audit_add ?(catalogue = catalogue) report op ~objects entries =
  let fp name = (List.find (fun s -> s.sec_name = name) catalogue).sec_fp in
  let step_name = op_name op ^ ".step" in
  let final_name = op_name op ^ ".finalise" in
  let step_fp = fp step_name in
  let final_fp = step_fp @ fp final_name in
  let irq_fp = fp "irq.deliver" in
  let ranges =
    let seen = Hashtbl.create 64 in
    globals
    @ List.filter_map
        (fun obj ->
          let id = Sel4.Objects.id_of obj in
          if Hashtbl.mem seen id then None
          else begin
            Hashtbl.add seen id ();
            Some (range_of_object obj)
          end)
        objects
  in
  let last = List.length entries - 1 in
  let seen = Hashtbl.create 256 in
  let accesses = ref 0 in
  let violations = ref [] in
  let check window (name, fp) (addr, write) =
    if not (Hashtbl.mem seen (window, addr, write)) then begin
      Hashtbl.add seen (window, addr, write) ();
      incr accesses;
      let escaped =
        match classify ranges addr with
        | None -> Some Kernel_stack
        | Some r -> if covers fp r.r_cls ~write then None else Some r.r_cls
      in
      Option.iter
        (fun cls ->
          violations :=
            {
              av_section = name;
              av_cls = cls;
              av_write = write;
              av_addr = addr;
            }
            :: !violations)
        escaped
    end
  in
  List.iteri
    (fun i e ->
      let section =
        if i = last then (final_name, final_fp) else (step_name, step_fp)
      in
      List.iter (check (2 * i) section) e.el_section;
      List.iter (check ((2 * i) + 1) ("irq.deliver", irq_fp)) e.el_irq)
    entries;
  Obs.Metrics.incr m_audit_runs;
  Obs.Metrics.incr ~by:!accesses m_audit_accesses;
  Obs.Metrics.incr ~by:(List.length !violations) m_audit_violations;
  Obs.Metrics.set_counter m_sections (List.length catalogue);
  Obs.Metrics.set_counter m_pairs (List.length (matrix ()));
  {
    ar_runs = report.ar_runs + 1;
    ar_entries = report.ar_entries + (2 * last) + 1;
    ar_accesses = report.ar_accesses + !accesses;
    ar_violations = report.ar_violations @ List.rev !violations;
  }

(* --- rendering --- *)

let pp_matrix ppf () =
  let pairs = matrix () in
  Fmt.pf ppf "interference matrix: %d sections, %d interfering pairs@."
    (List.length catalogue) (List.length pairs);
  List.iter
    (fun p ->
      Fmt.pf ppf "  %-22s x %-22s %s%s@." p.p_left p.p_right
        (String.concat "," (List.map cls_name p.p_classes))
        (match p.p_semantic with
        | [] -> "  [commutes on digest-visible state]"
        | sem ->
            Fmt.str "  [semantic: %s]"
              (String.concat "," (List.map cls_name sem))))
    pairs

let pp_og ppf () =
  Fmt.pf ppf "progress-measure non-interference (Owicki-Gries):@.";
  List.iter
    (fun row ->
      Fmt.pf ppf "  %-14s measure reads {%s}@." (op_name row.og_op)
        (String.concat "," (List.map cls_name row.og_reads));
      Fmt.pf ppf "    can perturb:   %s@."
        (if row.og_perturbers = [] then "-"
         else String.concat ", " row.og_perturbers);
      Fmt.pf ppf "    proven safe:   %s@."
        (if row.og_safe = [] then "-" else String.concat ", " row.og_safe))
    (og_report ())

let pp_audit ppf a =
  Fmt.pf ppf
    "footprint audit: %d runs, %d entries, %d distinct accesses, %d \
     violations@."
    a.ar_runs a.ar_entries a.ar_accesses
    (List.length a.ar_violations);
  List.iter
    (fun v ->
      Fmt.pf ppf "  VIOLATION %s: %s %s at %#x escapes declared footprint@."
        v.av_section
        (if v.av_write then "write" else "read")
        (cls_name v.av_cls) v.av_addr)
    a.ar_violations

let to_json audit_report =
  let open Obs.Json in
  let classes l = list (fun c -> Str (cls_name c)) l in
  let strings l = list (fun x -> Str x) l in
  let section s =
    let fp write =
      classes
        (List.filter_map
           (fun a -> if a.a_write = write then Some a.a_cls else None)
           s.sec_fp)
    in
    Obj
      [
        ("name", Str s.sec_name);
        ("op", option (fun op -> Str (op_name op)) s.sec_op);
        ("reads", fp false); ("writes", fp true);
      ]
  in
  let pair p =
    Obj
      [
        ("left", Str p.p_left); ("right", Str p.p_right);
        ("classes", classes p.p_classes); ("semantic", classes p.p_semantic);
      ]
  in
  let og_row row =
    Obj
      [
        ("op", Str (op_name row.og_op));
        ("measure_reads", classes row.og_reads);
        ("perturbers", strings row.og_perturbers); ("safe", strings row.og_safe);
      ]
  in
  let violation v =
    Obj
      [
        ("section", Str v.av_section); ("class", Str (cls_name v.av_cls));
        ("write", Bool v.av_write); ("addr", int v.av_addr);
      ]
  in
  Obj
    [
      ("sections", list section catalogue); ("matrix", list pair (matrix ()));
      ("og", list og_row (og_report ()));
      ( "audit",
        Obj
          [
            ("runs", int audit_report.ar_runs);
            ("entries", int audit_report.ar_entries);
            ("accesses", int audit_report.ar_accesses);
            ("violations", list violation audit_report.ar_violations);
          ] );
    ]
