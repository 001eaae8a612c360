(* Mixed-criticality scenario: the paper's motivating system (Section 1).

   A high-priority real-time task handles a device interrupt while an
   untrusted best-effort task hammers the kernel with the longest
   operations it can construct: creating large objects and deleting them
   again.

   On the improved kernel the real-time task's interrupt response stays
   bounded by the preemption-point spacing; on the original kernel it is
   at the mercy of whatever the best-effort task was doing.

     dune exec examples/mixed_criticality.exe *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

let adversary_ops env =
  (* The untrusted task's repertoire of long-running system calls. *)
  let slots = env.B.root_cnode.cn_slots in
  [
    (* Create (and clear) a 64 KiB frame. *)
    (fun i ->
      K.Ev_invoke
        (K.Inv_retype
           {
             ut = B.ut_cptr;
             obj_type = Frame_object 16;
             count = 1;
             dest_slots = [ slots.(100 + i) ];
           }));
    (* Delete it again. *)
    (fun i -> K.Ev_invoke (K.Inv_delete { target = 100 + i }));
  ]

let run build =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu build in
  let k = env.B.k in
  (* Real-time task: highest priority, waiting for interrupt 9. *)
  let _irq_ep = B.spawn_endpoint env ~dest:10 in
  let rt_task = B.spawn_thread env ~priority:254 ~dest:11 in
  B.make_runnable env rt_task;
  (match
     K.run_to_completion k (K.Ev_invoke (K.Inv_irq_handler { line = 9; ep = 10 }))
   with
  | K.Completed -> ()
  | _ -> failwith "irq handler setup failed");
  K.force_run k rt_task;
  (match K.kernel_entry k (K.Ev_recv { ep = 10 }) with
  | K.Completed -> ()
  | _ -> failwith "rt task wait failed");
  (* Untrusted task: low priority, issuing long syscalls. *)
  let adversary = B.spawn_thread env ~priority:10 ~dest:12 in
  B.make_runnable env adversary;
  let ops = adversary_ops env in
  let interrupts = ref 0 in
  for round = 0 to 19 do
    K.force_run k adversary;
    (* The device fires mid-way through the adversary's system call. *)
    K.schedule_irq k 9 ~delay:1_500;
    let op = List.nth ops (round mod List.length ops) in
    let rec drive outcome =
      match outcome with
      | K.Preempted ->
          (* The preempted syscall restarts once the adversary runs
             again. *)
          K.force_run k adversary;
          drive (K.kernel_entry k (op (round / 2)))
      | K.Completed | K.Failed _ -> ()
    in
    drive (K.kernel_entry k (op (round / 2)));
    (* A short call can finish before the device fires.  Wait for the
       interrupt then, so that the next round arms a fresh timer: a line
       holds one fire cycle, and re-arming it would keep this one. *)
    (match K.next_armed_irq k with
    | Some (fire, _) ->
        Hw.Cpu.tick cpu (Int.max 0 (fire - K.cycles k));
        ignore (K.kernel_entry k K.Ev_interrupt)
    | None -> ());
    (* The RT task handled its interrupt at top priority; put it back to
       waiting for the next round. *)
    if is_runnable rt_task then begin
      incr interrupts;
      K.force_run k rt_task;
      ignore (K.kernel_entry k (K.Ev_recv { ep = 10 }))
    end
  done;
  (match Sel4.Invariants.check_result k with
  | Ok () -> ()
  | Error ms -> Fmt.pr "  INVARIANT VIOLATION: %s@." (String.concat "; " ms));
  (!interrupts, K.worst_irq_latency k, K.preempted_events k)

let () =
  Fmt.pr "Mixed criticality: RT interrupt handling vs an adversarial task@.@.";
  let report name build =
    let delivered, worst, preemptions = run build in
    Fmt.pr
      "%-18s delivered=%d  worst response=%6d cycles (%6.1f us)  preemptions=%d@."
      name delivered worst
      (Hw.Config.cycles_to_us Hw.Config.default worst)
      preemptions
  in
  report "improved kernel" Sel4.Build.improved;
  report "original kernel" Sel4.Build.original;
  Fmt.pr
    "@.The improved kernel bounds the response by its preemption-point \
     spacing;@.the original kernel makes the RT task wait for whole object \
     creations@.and deletions.@."
