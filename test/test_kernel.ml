(* Tests for the seL4-like kernel model.

   The flagship property mirrors the paper's verification story: the
   Section 2.2 invariant catalogue (queue well-formedness, the Benno
   invariant, the bitmap mirror, alignment, CDT shape, shadow
   back-pointers, kernel mappings) holds after every kernel entry, for
   arbitrary random operation sequences, in every build configuration. *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let improved = Sel4.Build.improved
let original = Sel4.Build.original

let check_invariants what env =
  match Sel4.Invariants.check_result env.B.k with
  | Result.Ok () -> ()
  | Result.Error ms ->
      Alcotest.failf "%s: invariant violated: %s" what (String.concat "; " ms)

(* Run an event as a specific thread (models that thread being in user
   mode and trapping into the kernel). *)
let become env tcb = K.force_run env.B.k tcb

let as_thread env tcb event =
  become env tcb;
  K.kernel_entry env.B.k event

(* Kernel objects are cyclic, so thread-state checks must compare
   physically, never structurally. *)
let blocked_receiving tcb ep =
  match tcb.state with Blocked_on_receive ep' -> ep' == ep | _ -> false

let blocked_sending tcb ep =
  match tcb.state with Blocked_on_send ep' -> ep' == ep | _ -> false

let caller_is tcb expected =
  match tcb.caller with Some c -> c == expected | None -> false

let expect_completed what = function
  | K.Completed -> ()
  | K.Preempted -> Alcotest.failf "%s: unexpectedly preempted" what
  | K.Failed e -> Alcotest.failf "%s: failed: %s" what e

(* --- boot --- *)

let test_boot () =
  let env = B.boot improved in
  check_invariants "after boot" env;
  check_bool "root is current" true (env.B.k.K.current == env.B.root_tcb);
  check_int "root cnode has 256 slots" 256 (Array.length env.B.root_cnode.cn_slots)

let test_boot_all_builds () =
  List.iter
    (fun build -> check_invariants "boot" (B.boot build))
    [
      improved;
      original;
      { improved with Sel4.Build.sched = Sel4.Build.Benno };
      { improved with Sel4.Build.sched = Sel4.Build.Lazy };
      { original with Sel4.Build.vspace = Sel4.Build.Shadow_tables };
    ]

let test_retype_syscall () =
  let env = B.boot improved in
  let _ = B.retype_syscall env Endpoint_object ~count:3 ~dest:10 in
  check_invariants "after retype" env;
  (match env.B.root_cnode.cn_slots.(10).cap with
  | Endpoint_cap _ -> ()
  | c -> Alcotest.failf "expected endpoint cap, got %a" pp_cap c);
  (* New caps are CDT children of the untyped. *)
  check_bool "untyped has children" true (Sel4.Cdt.has_children env.B.ut_slot)

let test_retype_clears_objects () =
  let env = B.boot improved in
  let _ = B.retype_syscall env (Frame_object 16) ~count:1 ~dest:10 in
  match env.B.root_cnode.cn_slots.(10).cap with
  | Frame_cap { frame; _ } ->
      check_int "fully cleared" (1 lsl 16) frame.f_cleared
  | c -> Alcotest.failf "expected frame cap, got %a" pp_cap c

let test_retype_errors () =
  let env = B.boot improved in
  let _ = B.retype_syscall env Endpoint_object ~count:1 ~dest:10 in
  (match
     K.run_to_completion env.B.k
       (K.Ev_invoke
          (K.Inv_retype
             {
               ut = B.ut_cptr;
               obj_type = Endpoint_object;
               count = 1;
               dest_slots = [ env.B.root_cnode.cn_slots.(10) ];
             }))
   with
  | K.Failed _ -> ()
  | _ -> Alcotest.fail "occupied destination must fail");
  check_invariants "after failed retype" env

(* --- IPC --- *)

type ipc_env = {
  env : B.env;
  ep : endpoint;
  ep_cptr : int;
  server : tcb;
  client : tcb;
}

let ipc_setup ?cpu build =
  let env = B.boot ?cpu build in
  let ep = B.spawn_endpoint env ~dest:10 in
  let server = B.spawn_thread env ~priority:150 ~dest:11 in
  let client = B.spawn_thread env ~priority:120 ~dest:12 in
  B.make_runnable env server;
  B.make_runnable env client;
  { env; ep; ep_cptr = 10; server; client }

let test_ipc_call_reply () =
  let { env; ep; ep_cptr; server; client } = ipc_setup improved in
  (* Server blocks receiving. *)
  expect_completed "recv" (as_thread env server (K.Ev_recv { ep = ep_cptr }));
  check_bool "server blocked" true (blocked_receiving server ep);
  check_invariants "server blocked" env;
  (* Client calls: direct switch to the server. *)
  client.regs.(0) <- 42;
  client.regs.(1) <- 7;
  expect_completed "call"
    (as_thread env client
       (K.Ev_call { ep = ep_cptr; badge_hint = 0; msg_len = 2; extra_caps = [] }));
  check_bool "server now current" true (env.B.k.K.current == server);
  check_bool "client awaits reply" true (client.state = Blocked_on_reply);
  check_bool "server has caller" true (caller_is server client);
  check_int "message word 0" 42 server.regs.(0);
  check_int "message word 1" 7 server.regs.(1);
  check_invariants "mid-rendezvous" env;
  (* Server replies and waits again: the client becomes runnable. *)
  expect_completed "reply-recv"
    (as_thread env server (K.Ev_reply_recv { ep = ep_cptr; msg_len = 1 }));
  check_bool "client runnable" true (is_runnable client);
  check_bool "server waits again" true (blocked_receiving server ep);
  check_invariants "after reply" env

let test_ipc_fastpath_cycles () =
  (* The fastpath must stay within the paper's 200-250 cycle envelope once
     caches are warm (Section 6.1). *)
  let cpu = Hw.Cpu.create Hw.Config.default in
  let { env; ep_cptr; server; client; _ } = ipc_setup ~cpu improved in
  ignore ep_cptr;
  (* The server waits once; each round is a client call answered by a
     reply-and-wait, so the server is always waiting when the call lands
     (the fastpath precondition). *)
  expect_completed "recv" (as_thread env server (K.Ev_recv { ep = 10 }));
  let round () =
    expect_completed "call"
      (as_thread env client
         (K.Ev_call { ep = 10; badge_hint = 0; msg_len = 2; extra_caps = [] }));
    expect_completed "reply"
      (as_thread env server (K.Ev_reply_recv { ep = 10; msg_len = 1 }))
  in
  (* Warm up, then measure one call. *)
  for _ = 1 to 5 do
    round ()
  done;
  let before = K.cycles env.B.k in
  expect_completed "call"
    (as_thread env client
       (K.Ev_call { ep = 10; badge_hint = 0; msg_len = 2; extra_caps = [] }));
  let fastpath_cycles = K.cycles env.B.k - before in
  check_bool
    (Fmt.str "fastpath %d cycles within [150, 600]" fastpath_cycles)
    true
    (fastpath_cycles >= 150 && fastpath_cycles <= 600)

let test_ipc_send_queue_fifo () =
  let { env; ep; ep_cptr; server; _ } = ipc_setup improved in
  let extra = B.spawn_thread env ~priority:120 ~dest:13 in
  B.make_runnable env extra;
  let client2 = extra in
  (* Two clients send while nobody listens: both block in FIFO order. *)
  expect_completed "send1"
    (as_thread env env.B.root_tcb
       (K.Ev_send { ep = ep_cptr; msg_len = 1; extra_caps = []; blocking = true }));
  expect_completed "send2"
    (as_thread env client2
       (K.Ev_send { ep = ep_cptr; msg_len = 1; extra_caps = []; blocking = true }));
  check_int "two waiters" 2 (Sel4.Ep_queue.length ep);
  check_invariants "two waiters" env;
  (* Receiver drains them in order. *)
  env.B.root_tcb.regs.(0) <- 111;
  client2.regs.(0) <- 222;
  expect_completed "recv1" (as_thread env server (K.Ev_recv { ep = ep_cptr }));
  check_int "first message first" 111 server.regs.(0);
  expect_completed "recv2" (as_thread env server (K.Ev_recv { ep = ep_cptr }));
  check_int "second message second" 222 server.regs.(0);
  check_invariants "drained" env

let test_badge_delivery () =
  let { env; ep_cptr; server; client; _ } = ipc_setup improved in
  (* Mint a badged copy of the endpoint cap into slot 20. *)
  expect_completed "mint"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke
          (K.Inv_copy
             {
               src = ep_cptr;
               dest_slot = env.B.root_cnode.cn_slots.(20);
               badge = Some 77;
             })));
  expect_completed "recv" (as_thread env server (K.Ev_recv { ep = ep_cptr }));
  expect_completed "badged call"
    (as_thread env client
       (K.Ev_call { ep = 20; badge_hint = 0; msg_len = 1; extra_caps = [] }));
  check_int "badge delivered" 77 server.ep_badge;
  check_invariants "after badged call" env

(* --- scheduler --- *)

(* The three scheduler variants must make identical scheduling decisions;
   they differ only in bookkeeping cost (Sections 3.1-3.2). *)
let scheduler_trace build =
  let env = B.boot build in
  let ep = B.spawn_endpoint env ~dest:10 in
  ignore ep;
  let a = B.spawn_thread env ~priority:130 ~dest:11 in
  let b = B.spawn_thread env ~priority:130 ~dest:12 in
  let c = B.spawn_thread env ~priority:90 ~dest:13 in
  List.iter (B.make_runnable env) [ a; b; c ];
  let trace = ref [] in
  let note () = trace := env.B.k.K.current.tcb_id :: !trace in
  let tick () =
    K.raise_irq env.B.k K.timer_irq;
    ignore (K.kernel_entry env.B.k K.Ev_interrupt);
    note ()
  in
  (* Round-robin among equal priorities, preferring higher. *)
  tick ();
  tick ();
  tick ();
  (* Current thread blocks on receive; next is chosen. *)
  ignore (K.kernel_entry env.B.k (K.Ev_recv { ep = 10 }));
  note ();
  (* A lower-priority thread sends to wake it: direct switch. *)
  (match env.B.k.K.current.tcb_id with
  | _ ->
      ignore
        (as_thread env c
           (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true })));
  note ();
  tick ();
  tick ();
  check_invariants "scheduler trace" env;
  List.rev !trace

let test_scheduler_variants_agree () =
  let benno = scheduler_trace { improved with Sel4.Build.sched = Sel4.Build.Benno } in
  let bitmap = scheduler_trace improved in
  let lazy_ = scheduler_trace { improved with Sel4.Build.sched = Sel4.Build.Lazy } in
  Alcotest.(check (list int)) "bitmap = benno" benno bitmap;
  Alcotest.(check (list int)) "lazy = benno" benno lazy_

(* Lazy scheduling's pathological cleanup (Section 3.1).  A runnable
   worker W sits at the head of its priority's queue; behind it, [blocked]
   threads execute blocking sends.  Under lazy scheduling each blocked
   thread stays parked in the queue (chooseThread stops at the runnable
   head W, so intermediate schedules never reach the pile).  When W is
   finally suspended, one chooseThread invocation must dequeue the whole
   pile.  Under Benno scheduling the pile never forms. *)
let scheduler_cleanup_cycles build ~blocked =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu build in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let w = B.spawn_thread env ~priority:140 ~dest:11 in
  B.make_runnable env w;
  let threads =
    List.init blocked (fun i -> B.spawn_thread env ~priority:140 ~dest:(20 + i))
  in
  List.iter (B.make_runnable env) threads;
  (* Each blocking send is followed by a reschedule that finds the
     runnable W at the head and stops, leaving the blocked thread parked
     behind it (lazy) or dequeued at block time (Benno). *)
  List.iter
    (fun t ->
      expect_completed "send"
        (as_thread env t
           (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true })))
    threads;
  check_invariants "blocked threads parked" env;
  (* Suspend W, then force a scheduling decision with a timer tick. *)
  expect_completed "suspend worker"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke (K.Inv_tcb_suspend { target = 11 })));
  let before = K.cycles env.B.k in
  K.raise_irq env.B.k K.timer_irq;
  ignore (K.kernel_entry env.B.k K.Ev_interrupt);
  check_invariants "after cleanup" env;
  K.cycles env.B.k - before

let test_lazy_cleanup_is_linear () =
  let lazy_build = { improved with Sel4.Build.sched = Sel4.Build.Lazy } in
  let lazy_small = scheduler_cleanup_cycles lazy_build ~blocked:8 in
  let lazy_big = scheduler_cleanup_cycles lazy_build ~blocked:64 in
  let benno_big = scheduler_cleanup_cycles improved ~blocked:64 in
  check_bool
    (Fmt.str "lazy grows with queue length (%d -> %d)" lazy_small lazy_big)
    true
    (lazy_big > lazy_small + (56 * 10));
  check_bool
    (Fmt.str "benno tick (%d) below lazy tick (%d)" benno_big lazy_big)
    true (benno_big < lazy_big)

let test_priority_change_requeues () =
  let env = B.boot improved in
  let t = B.spawn_thread env ~priority:50 ~dest:10 in
  B.make_runnable env t;
  expect_completed "set priority"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke (K.Inv_tcb_priority { target = 10; prio = 200 })));
  check_int "moved to new queue" 200 t.priority;
  check_invariants "after priority change" env;
  (* A yield must now pick the boosted thread. *)
  expect_completed "yield" (as_thread env env.B.root_tcb K.Ev_yield);
  check_bool "boosted thread runs" true (env.B.k.K.current == t)

(* --- preemption and interrupt latency --- *)

(* Fill an endpoint with [n] blocked senders, then delete it while an
   interrupt arrives mid-deletion. *)
let endpoint_delete_latency build ~waiters ~irq_delay =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu build in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let threads =
    List.init waiters (fun i -> B.spawn_thread env ~priority:50 ~dest:(20 + i))
  in
  List.iter
    (fun t ->
      B.make_runnable env t;
      expect_completed "send"
        (as_thread env t
           (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true })))
    threads;
  (* Root deletes the endpoint cap (the final one). *)
  become env env.B.root_tcb;
  K.schedule_irq env.B.k 5 ~delay:irq_delay;
  let outcome =
    K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 10 }))
  in
  expect_completed "delete finishes" outcome;
  check_invariants "after delete" env;
  (K.worst_irq_latency env.B.k, K.preempted_events env.B.k)

let test_preemptible_delete_bounds_latency () =
  let latency_improved, preemptions =
    endpoint_delete_latency improved ~waiters:64 ~irq_delay:2_000
  in
  let latency_original, _ =
    endpoint_delete_latency original ~waiters:64 ~irq_delay:2_000
  in
  check_bool "the improved kernel preempted" true (preemptions > 0);
  check_bool
    (Fmt.str "improved latency (%d) is bounded" latency_improved)
    true
    (latency_improved < 5_000);
  check_bool
    (Fmt.str "original latency (%d) dwarfs improved (%d)" latency_original
       latency_improved)
    true
    (latency_original > 3 * latency_improved)

let test_original_latency_grows_with_waiters () =
  let small, _ = endpoint_delete_latency original ~waiters:16 ~irq_delay:1_000 in
  let big, _ = endpoint_delete_latency original ~waiters:128 ~irq_delay:1_000 in
  check_bool
    (Fmt.str "unpreemptible latency grows (%d -> %d)" small big)
    true
    (big > small + (112 * 20))

let test_preempted_retype_restarts () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  (* 256 KiB frame: 256 chunks of clearing. *)
  K.schedule_irq env.B.k 5 ~delay:5_000;
  let outcome =
    K.run_to_completion env.B.k
      (K.Ev_invoke
         (K.Inv_retype
            {
              ut = B.ut_cptr;
              obj_type = Frame_object 18;
              count = 1;
              dest_slots = [ env.B.root_cnode.cn_slots.(10) ];
            }))
  in
  expect_completed "retype eventually completes" outcome;
  check_bool "was preempted" true (K.preempted_events env.B.k > 0);
  check_bool "syscall restarted" true (env.B.k.K.syscall_restarts > 0);
  (match env.B.root_cnode.cn_slots.(10).cap with
  | Frame_cap { frame; _ } ->
      check_int "frame fully cleared" (1 lsl 18) frame.f_cleared
  | c -> Alcotest.failf "expected frame, got %a" pp_cap c);
  check_invariants "after preempted retype" env

let test_retype_latency_original_vs_improved () =
  let retype_latency build =
    let cpu = Hw.Cpu.create Hw.Config.default in
    let env = B.boot ~cpu build in
    K.schedule_irq env.B.k 5 ~delay:5_000;
    let outcome =
      K.run_to_completion env.B.k
        (K.Ev_invoke
           (K.Inv_retype
              {
                ut = B.ut_cptr;
                obj_type = Frame_object 18;
                count = 1;
                dest_slots = [ env.B.root_cnode.cn_slots.(10) ];
              }))
    in
    expect_completed "retype" outcome;
    K.worst_irq_latency env.B.k
  in
  let improved_latency = retype_latency improved in
  let original_latency = retype_latency original in
  check_bool
    (Fmt.str "clearing preemption bounds latency (%d vs %d)" improved_latency
       original_latency)
    true
    (original_latency > 10 * improved_latency)

(* Several device timers armed during one long operation: deliveries come
   out earliest-first (ties broken by arming order), each with a latency
   measured from its own line's assert cycle, and the whole schedule is
   deterministic. *)
let multi_irq_deliveries build =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu build in
  let deliveries = ref [] in
  K.set_irq_delivery_hook env.B.k
    (Some (fun line latency -> deliveries := (line, latency) :: !deliveries));
  (* Lines 3 and 5 fire at the same cycle; 7 later.  A 256 KiB retype
     keeps the kernel busy well past all three fire times. *)
  K.schedule_irq env.B.k 7 ~delay:9_000;
  K.schedule_irq env.B.k 3 ~delay:5_000;
  K.schedule_irq env.B.k 5 ~delay:5_000;
  expect_completed "retype"
    (K.run_to_completion env.B.k
       (K.Ev_invoke
          (K.Inv_retype
             {
               ut = B.ut_cptr;
               obj_type = Frame_object 18;
               count = 1;
               dest_slots = [ env.B.root_cnode.cn_slots.(10) ];
             })));
  (* Drain anything still armed or pending: one delivery per entry. *)
  let rec drain guard =
    if guard = 0 then Alcotest.fail "irq drain did not terminate";
    if K.has_pending_irq env.B.k then begin
      expect_completed "drain" (K.kernel_entry env.B.k K.Ev_interrupt);
      drain (guard - 1)
    end
    else
      match K.next_armed_irq env.B.k with
      | None -> ()
      | Some (fire, _) ->
          let now = K.cycles env.B.k in
          if fire > now then Hw.Cpu.tick cpu (fire - now);
          expect_completed "drain" (K.kernel_entry env.B.k K.Ev_interrupt);
          drain (guard - 1)
  in
  drain 16;
  K.set_irq_delivery_hook env.B.k None;
  check_invariants "after multi-irq run" env;
  (List.rev !deliveries, K.worst_irq_latency env.B.k)

let test_multi_irq_delivery_deterministic () =
  List.iter
    (fun build ->
      let first, _ = multi_irq_deliveries build in
      let second, _ = multi_irq_deliveries build in
      check_int "three deliveries" 3 (List.length first);
      Alcotest.(check (list int))
        "earliest-first, ties by arming order" [ 3; 5; 7 ] (List.map fst first);
      Alcotest.(check (list (pair int int)))
        "schedule replays identically" first second)
    [ improved; original ]

(* A line armed long ago but not yet promoted, then two raised lines:
   delivery goes by assert cycle, so the armed line, which fired first,
   is delivered first, with its latency measured from its fire cycle. *)
let raised_over_armed_deliveries () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  let deliveries = ref [] in
  K.set_irq_delivery_hook env.B.k
    (Some
       (fun line latency ->
         deliveries := (line, latency, K.cycles env.B.k) :: !deliveries));
  let fire = K.cycles env.B.k + 10 in
  K.schedule_irq env.B.k 3 ~delay:10;
  Hw.Cpu.tick cpu 1_000;
  K.raise_irq env.B.k 4;
  K.raise_irq env.B.k 5;
  Hw.Cpu.tick cpu 50;
  expect_completed "interrupt" (K.kernel_entry env.B.k K.Ev_interrupt);
  K.set_irq_delivery_hook env.B.k None;
  let deliveries = List.rev !deliveries in
  Alcotest.(check (list int))
    "lines delivered by assert cycle" [ 3; 4 ]
    (List.map (fun (line, _, _) -> line) deliveries);
  (match deliveries with
  | (3, latency, at) :: _ ->
      check_int "armed line's latency runs from its fire cycle" fire
        (at - latency)
  | _ -> Alcotest.fail "line 3 not delivered first");
  ( List.map (fun (line, latency, _) -> (line, latency)) deliveries,
    K.worst_irq_latency env.B.k )

let test_multi_irq_worst_latency_accounting () =
  List.iter
    (fun (deliveries, worst) ->
      List.iter
        (fun (line, latency) ->
          check_bool
            (Fmt.str "line %d latency positive" line)
            true (latency > 0);
          check_bool
            (Fmt.str "worst (%d) covers line %d (%d)" worst line latency)
            true (worst >= latency))
        deliveries;
      check_int "worst is the max per-line latency" worst
        (List.fold_left (fun a (_, l) -> max a l) 0 deliveries))
    [ multi_irq_deliveries improved; raised_over_armed_deliveries () ];
  let _, worst = multi_irq_deliveries improved in
  (* The improved kernel preempts the retype, so the first delivery is
     bounded by a preemption interval, not the whole operation. *)
  let _, original_worst = multi_irq_deliveries original in
  check_bool
    (Fmt.str "unpreemptible worst (%d) dwarfs improved (%d)" original_worst
       worst)
    true
    (original_worst > 3 * worst)

(* Forward progress: even if an interrupt is re-armed after every
   preemption, the incremental-consistency design guarantees each restart
   retires at least one unit of work, so the operation completes within a
   bounded number of restarts (Section 3.3: "forward progress is
   ensured"). *)
let test_forward_progress_under_interrupt_storm () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let waiters = 40 in
  let threads =
    List.init waiters (fun i -> B.spawn_thread env ~priority:50 ~dest:(20 + i))
  in
  List.iter
    (fun t ->
      B.make_runnable env t;
      expect_completed "send"
        (as_thread env t
           (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true })))
    threads;
  become env env.B.root_tcb;
  let ep =
    match env.B.root_cnode.cn_slots.(10).cap with
    | Endpoint_cap { ep; _ } -> ep
    | _ -> Alcotest.fail "no endpoint"
  in
  (* Storm: one interrupt pending during every attempt. *)
  let restarts = ref 0 in
  let rec drive () =
    K.schedule_irq env.B.k 5 ~delay:150;
    become env env.B.root_tcb;
    match K.kernel_entry env.B.k (K.Ev_invoke (K.Inv_delete { target = 10 })) with
    | K.Completed -> ()
    | K.Preempted ->
        incr restarts;
        if !restarts > waiters + 5 then
          Alcotest.failf "no forward progress after %d restarts" !restarts;
        drive ()
    | K.Failed e -> Alcotest.failf "delete failed: %s" e
  in
  let len_before = Sel4.Ep_queue.length ep in
  drive ();
  check_int "queue had all waiters" waiters len_before;
  check_bool "many preemptions happened" true (!restarts > waiters / 2);
  check_bool "endpoint destroyed" true
    (cap_is_null env.B.root_cnode.cn_slots.(10).cap);
  List.iter
    (fun t -> check_bool "waiter released" true (is_runnable t))
    threads;
  check_invariants "after interrupt storm" env

(* --- badged aborts (Section 3.4) --- *)

let badged_setup ?cpu build ~badges =
  let env = B.boot ?cpu build in
  let ep = B.spawn_endpoint env ~dest:10 in
  let threads =
    List.mapi
      (fun i badge ->
        (* Mint a badged cap for each sender. *)
        expect_completed "mint"
          (as_thread env env.B.root_tcb
             (K.Ev_invoke
                (K.Inv_copy
                   {
                     src = 10;
                     dest_slot = env.B.root_cnode.cn_slots.(100 + i);
                     badge = Some badge;
                   })));
        let t = B.spawn_thread env ~priority:50 ~dest:(20 + i) in
        B.make_runnable env t;
        expect_completed "send"
          (as_thread env t
             (K.Ev_send
                { ep = 100 + i; msg_len = 1; extra_caps = []; blocking = true }));
        (t, badge))
      badges
  in
  (env, ep, threads)

let test_badged_abort_selective () =
  let env, ep, threads =
    badged_setup improved ~badges:[ 1; 2; 1; 3; 1; 2 ]
  in
  become env env.B.root_tcb;
  expect_completed "cancel"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_cancel_badged_sends { ep = 10; badge = 1 })));
  (* Badge-1 senders woke; the others still wait, in order. *)
  List.iter
    (fun (t, badge) ->
      if badge = 1 then
        check_bool "badge-1 sender woken" true (is_runnable t)
      else
        check_bool "other badge still blocked" true
          (blocked_sending t ep))
    threads;
  let remaining = List.map (fun t -> t.ep_badge) (Sel4.Ep_queue.to_list ep) in
  Alcotest.(check (list int)) "queue order preserved" [ 2; 3; 2 ] remaining;
  check_invariants "after badged abort" env

let test_badged_abort_preemptible () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env, ep, _threads =
    badged_setup ~cpu improved ~badges:(List.init 48 (fun i -> 1 + (i mod 3)))
  in
  become env env.B.root_tcb;
  K.schedule_irq env.B.k 5 ~delay:500;
  expect_completed "cancel"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_cancel_badged_sends { ep = 10; badge = 2 })));
  check_bool "abort was preempted" true (K.preempted_events env.B.k > 0);
  check_bool "abort state cleaned up" true (ep.ep_abort = None);
  check_bool "no badge-2 waiters remain" true
    (List.for_all (fun t -> t.ep_badge <> 2) (Sel4.Ep_queue.to_list ep));
  check_invariants "after preemptible abort" env

(* --- CDT and revocation --- *)

let test_revoke_deletes_descendants () =
  let env = B.boot improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  (* Derive three badged children and one grandchild. *)
  List.iter
    (fun (src, dest, badge) ->
      expect_completed "mint"
        (as_thread env env.B.root_tcb
           (K.Ev_invoke
              (K.Inv_copy
                 { src; dest_slot = env.B.root_cnode.cn_slots.(dest); badge }))))
    [
      (10, 30, Some 1);
      (10, 31, Some 2);
      (31, 32, None);  (* plain copy of the badge-2 cap *)
    ];
  check_invariants "derived caps" env;
  expect_completed "revoke"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_revoke { target = 10 })));
  check_bool "child 30 gone" true (cap_is_null env.B.root_cnode.cn_slots.(30).cap);
  check_bool "child 31 gone" true (cap_is_null env.B.root_cnode.cn_slots.(31).cap);
  check_bool "grandchild 32 gone" true
    (cap_is_null env.B.root_cnode.cn_slots.(32).cap);
  check_bool "original survives revoke" true
    (not (cap_is_null env.B.root_cnode.cn_slots.(10).cap));
  check_invariants "after revoke" env

let test_delete_final_cap_destroys () =
  let env = B.boot improved in
  let ep = B.spawn_endpoint env ~dest:10 in
  let t = B.spawn_thread env ~priority:50 ~dest:11 in
  B.make_runnable env t;
  expect_completed "send"
    (as_thread env t
       (K.Ev_send { ep = 10; msg_len = 1; extra_caps = []; blocking = true }));
  env.B.k.K.current <- env.B.root_tcb;
  expect_completed "delete"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 10 })));
  check_bool "slot empty" true (cap_is_null env.B.root_cnode.cn_slots.(10).cap);
  check_bool "endpoint removed from registry" true
    (not
       (List.exists
          (function Any_endpoint e -> e == ep | _ -> false)
          env.B.k.K.objects));
  check_bool "waiter woken by destruction" true (is_runnable t);
  check_invariants "after destroy" env

let test_move_preserves_derivation () =
  let env = B.boot improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  (* Derive a badged child, then move the parent: the child must follow. *)
  expect_completed "mint"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke
          (K.Inv_copy
             { src = 10; dest_slot = env.B.root_cnode.cn_slots.(11); badge = Some 5 })));
  expect_completed "move"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke
          (K.Inv_move { src = 10; dest_slot = env.B.root_cnode.cn_slots.(12) })));
  check_bool "source emptied" true (cap_is_null env.B.root_cnode.cn_slots.(10).cap);
  check_bool "destination holds the cap" true
    (match env.B.root_cnode.cn_slots.(12).cap with
    | Endpoint_cap _ -> true
    | _ -> false);
  check_bool "child re-parented to the new slot" true
    (match env.B.root_cnode.cn_slots.(11).cdt_parent with
    | Some p -> p == env.B.root_cnode.cn_slots.(12)
    | None -> false);
  check_invariants "after move" env;
  (* Revoking through the moved slot still reaches the child. *)
  expect_completed "revoke"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_revoke { target = 12 })));
  check_bool "child revoked through moved parent" true
    (cap_is_null env.B.root_cnode.cn_slots.(11).cap);
  check_invariants "after revoke through move" env

let test_delete_copy_keeps_object () =
  let env = B.boot improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  expect_completed "copy"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke
          (K.Inv_copy
             { src = 10; dest_slot = env.B.root_cnode.cn_slots.(11); badge = None })));
  expect_completed "delete the copy"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 11 })));
  check_bool "object survives (original cap remains)" true
    (List.exists
       (function Any_endpoint _ -> true | _ -> false)
       env.B.k.K.objects);
  check_invariants "after deleting copy" env

(* --- virtual memory, both designs --- *)

let vm_setup build =
  let env = B.boot build in
  let _ = B.retype_syscall env Page_directory_object ~count:1 ~dest:40 in
  let _ = B.retype_syscall env Page_table_object ~count:1 ~dest:41 in
  let _ = B.retype_syscall env (Frame_object 12) ~count:2 ~dest:42 in
  (match build.Sel4.Build.vspace with
  | Sel4.Build.Asid_table ->
      expect_completed "make pool"
        (K.run_to_completion env.B.k
           (K.Ev_invoke
              (K.Inv_make_asid_pool
                 {
                   ut = B.ut_cptr;
                   dest_slot = env.B.root_cnode.cn_slots.(45);
                   top_index = 0;
                 })));
      expect_completed "assign asid"
        (K.run_to_completion env.B.k
           (K.Ev_invoke (K.Inv_assign_asid { pool = 45; pd = 40 })))
  | Sel4.Build.Shadow_tables -> ());
  env

let map_all env =
  expect_completed "map pt"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_map_page_table { pt = 41; pd = 40; vaddr = 0x100000 })));
  expect_completed "map frame 1"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_map_frame { frame = 42; pd = 40; vaddr = 0x100000 })));
  expect_completed "map frame 2"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_map_frame { frame = 43; pd = 40; vaddr = 0x103000 })))

let test_vm_map_unmap_shadow () =
  let env = vm_setup improved in
  map_all env;
  check_invariants "mapped (shadow)" env;
  expect_completed "unmap"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_unmap_frame { frame = 42 })));
  check_invariants "after unmap (shadow)" env;
  (match env.B.root_cnode.cn_slots.(42).cap with
  | Frame_cap fc -> check_bool "mapping cleared" true (fc.fc_mapping = None)
  | _ -> Alcotest.fail "expected frame cap")

let test_vm_map_unmap_asid () =
  let env = vm_setup original in
  map_all env;
  check_invariants "mapped (asid)" env;
  expect_completed "unmap"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_unmap_frame { frame = 42 })));
  check_invariants "after unmap (asid)" env

let test_vm_double_map_rejected () =
  let env = vm_setup improved in
  map_all env;
  match
    K.run_to_completion env.B.k
      (K.Ev_invoke (K.Inv_map_frame { frame = 42; pd = 40; vaddr = 0x105000 }))
  with
  | K.Failed _ -> check_invariants "after rejected map" env
  | _ -> Alcotest.fail "double map must fail"

let test_vm_stale_asid_harmless () =
  (* The original design's selling point: deleting the address space
     leaves dangling ASID references in frame caps that are harmless. *)
  let env = vm_setup original in
  map_all env;
  (* Delete the page directory (its final cap). *)
  expect_completed "delete pd"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 40 })));
  check_invariants "pd deleted" env;
  (* Unmapping the frame now follows a stale ASID: must be a no-op. *)
  expect_completed "unmap stale"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_unmap_frame { frame = 42 })));
  check_invariants "after stale unmap" env

let test_vm_shadow_delete_preempts () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  let _ = B.retype_syscall env Page_directory_object ~count:1 ~dest:40 in
  let _ = B.retype_syscall env Page_table_object ~count:1 ~dest:41 in
  let frames = 32 in
  let _ = B.retype_syscall env (Frame_object 12) ~count:frames ~dest:42 in
  expect_completed "map pt"
    (K.run_to_completion env.B.k
       (K.Ev_invoke (K.Inv_map_page_table { pt = 41; pd = 40; vaddr = 0x100000 })));
  for i = 0 to frames - 1 do
    expect_completed "map frame"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_map_frame
               { frame = 42 + i; pd = 40; vaddr = 0x100000 + (i * 0x1000) })))
  done;
  check_invariants "many mappings" env;
  K.schedule_irq env.B.k 5 ~delay:300;
  (* Deleting the page table walks its entries with preemption points. *)
  expect_completed "delete pt"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 41 })));
  check_bool "delete preempted" true (K.preempted_events env.B.k > 0);
  check_invariants "after preemptible pt delete" env;
  (* All frame caps lost their mappings via the shadow back-pointers. *)
  for i = 0 to frames - 1 do
    match env.B.root_cnode.cn_slots.(42 + i).cap with
    | Frame_cap fc -> check_bool "mapping purged" true (fc.fc_mapping = None)
    | _ -> Alcotest.fail "expected frame cap"
  done

let test_asid_pool_exhaustion () =
  let env = vm_setup original in
  (* The pool already holds one pd; filling it to capacity would be slow,
     so emulate fullness by assigning all entries directly. *)
  (match env.B.root_cnode.cn_slots.(45).cap with
  | Asid_pool_cap pool ->
      let dummy = Sel4.Objects.make_page_directory ~id:9999 ~addr:0 in
      Array.iteri
        (fun i e -> if e = None then pool.ap_entries.(i) <- Some dummy)
        pool.ap_entries
  | _ -> Alcotest.fail "expected pool cap");
  let _ = B.retype_syscall env Page_directory_object ~count:1 ~dest:50 in
  match
    K.run_to_completion env.B.k
      (K.Ev_invoke (K.Inv_assign_asid { pool = 45; pd = 50 }))
  with
  | K.Failed _ -> ()
  | _ -> Alcotest.fail "full pool must fail"

(* --- cap transfer over IPC --- *)

let test_cap_transfer () =
  let { env; ep_cptr; server; client; _ } = ipc_setup improved in
  server.recv_slot <- Some (env.B.root_cnode.cn_slots.(60));
  let _ = B.retype_syscall env Endpoint_object ~count:1 ~dest:61 in
  expect_completed "recv" (as_thread env server (K.Ev_recv { ep = ep_cptr }));
  expect_completed "call with cap"
    (as_thread env client
       (K.Ev_call { ep = ep_cptr; badge_hint = 0; msg_len = 8; extra_caps = [ 61 ] }));
  check_bool "cap arrived in recv slot" true
    (not (cap_is_null env.B.root_cnode.cn_slots.(60).cap));
  (* The transferred cap is a CDT child of the source. *)
  check_bool "derivation recorded" true
    (match env.B.root_cnode.cn_slots.(60).cdt_parent with
    | Some p -> p == env.B.root_cnode.cn_slots.(61)
    | None -> false);
  check_invariants "after cap transfer" env

(* --- interrupt delivery to handler threads --- *)

let test_irq_delivery () =
  let env = B.boot improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let handler = B.spawn_thread env ~priority:200 ~dest:11 in
  B.make_runnable env handler;
  expect_completed "set handler"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke (K.Inv_irq_handler { line = 7; ep = 10 })));
  expect_completed "handler waits" (as_thread env handler (K.Ev_recv { ep = 10 }));
  K.raise_irq env.B.k 7;
  expect_completed "irq" (K.kernel_entry env.B.k K.Ev_interrupt);
  check_bool "handler woken and running" true (env.B.k.K.current == handler);
  check_int "irq number delivered" 7 handler.regs.(0);
  check_invariants "after irq delivery" env

(* --- fault delivery --- *)

let test_fault_delivery () =
  let env = B.boot improved in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let pager = B.spawn_thread env ~priority:200 ~dest:11 in
  B.make_runnable env pager;
  env.B.root_tcb.fault_handler_cptr <- Some 10;
  expect_completed "pager waits" (as_thread env pager (K.Ev_recv { ep = 10 }));
  expect_completed "fault"
    (as_thread env env.B.root_tcb (K.Ev_page_fault { vaddr = 0xdead000 }));
  check_bool "pager runs" true (env.B.k.K.current == pager);
  check_bool "faulter awaits reply" true
    (env.B.root_tcb.state = Blocked_on_reply);
  check_invariants "after fault" env

(* --- notifications (asynchronous signalling) --- *)

let ntfn_setup () =
  let env = B.boot improved in
  let ntfn = B.spawn_notification env ~dest:10 in
  let waiter = B.spawn_thread env ~priority:150 ~dest:11 in
  B.make_runnable env waiter;
  (env, ntfn, waiter)

let test_ntfn_signal_then_wait () =
  let env, ntfn, waiter = ntfn_setup () in
  (* Signal first: the badge accumulates in the word. *)
  expect_completed "signal"
    (as_thread env env.B.root_tcb (K.Ev_signal { ntfn = 10 }));
  check_int "word set" 1 ntfn.ntfn_word;
  (* Waiting now returns immediately with the word. *)
  expect_completed "wait" (as_thread env waiter (K.Ev_wait { ntfn = 10 }));
  check_bool "waiter still runnable" true (is_runnable waiter);
  check_int "word delivered" 1 waiter.regs.(0);
  check_int "word cleared" 0 ntfn.ntfn_word;
  check_invariants "signal then wait" env

let test_ntfn_wait_then_signal () =
  let env, ntfn, waiter = ntfn_setup () in
  expect_completed "wait" (as_thread env waiter (K.Ev_wait { ntfn = 10 }));
  check_bool "waiter blocked" true
    (match waiter.state with
    | Blocked_on_notification n -> n == ntfn
    | _ -> false);
  check_invariants "waiter blocked" env;
  expect_completed "signal"
    (as_thread env env.B.root_tcb (K.Ev_signal { ntfn = 10 }));
  check_bool "waiter woken" true (is_runnable waiter);
  check_int "badge delivered" 1 waiter.regs.(0);
  check_invariants "after signal" env

let test_ntfn_badges_accumulate () =
  let env, ntfn, _waiter = ntfn_setup () in
  (* Mint badged copies 0b01 and 0b10; both signals OR into the word. *)
  List.iter
    (fun (dest, badge) ->
      expect_completed "mint"
        (as_thread env env.B.root_tcb
           (K.Ev_invoke
              (K.Inv_copy
                 {
                   src = 10;
                   dest_slot = env.B.root_cnode.cn_slots.(dest);
                   badge = Some badge;
                 }))))
    [ (20, 1); (21, 2) ];
  expect_completed "signal 1"
    (as_thread env env.B.root_tcb (K.Ev_signal { ntfn = 20 }));
  expect_completed "signal 2"
    (as_thread env env.B.root_tcb (K.Ev_signal { ntfn = 21 }));
  check_int "badges OR-ed" 3 ntfn.ntfn_word;
  check_invariants "badges accumulate" env

let test_ntfn_poll () =
  let env, ntfn, waiter = ntfn_setup () in
  ignore ntfn;
  (* Poll with nothing pending: non-blocking. *)
  expect_completed "empty poll" (as_thread env waiter (K.Ev_poll { ntfn = 10 }));
  check_bool "poll does not block" true (is_runnable waiter);
  check_int "empty word" 0 waiter.regs.(0);
  expect_completed "signal"
    (as_thread env env.B.root_tcb (K.Ev_signal { ntfn = 10 }));
  expect_completed "poll" (as_thread env waiter (K.Ev_poll { ntfn = 10 }));
  check_int "word polled" 1 waiter.regs.(0);
  check_invariants "after poll" env

let test_irq_via_notification () =
  (* The real seL4 delivery path: the interrupt signals a notification. *)
  let env, ntfn, handler = ntfn_setup () in
  ignore ntfn;
  expect_completed "bind"
    (as_thread env env.B.root_tcb
       (K.Ev_invoke (K.Inv_bind_irq_notification { line = 6; ntfn = 10 })));
  expect_completed "handler waits" (as_thread env handler (K.Ev_wait { ntfn = 10 }));
  K.raise_irq env.B.k 6;
  expect_completed "irq" (K.kernel_entry env.B.k K.Ev_interrupt);
  check_bool "handler woken" true (is_runnable handler);
  check_int "line badge delivered" (1 lsl 6) handler.regs.(0);
  check_invariants "irq via notification" env

let test_ntfn_delete_wakes_waiters () =
  let env, ntfn, waiter = ntfn_setup () in
  ignore ntfn;
  expect_completed "wait" (as_thread env waiter (K.Ev_wait { ntfn = 10 }));
  become env env.B.root_tcb;
  expect_completed "delete"
    (K.run_to_completion env.B.k (K.Ev_invoke (K.Inv_delete { target = 10 })));
  check_bool "waiter woken by deletion" true (is_runnable waiter);
  check_bool "slot empty" true (cap_is_null env.B.root_cnode.cn_slots.(10).cap);
  check_invariants "after ntfn delete" env

(* --- random operation sequences preserve all invariants --- *)

type op =
  | Op_send of int * int  (* thread index, ep index *)
  | Op_call of int * int
  | Op_recv of int * int
  | Op_reply_recv of int * int
  | Op_yield
  | Op_tick
  | Op_irq of int
  | Op_cancel_badged of int * int  (* ep index, badge *)
  | Op_suspend of int
  | Op_resume of int
  | Op_set_prio of int * int
  | Op_delete_ep of int
  | Op_recreate_ep of int
  | Op_signal of int  (* thread index; ntfn is fixed at slot 13 *)
  | Op_ntfn_wait of int
  | Op_ntfn_poll of int

let gen_op =
  QCheck.Gen.(
    let thread = int_range 0 3 in
    let ep = int_range 0 2 in
    frequency
      [
        (4, map2 (fun t e -> Op_send (t, e)) thread ep);
        (4, map2 (fun t e -> Op_call (t, e)) thread ep);
        (4, map2 (fun t e -> Op_recv (t, e)) thread ep);
        (2, map2 (fun t e -> Op_reply_recv (t, e)) thread ep);
        (2, return Op_yield);
        (2, return Op_tick);
        (1, map (fun l -> Op_irq (1 + (l mod 8))) (int_range 1 8));
        (2, map2 (fun e b -> Op_cancel_badged (e, b)) ep (int_range 0 3));
        (1, map (fun t -> Op_suspend t) thread);
        (2, map (fun t -> Op_resume t) thread);
        (1, map2 (fun t p -> Op_set_prio (t, 10 + (p mod 200))) thread (int_range 0 199));
        (1, map (fun e -> Op_delete_ep e) ep);
        (1, map (fun e -> Op_recreate_ep e) ep);
        (2, map (fun t -> Op_signal t) thread);
        (2, map (fun t -> Op_ntfn_wait t) thread);
        (1, map (fun t -> Op_ntfn_poll t) thread);
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 5 40) gen_op)

let print_ops ops =
  Fmt.str "%d ops: %s" (List.length ops)
    (String.concat ";"
       (List.map
          (function
            | Op_send (t, e) -> Fmt.str "send(%d,%d)" t e
            | Op_call (t, e) -> Fmt.str "call(%d,%d)" t e
            | Op_recv (t, e) -> Fmt.str "recv(%d,%d)" t e
            | Op_reply_recv (t, e) -> Fmt.str "replyrecv(%d,%d)" t e
            | Op_yield -> "yield"
            | Op_tick -> "tick"
            | Op_irq l -> Fmt.str "irq(%d)" l
            | Op_cancel_badged (e, b) -> Fmt.str "cancel(%d,%d)" e b
            | Op_suspend t -> Fmt.str "suspend(%d)" t
            | Op_resume t -> Fmt.str "resume(%d)" t
            | Op_set_prio (t, p) -> Fmt.str "prio(%d,%d)" t p
            | Op_delete_ep e -> Fmt.str "delep(%d)" e
            | Op_recreate_ep e -> Fmt.str "newep(%d)" e
            | Op_signal t -> Fmt.str "signal(%d)" t
            | Op_ntfn_wait t -> Fmt.str "ntfnwait(%d)" t
            | Op_ntfn_poll t -> Fmt.str "ntfnpoll(%d)" t)
          ops))

(* Execute an op sequence, checking the full invariant catalogue after
   every kernel entry.  Returns false (failing the property) on any
   violation. *)
let run_ops build ops =
  let env = B.boot build in
  let eps = [| 10; 11; 12 |] in
  Array.iter (fun d -> ignore (B.spawn_endpoint env ~dest:d)) eps;
  ignore (B.spawn_notification env ~dest:13);
  let threads =
    Array.init 4 (fun i -> B.spawn_thread env ~priority:(100 + (i * 10)) ~dest:(15 + i))
  in
  Array.iter (B.make_runnable env) threads;
  (* Badged caps for the cancel op: slots 30.. *)
  Array.iteri
    (fun i epc ->
      for b = 0 to 3 do
        ignore
          (as_thread env env.B.root_tcb
             (K.Ev_invoke
                (K.Inv_copy
                   {
                     src = epc;
                     dest_slot = env.B.root_cnode.cn_slots.(30 + (4 * i) + b);
                     badge = Some b;
                   })))
      done)
    eps;
  let ok = ref true in
  let entry tcb event =
    (* Only runnable threads can trap into the kernel. *)
    if is_runnable tcb || tcb == env.B.k.K.current then
      ignore (as_thread env tcb event);
    match Sel4.Invariants.check_result env.B.k with
    | Result.Ok () -> ()
    | Result.Error ms ->
        ok := false;
        QCheck.Test.fail_reportf "invariant violated: %s" (String.concat "; " ms)
  in
  List.iter
    (fun op ->
      match op with
      | Op_send (t, e) ->
          (* Half the sends use a badged cap. *)
          let cptr = if (t + e) mod 2 = 0 then eps.(e) else 30 + (4 * e) + t mod 4 in
          entry threads.(t)
            (K.Ev_send { ep = cptr; msg_len = 2; extra_caps = []; blocking = true })
      | Op_call (t, e) ->
          entry threads.(t)
            (K.Ev_call { ep = eps.(e); badge_hint = 0; msg_len = 2; extra_caps = [] })
      | Op_recv (t, e) -> entry threads.(t) (K.Ev_recv { ep = eps.(e) })
      | Op_reply_recv (t, e) ->
          entry threads.(t) (K.Ev_reply_recv { ep = eps.(e); msg_len = 1 })
      | Op_yield -> entry env.B.k.K.current K.Ev_yield
      | Op_tick ->
          K.raise_irq env.B.k K.timer_irq;
          entry env.B.k.K.current K.Ev_interrupt
      | Op_irq l ->
          K.raise_irq env.B.k l;
          entry env.B.k.K.current K.Ev_interrupt
      | Op_cancel_badged (e, b) ->
          entry env.B.root_tcb
            (K.Ev_invoke (K.Inv_cancel_badged_sends { ep = eps.(e); badge = b }))
      | Op_suspend t ->
          entry env.B.root_tcb
            (K.Ev_invoke (K.Inv_tcb_suspend { target = 15 + t }))
      | Op_resume t ->
          entry env.B.root_tcb
            (K.Ev_invoke (K.Inv_tcb_resume { target = 15 + t }))
      | Op_set_prio (t, p) ->
          entry env.B.root_tcb
            (K.Ev_invoke (K.Inv_tcb_priority { target = 15 + t; prio = p }))
      | Op_delete_ep e ->
          entry env.B.root_tcb (K.Ev_invoke (K.Inv_revoke { target = eps.(e) }));
          entry env.B.root_tcb (K.Ev_invoke (K.Inv_delete { target = eps.(e) }))
      | Op_signal t -> entry threads.(t) (K.Ev_signal { ntfn = 13 })
      | Op_ntfn_wait t -> entry threads.(t) (K.Ev_wait { ntfn = 13 })
      | Op_ntfn_poll t -> entry threads.(t) (K.Ev_poll { ntfn = 13 })
      | Op_recreate_ep e ->
          if cap_is_null env.B.root_cnode.cn_slots.(eps.(e)).cap then
            entry env.B.root_tcb
              (K.Ev_invoke
                 (K.Inv_retype
                    {
                      ut = B.ut_cptr;
                      obj_type = Endpoint_object;
                      count = 1;
                      dest_slots = [ env.B.root_cnode.cn_slots.(eps.(e)) ];
                    })))
    ops;
  !ok

(* --- capability-space decode vs a functional reference --- *)

(* A pure reference decoder with the same semantics as Cspace.resolve. *)
let rec reference_resolve cap cptr remaining depth =
  match cap with
  | Cnode_cap { cnode; guard; guard_bits } ->
      let need = guard_bits + cnode.cn_bits in
      if need > remaining then None
      else if
        guard_bits > 0
        && (cptr lsr (remaining - guard_bits)) land ((1 lsl guard_bits) - 1)
           <> guard
      then None
      else begin
        let index =
          (cptr lsr (remaining - need)) land ((1 lsl cnode.cn_bits) - 1)
        in
        let slot = cnode.cn_slots.(index) in
        let remaining = remaining - need in
        if remaining = 0 then Some (slot, depth + 1)
        else
          match slot.cap with
          | Cnode_cap _ as next -> reference_resolve next cptr remaining (depth + 1)
          | Null_cap -> None
          | _ -> Some (slot, depth + 1)
      end
  | _ -> None

(* Random guarded capability spaces: a tree of cnodes with random radices
   and guards, leaves sprinkled in. *)
let gen_cspace_shape =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (triple (int_range 1 3) (* radix bits *)
         (int_range 0 3) (* guard bits *)
         (int_range 0 7) (* guard value, masked later *)))

let test_cspace_matches_reference =
  QCheck.Test.make ~count:200 ~name:"cspace decode matches functional reference"
    (QCheck.make
       ~print:(fun l -> Fmt.str "%d levels" (List.length l))
       gen_cspace_shape)
    (fun shape ->
      let env = B.boot improved in
      let k = env.B.k in
      (* Build a chain of cnodes per the shape; slot 0 links the chain. *)
      let nodes =
        List.map
          (fun (bits, guard_bits, guard) ->
            let dest = K.new_root_slot k in
            match
              Sel4.Untyped_ops.retype (K.ctx k)
                ~fresh_id:(fun () -> K.fresh_id k)
                ~register:(K.register k) ~ut_slot:env.B.ut_slot
                (Cnode_object bits) ~count:1 ~dest_slots:[ dest ]
            with
            | Sel4.Untyped_ops.Done [ Cnode_cap { cnode; _ } ] ->
                (cnode, guard_bits, guard land ((1 lsl guard_bits) - 1))
            | _ -> QCheck.assume_fail ())
          shape
      in
      let rec link = function
        | (a, _, _) :: ((b, gb, g) :: _ as rest) ->
            a.cn_slots.(0).cap <-
              Cnode_cap { cnode = b; guard = g; guard_bits = gb };
            link rest
        | _ -> ()
      in
      link nodes;
      (* Leaves in slot 1 of each node (when it exists). *)
      List.iter
        (fun (n, _, _) ->
          if Array.length n.cn_slots > 1 then
            n.cn_slots.(1).cap <- env.B.root_cnode.cn_slots.(B.ut_cptr).cap)
        nodes;
      let root =
        match nodes with
        | (first, gb, g) :: _ ->
            Cnode_cap { cnode = first; guard = g; guard_bits = gb }
        | [] -> QCheck.assume_fail ()
      in
      (* Compare on a spread of capability addresses. *)
      List.for_all
        (fun cptr ->
          let reference = reference_resolve root cptr 32 0 in
          match (Sel4.Cspace.resolve (K.ctx k) ~root_cap:root ~cptr, reference) with
          | Sel4.Cspace.Ok_slot (s1, d1), Some (s2, d2) -> s1 == s2 && d1 = d2
          | Sel4.Cspace.Error _, None -> true
          | _ -> false)
        [ 0; 1; 2; 3; 0x40000000; 0x80000001; 0xdeadbeef; 0x55555555; -1 land 0xffffffff ])

(* --- virtual-memory random operations preserve invariants --- *)

type vm_op =
  | Vm_map_pt of int  (* pd-index slot of vaddr megapage *)
  | Vm_map_frame of int * int  (* frame idx, vaddr page idx *)
  | Vm_unmap_frame of int
  | Vm_delete_frame of int
  | Vm_delete_pt
  | Vm_delete_pd

let gen_vm_ops =
  QCheck.Gen.(
    list_size (int_range 3 25)
      (frequency
         [
           (2, map (fun i -> Vm_map_pt (i mod 4)) (int_range 0 3));
           (6, map2 (fun f v -> Vm_map_frame (f mod 6, v mod 16)) (int_range 0 5) (int_range 0 15));
           (3, map (fun f -> Vm_unmap_frame (f mod 6)) (int_range 0 5));
           (2, map (fun f -> Vm_delete_frame (f mod 6)) (int_range 0 5));
           (1, return Vm_delete_pt);
           (1, return Vm_delete_pd);
         ]))

let print_vm_ops ops = Fmt.str "%d vm ops" (List.length ops)

let run_vm_ops build ops =
  let env = B.boot build in
  let _ = B.retype_syscall env Page_directory_object ~count:1 ~dest:40 in
  let _ = B.retype_syscall env Page_table_object ~count:4 ~dest:44 in
  let _ = B.retype_syscall env (Frame_object 12) ~count:6 ~dest:50 in
  (match build.Sel4.Build.vspace with
  | Sel4.Build.Asid_table ->
      (match
         K.run_to_completion env.B.k
           (K.Ev_invoke
              (K.Inv_make_asid_pool
                 {
                   ut = B.ut_cptr;
                   dest_slot = env.B.root_cnode.cn_slots.(60);
                   top_index = 0;
                 }))
       with
      | K.Completed -> ()
      | _ -> QCheck.Test.fail_report "asid pool setup failed");
      ignore
        (K.run_to_completion env.B.k
           (K.Ev_invoke (K.Inv_assign_asid { pool = 60; pd = 40 })))
  | Sel4.Build.Shadow_tables -> ());
  let ok = ref true in
  let step ev =
    ignore (K.run_to_completion env.B.k ev);
    match Sel4.Invariants.check_result env.B.k with
    | Ok () -> ()
    | Error ms ->
        ok := false;
        QCheck.Test.fail_reportf "vm invariant violated: %s" (String.concat "; " ms)
  in
  List.iter
    (fun op ->
      match op with
      | Vm_map_pt i ->
          step
            (K.Ev_invoke
               (K.Inv_map_page_table
                  { pt = 44 + i; pd = 40; vaddr = 0x100000 * (1 + i) }))
      | Vm_map_frame (f, v) ->
          step
            (K.Ev_invoke
               (K.Inv_map_frame
                  { frame = 50 + f; pd = 40; vaddr = 0x100000 + (v * 0x1000) }))
      | Vm_unmap_frame f ->
          step (K.Ev_invoke (K.Inv_unmap_frame { frame = 50 + f }))
      | Vm_delete_frame f -> step (K.Ev_invoke (K.Inv_delete { target = 50 + f }))
      | Vm_delete_pt -> step (K.Ev_invoke (K.Inv_delete { target = 44 }))
      | Vm_delete_pd -> step (K.Ev_invoke (K.Inv_delete { target = 40 })))
    ops;
  !ok

let test_vm_ops_shadow =
  QCheck.Test.make ~count:80 ~name:"vm invariants hold (shadow tables)"
    (QCheck.make ~print:print_vm_ops gen_vm_ops)
    (fun ops -> run_vm_ops improved ops)

let test_vm_ops_asid =
  QCheck.Test.make ~count:80 ~name:"vm invariants hold (asid table)"
    (QCheck.make ~print:print_vm_ops gen_vm_ops)
    (fun ops -> run_vm_ops original ops)

(* --- Benno and Benno+bitmap make identical scheduling decisions --- *)

let trace_of_ops build ops =
  let env = B.boot build in
  let eps = [| 10; 11; 12 |] in
  Array.iter (fun d -> ignore (B.spawn_endpoint env ~dest:d)) eps;
  ignore (B.spawn_notification env ~dest:13);
  let threads =
    Array.init 4 (fun i -> B.spawn_thread env ~priority:(100 + (i * 10)) ~dest:(15 + i))
  in
  Array.iter (B.make_runnable env) threads;
  let trace = ref [] in
  let entry tcb event =
    if is_runnable tcb || tcb == env.B.k.K.current then begin
      ignore (as_thread env tcb event);
      trace := env.B.k.K.current.tcb_id :: !trace
    end
  in
  List.iter
    (fun op ->
      match op with
      | Op_send (t, e) ->
          entry threads.(t)
            (K.Ev_send { ep = eps.(e); msg_len = 2; extra_caps = []; blocking = true })
      | Op_call (t, e) ->
          entry threads.(t)
            (K.Ev_call { ep = eps.(e); badge_hint = 0; msg_len = 2; extra_caps = [] })
      | Op_recv (t, e) -> entry threads.(t) (K.Ev_recv { ep = eps.(e) })
      | Op_reply_recv (t, e) ->
          entry threads.(t) (K.Ev_reply_recv { ep = eps.(e); msg_len = 1 })
      | Op_yield -> entry env.B.k.K.current K.Ev_yield
      | Op_tick ->
          K.raise_irq env.B.k K.timer_irq;
          entry env.B.k.K.current K.Ev_interrupt
      | Op_resume t ->
          entry env.B.root_tcb (K.Ev_invoke (K.Inv_tcb_resume { target = 15 + t }))
      | Op_suspend t ->
          entry env.B.root_tcb (K.Ev_invoke (K.Inv_tcb_suspend { target = 15 + t }))
      | _ -> ())
    ops;
  List.rev !trace

let test_bitmap_equals_benno =
  QCheck.Test.make ~count:100
    ~name:"bitmap and plain Benno make identical scheduling decisions"
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      trace_of_ops { improved with Sel4.Build.sched = Sel4.Build.Benno } ops
      = trace_of_ops improved ops)

let invariant_test build name =
  QCheck.Test.make ~count:120 ~name
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops -> run_ops build ops)

let test_invariants_improved =
  invariant_test improved "invariants hold under random ops (improved kernel)"

let test_invariants_original =
  invariant_test original "invariants hold under random ops (original kernel)"

let test_invariants_benno =
  invariant_test
    { improved with Sel4.Build.sched = Sel4.Build.Benno }
    "invariants hold under random ops (benno, no bitmap)"

(* --- every catalogue check detects a targeted corruption --- *)

(* Each test boots a clean kernel, applies one surgical corruption aimed
   at a single check, and requires both the targeted check and the
   whole-catalogue [check_result] to report it with the check's name —
   the detection power the schedule campaign's oracle relies on. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let assert_detects ~name ~check env corrupt =
  (match Sel4.Invariants.check_result env.B.k with
  | Ok () -> ()
  | Error ms ->
      Alcotest.failf "%s: catalogue not clean before corruption: %s" name
        (String.concat "; " ms));
  corrupt ();
  check_bool (name ^ ": targeted check raises") true
    (try
       check env.B.k;
       false
     with Sel4.Invariants.Violation _ -> true);
  match Sel4.Invariants.check_result env.B.k with
  | Ok () -> Alcotest.failf "%s: check_result missed the corruption" name
  | Error ms ->
      check_bool (name ^ ": named in the report") true
        (List.exists (starts_with ~prefix:name) ms)

let park_one_sender env ~ep_cptr ~dest =
  let t = B.spawn_thread env ~priority:50 ~dest in
  B.make_runnable env t;
  K.force_run env.B.k t;
  ignore
    (K.kernel_entry env.B.k
       (K.Ev_send { ep = ep_cptr; msg_len = 1; extra_caps = []; blocking = true }));
  K.force_run env.B.k env.B.root_tcb;
  t

let frame_at env slot_i =
  match env.B.root_cnode.cn_slots.(slot_i).cap with
  | Frame_cap { frame; _ } -> frame
  | _ -> Alcotest.fail "expected a frame cap"

let test_detect_run_queues () =
  let env = B.boot improved in
  let t = B.spawn_thread env ~priority:120 ~dest:80 in
  B.make_runnable env t;
  assert_detects ~name:"run_queues" ~check:Sel4.Invariants.check_run_queues env
    (fun () -> t.in_run_queue <- false)

let test_detect_endpoints () =
  let env = B.boot improved in
  let ep = B.spawn_endpoint env ~dest:10 in
  ignore (park_one_sender env ~ep_cptr:(B.cptr 10) ~dest:20);
  assert_detects ~name:"endpoints" ~check:Sel4.Invariants.check_endpoints env
    (fun () -> ep.ep_queue_kind <- Ep_idle)

let test_detect_notifications () =
  let env = B.boot improved in
  let n = B.spawn_notification env ~dest:11 in
  assert_detects ~name:"notifications"
    ~check:Sel4.Invariants.check_notifications env (fun () ->
      (* A queued "waiter" that is not blocked on the notification. *)
      n.ntfn_queue.head <- Some env.B.root_tcb;
      n.ntfn_queue.tail <- Some env.B.root_tcb)

let test_detect_alignment () =
  let env = B.boot improved in
  ignore (B.retype_syscall env (Frame_object 12) ~count:1 ~dest:50);
  let f = frame_at env 50 in
  assert_detects ~name:"alignment" ~check:Sel4.Invariants.check_alignment env
    (fun () ->
      let rogue = { f with f_id = 9999; f_addr = f.f_addr + 4 } in
      env.B.k.K.objects <- Any_frame rogue :: env.B.k.K.objects)

let test_detect_cdt () =
  let env = B.boot improved in
  assert_detects ~name:"cdt" ~check:Sel4.Invariants.check_cdt env (fun () ->
      env.B.root_cnode.cn_slots.(99).cdt_parent <- Some env.B.ut_slot)

let test_detect_shadow_tables () =
  let env = B.boot improved in
  ignore (B.retype_syscall env Page_table_object ~count:1 ~dest:44);
  let pt =
    match env.B.root_cnode.cn_slots.(44).cap with
    | Page_table_cap { pt; _ } -> pt
    | _ -> Alcotest.fail "expected a page-table cap"
  in
  assert_detects ~name:"shadow_tables"
    ~check:Sel4.Invariants.check_shadow_tables env (fun () ->
      pt.pt_shadow.(5) <- Some env.B.ut_slot)

let test_detect_kernel_mappings () =
  let env = B.boot improved in
  ignore (B.retype_syscall env Page_directory_object ~count:1 ~dest:30);
  let pd =
    match env.B.root_cnode.cn_slots.(30).cap with
    | Page_directory_cap { pd; _ } -> pd
    | _ -> Alcotest.fail "expected a page-directory cap"
  in
  assert_detects ~name:"kernel_mappings"
    ~check:Sel4.Invariants.check_kernel_mappings env (fun () ->
      pd.pd_entries.(kernel_pde_first) <- Pde_invalid)

let test_detect_cleared () =
  let env = B.boot improved in
  ignore (B.retype_syscall env (Frame_object 12) ~count:1 ~dest:50);
  let f = frame_at env 50 in
  assert_detects ~name:"cleared" ~check:Sel4.Invariants.check_cleared env
    (fun () -> f.f_cleared <- 8)

(* check_result runs the catalogue to the end: two unrelated corruptions
   yield two named violations, not just the first. *)
let test_check_result_collects_all () =
  let env = B.boot improved in
  let t = B.spawn_thread env ~priority:120 ~dest:80 in
  B.make_runnable env t;
  ignore (B.retype_syscall env (Frame_object 12) ~count:1 ~dest:50);
  let f = frame_at env 50 in
  (match Sel4.Invariants.check_result env.B.k with
  | Ok () -> ()
  | Error ms -> Alcotest.failf "not clean: %s" (String.concat "; " ms));
  t.in_run_queue <- false;
  f.f_cleared <- 8;
  match Sel4.Invariants.check_result env.B.k with
  | Ok () -> Alcotest.fail "two corruptions missed"
  | Error ms ->
      check_int "both violations reported" 2 (List.length ms);
      check_bool "run_queues reported" true
        (List.exists (starts_with ~prefix:"run_queues") ms);
      check_bool "cleared reported" true
        (List.exists (starts_with ~prefix:"cleared") ms)

(* The exact violation text for planted list corruptions.  The labels
   naming the broken list ("run queue 120", "ep3 queue", ...) are
   formatted only when a check fails; these pin what a failure reports,
   and that every other check stays quiet. *)

let expect_violations what env expected =
  match Sel4.Invariants.check_result env.B.k with
  | Ok () -> Alcotest.failf "%s: corruption missed" what
  | Error ms -> Alcotest.(check (list string)) what expected ms

let clean what env =
  match Sel4.Invariants.check_result env.B.k with
  | Ok () -> ()
  | Error ms -> Alcotest.failf "%s: not clean: %s" what (String.concat "; " ms)

let test_violation_text_run_queue () =
  let pair () =
    let env = B.boot improved in
    let a = B.spawn_thread env ~priority:120 ~dest:80 in
    let b = B.spawn_thread env ~priority:120 ~dest:81 in
    List.iter (B.make_runnable env) [ a; b ];
    clean "run queue pair" env;
    (env, a, b)
  in
  let env, _, b = pair () in
  b.sched_prev <- None;
  expect_violations "run queue back-pointer" env
    [ Fmt.str "run_queues: run queue 120: bad back-pointer at tcb%d" b.tcb_id ];
  let env, _, b = pair () in
  b.sched_next <- Some b;
  expect_violations "run queue cycle" env
    [
      Fmt.str "run_queues: run queue 120: cycle at tcb%d" b.tcb_id;
      Fmt.str
        "queue_membership: tcb%d on two run queues (priorities 120 and 120)"
        b.tcb_id;
    ]

let test_violation_text_endpoint () =
  let env = B.boot improved in
  let ep = B.spawn_endpoint env ~dest:10 in
  let _ = park_one_sender env ~ep_cptr:(B.cptr 10) ~dest:20 in
  let second = park_one_sender env ~ep_cptr:(B.cptr 10) ~dest:21 in
  clean "two senders parked" env;
  second.ep_prev <- None;
  expect_violations "endpoint back-pointer" env
    [
      Fmt.str "endpoints: ep%d queue: bad back-pointer at tcb%d" ep.ep_id
        second.tcb_id;
    ];
  second.ep_prev <- ep.ep_queue.head;
  second.ep_next <- Some second;
  expect_violations "endpoint cycle" env
    [ Fmt.str "endpoints: ep%d queue: cycle at tcb%d" ep.ep_id second.tcb_id ]

let test_violation_text_notification () =
  let env = B.boot improved in
  let n = B.spawn_notification env ~dest:10 in
  let w1 = B.spawn_thread env ~priority:150 ~dest:11 in
  let w2 = B.spawn_thread env ~priority:150 ~dest:12 in
  List.iter
    (fun w ->
      B.make_runnable env w;
      expect_completed "wait" (as_thread env w (K.Ev_wait { ntfn = 10 })))
    [ w1; w2 ];
  K.force_run env.B.k env.B.root_tcb;
  clean "two waiters" env;
  w2.ep_next <- Some w1;
  expect_violations "notification cycle" env
    [ Fmt.str "notifications: ntfn%d queue: cycle at tcb%d" n.ntfn_id w1.tcb_id ];
  w2.ep_next <- None;
  w2.ep_prev <- Some w2;
  expect_violations "notification back-pointer" env
    [
      Fmt.str "notifications: ntfn%d queue: bad back-pointer at tcb%d"
        n.ntfn_id w2.tcb_id;
    ]

(* --- the bulk priority-scan charge --- *)

(* Lazy and Benno chooseThread charge each run of scanned priorities with
   one {!Sel4.Ctx.scan} call.  The reference below is the per-priority
   loop it replaces — one [Ctx.exec] and one [Ctx.load] per scanned
   priority — and the two must leave identical counters, stall cycles,
   cache statistics and cache state (probed by a fixed access sequence
   afterwards), and report identical access sequences to the Cpu
   tracer. *)

module Sched = Sel4.Sched
module Ctx = Sel4.Ctx

(* [~skip_top] plants an off-by-one: priority 255 goes uncharged. *)
let reference_choose ?(skip_top = false) ctx sched (build : Sel4.Build.t) =
  let charge prio =
    if not (skip_top && prio = Sched.num_priorities - 1) then begin
      Ctx.exec ctx Sel4.Layout.R.sched_choose
        Sel4.Costs.choose_thread_scan_per_prio_instrs;
      Ctx.load ctx (Sel4.Layout.run_queue_entry prio)
    end
  in
  let rec lazy_scan prio =
    if prio < 0 then None
    else begin
      charge prio;
      let q = Sched.queue sched prio in
      let rec head () =
        match q.head with
        | None -> None
        | Some tcb ->
            Ctx.load ctx tcb.tcb_addr;
            if is_runnable tcb then Some tcb
            else begin
              Ctx.exec ctx Sel4.Layout.R.sched_choose
                Sel4.Costs.lazy_dequeue_blocked_instrs;
              Sched.dequeue ctx sched tcb;
              head ()
            end
      in
      match head () with Some tcb -> Some tcb | None -> lazy_scan (prio - 1)
    end
  in
  let rec benno_scan prio =
    if prio < 0 then None
    else begin
      charge prio;
      match (Sched.queue sched prio).head with
      | Some tcb ->
          Ctx.load ctx tcb.tcb_addr;
          Some tcb
      | None -> benno_scan (prio - 1)
    end
  in
  match build.Sel4.Build.sched with
  | Sel4.Build.Lazy -> lazy_scan (Sched.num_priorities - 1)
  | Sel4.Build.Benno -> benno_scan (Sched.num_priorities - 1)
  | Sel4.Build.Benno_bitmap -> Some (Sched.choose_thread ctx sched)

type scan_mode = Plain | Cpu_tracer

(* A booted kernel with threads queued at the given priorities; under
   lazy scheduling a [blocked] thread stays parked in its queue. *)
let scan_kernel config build occupancy ~pollute =
  let cpu = Hw.Cpu.create config in
  let env = B.boot ~cpu build in
  List.iteri
    (fun i (prio, blocked) ->
      let t = B.spawn_thread env ~priority:prio ~dest:(40 + i) in
      B.make_runnable env t;
      if blocked then t.state <- Inactive)
    occupancy;
  if pollute then Hw.Machine.pollute (Hw.Cpu.machine cpu) ~seed:7;
  (env, cpu)

(* Latency of every access in a fixed sequence: the run-queue and TCB
   lines, then lines conflicting with them in the L1 and L2 sets, then
   the same lines again (hit or miss now depends on the replacement
   state the scan left), and fetch runs over the scheduler's code. *)
let probe_latencies cpu tcb_addrs =
  let lat f =
    let c0 = Hw.Cpu.cycles cpu in
    f ();
    Hw.Cpu.cycles cpu - c0
  in
  let rq_lines = List.init 64 (fun i -> Sel4.Layout.run_queue_entry (i * 4)) in
  let lines = rq_lines @ tcb_addrs in
  let loads addrs = List.map (fun a -> lat (fun () -> Hw.Cpu.load cpu a)) addrs in
  let execs =
    List.concat_map
      (fun (r : Sel4.Layout.code_region) ->
        List.map
          (fun off ->
            lat (fun () -> Hw.Cpu.exec cpu ~base:(r.base + off) ~count:8))
          [ 0; 16384; 0; 32768; 49152; 0 ])
      Sel4.Layout.R.[ sched_choose; sched_dequeue; vector_entry ]
  in
  let first = loads lines in
  let conflicts =
    List.concat_map
      (fun k -> loads (List.map (fun a -> a + (k * 16384)) lines))
      [ 1; 2 ]
  in
  first @ conflicts @ loads lines @ execs

let cache_stats cpu =
  let m = Hw.Cpu.machine cpu in
  List.map Hw.Cache.stats
    ([ Hw.Machine.icache m; Hw.Machine.dcache m ]
    @ Option.to_list (Hw.Machine.l2 m))

type scan_outcome = {
  chosen : int;
  counters : Hw.Cpu.counters;
  stall : int;
  stats : Hw.Cache.stats list;
  accesses : string list;
  latencies : int list;
  stats_after : Hw.Cache.stats list;
}

let run_scan ~choose config build occupancy ~pollute mode =
  let env, cpu = scan_kernel config build occupancy ~pollute in
  let ctx = K.ctx env.B.k in
  let log = ref [] in
  (match mode with
  | Plain -> ()
  | Cpu_tracer ->
      Hw.Cpu.set_tracer cpu (fun kind addr ->
          let k =
            match kind with Hw.Cpu.Fetch -> "F" | Load -> "L" | Store -> "S"
          in
          log := Fmt.str "%s%x" k addr :: !log));
  let chosen = choose ctx env.B.k.K.sched in
  Hw.Cpu.clear_tracer cpu;
  let counters = Hw.Cpu.counters cpu and stall = Hw.Cpu.stall_cycles cpu in
  let stats = cache_stats cpu in
  let tcb_addrs =
    List.filter_map
      (function Any_tcb t -> Some t.tcb_addr | _ -> None)
      env.B.k.K.objects
  in
  let latencies = probe_latencies cpu tcb_addrs in
  {
    chosen =
      (match chosen with
      | Some t when not (t == env.B.k.K.idle) -> t.tcb_id
      | _ -> -1 (* idle *));
    counters;
    stall;
    stats;
    accesses = List.rev !log;
    latencies;
    stats_after = cache_stats cpu;
  }

(* The fields where the bulk charge and the reference disagree. *)
let scan_mismatches ?skip_top config build occupancy ~pollute mode =
  let run choose = run_scan ~choose config build occupancy ~pollute mode in
  let bulk = run (fun ctx sched -> Some (Sched.choose_thread ctx sched)) in
  let refr = run (fun ctx sched -> reference_choose ?skip_top ctx sched build) in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("chosen", bulk.chosen = refr.chosen);
      ("counters", bulk.counters = refr.counters);
      ("stall_cycles", bulk.stall = refr.stall);
      ("cache stats", bulk.stats = refr.stats);
      ("access sequence", bulk.accesses = refr.accesses);
      ("probe latencies", bulk.latencies = refr.latencies);
      ("cache stats after probe", bulk.stats_after = refr.stats_after);
    ]

let scan_configs =
  [
    ("default", Hw.Config.default);
    ("l2", Hw.Config.with_l2);
    ("round-robin", { Hw.Config.default with replacement = Hw.Config.Round_robin });
    ("locked ways", Hw.Config.with_pinning Hw.Config.default);
  ]

let scan_builds =
  [
    ("lazy", { improved with Sel4.Build.sched = Sel4.Build.Lazy });
    ("benno", { improved with Sel4.Build.sched = Sel4.Build.Benno });
    ("bitmap", improved);
  ]

(* Random queue occupancy: up to six threads, priorities spread over the
   whole range or clustered at the top, blocked leftovers only where lazy
   scheduling keeps them; plus the empty system (the scan runs to idle). *)
let random_occupancy rng (build : Sel4.Build.t) =
  let n = Random.State.int rng 7 in
  let clustered = Random.State.bool rng in
  List.init n (fun _ ->
      let prio =
        if clustered then 255 - Random.State.int rng 12
        else Random.State.int rng 256
      in
      let blocked =
        build.Sel4.Build.sched = Sel4.Build.Lazy && Random.State.int rng 3 = 0
      in
      (prio, blocked))

let test_scan_matches_reference () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (bname, build) ->
          for case = 0 to 11 do
            let occupancy = if case = 0 then [] else random_occupancy rng build in
            let pollute = case mod 2 = 1 in
            List.iter
              (fun (mname, mode) ->
                match scan_mismatches config build occupancy ~pollute mode with
                | [] -> ()
                | fields ->
                    Alcotest.failf "%s/%s case %d (%s, occupancy %a): %s differ"
                      cname bname case mname
                      Fmt.(Dump.list (Dump.pair int bool))
                      occupancy (String.concat ", " fields))
              [ ("plain", Plain); ("cpu tracer", Cpu_tracer) ]
          done)
        scan_builds)
    scan_configs

(* The comparison has teeth: a reference that skips one priority's charge
   disagrees with the bulk charge in every configuration and mode. *)
let test_scan_planted_off_by_one () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (bname, build) ->
          List.iter
            (fun mode ->
              if
                scan_mismatches ~skip_top:true config build [ (90, false) ]
                  ~pollute:false mode
                = []
              then Alcotest.failf "%s/%s: planted off-by-one not detected" cname bname)
            [ Plain; Cpu_tracer ])
        (List.filter (fun (n, _) -> n <> "bitmap") scan_builds))
    scan_configs

(* Scanning empty queues allocates nothing per priority: 1,000 Lazy and
   Benno decisions over all-empty queues (256 scanned priorities each)
   stay under one minor word per scanned priority. *)
let test_scan_allocation () =
  List.iter
    (fun (bname, build) ->
      if build.Sel4.Build.sched <> Sel4.Build.Benno_bitmap then begin
        let cpu = Hw.Cpu.create Hw.Config.default in
        let env = B.boot ~cpu build in
        let ctx = K.ctx env.B.k and sched = env.B.k.K.sched in
        ignore (Sched.choose_thread ctx sched);
        let calls = 1000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to calls do
          ignore (Sched.choose_thread ctx sched)
        done;
        let words = Gc.minor_words () -. w0 in
        let scanned = float (calls * Sched.num_priorities) in
        check_bool
          (Fmt.str "%s: %.0f minor words over %.0f scanned priorities" bname
             words scanned)
          true (words < scanned)
      end)
    scan_builds

(* [Sched.next_nonempty] reads the host bitmap: over random enqueue and
   dequeue sequences it agrees with a linear walk down the run queues
   from every priority, in every build. *)
let test_next_nonempty_matches_walk () =
  let rng = Random.State.make [| 28 |] in
  List.iter
    (fun (bname, build) ->
      let env = B.boot build in
      let ctx = K.ctx env.B.k and sched = env.B.k.K.sched in
      let threads =
        Array.init 24 (fun i ->
            let priority =
              if i mod 3 = 0 then 224 + Random.State.int rng 32
              else Random.State.int rng 256
            in
            B.spawn_thread env ~priority ~dest:(40 + i))
      in
      let rec walk prio =
        if prio < 0 then -1
        else if Option.is_some (Sched.queue sched prio).head then prio
        else walk (prio - 1)
      in
      for op = 1 to 400 do
        let t = threads.(Random.State.int rng (Array.length threads)) in
        if t.in_run_queue then Sched.dequeue ctx sched t
        else Sched.enqueue ctx sched t;
        for prio = -1 to Sched.num_priorities - 1 do
          let got = Sched.next_nonempty sched prio and want = walk prio in
          if got <> want then
            Alcotest.failf "%s op %d: next_nonempty %d = %d, walk gives %d"
              bname op prio got want
        done
      done)
    scan_builds

(* --- the interrupt controller against a naive model (Ref_irq) --- *)

type irq_op = Raise of int | Arm of int * int | Tick of int | Promote | Pop

let pp_irq_op ppf = function
  | Raise l -> Fmt.pf ppf "raise %d" l
  | Arm (l, d) -> Fmt.pf ppf "arm %d +%d" l d
  | Tick n -> Fmt.pf ppf "tick %d" n
  | Promote -> Fmt.pf ppf "promote"
  | Pop -> Fmt.pf ppf "pop"

(* Few lines, short delays and zero-cycle ticks, so equal assert and fire
   cycles, raises while a fired timer waits unpromoted, and re-arms of
   armed and pending lines all come up often.  Line 31 checks the top of
   the masks. *)
let random_irq_op rng =
  let line () =
    match Random.State.int rng 6 with 5 -> Sel4.Ctx.num_irqs - 1 | l -> l
  in
  match Random.State.int rng 10 with
  | 0 | 1 -> Raise (line ())
  | 2 | 3 | 4 -> Arm (line (), Random.State.int rng 12)
  | 5 | 6 -> Tick (Random.State.int rng 3 * Random.State.int rng 6)
  | 7 -> Promote
  | _ -> Pop

(* Drive [Sel4.Ctx] and [Ref_irq] with the same operations and compare,
   after each one, the delivered line and its assert cycle, [irq_pending],
   [has_pending] and [next_armed_irq]. *)
let run_irq_ops ops =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let ctx = Sel4.Ctx.create ~cpu improved and r = Ref_irq.create () in
  List.iteri
    (fun i op ->
      let now = Sel4.Ctx.cycles ctx in
      let what = Fmt.str "op %d (%a)" i pp_irq_op op in
      (match op with
      | Raise l ->
          Sel4.Ctx.assert_irq ctx l;
          Ref_irq.raise_irq r ~now l
      | Arm (l, d) ->
          Sel4.Ctx.arm_irq ctx l ~fire:(now + d);
          Ref_irq.arm r l ~fire:(now + d)
      | Tick n -> Hw.Cpu.tick cpu n
      | Promote ->
          Sel4.Ctx.promote_armed ctx;
          Ref_irq.promote r ~now
      | Pop ->
          let got =
            if Sel4.Ctx.has_pending ctx then
              let line = Sel4.Ctx.pop_irq ctx in
              Some (line, Sel4.Ctx.assert_cycle ctx line)
            else None
          in
          Alcotest.(check (option (pair int int)))
            (what ^ ": delivered line and assert cycle")
            (Ref_irq.pop r) got);
      let now = Sel4.Ctx.cycles ctx in
      check_bool (what ^ ": irq_pending")
        (Ref_irq.irq_pending r ~now)
        (Sel4.Ctx.irq_pending ctx);
      check_bool (what ^ ": has_pending") (r.Ref_irq.pending <> [])
        (Sel4.Ctx.has_pending ctx);
      Alcotest.(check (option (pair int int)))
        (what ^ ": next_armed_irq") (Ref_irq.next_armed r)
        (Sel4.Ctx.next_armed_irq ctx))
    ops

let test_irq_matches_reference () =
  let rng = Random.State.make [| 33 |] in
  for _ = 1 to 300 do
    run_irq_ops (List.init 120 (fun _ -> random_irq_op rng))
  done

(* The cases the random streams must reach, spelled out: equal fire
   cycles delivered in arming order, not line order; a raise while a
   fired timer waits unpromoted; a pending line re-armed and promoted;
   an armed line re-armed later and earlier. *)
let test_irq_reference_cases () =
  List.iter run_irq_ops
    [
      [ Arm (5, 4); Arm (2, 4); Tick 4; Promote; Pop; Pop ];
      [ Raise 4; Raise 1; Pop; Pop ];
      [ Arm (3, 2); Tick 5; Raise 1; Promote; Pop; Pop ];
      [ Raise 2; Tick 1; Arm (2, 0); Promote; Pop; Pop; Tick 3; Promote; Pop ];
      [ Arm (1, 6); Arm (1, 9); Tick 6; Promote; Pop; Arm (1, 9); Arm (1, 2) ];
    ]

let test_irq_allocation () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let ctx = Sel4.Ctx.create ~cpu improved in
  let rounds = 1000 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Sel4.Ctx.arm_irq ctx 3 ~fire:(Sel4.Ctx.cycles ctx + 2);
    Sel4.Ctx.assert_irq ctx (i land 7);
    ignore (Sel4.Ctx.irq_pending ctx);
    Hw.Cpu.tick cpu 2;
    Sel4.Ctx.promote_armed ctx;
    while Sel4.Ctx.has_pending ctx do
      ignore (Sel4.Ctx.pop_irq ctx)
    done
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Fmt.str "%.0f minor words over %d rounds" words rounds) true
    (words < 16.)

(* --- hook composition safety --- *)

(* The injection hook and the Cpu tracer are both single-slot hooks
   shared by several analysis clients (race, explore, pinning selection):
   installing over a live hook must be an error, never a silent
   replacement. *)

let test_injection_hook_double_set () =
  let env = B.boot improved in
  let k = env.B.k in
  K.set_injection_hook k (Some (fun _ -> false));
  check_bool "double install rejected" true
    (try
       K.set_injection_hook k (Some (fun _ -> true));
       false
     with Invalid_argument _ -> true);
  (* Clearing first makes the slot available again. *)
  K.set_injection_hook k None;
  K.set_injection_hook k (Some (fun _ -> false));
  K.set_injection_hook k None

let test_tracer_double_set () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  Hw.Cpu.set_tracer cpu (fun _ _ -> ());
  check_bool "double install rejected" true
    (try
       Hw.Cpu.set_tracer cpu (fun _ _ -> ());
       false
     with Invalid_argument _ -> true);
  Hw.Cpu.clear_tracer cpu;
  Hw.Cpu.set_tracer cpu (fun _ _ -> ());
  Hw.Cpu.clear_tracer cpu

(* --- digest order-insensitivity --- *)

(* The canonical digest must not depend on object-registry order or on
   hash-table iteration order: it sorts by object id.  Reversing the
   registry and re-inserting the capability reference counts in a
   different order must leave the digest byte-identical. *)

let test_digest_order_insensitive () =
  let env = B.boot improved in
  let k = env.B.k in
  let _ep = B.spawn_endpoint env ~dest:10 in
  let _ntfn = B.spawn_notification env ~dest:11 in
  let a = B.spawn_thread env ~priority:100 ~dest:12 in
  let b = B.spawn_thread env ~priority:120 ~dest:13 in
  B.make_runnable env a;
  B.make_runnable env b;
  ignore (as_thread env a (K.Ev_recv { ep = B.cptr 10 }));
  ignore
    (as_thread env b
       (K.Ev_send { ep = B.cptr 10; msg_len = 1; extra_caps = []; blocking = true }));
  let d1 = Sel4.Digest.of_kernel k in
  (* Reverse the registry order. *)
  k.K.objects <- List.rev k.K.objects;
  (* Re-insert the capability refcounts in reverse order: different
     bucket chains, same bindings. *)
  let refs = Hashtbl.fold (fun id n acc -> (id, n) :: acc) k.K.cap_refs [] in
  Hashtbl.reset k.K.cap_refs;
  List.iter (fun (id, n) -> Hashtbl.replace k.K.cap_refs id n) (List.rev refs);
  let d2 = Sel4.Digest.of_kernel k in
  check_bool "digest is order-insensitive" true (d1 = d2);
  check_bool "digest is non-trivial" true (String.length d1 > 100)

(* --- failure paths --- *)

(* Every [Failed] that dispatch can return, with the message and the
   cycles its kernel entry charges (entry to exit, interrupts quiet), so a
   charge moved on an error path shows here even where the soak never
   goes.  The row named "(asymmetry)" pins the one call that skips the
   liveness check its siblings make: polling an inactive notification
   completes. *)

(* Root-cnode slots of the fixture; [f_bad] fails the root guard. *)
let f_ep = 10
let f_ntfn = 11
let f_tcb = 12
let f_frame = 13
let f_pt = 14
let f_pd = 15
let f_pool = 16
let f_loose_pool = 17
let f_free = 30
let f_bad = 0x1000

type failure_row = {
  name : string;
  prep : B.env -> endpoint -> notification -> unit;
  event : B.env -> K.event;
  expect : string;  (* the [Failed] message, or "completed" *)
  cycles : int;
}

let failure_env () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  let env = B.boot ~cpu improved in
  let ep = B.spawn_endpoint env ~dest:f_ep in
  let ntfn = B.spawn_notification env ~dest:f_ntfn in
  ignore (B.spawn_thread env ~priority:90 ~dest:f_tcb);
  ignore (B.retype_syscall env (Frame_object 12) ~count:1 ~dest:f_frame);
  ignore (B.retype_syscall env Page_table_object ~count:1 ~dest:f_pt);
  ignore (B.retype_syscall env Page_directory_object ~count:1 ~dest:f_pd);
  (* One ASID pool installed at top index 0, and one never installed. *)
  expect_completed "make pool"
    (K.run_to_completion env.B.k
       (K.Ev_invoke
          (K.Inv_make_asid_pool
             {
               ut = B.ut_cptr;
               dest_slot = env.B.root_cnode.cn_slots.(f_pool);
               top_index = 0;
             })));
  ignore (B.retype_syscall env Asid_pool_object ~count:1 ~dest:f_loose_pool);
  (env, ep, ntfn)

let slot env i = env.B.root_cnode.cn_slots.(i)
let no_prep _ _ _ = ()
let ep_inactive _ (ep : endpoint) _ = ep.ep_active <- false
let ntfn_inactive _ _ (n : notification) = n.ntfn_active <- false

let fill_pool env _ _ =
  match (slot env f_pool).cap with
  | Asid_pool_cap pool ->
      let dummy = Sel4.Objects.make_page_directory ~id:9999 ~addr:0 in
      Array.iteri
        (fun i e -> if e = None then pool.ap_entries.(i) <- Some dummy)
        pool.ap_entries
  | _ -> Alcotest.fail "expected pool cap"

let row ?(prep = no_prep) name event expect cycles =
  { name; prep; event; expect; cycles }

let ev e _ = e
let inv i _ = K.Ev_invoke i

let failure_rows =
  let guard = "guard mismatch at level 0" in
  let send ep = K.Ev_send { ep; msg_len = 1; extra_caps = []; blocking = true } in
  let call ep = K.Ev_call { ep; badge_hint = 0; msg_len = 1; extra_caps = [] } in
  let copy ?badge src dest env =
    K.Ev_invoke (K.Inv_copy { src; dest_slot = slot env dest; badge })
  in
  let move src dest env =
    K.Ev_invoke (K.Inv_move { src; dest_slot = slot env dest })
  in
  let retype ?(obj_type = Endpoint_object) ?(count = 1) ut dest env =
    let dest_slots = List.init count (fun i -> slot env (dest + i)) in
    K.Ev_invoke (K.Inv_retype { ut; obj_type; count; dest_slots })
  in
  let make_pool ut dest top_index env =
    K.Ev_invoke (K.Inv_make_asid_pool { ut; dest_slot = slot env dest; top_index })
  in
  let configure ?(cspace = 1) ?(vspace = f_pd) target =
    inv (K.Inv_tcb_configure { target; cspace; vspace; fault_ep = f_ep })
  in
  let map_frame frame pd = inv (K.Inv_map_frame { frame; pd; vaddr = 0x100000 }) in
  let map_pt ?(vaddr = 0x100000) pt pd =
    inv (K.Inv_map_page_table { pt; pd; vaddr })
  in
  let assign pool pd = inv (K.Inv_assign_asid { pool; pd }) in
  let suspend target = inv (K.Inv_tcb_suspend { target }) in
  let resume target = inv (K.Inv_tcb_resume { target }) in
  [
    row "signal: lookup" (ev (K.Ev_signal { ntfn = f_bad })) guard 127;
    row "signal: type" (ev (K.Ev_signal { ntfn = f_ep })) "not a notification" 217;
    row "signal: inactive" ~prep:ntfn_inactive
      (ev (K.Ev_signal { ntfn = f_ntfn })) "notification inactive" 217;
    row "wait: lookup" (ev (K.Ev_wait { ntfn = f_bad })) guard 127;
    row "wait: type" (ev (K.Ev_wait { ntfn = f_ep })) "not a notification" 217;
    row "wait: inactive" ~prep:ntfn_inactive (ev (K.Ev_wait { ntfn = f_ntfn }))
      "notification inactive" 217;
    row "poll: lookup" (ev (K.Ev_poll { ntfn = f_bad })) guard 127;
    row "poll: type" (ev (K.Ev_poll { ntfn = f_ep })) "not a notification" 217;
    row "poll: inactive (asymmetry)" ~prep:ntfn_inactive
      (ev (K.Ev_poll { ntfn = f_ntfn })) "completed" 373;
    row "call: lookup" (ev (call f_bad)) guard 127;
    row "call: type" (ev (call f_ntfn)) "not an endpoint" 217;
    row "call: inactive" ~prep:ep_inactive (ev (call f_ep)) "endpoint inactive" 217;
    row "send: lookup" (ev (send f_bad)) guard 127;
    row "send: type" (ev (send f_ntfn)) "not an endpoint" 217;
    row "send: inactive" ~prep:ep_inactive (ev (send f_ep)) "endpoint inactive" 217;
    row "recv: lookup" (ev (K.Ev_recv { ep = f_bad })) guard 127;
    row "recv: type" (ev (K.Ev_recv { ep = f_ntfn })) "not an endpoint" 217;
    row "recv: inactive" ~prep:ep_inactive (ev (K.Ev_recv { ep = f_ep }))
      "endpoint inactive" 217;
    row "reply_recv: lookup" (ev (K.Ev_reply_recv { ep = f_bad; msg_len = 1 }))
      guard 127;
    row "reply_recv: type" (ev (K.Ev_reply_recv { ep = f_ntfn; msg_len = 1 }))
      "not an endpoint" 217;
    row "reply_recv: inactive" ~prep:ep_inactive
      (ev (K.Ev_reply_recv { ep = f_ep; msg_len = 1 })) "endpoint inactive" 217;
    row "retype: lookup" (retype f_bad f_free) guard 127;
    row "retype: not untyped" (retype f_ep f_free) "not an untyped" 217;
    row "retype: bad count" (retype ~count:0 B.ut_cptr f_free) "invalid count" 128;
    row "retype: occupied" (retype B.ut_cptr f_ep) "destination slot occupied" 128;
    row "retype: too large" (retype ~obj_type:(Untyped_object 27) B.ut_cptr f_free)
      "not enough memory" 128;
    row "copy: lookup" (copy f_bad f_free) guard 127;
    row "copy: occupied" (copy f_ep f_ntfn) "destination occupied" 217;
    row "copy: source empty" (copy f_free (f_free + 1)) "source empty" 217;
    row "copy: badge a tcb" (copy ~badge:5 f_tcb f_free)
      "only endpoint and notification caps can be badged" 217;
    row "move: lookup" (move f_bad f_free) guard 127;
    row "move: occupied" (move f_ep f_ntfn) "destination occupied" 217;
    row "move: source empty" (move f_free (f_free + 1)) "source empty" 217;
    row "delete: lookup" (inv (K.Inv_delete { target = f_bad })) guard 127;
    row "revoke: lookup" (inv (K.Inv_revoke { target = f_bad })) guard 127;
    row "cancel_badged_sends: lookup"
      (inv (K.Inv_cancel_badged_sends { ep = f_bad; badge = 1 })) guard 127;
    row "cancel_badged_sends: type"
      (inv (K.Inv_cancel_badged_sends { ep = f_ntfn; badge = 1 }))
      "not an endpoint" 217;
    row "tcb_priority: lookup"
      (inv (K.Inv_tcb_priority { target = f_bad; prio = 1 })) guard 127;
    row "tcb_priority: type" (inv (K.Inv_tcb_priority { target = f_ep; prio = 1 }))
      "not a tcb" 217;
    row "tcb_configure: lookup" (configure f_bad) guard 127;
    row "tcb_configure: type" (configure f_ep) "not a tcb" 217;
    row "tcb_configure: cspace lookup" (configure ~cspace:f_bad f_tcb) guard 428;
    row "tcb_configure: vspace lookup" (configure ~vspace:f_bad f_tcb) guard 442;
    row "tcb_suspend: lookup" (suspend f_bad) guard 127;
    row "tcb_suspend: type" (suspend f_ep) "not a tcb" 217;
    row "tcb_resume: lookup" (resume f_bad) guard 127;
    row "tcb_resume: type" (resume f_ep) "not a tcb" 217;
    row "map_frame: frame lookup" (map_frame f_bad f_pd) guard 127;
    row "map_frame: pd lookup" (map_frame f_frame f_bad) guard 230;
    row "map_frame: type" (map_frame f_pt f_pd) "not a frame" 142;
    row "map_frame: bad vspace" (map_frame f_frame f_ep) "bad vspace" 320;
    row "map_frame: no page table" (map_frame f_frame f_pd) "no page table" 329;
    row "unmap_frame: lookup" (inv (K.Inv_unmap_frame { frame = f_bad })) guard 127;
    row "unmap_frame: type" (inv (K.Inv_unmap_frame { frame = f_pt }))
      "not a frame" 128;
    row "map_page_table: pt lookup" (map_pt f_bad f_pd) guard 127;
    row "map_page_table: pd lookup" (map_pt f_pt f_bad) guard 141;
    row "map_page_table: type" (map_pt f_frame f_pd) "not a page table" 231;
    row "map_page_table: kernel region" (map_pt ~vaddr:0xF0000000 f_pt f_pd)
      "kernel region" 142;
    row "make_asid_pool: lookup" (make_pool f_bad f_free 1) guard 127;
    row "make_asid_pool: occupied" (make_pool B.ut_cptr f_free 0)
      "asid slot occupied" 128;
    row "make_asid_pool: index below range" (make_pool B.ut_cptr f_free (-1))
      "asid pool index out of range" 128;
    row "make_asid_pool: index above range" (make_pool B.ut_cptr f_free 256)
      "asid pool index out of range" 128;
    row "make_asid_pool: top index" (make_pool B.ut_cptr f_free 255) "completed" 12223;
    row "make_asid_pool: retype" (make_pool B.ut_cptr f_ep 1)
      "destination slot occupied" 128;
    row "assign_asid: pool lookup" (assign f_bad f_pd) guard 127;
    row "assign_asid: pd lookup" (assign f_pool f_bad) guard 141;
    row "assign_asid: type" (assign f_pool f_frame) "bad asid assignment" 231;
    row "assign_asid: not installed"
      (assign f_loose_pool f_pd) "pool not installed" 142;
    row "assign_asid: full" ~prep:fill_pool (assign f_pool f_pd) "pool full" 4387;
    row "irq_handler: lookup" (inv (K.Inv_irq_handler { line = 3; ep = f_bad }))
      guard 127;
    row "irq_handler: type" (inv (K.Inv_irq_handler { line = 3; ep = f_tcb }))
      "handler must be an endpoint or notification" 217;
    row "irq_handler: line below range"
      (inv (K.Inv_irq_handler { line = -1; ep = f_ep })) "irq line out of range" 217;
    row "irq_handler: line above range"
      (inv (K.Inv_irq_handler { line = 32; ep = f_ntfn })) "irq line out of range" 217;
    row "irq_handler: top line" (inv (K.Inv_irq_handler { line = 31; ep = f_ep }))
      "completed" 373;
    row "bind_irq_notification: lookup"
      (inv (K.Inv_bind_irq_notification { line = 3; ntfn = f_bad })) guard 127;
    row "bind_irq_notification: type"
      (inv (K.Inv_bind_irq_notification { line = 3; ntfn = f_ep }))
      "not a notification" 217;
    row "bind_irq_notification: line below range"
      (inv (K.Inv_bind_irq_notification { line = -1; ntfn = f_ntfn }))
      "irq line out of range" 217;
    row "bind_irq_notification: line above range"
      (inv (K.Inv_bind_irq_notification { line = 32; ntfn = f_ntfn }))
      "irq line out of range" 217;
  ]

let run_failure_row r =
  let env, ep, ntfn = failure_env () in
  r.prep env ep ntfn;
  become env env.B.root_tcb;
  let before = K.cycles env.B.k in
  let outcome =
    match K.kernel_entry env.B.k (r.event env) with
    | K.Completed -> "completed"
    | K.Preempted -> "preempted"
    | K.Failed e -> e
  in
  (env, ep, outcome, K.cycles env.B.k - before)

let test_failure_table () =
  let wrong =
    List.filter_map
      (fun r ->
        let _, _, outcome, cycles = run_failure_row r in
        if outcome = r.expect && cycles = r.cycles then None
        else
          Some
            (Fmt.str "%s: %S %d cycles (pinned %S %d)" r.name outcome cycles
               r.expect r.cycles))
      failure_rows
  in
  if wrong <> [] then Alcotest.failf "failure table:@.%s" (String.concat "\n" wrong)

(* ReplyRecv on an inactive endpoint fails before its reply, as Recv
   does: no new wait begins on an endpoint whose deletion has started
   (Section 3.3), so the caller is not left blocked receiving there. *)
let test_reply_recv_inactive_fails () =
  let r = List.find (fun r -> r.name = "reply_recv: inactive") failure_rows in
  let env, ep, _, _ = run_failure_row r in
  check_bool "root not blocked receiving" false
    (blocked_receiving env.B.root_tcb ep)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "kernel"
    [
      ( "boot",
        Alcotest.
          [
            test_case "boot" `Quick test_boot;
            test_case "all builds" `Quick test_boot_all_builds;
            test_case "retype syscall" `Quick test_retype_syscall;
            test_case "retype clears" `Quick test_retype_clears_objects;
            test_case "retype errors" `Quick test_retype_errors;
          ] );
      ( "ipc",
        Alcotest.
          [
            test_case "call/reply" `Quick test_ipc_call_reply;
            test_case "fastpath cycles" `Quick test_ipc_fastpath_cycles;
            test_case "send queue fifo" `Quick test_ipc_send_queue_fifo;
            test_case "badge delivery" `Quick test_badge_delivery;
            test_case "cap transfer" `Quick test_cap_transfer;
          ] );
      ( "scheduler",
        Alcotest.
          [
            test_case "variants agree" `Quick test_scheduler_variants_agree;
            test_case "lazy cleanup linear" `Quick test_lazy_cleanup_is_linear;
            test_case "priority requeue" `Quick test_priority_change_requeues;
          ] );
      ( "preemption",
        Alcotest.
          [
            test_case "delete bounds latency" `Quick
              test_preemptible_delete_bounds_latency;
            test_case "original latency grows" `Quick
              test_original_latency_grows_with_waiters;
            test_case "retype restarts" `Quick test_preempted_retype_restarts;
            test_case "retype latency" `Quick
              test_retype_latency_original_vs_improved;
            test_case "forward progress under storm" `Quick
              test_forward_progress_under_interrupt_storm;
            test_case "multi-irq deterministic" `Quick
              test_multi_irq_delivery_deterministic;
            test_case "multi-irq worst latency" `Quick
              test_multi_irq_worst_latency_accounting;
          ] );
      ( "badged-abort",
        Alcotest.
          [
            test_case "selective" `Quick test_badged_abort_selective;
            test_case "preemptible" `Quick test_badged_abort_preemptible;
          ] );
      ( "cdt",
        Alcotest.
          [
            test_case "revoke descendants" `Quick test_revoke_deletes_descendants;
            test_case "delete final cap" `Quick test_delete_final_cap_destroys;
            test_case "delete copy keeps object" `Quick test_delete_copy_keeps_object;
            test_case "move preserves derivation" `Quick test_move_preserves_derivation;
          ] );
      ( "vspace",
        Alcotest.
          [
            test_case "map/unmap shadow" `Quick test_vm_map_unmap_shadow;
            test_case "map/unmap asid" `Quick test_vm_map_unmap_asid;
            test_case "double map rejected" `Quick test_vm_double_map_rejected;
            test_case "stale asid harmless" `Quick test_vm_stale_asid_harmless;
            test_case "shadow delete preempts" `Quick test_vm_shadow_delete_preempts;
            test_case "asid pool exhaustion" `Quick test_asid_pool_exhaustion;
          ] );
      ( "interrupts",
        Alcotest.
          [
            test_case "irq delivery" `Quick test_irq_delivery;
            test_case "fault delivery" `Quick test_fault_delivery;
          ] );
      ( "notifications",
        Alcotest.
          [
            test_case "signal then wait" `Quick test_ntfn_signal_then_wait;
            test_case "wait then signal" `Quick test_ntfn_wait_then_signal;
            test_case "badges accumulate" `Quick test_ntfn_badges_accumulate;
            test_case "poll" `Quick test_ntfn_poll;
            test_case "irq via notification" `Quick test_irq_via_notification;
            test_case "delete wakes waiters" `Quick test_ntfn_delete_wakes_waiters;
          ] );
      ( "invariant-detection",
        Alcotest.
          [
            test_case "run queues" `Quick test_detect_run_queues;
            test_case "endpoints" `Quick test_detect_endpoints;
            test_case "notifications" `Quick test_detect_notifications;
            test_case "alignment" `Quick test_detect_alignment;
            test_case "cdt" `Quick test_detect_cdt;
            test_case "shadow tables" `Quick test_detect_shadow_tables;
            test_case "kernel mappings" `Quick test_detect_kernel_mappings;
            test_case "cleared" `Quick test_detect_cleared;
            test_case "check_result collects all" `Quick
              test_check_result_collects_all;
            test_case "violation text: run queue" `Quick
              test_violation_text_run_queue;
            test_case "violation text: endpoint" `Quick
              test_violation_text_endpoint;
            test_case "violation text: notification" `Quick
              test_violation_text_notification;
          ] );
      ( "sched-scan",
        Alcotest.
          [
            test_case "bulk scan matches per-priority loop" `Quick
              test_scan_matches_reference;
            test_case "planted off-by-one detected" `Quick
              test_scan_planted_off_by_one;
            test_case "empty scan allocation" `Quick test_scan_allocation;
            test_case "next non-empty priority matches the walk" `Quick
              test_next_nonempty_matches_walk;
          ] );
      ( "irq-controller",
        Alcotest.
          [
            test_case "random streams match the naive model" `Quick
              test_irq_matches_reference;
            test_case "named cases match the naive model" `Quick
              test_irq_reference_cases;
            test_case "controller allocation" `Quick test_irq_allocation;
          ] );
      ( "failure-paths",
        Alcotest.
          [
            test_case "every Failed with its message and cycles" `Quick
              test_failure_table;
            test_case "reply_recv on an inactive endpoint fails unblocked"
              `Quick test_reply_recv_inactive_fails;
          ] );
      ( "hooks-and-digest",
        Alcotest.
          [
            test_case "injection hook double-set" `Quick
              test_injection_hook_double_set;
            test_case "cpu tracer double-set" `Quick test_tracer_double_set;
            test_case "digest order-insensitivity" `Quick
              test_digest_order_insensitive;
          ] );
      ( "invariant-properties",
        qsuite
          [
            test_invariants_improved;
            test_invariants_original;
            test_invariants_benno;
          ] );
      ( "decode-properties", qsuite [ test_cspace_matches_reference ] );
      ("vm-properties", qsuite [ test_vm_ops_shadow; test_vm_ops_asid ]);
      ("sched-equivalence", qsuite [ test_bitmap_equals_benno ]);
    ]
