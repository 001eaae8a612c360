(* Tests for the static interference analysis: the footprint algebra, the
   section catalogue and its interference matrix, the Owicki-Gries
   progress-measure report, and — most importantly — the soundness audit:
   the declared footprints must cover every access the kernel actually
   performs, and a deliberately corrupted catalogue must be caught at
   exactly the corrupted section. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ctx = Sel4_rt.Analysis_ctx.default

(* --- footprint algebra --- *)

let test_conflicts () =
  let f1 = [ Race.r Race.Endpoint; Race.w Race.Tcb ] in
  let f2 = [ Race.r Race.Tcb ] in
  check_bool "W vs R conflicts" false (Race.independent f1 f2);
  check_bool "R vs R commutes" true
    (Race.independent [ Race.r Race.Endpoint ] [ Race.r Race.Endpoint ]);
  (* Distinct instances of the same class commute; None overlaps any. *)
  check_bool "distinct instances commute" true
    (Race.independent [ Race.w ~obj:1 Race.Endpoint ]
       [ Race.w ~obj:2 Race.Endpoint ]);
  check_bool "class-level overlaps instance" false
    (Race.independent [ Race.w Race.Endpoint ] [ Race.r ~obj:2 Race.Endpoint ]);
  (* Non-semantic conflicts disappear under semantic_only. *)
  check_bool "sched queues conflict (full)" false
    (Race.independent (Race.rw Race.Sched_queues) (Race.rw Race.Sched_queues));
  check_bool "sched queues commute (semantic)" true
    (Race.independent ~semantic_only:true (Race.rw Race.Sched_queues)
       (Race.rw Race.Sched_queues))

let test_catalogue_shape () =
  check_int "ten sections" 10 (List.length Race.catalogue);
  List.iter
    (fun op ->
      ignore (Race.section_exn (Race.op_name op ^ ".step"));
      ignore (Race.section_exn (Race.op_name op ^ ".finalise")))
    Race.ops;
  ignore (Race.section_exn "irq.deliver");
  ignore (Race.section_exn "irq.deliver_bound");
  Alcotest.check_raises "unknown section"
    (Invalid_argument "Race.section_exn: unknown section nope") (fun () ->
      ignore (Race.section_exn "nope"))

let test_matrix () =
  let pairs = Race.matrix () in
  (* Every section touches the kernel stack, so every unordered pair of
     distinct sections interferes on the full relation. *)
  let n = List.length Race.catalogue in
  check_int "all pairs interfere on bookkeeping" (n * (n - 1) / 2)
    (List.length pairs);
  let find l r =
    List.find
      (fun p -> p.Race.p_left = l && p.Race.p_right = r)
      pairs
  in
  (* ep-delete and retype steps are semantically independent: disjoint
     object classes. *)
  check_bool "ep_delete.step vs retype_clear.step commutes semantically" true
    ((find "ep_delete.step" "retype_clear.step").Race.p_semantic = []);
  (* ...but both ep ops fight over the endpoint. *)
  check_bool "ep_delete vs badged_abort semantically interferes" true
    (List.mem Race.Endpoint
       (find "ep_delete.step" "badged_abort.step").Race.p_semantic)

let test_og_report () =
  let rows = Race.og_report () in
  check_int "one row per op" (List.length Race.ops) (List.length rows);
  let row op = List.find (fun r -> r.Race.og_op = op) rows in
  (* The badged-abort sections write the endpoint state ep-delete's
     measure reads: an O-G proof must reason about that pair. *)
  check_bool "badged_abort perturbs ep_delete's measure" true
    (List.mem "badged_abort.step" (row Race.Ep_delete).Race.og_perturbers);
  (* Retype's measure (watermark, cleared bytes) is untouched by every
     foreign section. *)
  check_int "retype_clear measure is isolated" 0
    (List.length (row Race.Retype_clear).Race.og_perturbers);
  check_bool "irq.deliver never perturbs any measure" true
    (List.for_all
       (fun r -> not (List.mem "irq.deliver" r.Race.og_perturbers))
       rows)

(* --- the soundness audit --- *)

let test_audit_clean () =
  let a = Explore.audit ctx in
  check_bool "runs all ops x variants" true (a.Race.ar_runs >= 12);
  check_bool "recorded accesses" true (a.Race.ar_accesses > 1000);
  check_int "no access escapes its declared footprint" 0
    (List.length a.Race.ar_violations);
  check_bool "audit_ok" true (Race.audit_ok a)

(* The audit observes the sweep's preempt-everywhere schedule: one run per
   operation x scheduler variant, and 2H+1 windows in each (H step
   sections, H IRQ tails, one finalise), H the sweep's point count. *)
let test_audit_in_step_with_sweep () =
  let a = Explore.audit ctx in
  let sweep = Explore.run ctx in
  check_int "one run per op x variant" 12 a.Race.ar_runs;
  check_int "2H+1 windows per run, H from the sweep"
    (List.fold_left
       (fun acc o ->
         let variants =
           Explore.variants ~base:ctx.Sel4_rt.Analysis_ctx.build o.Explore.e_op
         in
         acc + (List.length variants * ((2 * o.Explore.e_points) + 1)))
       0 sweep.Explore.x_ops)
    a.Race.ar_entries

let test_audit_catches_planted_corruption () =
  (* Drop a known write (Tcb, written when waking each dequeued waiter)
     from ep_delete.step: the audit must report violations, all of them
     at exactly that section and class. *)
  let corrupted =
    List.map
      (fun s ->
        if s.Race.sec_name = "ep_delete.step" then
          {
            s with
            Race.sec_fp =
              List.filter
                (fun a ->
                  not (a.Race.a_cls = Race.Tcb && a.Race.a_write))
                s.Race.sec_fp;
          }
        else s)
      Race.catalogue
  in
  let a =
    Explore.audit ~catalogue:corrupted ~ops:[ Race.Ep_delete ] ctx
  in
  check_bool "corruption detected" true (List.length a.Race.ar_violations > 0);
  List.iter
    (fun v ->
      Alcotest.(check string)
        "violation names the corrupted section" "ep_delete.step"
        v.Race.av_section;
      check_bool "violation names the dropped class/direction" true
        (v.Race.av_cls = Race.Tcb && v.Race.av_write))
    a.Race.ar_violations

let test_audit_catches_missing_section_state () =
  (* Same planting against the finalise section: drop the Cap write that
     retires the deleted endpoint's slot.  Cap and Cdt_links alias at the
     address level, so both declarations must go. *)
  let corrupted =
    List.map
      (fun s ->
        if s.Race.sec_name = "ep_delete.finalise" then
          {
            s with
            Race.sec_fp =
              List.filter
                (fun a ->
                  not
                    (a.Race.a_write
                    && (a.Race.a_cls = Race.Cap || a.Race.a_cls = Race.Cdt_links)))
                s.Race.sec_fp;
          }
        else s)
      Race.catalogue
  in
  let a =
    Explore.audit ~catalogue:corrupted ~ops:[ Race.Ep_delete ] ctx
  in
  check_bool "finalise corruption detected" true
    (List.exists
       (fun v -> v.Race.av_section = "ep_delete.finalise")
       a.Race.ar_violations)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_renders () =
  let a = Explore.audit ctx in
  let j = Obs.Json.to_string (Race.to_json a) in
  check_bool "mentions sections" true (contains j "\"sections\"");
  check_bool "mentions og" true (contains j "\"og\"");
  check_bool "audit is clean in json" true (contains j "\"violations\": []")

let () =
  Alcotest.run "race"
    [
      ( "algebra",
        [
          Alcotest.test_case "conflicts and independence" `Quick test_conflicts;
          Alcotest.test_case "catalogue shape" `Quick test_catalogue_shape;
          Alcotest.test_case "interference matrix" `Quick test_matrix;
          Alcotest.test_case "owicki-gries report" `Quick test_og_report;
        ] );
      ( "audit",
        [
          Alcotest.test_case "declared footprints cover reality" `Slow
            test_audit_clean;
          Alcotest.test_case "audit stays in step with the sweep" `Slow
            test_audit_in_step_with_sweep;
          Alcotest.test_case "planted step corruption is caught" `Slow
            test_audit_catches_planted_corruption;
          Alcotest.test_case "planted finalise corruption is caught" `Slow
            test_audit_catches_missing_section_state;
          Alcotest.test_case "json renders" `Slow test_json_renders;
        ] );
    ]
