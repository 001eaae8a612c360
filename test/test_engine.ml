(* Tests of the analysis engine itself: the memo cache must be invisible
   (cached results identical to fresh ones), and the domain pool must be
   deterministic (batch results identical to the serial path, run after
   run), per the correctness claims in DESIGN.md's engine section. *)

module KM = Sel4_rt.Kernel_model
module AC = Sel4_rt.Analysis_cache
module P = Sel4_rt.Parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_int_list = Alcotest.(check (list int))

let builds = [ ("improved", Sel4.Build.improved); ("original", Sel4.Build.original) ]
let configs = [ ("L2 off", Hw.Config.default); ("L2 on", Hw.Config.with_l2) ]

let fresh ~config build entry =
  Wcet.Ipet.analyse ~config (KM.spec build entry)

let ctx ?(config = Hw.Config.default) build =
  Sel4_rt.Analysis_ctx.make ~config ~build ()

(* Every observable field of the result except the timing must be
   identical whether it came from the cache or a from-scratch pipeline
   run. *)
let same_result label (a : Wcet.Ipet.result) (b : Wcet.Ipet.result) =
  check_int (label ^ ": wcet") a.Wcet.Ipet.wcet b.Wcet.Ipet.wcet;
  check_int_list
    (label ^ ": block_counts")
    (Array.to_list a.Wcet.Ipet.block_counts)
    (Array.to_list b.Wcet.Ipet.block_counts);
  check_bool (label ^ ": edge_counts") true
    (a.Wcet.Ipet.edge_counts = b.Wcet.Ipet.edge_counts);
  check_bool (label ^ ": binding_constraints") true
    (a.Wcet.Ipet.binding_constraints = b.Wcet.Ipet.binding_constraints);
  check_int (label ^ ": ilp_vars") a.Wcet.Ipet.ilp_vars b.Wcet.Ipet.ilp_vars;
  check_int
    (label ^ ": ilp_constraints")
    a.Wcet.Ipet.ilp_constraints b.Wcet.Ipet.ilp_constraints;
  check_int (label ^ ": bb_nodes") a.Wcet.Ipet.bb_nodes b.Wcet.Ipet.bb_nodes;
  check_int (label ^ ": lp_solves") a.Wcet.Ipet.lp_solves b.Wcet.Ipet.lp_solves

(* --- cache transparency: cached == fresh for every entry x build --- *)

let test_cached_equals_fresh () =
  AC.reset ();
  List.iter
    (fun (bname, build) ->
      List.iter
        (fun entry ->
          let config = Hw.Config.default in
          let label = Fmt.str "%s/%s" bname (KM.entry_name entry) in
          let cached = AC.computed (ctx ~config build) entry in
          let cached_again = AC.computed (ctx ~config build) entry in
          same_result label cached (fresh ~config build entry);
          same_result (label ^ " (second lookup)") cached cached_again)
        KM.entry_points)
    builds

let test_cache_counts_hits () =
  AC.reset ();
  let ctx = ctx ~config:Hw.Config.with_l2 Sel4.Build.improved in
  let s0 = AC.stats () in
  check_int "counters start at zero" 0 (s0.AC.hits + s0.AC.misses);
  ignore (AC.computed ctx KM.Interrupt);
  ignore (AC.computed ctx KM.Interrupt);
  ignore (AC.computed ctx KM.Interrupt);
  let s = AC.stats () in
  check_int "one miss" 1 s.AC.misses;
  check_int "two hits" 2 s.AC.hits;
  check_bool "hit rate" true (abs_float (AC.hit_rate s -. (2.0 /. 3.0)) < 1e-9);
  AC.reset ();
  let s = AC.stats () in
  check_int "reset zeroes counters" 0 (s.AC.hits + s.AC.misses)

let test_variants_share_prefix () =
  AC.reset ();
  let ctx = ctx Sel4.Build.improved in
  ignore (AC.computed ctx KM.Syscall);
  ignore (AC.computed ~sources:`None ctx KM.Syscall);
  let forced = KM.realisable_path ~params:KM.default_params KM.Syscall in
  ignore (AC.computed ~forced ctx KM.Syscall);
  let s = AC.stats () in
  check_int "three distinct ILP variants" 3 s.AC.misses;
  (* All three share one prepared prefix: one prefix miss, two prefix hits. *)
  check_int "one prefix computation" 1 s.AC.prefix_misses;
  check_int "prefix shared by the other variants" 2 s.AC.prefix_hits

(* --- constraint variants: the cache order cannot change a result --- *)

(* Each variant is solved cold, so a constraint variant must come out
   identical whether it is the first request over its prefix or follows
   its [`All] sibling. *)
let test_variants_order_independent () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun entry ->
          List.iter
            (fun (sname, sources) ->
              let label =
                Fmt.str "%s/%s/%s" cname (KM.entry_name entry) sname
              in
              let ctx = ctx ~config Sel4.Build.improved in
              AC.reset ();
              let cold = AC.computed ~sources ctx entry in
              AC.reset ();
              let all = AC.computed ctx entry in
              let after_all = AC.computed ~sources ctx entry in
              same_result label cold after_all;
              check_bool (label ^ ": relaxation dominates") true
                (after_all.Wcet.Ipet.wcet >= all.Wcet.Ipet.wcet))
            [ ("manual", `Manual); ("derived", `Derived); ("none", `None) ])
        [ KM.Syscall; KM.Interrupt ])
    configs

(* The whole-engine property: analyses served from the memo cache must
   reproduce the cache-free numbers exactly, run after run. *)
let test_cache_on_equals_off () =
  let grid wcet =
    List.concat_map
      (fun (_, config) -> List.map (wcet config) KM.entry_points)
      configs
  in
  let run () =
    AC.reset ();
    grid (fun config ->
        Sel4_rt.Response_time.computed_cycles
          (Sel4_rt.Analysis_ctx.make ~config ()))
  in
  let cached1 = run () in
  let cached2 = run () in
  let fresh =
    grid (fun config entry ->
        (fresh ~config Sel4.Build.improved entry).Wcet.Ipet.wcet)
  in
  check_int_list "cache deterministic" cached1 cached2;
  check_int_list "cache on equals cache off" fresh cached1

(* --- parallel pool: determinism, ordering, exceptions --- *)

let with_pool domains f =
  let pool = P.create ~domains () in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

let test_pool_run_all_matches_serial () =
  with_pool 4 @@ fun pool ->
  let inputs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  check_int_list "order-preserving batch" (List.map f inputs)
    (P.run_all pool (List.map (fun x () -> f x) inputs))

let test_pool_exception_propagates () =
  with_pool 3 @@ fun pool ->
  check_bool "job exception reaches submitter" true
    (try
       ignore
         (P.run_all pool
            (List.init 10 (fun x () -> if x = 5 then failwith "boom" else x)));
       false
     with Failure m -> m = "boom")

let test_pool_nested_batches () =
  with_pool 3 @@ fun pool ->
  (* Outer jobs submit inner batches; workers fall back to serial
     execution rather than deadlocking on their own pool. *)
  let inner i = P.run_all pool (List.map (fun j () -> (10 * i) + j) [ 1; 2; 3 ]) in
  let rows = P.run_all pool [ (fun () -> inner 1); (fun () -> inner 2) ] in
  check_int_list "nested flattened" [ 11; 12; 13; 21; 22; 23 ] (List.concat rows)

(* The streaming fold merges in submission order whatever the completion
   order: jobs of uneven length and a non-commutative merge must give the
   serial fold, and a raising job re-raises only once the batch drains. *)
let test_fold_ordered_matches_serial () =
  with_pool 4 @@ fun pool ->
  let job i () =
    (* Early jobs run longest, so later ones finish first. *)
    let spin = ref 0 in
    for k = 1 to (64 - i) * 2_000 do
      spin := !spin + (k land 1)
    done;
    ignore (Sys.opaque_identity !spin);
    i
  in
  let merge acc i = (acc * 31) + i + 1 in
  let jobs = List.init 64 job in
  check_int "ordered fold equals the serial fold"
    (List.fold_left (fun acc th -> merge acc (th ())) 7 jobs)
    (P.fold_ordered pool ~init:7 ~merge jobs);
  let finished = Atomic.make 0 in
  let jobs =
    List.init 32 (fun i () ->
        if i = 3 then failwith "boom"
        else begin
          ignore (job i ());
          Atomic.incr finished;
          i
        end)
  in
  check_bool "raising job re-raises" true
    (try
       ignore (P.fold_ordered pool ~init:0 ~merge jobs);
       false
     with Failure m -> m = "boom");
  check_int "the batch drained first" 31 (Atomic.get finished)

(* --- bound decomposition (sel4rt explain) --- *)

(* The acceptance property of the decomposition: the per-block rows are a
   partition of the bound — exec + stall + pipeline sums to the WCET
   exactly, for every entry point, build and hardware config. *)
let test_profile_sums_to_bound () =
  List.iter
    (fun (bname, build) ->
      List.iter
        (fun (cname, config) ->
          let ctx = Sel4_rt.Analysis_ctx.make ~config ~build () in
          List.iter
            (fun entry ->
              let label = Fmt.str "%s/%s/%s" bname cname (KM.entry_name entry) in
              let p = Sel4_rt.Response_time.profile ctx entry in
              let bound = Sel4_rt.Response_time.computed_cycles ctx entry in
              check_bool (label ^ ": exact partition") true
                (Obs.Bound_profile.exact p);
              check_int (label ^ ": total = wcet") bound
                (Obs.Bound_profile.total p);
              check_int (label ^ ": components partition the total")
                (Obs.Bound_profile.total p)
                (Obs.Bound_profile.exec_total p
                + Obs.Bound_profile.stall_total p
                + Obs.Bound_profile.pipeline_total p);
              List.iter
                (fun (r : Obs.Bound_profile.row) ->
                  check_int
                    (Fmt.str "%s: row %s partitions" label
                       r.Obs.Bound_profile.r_label)
                    r.Obs.Bound_profile.r_cycles
                    (r.Obs.Bound_profile.r_exec + r.Obs.Bound_profile.r_stall
                   + r.Obs.Bound_profile.r_pipeline))
                p.Obs.Bound_profile.p_rows)
            KM.entry_points)
        configs)
    builds

(* The kernel_entry decomposition (what `sel4rt explain kernel_entry`
   prints) must sum to the interrupt-response bound. *)
let test_response_profile_sums_to_response_bound () =
  List.iter
    (fun (cname, config) ->
      let ctx = Sel4_rt.Analysis_ctx.make ~config () in
      let p = Sel4_rt.Response_time.interrupt_response_profile ctx in
      check_bool (cname ^ ": exact") true (Obs.Bound_profile.exact p);
      check_int
        (cname ^ ": total = response bound")
        (Sel4_rt.Response_time.interrupt_response_bound ctx)
        (Obs.Bound_profile.total p))
    configs

(* The pinned variant reroutes stall cycles, never execution: pinning may
   only shrink the stall component. *)
let test_pinned_profile_shrinks_stall () =
  let config = Hw.Config.with_pinning Hw.Config.with_l2 in
  let build = Sel4.Build.improved in
  let sel = Sel4_rt.Pinning.select build in
  let pins =
    {
      Sel4_rt.Analysis_ctx.code = sel.Sel4_rt.Pinning.code_lines;
      data = sel.Sel4_rt.Pinning.data_lines;
    }
  in
  let plain =
    Sel4_rt.Response_time.interrupt_response_profile
      (Sel4_rt.Analysis_ctx.make ~config:Hw.Config.with_l2 ~build ())
  in
  let pinned =
    Sel4_rt.Response_time.interrupt_response_profile
      (Sel4_rt.Analysis_ctx.make ~config ~pins ~build ())
  in
  check_bool "pinning tightens the bound" true
    (Obs.Bound_profile.total pinned <= Obs.Bound_profile.total plain);
  check_bool "pinned stall below plain stall" true
    (Obs.Bound_profile.stall_total pinned
    <= Obs.Bound_profile.stall_total plain)

(* Folded-stack export carries exactly the profile's cycles: flamegraph
   totals must agree with the bound. *)
let test_folded_sums_to_bound () =
  let ctx = Sel4_rt.Analysis_ctx.make ~config:Hw.Config.default () in
  let p = Sel4_rt.Response_time.interrupt_response_profile ctx in
  let folded = Obs.Bound_profile.to_folded p in
  let total =
    List.fold_left
      (fun acc line ->
        if String.trim line = "" then acc
        else
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "malformed folded line %S" line
          | Some i ->
              acc
              + int_of_string
                  (String.sub line (i + 1) (String.length line - i - 1)))
      0
      (String.split_on_char '\n' folded)
  in
  check_int "folded lines sum to the bound" (Obs.Bound_profile.total p) total

let () =
  Alcotest.run "engine"
    [
      ( "cache",
        Alcotest.
          [
            test_case "cached equals fresh" `Slow test_cached_equals_fresh;
            test_case "hit counting" `Quick test_cache_counts_hits;
            test_case "variants share prefix" `Quick test_variants_share_prefix;
            test_case "constraint variants are order-independent" `Quick
              test_variants_order_independent;
            test_case "on equals off" `Slow test_cache_on_equals_off;
          ] );
      ( "pool",
        Alcotest.
          [
            test_case "map matches serial" `Quick
              test_pool_run_all_matches_serial;
            test_case "exceptions propagate" `Quick
              test_pool_exception_propagates;
            test_case "nested maps" `Quick test_pool_nested_batches;
            test_case "fold_ordered matches serial" `Quick
              test_fold_ordered_matches_serial;
          ] );
      ( "explain",
        Alcotest.
          [
            test_case "profile sums to bound" `Slow test_profile_sums_to_bound;
            test_case "response profile sums to response bound" `Quick
              test_response_profile_sums_to_response_bound;
            test_case "pinning shrinks stall" `Quick
              test_pinned_profile_shrinks_stall;
            test_case "folded sums to bound" `Quick test_folded_sums_to_bound;
          ] );
    ]
