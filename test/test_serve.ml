(* Tests of the serve layer: the JSON parser/printer, the unified
   response envelope (schema pinned here), the typed Query wire parsing
   and response determinism, the on-disk content-addressed cache
   (round-trip, corruption recovery, version invalidation, concurrent
   writers, eviction), persistence through Analysis_cache — including a
   real process boundary (this binary re-executes itself as a populate
   child) — and the warm-start/rehydrate bit-identity contract. *)

module J = Serve.Json
module E = Serve.Envelope
module Q = Serve.Query
module DC = Serve.Disk_cache
module AC = Sel4_rt.Analysis_cache
module KM = Sel4_rt.Kernel_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sel4rt-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "expected valid JSON, got: %s (in %s)" msg s

let member_exn name v =
  match J.member name v with
  | Some x -> x
  | None -> Alcotest.failf "missing member %S" name

(* A persisted analysis payload to feed the disk cache; the interrupt
   entry is the cheapest real one. *)
let persisted_sample =
  lazy
    (Wcet.Ipet.to_persisted
       (Wcet.Ipet.analyse ~config:Hw.Config.default
          (KM.spec Sel4.Build.improved KM.Interrupt)))

(* --- Json --- *)

let test_json_roundtrip () =
  let v = parse_ok {|{"a": [1, 2.5, "x\nA", true, null], "b": {}}|} in
  check_string "compact" {|{"a":[1,2.5,"x\nA",true,null],"b":{}}|}
    (J.to_compact v);
  check_string "reparse fixpoint" (J.to_compact v)
    (J.to_compact (parse_ok (J.to_compact v)));
  check_string "one-line layout" {|{"a": [1, 2.5, "x\nA", true, null], "b": {}}|}
    (J.to_string v);
  check_string "fixed decimals and non-finite numbers"
    {|[99.60,0.000001,null,null]|}
    (J.to_compact
       (J.Arr
          [ J.Fixed (2, 99.6); J.Fixed (6, 1e-6); J.Num infinity; J.Fixed (2, nan) ]));
  check_int "int accessor" 1
    (Option.get (J.to_int_opt (List.nth (Option.get (J.to_list_opt (member_exn "a" v))) 0)))

let test_json_malformed () =
  let bad =
    [
      {|{"a":|}; {|{"a":1} trailing|}; {|{bad: 1}|}; {|"\q"|}; "";
      (* not JSON, though a lenient reader would take it *)
      "1e999"; "-1e400"; "01"; "[-01]"; "1."; ".5"; "+1"; "\"a\tb\"";
      "\"a\001b\""; {|"\u1_23"|}; {|"\u12"|};
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure for %s" s)
    bad

(* --- Envelope: the schema pin --- *)

let envelope_keys line =
  match parse_ok (String.trim line) with
  | J.Obj members -> List.map fst members
  | _ -> Alcotest.fail "envelope is not an object"

let test_envelope_schema () =
  List.iter
    (fun (status, name) ->
      let line =
        E.wrap ~id:"req-1" ~status ~elapsed_s:0.25 ~payload:{|{"x": 1}|} ()
      in
      (* One line, newline-terminated: the serve protocol framing. *)
      check_bool "ends with newline" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      check_bool "single line" true
        (not (String.contains (String.sub line 0 (String.length line - 1)) '\n'));
      (* The key set and order are the schema; a new field must be added
         here deliberately (and schema_version bumped if it breaks
         consumers). *)
      Alcotest.(check (list string))
        "envelope keys"
        [ "schema_version"; "id"; "status"; "elapsed_s"; "payload" ]
        (envelope_keys line);
      let v = parse_ok (String.trim line) in
      check_int "schema_version" E.schema_version
        (Option.get (J.to_int_opt (member_exn "schema_version" v)));
      check_string "id" "req-1"
        (Option.get (J.to_string_opt (member_exn "id" v)));
      check_string "status" name
        (Option.get (J.to_string_opt (member_exn "status" v)));
      check_int "payload.x" 1
        (Option.get (J.to_int_opt (member_exn "x" (member_exn "payload" v)))))
    [ (E.Ok, "ok"); (E.Fail, "fail"); (E.Error, "error") ]

let test_envelope_no_id_and_bad_payload () =
  let line = E.wrap ~status:E.Ok ~elapsed_s:0.0 ~payload:{|{"y":2}|} () in
  Alcotest.(check (list string))
    "keys without id"
    [ "schema_version"; "status"; "elapsed_s"; "payload" ]
    (envelope_keys line);
  (* A payload that is not valid JSON must never yield a broken document:
     it degrades to an error envelope. *)
  let line = E.wrap ~status:E.Ok ~elapsed_s:0.0 ~payload:"not json" () in
  let v = parse_ok (String.trim line) in
  check_string "degraded status" "error"
    (Option.get (J.to_string_opt (member_exn "status" v)));
  check_bool "error payload" true
    (J.member "error" (member_exn "payload" v) <> None);
  let v = parse_ok (String.trim (E.error ~id:"e1" "boom")) in
  check_string "error helper message" "boom"
    (Option.get (J.to_string_opt (member_exn "error" (member_exn "payload" v))))

(* --- Query wire parsing --- *)

let test_query_of_json () =
  let req s = Q.of_json (parse_ok s) in
  (match req {|{"query": "analyse"}|} with
  | Ok (None, Q.Analyse { target = Q.Kernel_entry; build; l2 = false; pin = false })
    when build = Sel4.Build.improved ->
      ()
  | _ -> Alcotest.fail "analyse defaults");
  (match
     req
       {|{"query": "analyse", "id": "i7", "target": "syscall", "build": "original", "l2": true, "pin": true}|}
   with
  | Ok (Some "i7", Q.Analyse { target = Q.Entry KM.Syscall; build; l2 = true; pin = true })
    when build = Sel4.Build.original ->
      ()
  | _ -> Alcotest.fail "analyse full params");
  (* A stale "smoke" member is ignored, like any unknown member. *)
  (match req {|{"query": "explore", "smoke": true, "depth": 2}|} with
  | Ok (None, Q.Explore { depth = Some 2 }) -> ()
  | _ -> Alcotest.fail "explore params");
  (match req {|{"query": "race", "smoke": true}|} with
  | Ok (None, Q.Race) -> ()
  | _ -> Alcotest.fail "race params");
  (match req {|{"query": "sim", "scenarios": ["idle"], "entries": 100}|} with
  | Ok
      ( None,
        Q.Sim
          {
            smoke = true;
            seed = 42;
            entries = Some 100;
            scenarios = [ "idle" ];
            inv_every = None;
          } ) ->
      ()
  | _ -> Alcotest.fail "sim params");
  List.iter
    (fun s ->
      match req s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected wire error for %s" s)
    [
      {|{"query": "bogus"}|};
      {|{"no_query": 1}|};
      {|{"query": "analyse", "target": "nowhere"}|};
      {|{"query": "analyse", "l2": "yes"}|};
      {|{"query": "sim", "scenarios": [1]}|};
      {|[1,2]|};
      (* integers a double cannot hold exactly are not integers *)
      {|{"query": "sim", "seed": 1e19}|};
      {|{"query": "sim", "seed": -1e19}|};
      (* an empty campaign would report ok *)
      {|{"query": "sim", "entries": 0}|};
      {|{"query": "smp", "entries": -5}|};
      {|{"query": "smp", "cores": 0}|};
      (* over the caps: refused, never run *)
      Fmt.str {|{"query": "smp", "cores": %d}|} (Q.max_cores + 1);
      Fmt.str {|{"query": "sim", "smoke": false, "entries": %d}|}
        (Q.max_wire_entries + 1);
      {|{"query": "smp", "entries": 1000000000}|};
    ];
  (* The caps themselves are accepted, and typed (CLI) requests keep
     larger entry counts; none of these runs. *)
  (match
     req
       (Fmt.str {|{"query": "smp", "cores": %d, "entries": %d}|} Q.max_cores
          Q.max_wire_entries)
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "requests at the caps must parse: %s" msg);
  check_bool "typed requests keep large entry counts" true
    (Result.is_ok
       (Q.validate
          (Q.Sim
             {
               smoke = false;
               seed = 42;
               entries = Some 1_000_000;
               scenarios = [];
               inv_every = None;
             })));
  (* Well-formed requests the command itself rejects, for the same
     reason: they would run nothing and report ok. *)
  List.iter
    (fun s ->
      match req s with
      | Ok (_, r) ->
          check_bool ("error status for " ^ s) true
            ((Q.run r).Q.status = E.Error)
      | Error msg -> Alcotest.failf "expected %s to parse: %s" s msg)
    [
      {|{"query": "sim", "scenarios": ["typo"]}|};
      {|{"query": "explore", "depth": 0}|};
    ];
  (* A comparison cannot honour a scenario list or an invariant period,
     which only typed (CLI) requests can carry. *)
  let comparison ~scenarios ~inv_every =
    Q.Smp
      {
        smoke = true;
        seed = 42;
        entries = None;
        cores = 2;
        shielded = false;
        compare = true;
        scenarios;
        inv_every;
      }
  in
  List.iter
    (fun r ->
      check_bool "comparison rejects its unused parameters" true
        (Result.is_error (Q.exec r)))
    [
      comparison ~scenarios:[ "ipc_pingpong" ] ~inv_every:None;
      comparison ~scenarios:[] ~inv_every:(Some 64);
    ]

let test_query_respond_deterministic () =
  let request =
    Q.Analyse
      {
        target = Q.Entry KM.Interrupt;
        build = Sel4.Build.improved;
        l2 = false;
        pin = false;
      }
  in
  let payload_of (line, status) =
    check_bool "status ok" true (status = E.Ok);
    J.to_compact (member_exn "payload" (parse_ok (String.trim line)))
  in
  let p1 = payload_of (Q.respond ~id:"a" request) in
  let p2 = payload_of (Q.respond ~id:"b" request) in
  (* elapsed_s differs between the envelopes; the payloads must not. *)
  check_string "payload bytes identical" p1 p2;
  let v = parse_ok p1 in
  check_string "wire target round-trips" "interrupt"
    (Option.get (J.to_string_opt (member_exn "target" v)));
  check_bool "bound positive" true
    (Option.get (J.to_int_opt (member_exn "wcet_cycles" v)) > 0)

(* --- serve_channels: the protocol loop --- *)

let test_serve_channels () =
  let input =
    String.concat "\n"
      [
        {|{"query": "analyse", "id": "q1", "target": "interrupt"}|};
        "";
        "this is not json";
        {|{"query": "bogus", "id": "q2"}|};
      ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "serve-in" ".jsonl" in
  let out_path = Filename.temp_file "serve-out" ".jsonl" in
  let oc = open_out in_path in
  output_string oc input;
  close_out oc;
  let ic = open_in in_path in
  let out = open_out out_path in
  let all_well_formed = Serve.Server.serve_channels ic out in
  close_in ic;
  close_out out;
  check_bool "malformed input clears the flag" false all_well_formed;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_int "one response per non-blank request" 3 (List.length lines);
  let status_of line =
    Option.get (J.to_string_opt (member_exn "status" (parse_ok line)))
  in
  check_string "well-formed query ok" "ok" (status_of (List.nth lines 0));
  check_string "id echoed" "q1"
    (Option.get (J.to_string_opt (member_exn "id" (parse_ok (List.nth lines 0)))));
  check_string "non-JSON line errors" "error" (status_of (List.nth lines 1));
  check_string "unknown query errors" "error" (status_of (List.nth lines 2));
  check_string "bad query echoes id" "q2"
    (Option.get (J.to_string_opt (member_exn "id" (parse_ok (List.nth lines 2)))));
  Sys.remove in_path;
  Sys.remove out_path

(* --- the on-disk cache --- *)

let test_disk_roundtrip () =
  DC.set_dir (fresh_dir ());
  let p = Lazy.force persisted_sample in
  let before = DC.stats () in
  check_bool "miss before store" true (DC.load ~key:"k1" () = None);
  DC.store ~key:"k1" p;
  (match DC.load ~key:"k1" () with
  | None -> Alcotest.fail "stored entry should load"
  | Some p' ->
      check_int "wcet survives" p.Wcet.Ipet.ps_wcet p'.Wcet.Ipet.ps_wcet;
      check_bool "edge counts survive" true
        (p.Wcet.Ipet.ps_edge_counts = p'.Wcet.Ipet.ps_edge_counts);
      check_bool "binding constraints survive" true
        (p.Wcet.Ipet.ps_binding_constraints
        = p'.Wcet.Ipet.ps_binding_constraints));
  check_bool "other keys still miss" true (DC.load ~key:"k2" () = None);
  let after = DC.stats () in
  check_int "one store" 1 (after.DC.dc_stores - before.DC.dc_stores);
  check_int "one hit" 1 (after.DC.dc_hits - before.DC.dc_hits);
  check_int "two misses" 2 (after.DC.dc_misses - before.DC.dc_misses);
  check_int "no errors" 0 (after.DC.dc_errors - before.DC.dc_errors)

let test_disk_version_invalidation () =
  DC.set_dir (fresh_dir ());
  let p = Lazy.force persisted_sample in
  DC.store ~version:1 ~key:"k" p;
  let before = DC.stats () in
  check_bool "future version misses" true (DC.load ~version:2 ~key:"k" () = None);
  let after = DC.stats () in
  check_int "stale version is a miss, not an error" 0
    (after.DC.dc_errors - before.DC.dc_errors);
  check_bool "same version still hits" true (DC.load ~version:1 ~key:"k" () <> None)

let corrupt_with path f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f contents);
  close_out oc

let test_disk_corruption_recovery () =
  let p = Lazy.force persisted_sample in
  let cases =
    [
      ("truncated", fun s -> String.sub s 0 (String.length s / 2));
      ( "flipped blob byte",
        fun s ->
          let b = Bytes.of_string s in
          let i = String.length s - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
          Bytes.to_string b );
      ("garbage header", fun s -> "garbage\n" ^ s);
      ("empty", fun _ -> "");
    ]
  in
  List.iter
    (fun (name, mangle) ->
      DC.set_dir (fresh_dir ());
      DC.store ~key:"k" p;
      let path = Filename.concat (DC.dir ()) (Sys.readdir (DC.dir ())).(0) in
      corrupt_with path mangle;
      let before = DC.stats () in
      check_bool (name ^ " loads as miss") true (DC.load ~key:"k" () = None);
      let after = DC.stats () in
      check_int (name ^ " counted as error") 1
        (after.DC.dc_errors - before.DC.dc_errors);
      check_bool (name ^ " entry dropped") false (Sys.file_exists path);
      (* The recompute path stores again and the entry is healthy. *)
      DC.store ~key:"k" p;
      check_bool (name ^ " recovered") true (DC.load ~key:"k" () <> None))
    cases

let test_disk_concurrent_writers () =
  DC.set_dir (fresh_dir ());
  let p = Lazy.force persisted_sample in
  let writers = 4 and rounds = 20 in
  let domains =
    List.init writers (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              DC.store ~key:"shared" p;
              if (d + i) mod 3 = 0 then ignore (DC.load ~key:"shared" ())
            done))
  in
  List.iter Domain.join domains;
  (* Readers racing the writers above never see a torn entry (that would
     have counted an error and deleted it); the final entry is intact. *)
  match DC.load ~key:"shared" () with
  | None -> Alcotest.fail "entry lost after concurrent writes"
  | Some p' -> check_int "intact payload" p.Wcet.Ipet.ps_wcet p'.Wcet.Ipet.ps_wcet

let test_disk_eviction () =
  DC.set_dir (fresh_dir ());
  let p = Lazy.force persisted_sample in
  Unix.putenv "SEL4RT_CACHE_MAX_BYTES" "1";
  let before = DC.stats () in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SEL4RT_CACHE_MAX_BYTES" "")
    (fun () ->
      DC.store ~key:"a" p;
      DC.store ~key:"b" p);
  let after = DC.stats () in
  check_bool "eviction ran" true (after.DC.dc_evictions - before.DC.dc_evictions >= 1);
  let remaining =
    Array.to_list (Sys.readdir (DC.dir ()))
    |> List.filter (fun n -> Filename.check_suffix n ".an")
  in
  check_bool "cap enforced" true (List.length remaining <= 1)

(* A store whose [rename] fails (here: the entry's path is a non-empty
   directory) is an error, and it leaves no temp file behind. *)
let test_disk_failed_store_leaves_nothing () =
  DC.set_dir (fresh_dir ());
  let p = Lazy.force persisted_sample in
  let entry =
    Filename.concat (DC.dir ()) (Digest.to_hex (Digest.string "k") ^ ".an")
  in
  Sys.mkdir entry 0o755;
  let occupant = Filename.concat entry "occupant" in
  close_out (open_out occupant);
  let before = DC.stats () in
  DC.store ~key:"k" p;
  let after = DC.stats () in
  check_int "counted as an error" 1 (after.DC.dc_errors - before.DC.dc_errors);
  check_int "not counted as a store" 0
    (after.DC.dc_stores - before.DC.dc_stores);
  check_bool "only the occupied entry path remains" true
    (Sys.readdir (DC.dir ()) = [| Filename.basename entry |]);
  Sys.remove occupant;
  Sys.rmdir entry

(* --- persistence through Analysis_cache --- *)

(* A configuration no other suite in this binary analyses, so the
   in-memory memo can be reset and exercised in isolation. *)
let private_ctx () =
  Sel4_rt.Analysis_ctx.make ~config:Hw.Config.with_l2
    ~build:Sel4.Build.original ()

let test_memo_warm_via_disk () =
  DC.set_dir (fresh_dir ());
  DC.install ();
  Fun.protect ~finally:DC.uninstall (fun () ->
      (* The default key, plus the manual-only and derived-only constraint
         sources and the unconstrained baseline (Section 6.3) over the same
         prefix: each is its own disk key. *)
      let analyse () =
        List.map
          (fun sources -> AC.computed ~sources (private_ctx ()) KM.Interrupt)
          [ `All; `Manual; `Derived; `None ]
      in
      AC.reset ();
      let cold = analyse () in
      let s = AC.stats () in
      check_int "cold run solves" 4 s.AC.misses;
      check_int "cold run has no disk hits" 0 s.AC.disk_hits;
      (* A fresh memo (fresh process, same disk): the results must come
         back from disk with zero cold solves and the identical bounds. *)
      AC.reset ();
      let warm = analyse () in
      let s = AC.stats () in
      check_int "warm run never solves" 0 s.AC.misses;
      check_int "warm run disk hits" 4 s.AC.disk_hits;
      List.iter2
        (fun (cold : Wcet.Ipet.result) (warm : Wcet.Ipet.result) ->
          check_int "bit-identical bound" cold.Wcet.Ipet.wcet
            warm.Wcet.Ipet.wcet;
          check_bool "block counts identical" true
            (cold.Wcet.Ipet.block_counts = warm.Wcet.Ipet.block_counts);
          check_bool "binding constraints identical" true
            (cold.Wcet.Ipet.binding_constraints
            = warm.Wcet.Ipet.binding_constraints);
          check_int "solver stats identical" cold.Wcet.Ipet.lp_solves
            warm.Wcet.Ipet.lp_solves)
        cold warm)

(* The same contract across a real process boundary: a child process
   (this binary, re-executed with SEL4RT_SERVE_CHILD=populate) fills the
   disk cache and prints its bound; the parent reads it back without a
   single solve. *)
let child_env_var = "SEL4RT_SERVE_CHILD"

let run_populate_child () =
  DC.install ();
  let r = Sel4_rt.Response_time.computed (private_ctx ()) KM.Interrupt in
  print_int r.Wcet.Ipet.wcet;
  print_newline ();
  exit (if AC.(stats ()).AC.misses = 1 then 0 else 3)

let test_cross_process_round_trip () =
  let dir = fresh_dir () in
  let out = Filename.temp_file "serve-child" ".out" in
  Unix.putenv "SEL4RT_CACHE_DIR" dir;
  Unix.putenv child_env_var "populate";
  let rc =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv child_env_var "";
        Unix.putenv "SEL4RT_CACHE_DIR" "")
      (fun () ->
        Sys.command
          (Printf.sprintf "%s > %s"
             (Filename.quote Sys.executable_name)
             (Filename.quote out)))
  in
  check_int "child populated the cache and solved exactly once" 0 rc;
  let ic = open_in out in
  let child_bound = int_of_string (String.trim (input_line ic)) in
  close_in ic;
  Sys.remove out;
  DC.set_dir dir;
  DC.install ();
  Fun.protect ~finally:DC.uninstall (fun () ->
      AC.reset ();
      let r = Sel4_rt.Response_time.computed (private_ctx ()) KM.Interrupt in
      let s = AC.stats () in
      check_int "parent run never solves" 0 s.AC.misses;
      check_int "parent run reads the child's entry" 1 s.AC.disk_hits;
      check_int "bound identical across processes" child_bound r.Wcet.Ipet.wcet)

(* --- rehydration at the Ipet layer --- *)

let test_rehydrate_identity () =
  let spec = KM.spec Sel4.Build.improved KM.Syscall in
  let prepared = Wcet.Ipet.prepare ~config:Hw.Config.default spec in
  let cold = Wcet.Ipet.analyse_prepared prepared in
  (* Rehydration (the disk-hit path) reconstitutes the full result. *)
  let r = Wcet.Ipet.rehydrate prepared (Wcet.Ipet.to_persisted cold) in
  check_int "rehydrated wcet" cold.Wcet.Ipet.wcet r.Wcet.Ipet.wcet;
  check_bool "rehydrated counts" true
    (cold.Wcet.Ipet.block_counts = r.Wcet.Ipet.block_counts);
  check_bool "rehydrated edges" true
    (cold.Wcet.Ipet.edge_counts = r.Wcet.Ipet.edge_counts);
  check_bool "rehydrated binding constraints" true
    (cold.Wcet.Ipet.binding_constraints = r.Wcet.Ipet.binding_constraints)

(* --- the presolved solver on the wire grid's LPs --- *)

(* Every IPET result behind the 80 analyse/explain wire keys (4 builds x
   5 targets x L2 x pin; kernel_entry is its syscall and interrupt
   results) is the one the unreduced LP's exact optimum reads as, and no
   solve behind them left the presolved float path. *)
let test_presolve_matches_exact () =
  let fallbacks = Obs.Metrics.counter "ipet.exact_fallbacks" in
  let before = Obs.Metrics.value fallbacks in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  List.iter
    (fun build_name ->
      let build = ok (Q.build_of_string build_name) in
      List.iter
        (fun target_name ->
          let entries =
            match ok (Q.target_of_string target_name) with
            | Q.Kernel_entry -> [ KM.Syscall; KM.Interrupt ]
            | Q.Entry e -> [ e ]
          in
          List.iter
            (fun (l2, pin) ->
              let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
              List.iter
                (fun entry ->
                  let key =
                    Fmt.str "%s %s/%s l2=%b pin=%b" build_name target_name
                      (KM.entry_name entry) l2 pin
                  in
                  let prepared =
                    Wcet.Ipet.prepare ~config:ctx.Sel4_rt.Analysis_ctx.config
                      ~pinned_code:ctx.pins.code ~pinned_data:ctx.pins.data
                      (KM.spec ~params:ctx.params build entry)
                  in
                  let r = Wcet.Ipet.analyse_prepared prepared in
                  let problem, read = Wcet.Ipet.ilp prepared in
                  let lp = Ilp.Problem.to_lp problem in
                  let e =
                    match Ilp.Simplex.solve_exact lp with
                    | Ilp.Simplex.Optimal s ->
                        read (Array.map Ilp.Rat.to_int_exn s.values)
                    | other ->
                        Alcotest.failf "%s: exact %a" key Ilp.Simplex.pp_result
                          other
                  in
                  check_int (key ^ " wcet") e.Wcet.Ipet.wcet r.Wcet.Ipet.wcet;
                  check_bool (key ^ " block_counts") true
                    (e.block_counts = r.block_counts);
                  check_bool (key ^ " edge_counts") true
                    (e.edge_counts = r.edge_counts);
                  check_bool (key ^ " binding_constraints") true
                    (e.binding_constraints = r.binding_constraints);
                  check_int (key ^ " ilp_vars") lp.Ilp.Simplex.num_vars
                    r.ilp_vars;
                  check_int (key ^ " ilp_constraints")
                    (List.length lp.constraints) r.ilp_constraints)
                entries)
            [ (false, false); (false, true); (true, false); (true, true) ])
        [ "kernel_entry"; "syscall"; "interrupt"; "fault"; "undefined" ])
    [ "improved"; "original"; "benno"; "lazy" ];
  check_int "ipet.exact_fallbacks" before (Obs.Metrics.value fallbacks)

(* --- the analysis payloads --- *)

(* Pinned md5 of every analyse and explain payload over the 80-key wire
   grid: a change to the analysis engine that moves any bound, basis,
   binding-constraint label or ILP statistic fails here, naming the
   request it moved. *)
let payload_digests =
  [
    ("analyse kernel_entry improved l2=false pin=false", "92f58a3813f6eecc1ed91dfaea71c38e");
    ("analyse kernel_entry improved l2=false pin=true", "ea7f9b800d9a95cab414db78c670d8c8");
    ("analyse kernel_entry improved l2=true pin=false", "8206428f8d724e5cd90a20519ecb8f3a");
    ("analyse kernel_entry improved l2=true pin=true", "b49c2a8b9fae5a1ff3007f6941284a34");
    ("analyse kernel_entry original l2=false pin=false", "b346ca1edc1f90c031e3a35cddc2ed0e");
    ("analyse kernel_entry original l2=false pin=true", "3a69343fc41da9093ae797ffd2f307fa");
    ("analyse kernel_entry original l2=true pin=false", "c4aec517edc0ccad6d5bcab0c6402a01");
    ("analyse kernel_entry original l2=true pin=true", "28117d09a4ea219f3145ac73b4c98031");
    ("analyse kernel_entry benno l2=false pin=false", "a2e5a7a16185f702fe3e40a00b7356c9");
    ("analyse kernel_entry benno l2=false pin=true", "1c922314f96d01cbc0088661d6134810");
    ("analyse kernel_entry benno l2=true pin=false", "589539923c3fbbadbc622e404b78f0bf");
    ("analyse kernel_entry benno l2=true pin=true", "50c46436d6db46040c46d1e36e306cbf");
    ("analyse kernel_entry lazy l2=false pin=false", "c41b14ac92055b87f83bc1fb52340c6f");
    ("analyse kernel_entry lazy l2=false pin=true", "fdfea82c08a045a1769eb06215e3978a");
    ("analyse kernel_entry lazy l2=true pin=false", "82c7178c75337e1356e408e180cf4162");
    ("analyse kernel_entry lazy l2=true pin=true", "516b1f5360dd40608c1d906f8da23ff8");
    ("analyse syscall improved l2=false pin=false", "81072cb9f779d94f58a92967249a87ce");
    ("analyse syscall improved l2=false pin=true", "6b4ebbf9340ed97b0a23f90731381828");
    ("analyse syscall improved l2=true pin=false", "a29f20f62432345ef1e444d2d7ed9174");
    ("analyse syscall improved l2=true pin=true", "11c65874c4723ffe2ef88f02b19232d5");
    ("analyse syscall original l2=false pin=false", "80d779baf6e82dc06567cbf8640854f1");
    ("analyse syscall original l2=false pin=true", "91d91ce9a85c279a4f37d85e0736519d");
    ("analyse syscall original l2=true pin=false", "faace4f09fd86e554aa4b27a0d8c6f98");
    ("analyse syscall original l2=true pin=true", "596a53b307502e82d487453776abf6b5");
    ("analyse syscall benno l2=false pin=false", "af823a1430ab5332f514448d2183f5ab");
    ("analyse syscall benno l2=false pin=true", "da9bd969aae0c4a38c27e468bb60a211");
    ("analyse syscall benno l2=true pin=false", "6fc10acc4b8882c5fe9af1323f6ce421");
    ("analyse syscall benno l2=true pin=true", "86828dd79b64945cb852fa7c412aabdf");
    ("analyse syscall lazy l2=false pin=false", "7f313b91257734c5c666f3a81580649e");
    ("analyse syscall lazy l2=false pin=true", "c668ef5f437acb21d5f4de8d0f3eb033");
    ("analyse syscall lazy l2=true pin=false", "89d51ddde63fc5c8d31ddea78b1329c8");
    ("analyse syscall lazy l2=true pin=true", "83c79b73fe402bbdf7cc56dbf00a917f");
    ("analyse interrupt improved l2=false pin=false", "9b0f74328481e2d2885102ac8e7fd071");
    ("analyse interrupt improved l2=false pin=true", "abc3421adf07653bce2b32b06376b203");
    ("analyse interrupt improved l2=true pin=false", "a67cebd2836efb654bb138fa4ae52666");
    ("analyse interrupt improved l2=true pin=true", "ce026089953fa96d75a77ca65bc22079");
    ("analyse interrupt original l2=false pin=false", "21d657eaf65478ab5a5cca301ae40dce");
    ("analyse interrupt original l2=false pin=true", "0d868b5cc431b500f3f0f07e425729d4");
    ("analyse interrupt original l2=true pin=false", "3b76e07e9750fef7099b0869e36da33b");
    ("analyse interrupt original l2=true pin=true", "ee55212171c328b209eb830d01ddb4ce");
    ("analyse interrupt benno l2=false pin=false", "59297444053777ffd42188870db487e8");
    ("analyse interrupt benno l2=false pin=true", "556c0c2a9df65dd86cf206aae988f53d");
    ("analyse interrupt benno l2=true pin=false", "4c1de57a7619ce5b2f7448d3b0aaca1d");
    ("analyse interrupt benno l2=true pin=true", "ec992625a6bb4036d70d642210d34627");
    ("analyse interrupt lazy l2=false pin=false", "f0e6dae70ce81aeac5102d4f2e61796e");
    ("analyse interrupt lazy l2=false pin=true", "b570bb8ae0f50b7031e640f673924baa");
    ("analyse interrupt lazy l2=true pin=false", "6e7d4a1164a2e3141f5367befd71de0b");
    ("analyse interrupt lazy l2=true pin=true", "00beb26960be0b150d8034906bd8eb45");
    ("analyse fault improved l2=false pin=false", "f8405766b92e8cd085ec53eda4a53936");
    ("analyse fault improved l2=false pin=true", "ae1c161ab250b9481737419ee369ca5b");
    ("analyse fault improved l2=true pin=false", "dbc7c73bc257625fe9a853483bad6630");
    ("analyse fault improved l2=true pin=true", "f19e351253774efcf91db0ff0a466f48");
    ("analyse fault original l2=false pin=false", "2396e72e15a967bc3dad22c0287e0ab9");
    ("analyse fault original l2=false pin=true", "f76d2350c7cae862ad915d3b7d56b982");
    ("analyse fault original l2=true pin=false", "7773c8be26a612c1ce582ccedb7f231f");
    ("analyse fault original l2=true pin=true", "8a7e89e4b7b9e6ad8afcf91513deed07");
    ("analyse fault benno l2=false pin=false", "e1be8fca0e949ff63d8cb889a8a420df");
    ("analyse fault benno l2=false pin=true", "d9fcd78f177e4ef4438c039d85f4d03e");
    ("analyse fault benno l2=true pin=false", "3fccf124757d678738a07563b203bf58");
    ("analyse fault benno l2=true pin=true", "f77aebe2b660e2ff20681185cea162cb");
    ("analyse fault lazy l2=false pin=false", "830d5557fe43cfb45be4f3367a885979");
    ("analyse fault lazy l2=false pin=true", "0be734ff3d5a54cdaab14d9a5abe9315");
    ("analyse fault lazy l2=true pin=false", "20915890529c41dc89448054514cce69");
    ("analyse fault lazy l2=true pin=true", "2a4a4c2c72d594172c3ffa75809c01d4");
    ("analyse undefined improved l2=false pin=false", "6235530e646e424f40192c7c2d6696e0");
    ("analyse undefined improved l2=false pin=true", "81ae1b21906997e9c0d0fe79e8b1e80a");
    ("analyse undefined improved l2=true pin=false", "1b007571a10571ac667a2702b73c1e7d");
    ("analyse undefined improved l2=true pin=true", "261c9d0e74bfdf9d35091e066c726706");
    ("analyse undefined original l2=false pin=false", "c83f7ef92f8073f764667c7e8d619d42");
    ("analyse undefined original l2=false pin=true", "107d30f413ed9444ab08a04711b5f688");
    ("analyse undefined original l2=true pin=false", "cacd0d21e62331e9e47dbff8b2d07d90");
    ("analyse undefined original l2=true pin=true", "aa2e6d7d7ba956323f64e4e685267da3");
    ("analyse undefined benno l2=false pin=false", "a644b7f2ad74baaa56d7dc114b04ae06");
    ("analyse undefined benno l2=false pin=true", "9da060052273c5749ff93eec29520f9e");
    ("analyse undefined benno l2=true pin=false", "a800584fc37a089d82bc1068fce3cc4e");
    ("analyse undefined benno l2=true pin=true", "7768f440ffa919ea7ac6489c25e6bbbf");
    ("analyse undefined lazy l2=false pin=false", "4ee593b6e62c3b46280571980682dcd4");
    ("analyse undefined lazy l2=false pin=true", "688935ac13cf5cb238a078978326b981");
    ("analyse undefined lazy l2=true pin=false", "473a432f6a43222836bd98c67a8988b6");
    ("analyse undefined lazy l2=true pin=true", "0036bcf8787d5606a8c8835c8db6335a");
    ("explain kernel_entry improved l2=false pin=false", "b7a72f2fc874828bef62f9e0f0bd0847");
    ("explain kernel_entry improved l2=false pin=true", "623928bc86a13524b220fa804913479f");
    ("explain kernel_entry improved l2=true pin=false", "9311da14ca61a9e8e4f42cd1561ec7f9");
    ("explain kernel_entry improved l2=true pin=true", "1003e5238ce3f641d11739b2a1ba77f2");
    ("explain kernel_entry original l2=false pin=false", "e8c514bddc89b0d0017b6abcaa8777a8");
    ("explain kernel_entry original l2=false pin=true", "4eef49f10fa4ff7dddc8220844e3c0c5");
    ("explain kernel_entry original l2=true pin=false", "25b88821923dfb7ff29e754dfd0bb911");
    ("explain kernel_entry original l2=true pin=true", "4c0c100380884797dbc13ac92c883dfe");
    ("explain kernel_entry benno l2=false pin=false", "ec1ef7add845a69430cd4923b7d03c89");
    ("explain kernel_entry benno l2=false pin=true", "44daa54be307e564c289f3f4dab2d27c");
    ("explain kernel_entry benno l2=true pin=false", "e809bcbc83165b039438bd4df00c3346");
    ("explain kernel_entry benno l2=true pin=true", "d722d8544d58591fa67b50cb0a83f0b4");
    ("explain kernel_entry lazy l2=false pin=false", "60eb4511d8efd5ff5d99db8d34930547");
    ("explain kernel_entry lazy l2=false pin=true", "4e3caefed125da89a60f65fbda30c262");
    ("explain kernel_entry lazy l2=true pin=false", "531b54d98a16602146496dd382850712");
    ("explain kernel_entry lazy l2=true pin=true", "9085eb3c5a89f69f55396fedd6181198");
    ("explain syscall improved l2=false pin=false", "d0e45b5445f0761db7c12508a9dd87ac");
    ("explain syscall improved l2=false pin=true", "05cde8ee8a8f0edd4467f9fa484e9897");
    ("explain syscall improved l2=true pin=false", "226899f53c73449850303737216a6a93");
    ("explain syscall improved l2=true pin=true", "ac5fb1f8a7fcfd7a6bf4bf968f513348");
    ("explain syscall original l2=false pin=false", "a61c028610884dd1c7d7039216b696f3");
    ("explain syscall original l2=false pin=true", "521607fc11e82ae66fcaecfb40a018c4");
    ("explain syscall original l2=true pin=false", "8474da92e879857f7ad96efcdbedbeb4");
    ("explain syscall original l2=true pin=true", "77769777eea1637d35d177e8d8971b3a");
    ("explain syscall benno l2=false pin=false", "dc07623383e65984415a013b7067c765");
    ("explain syscall benno l2=false pin=true", "5e917079c829a9607067448b75779a96");
    ("explain syscall benno l2=true pin=false", "603e5a3a9ec9630b90fe907feb2bfc84");
    ("explain syscall benno l2=true pin=true", "0ae5dd93fad555a9751304f4d2e2b91a");
    ("explain syscall lazy l2=false pin=false", "17709f84552f9aa228a49b3ce04510fb");
    ("explain syscall lazy l2=false pin=true", "f4bedd6b94fc4f5ecc0a72171bc680b3");
    ("explain syscall lazy l2=true pin=false", "13b9d740dc7310167ae6fff2bad48519");
    ("explain syscall lazy l2=true pin=true", "1a7e9572fa68068990df7fc3ec75a4ff");
    ("explain interrupt improved l2=false pin=false", "47be179112a933253f6ff20936173b3e");
    ("explain interrupt improved l2=false pin=true", "3333091e74f93393f88fdff8ecdd51f5");
    ("explain interrupt improved l2=true pin=false", "a38d9cb4993e0bbfb6128fa8a03775aa");
    ("explain interrupt improved l2=true pin=true", "8db731db33f7a548c7d9da3428855b2b");
    ("explain interrupt original l2=false pin=false", "ac98796dfc99170dacecbe1ef112bed3");
    ("explain interrupt original l2=false pin=true", "6d47a8a315f27c3bea367110ddfd0a3f");
    ("explain interrupt original l2=true pin=false", "ae14a2f9acfe439236cc1a5d3f0b1eb7");
    ("explain interrupt original l2=true pin=true", "165048058e02d7c8ae758587f36c2655");
    ("explain interrupt benno l2=false pin=false", "ebebb508ae63107f9f8d61595ea18084");
    ("explain interrupt benno l2=false pin=true", "ce131c57f6e44b7cd3e47518f68f00ce");
    ("explain interrupt benno l2=true pin=false", "96a96e7d189665fb402decb335ea1bbb");
    ("explain interrupt benno l2=true pin=true", "388cc6944fc0cadc3ea00177dbdcd145");
    ("explain interrupt lazy l2=false pin=false", "ac98796dfc99170dacecbe1ef112bed3");
    ("explain interrupt lazy l2=false pin=true", "6d47a8a315f27c3bea367110ddfd0a3f");
    ("explain interrupt lazy l2=true pin=false", "ae14a2f9acfe439236cc1a5d3f0b1eb7");
    ("explain interrupt lazy l2=true pin=true", "165048058e02d7c8ae758587f36c2655");
    ("explain fault improved l2=false pin=false", "05e2625ccb7afbf2441a9249c27c98c4");
    ("explain fault improved l2=false pin=true", "6927462fc5396936e8322bb58e553701");
    ("explain fault improved l2=true pin=false", "ef35be565307e4733fd9ad06e530f762");
    ("explain fault improved l2=true pin=true", "4da768c9f26eb3aad20a7f7fb65f94a5");
    ("explain fault original l2=false pin=false", "1b652b9a15581e9b47a793c529f17681");
    ("explain fault original l2=false pin=true", "47252eb6bc754d6aada8c4b86344e866");
    ("explain fault original l2=true pin=false", "d923875ebd2abe91c1459549e1b183ee");
    ("explain fault original l2=true pin=true", "75c37e165dd788b18e469f60ae8044b5");
    ("explain fault benno l2=false pin=false", "520851eeccdfbdac6c4f8c0c7ebef26f");
    ("explain fault benno l2=false pin=true", "08c2fca279831d37671b4783babf9010");
    ("explain fault benno l2=true pin=false", "1aa3b995ef76a10ba227f5abc2e8b176");
    ("explain fault benno l2=true pin=true", "62ca6d840950d7adb2b90941b3941f21");
    ("explain fault lazy l2=false pin=false", "1b652b9a15581e9b47a793c529f17681");
    ("explain fault lazy l2=false pin=true", "47252eb6bc754d6aada8c4b86344e866");
    ("explain fault lazy l2=true pin=false", "d923875ebd2abe91c1459549e1b183ee");
    ("explain fault lazy l2=true pin=true", "75c37e165dd788b18e469f60ae8044b5");
    ("explain undefined improved l2=false pin=false", "f56ba216e795dd745d5bc4d3832bc766");
    ("explain undefined improved l2=false pin=true", "99fe4817cb68f944eb049cf8c4312157");
    ("explain undefined improved l2=true pin=false", "3418bb22e41bd51f6ab124bc326f69f8");
    ("explain undefined improved l2=true pin=true", "10e0df07d2b91290a312639b69fe92fb");
    ("explain undefined original l2=false pin=false", "e0a0cdc3554d737e6c5e923ef3adcac4");
    ("explain undefined original l2=false pin=true", "d9fc9df8ef49c6506d0477207f745e4b");
    ("explain undefined original l2=true pin=false", "63682325f07cdc73d0a06075f35e86cb");
    ("explain undefined original l2=true pin=true", "2606d178e8b45f57b657fa3b96bb6fb6");
    ("explain undefined benno l2=false pin=false", "75de7dc0b1be6e6a0374d55e314e71a7");
    ("explain undefined benno l2=false pin=true", "6832424e1eda2b2cd15362ee0a6bb978");
    ("explain undefined benno l2=true pin=false", "92406924c90d2a0184e20cec193c0244");
    ("explain undefined benno l2=true pin=true", "e07986553e5b50d3570eefd1627d9526");
    ("explain undefined lazy l2=false pin=false", "e0a0cdc3554d737e6c5e923ef3adcac4");
    ("explain undefined lazy l2=false pin=true", "d9fc9df8ef49c6506d0477207f745e4b");
    ("explain undefined lazy l2=true pin=false", "63682325f07cdc73d0a06075f35e86cb");
    ("explain undefined lazy l2=true pin=true", "2606d178e8b45f57b657fa3b96bb6fb6");
  ]

let test_payload_digests () =
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let ( let* ) l f = List.concat_map f l in
  let actual =
    let* kind = [ "analyse"; "explain" ] in
    let* target_name =
      [ "kernel_entry"; "syscall"; "interrupt"; "fault"; "undefined" ]
    in
    let* build_name = [ "improved"; "original"; "benno"; "lazy" ] in
    let* l2 = [ false; true ] in
    let* pin = [ false; true ] in
    let target = ok (Q.target_of_string target_name)
    and build = ok (Q.build_of_string build_name) in
    let request =
      if kind = "analyse" then Q.Analyse { target; build; l2; pin }
      else Q.Explain { target; build; l2; pin }
    in
    let outcome = Q.run request in
    [
      ( Fmt.str "%s %s %s l2=%b pin=%b" kind target_name build_name l2 pin,
        Digest.to_hex (Digest.string outcome.Q.payload) );
    ]
  in
  if actual <> payload_digests then begin
    List.iter (fun (n, d) -> Fmt.epr "    (%S, %S);@." n d) actual;
    Alcotest.fail "analysis payload digests moved (actual values above)"
  end

let () =
  (* The cross-process test re-executes this binary as a cache-populate
     child; the guard must run before Alcotest takes over. *)
  (match Sys.getenv_opt child_env_var with
  | Some "populate" -> run_populate_child ()
  | _ -> ());
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "schema pin" `Quick test_envelope_schema;
          Alcotest.test_case "no id / bad payload" `Quick
            test_envelope_no_id_and_bad_payload;
        ] );
      ( "query",
        [
          Alcotest.test_case "wire parsing" `Quick test_query_of_json;
          Alcotest.test_case "respond deterministic" `Quick
            test_query_respond_deterministic;
          Alcotest.test_case "serve_channels protocol" `Quick
            test_serve_channels;
        ] );
      ( "disk_cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "version invalidation" `Quick
            test_disk_version_invalidation;
          Alcotest.test_case "corruption recovery" `Quick
            test_disk_corruption_recovery;
          Alcotest.test_case "concurrent writers" `Quick
            test_disk_concurrent_writers;
          Alcotest.test_case "eviction cap" `Quick test_disk_eviction;
          Alcotest.test_case "failed store leaves no file" `Quick
            test_disk_failed_store_leaves_nothing;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "memo warm start via disk" `Quick
            test_memo_warm_via_disk;
          Alcotest.test_case "cross-process roundtrip" `Quick
            test_cross_process_round_trip;
          Alcotest.test_case "rehydrate identity" `Quick
            test_rehydrate_identity;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "presolve matches exact on the wire grid" `Quick
            test_presolve_matches_exact;
          Alcotest.test_case "analysis payload digests" `Quick
            test_payload_digests;
        ] );
    ]
