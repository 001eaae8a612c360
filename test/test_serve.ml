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
        ] );
    ]
