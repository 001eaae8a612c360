(* Tests of the observability layer: ring-buffer semantics, trace
   determinism (identical event streams run after run), zero overhead
   (observed cycle counts bit-identical with tracing on or off), latency
   attribution, metrics registry behaviour, and validity of the emitted
   JSON. *)

module T = Obs.Trace
module M = Obs.Metrics
module A = Obs.Attrib
module W = Sel4_rt.Workloads
module KM = Sel4_rt.Kernel_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- an independent minimal JSON parser, the check on Obs.Json's
   printer: strict about raw control characters in strings, decoding
   escapes (ASCII only) --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          let simple c =
            advance ();
            Buffer.add_char b c
          in
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> simple c
          | Some 'b' -> simple '\b'
          | Some 'f' -> simple '\012'
          | Some 'n' -> simple '\n'
          | Some 'r' -> simple '\r'
          | Some 't' -> simple '\t'
          | Some 'u' ->
              advance ();
              let hex = Buffer.create 4 in
              for _ = 1 to 4 do
                match peek () with
                | Some (('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as c) ->
                    advance ();
                    Buffer.add_char hex c
                | _ -> fail "bad \\u escape"
              done;
              (* ASCII decodes exactly; anything wider is not needed here. *)
              let code = int_of_string ("0x" ^ Buffer.contents hex) in
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character"
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      | None -> fail "unterminated string"
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elems [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* --- ring buffer --- *)

let test_ring () =
  let t = T.create ~capacity:4 () in
  check_int "capacity" 4 (T.capacity t);
  for i = 1 to 6 do
    T.emit t ~at:(i * 10) ~stall:i (T.Marker (string_of_int i))
  done;
  check_int "length" 4 (T.length t);
  check_int "dropped" 2 (T.dropped t);
  let marks =
    List.map
      (fun (e : T.event) ->
        match e.T.kind with T.Marker m -> m | _ -> "?")
      (T.events t)
  in
  Alcotest.(check (list string)) "oldest first" [ "3"; "4"; "5"; "6" ] marks;
  T.clear t;
  check_int "cleared" 0 (T.length t);
  check_int "cleared dropped" 0 (T.dropped t)

(* --- trace determinism: same scenario, same seed => same events --- *)

let trace_of ~seed entry =
  let buf = T.create () in
  let outcome, cycles =
    W.run_traced ~buf ~seed (Sel4_rt.Analysis_ctx.default) entry
  in
  (match outcome with
  | Sel4.Kernel.Failed e -> Alcotest.fail ("scenario failed: " ^ e)
  | _ -> ());
  (cycles, T.events buf)

let test_determinism () =
  List.iter
    (fun entry ->
      let c1, e1 = trace_of ~seed:3 entry in
      let c2, e2 = trace_of ~seed:3 entry in
      check_int (KM.entry_name entry ^ ": cycles repeat") c1 c2;
      check_int
        (KM.entry_name entry ^ ": event count repeats")
        (List.length e1) (List.length e2);
      check_bool (KM.entry_name entry ^ ": event streams identical") true
        (e1 = e2))
    [ KM.Syscall; KM.Interrupt ]

(* --- zero overhead: tracing must not change observed cycle counts --- *)

let test_zero_overhead () =
  List.iter
    (fun entry ->
      let plain = W.observed ~runs:4 Sel4_rt.Analysis_ctx.default entry in
      let traced, prov =
        W.observed_traced ~runs:4 Sel4_rt.Analysis_ctx.default entry
      in
      check_int (KM.entry_name entry ^ ": observed unchanged") plain traced;
      check_bool
        (KM.entry_name entry ^ ": provenance names the workload")
        true
        (prov.W.workload = KM.entry_name entry))
    [ KM.Syscall; KM.Interrupt; KM.Page_fault ]

(* --- latency attribution on synthetic traces --- *)

let ev at stall kind = { T.at; stall; kind }

let test_attribution_irq () =
  let events =
    [
      ev 100 0 (T.Kernel_enter { event = "retype" });
      ev 150 12 (T.Preempt_point { taken = true });
      ev 160 15 (T.Irq_deliver { line = 5; latency = 60 });
      ev 200 20 (T.Kernel_exit { outcome = "preempted" });
    ]
  in
  match A.irq_breakdowns events with
  | [ bd ] ->
      check_int "line" 5 bd.A.line;
      check_int "asserted_at" 100 bd.A.asserted_at;
      check_int "delivered_at" 160 bd.A.delivered_at;
      check_string "section" "retype" bd.A.section;
      (match bd.A.cycles_to_preempt with
      | Some c -> check_int "cycles_to_preempt" 50 c
      | None -> Alcotest.fail "expected a preemption point");
      check_int "stall" 15 bd.A.stall_cycles;
      check_int "compute" 45 bd.A.compute_cycles;
      check_int "stall+compute=latency" bd.A.latency
        (bd.A.stall_cycles + bd.A.compute_cycles)
  | l -> Alcotest.failf "expected 1 breakdown, got %d" (List.length l)

let test_attribution_section () =
  let events =
    [
      ev 0 0 (T.Kernel_enter { event = "delete" });
      ev 100 30 (T.Preempt_point { taken = false });
      ev 150 40 (T.Preempt_point { taken = false });
      ev 400 90 (T.Kernel_exit { outcome = "completed" });
    ]
  in
  match A.longest_nonpreemptible events with
  | Some sec ->
      check_string "label" "delete" sec.A.sec_label;
      check_int "cycles" 250 sec.A.sec_cycles;
      check_int "stall" 50 sec.A.sec_stall
  | None -> Alcotest.fail "expected a section"

let test_attribution_real_interrupt () =
  let buf = T.create () in
  let _ =
    W.run_traced ~buf ~seed:2 Sel4_rt.Analysis_ctx.default KM.Interrupt
  in
  match A.irq_breakdowns (T.events buf) with
  | [] -> Alcotest.fail "interrupt run must record a delivery"
  | bds ->
      List.iter
        (fun (bd : A.irq_breakdown) ->
          check_bool "latency positive" true (bd.A.latency > 0);
          check_int "split adds up" bd.A.latency
            (bd.A.stall_cycles + bd.A.compute_cycles);
          check_int "assert/deliver consistent" bd.A.latency
            (bd.A.delivered_at - bd.A.asserted_at))
        bds

(* A trace with two IRQ lines asserted inside different kernel sections,
   one of them while a previous delivery is still outstanding: every
   breakdown must recover its own assertion point and section. *)
let test_attribution_multi_line () =
  let events =
    [
      ev 100 0 (T.Kernel_enter { event = "call" });
      ev 180 10 (T.Irq_deliver { line = 3; latency = 80 });
      ev 300 20 (T.Kernel_exit { outcome = "completed" });
      ev 350 20 (T.Kernel_enter { event = "interrupt" });
      ev 420 25 (T.Irq_deliver { line = 9; latency = 100 });
      ev 500 30 (T.Kernel_exit { outcome = "completed" });
    ]
  in
  match A.irq_breakdowns events with
  | [ b3; b9 ] ->
      check_int "line 3 first" 3 b3.A.line;
      check_int "line 3 asserted" 100 b3.A.asserted_at;
      check_string "line 3 section" "call" b3.A.section;
      check_int "line 9 second" 9 b9.A.line;
      check_int "line 9 asserted" 320 b9.A.asserted_at;
      (* Line 9's assertion predates the interrupt entry at 350: it landed
         on the user side of the exit at 300. *)
      check_string "line 9 section" "user" b9.A.section;
      List.iter
        (fun (b : A.irq_breakdown) ->
          check_int "split adds up" b.A.latency
            (b.A.stall_cycles + b.A.compute_cycles))
        [ b3; b9 ]
  | l -> Alcotest.failf "expected 2 breakdowns, got %d" (List.length l)

(* --- per-section cycle attribution of a window --- *)

let test_section_profile () =
  let events =
    [
      ev 100 0 (T.Kernel_enter { event = "call" });
      ev 250 10 (T.Kernel_exit { outcome = "completed" });
      ev 300 10 (T.Kernel_enter { event = "interrupt" });
      ev 400 15 (T.Irq_deliver { line = 1; latency = 260 });
      ev 420 15 (T.Kernel_exit { outcome = "completed" });
    ]
  in
  (* Window [140, 400]: 110 in call, 50 user (250..300), 100 interrupt,
     then the remaining 0 — sums to 260. *)
  let profile = A.section_profile events ~from:140 ~until:400 in
  check_int "sums to the window" 260
    (List.fold_left (fun a (_, c) -> a + c) 0 profile);
  check_int "call cycles" 110 (List.assoc "call" profile);
  check_int "interrupt cycles" 100 (List.assoc "interrupt" profile);
  check_int "user cycles" 50 (List.assoc "user" profile);
  check_bool "largest first" true
    (match profile with (_, a) :: (_, b) :: _ -> a >= b | _ -> false);
  (* Clipping: a window that starts before the trace and ends mid-section
     still sums exactly. *)
  let clipped = A.section_profile events ~from:0 ~until:200 in
  check_int "clipped sums" 200
    (List.fold_left (fun a (_, c) -> a + c) 0 clipped);
  check_int "clipped user prefix" 100 (List.assoc "user" clipped);
  check_int "clipped call" 100 (List.assoc "call" clipped);
  check_int "empty window" 0
    (List.fold_left
       (fun a (_, c) -> a + c)
       0
       (A.section_profile events ~from:200 ~until:200))

(* --- Chrome trace_event export --- *)

let test_chrome_json () =
  let buf = T.create () in
  let _ =
    W.run_traced ~buf ~seed:1 Sel4_rt.Analysis_ctx.default KM.Syscall
  in
  check_bool "trace non-empty" true (T.length buf > 0);
  let json =
    Obs.Json.to_string (T.to_chrome_json ~cycles_per_us:532.0 buf)
  in
  let v = try parse_json json with Bad_json m -> Alcotest.fail m in
  match member "traceEvents" v with
  | Some (Arr evs) ->
      check_bool "has events" true (List.length evs > 1);
      List.iter
        (fun e ->
          match (member "ph" e, member "pid" e) with
          | Some (Str _), Some (Num _) -> ()
          | _ -> Alcotest.fail "event missing ph/pid")
        evs
  | _ -> Alcotest.fail "no traceEvents array"

(* --- metrics registry --- *)

let test_metrics_counters () =
  let c = M.counter "test.counter" in
  M.set_counter c 0;
  M.incr c;
  M.incr ~by:41 c;
  check_int "counter value" 42 (M.value c);
  check_bool "interned" true (M.counter "test.counter" == c);
  let g = M.gauge "test.gauge" in
  M.set_gauge g 2.5;
  let h = M.histogram "test.hist" in
  M.observe h 3.0;
  M.observe h 5.0;
  M.observe h 1000.0;
  let s = M.snapshot () in
  check_bool "counter in snapshot" true
    (List.mem_assoc "test.counter" s.M.s_counters);
  check_bool "gauge in snapshot" true (List.mem_assoc "test.gauge" s.M.s_gauges);
  (match List.assoc_opt "test.hist" s.M.s_histograms with
  | Some hs ->
      check_int "hist count" 3 hs.M.hs_count;
      check_bool "hist max" true (hs.M.hs_max = 1000.0);
      (* 3.0 -> bucket 2 (2^1,2^2]; 5.0 -> bucket 3; 1000.0 -> bucket 10 *)
      Alcotest.(check (list (pair int int)))
        "buckets"
        [ (2, 1); (3, 1); (10, 1) ]
        hs.M.hs_buckets
  | None -> Alcotest.fail "histogram missing");
  let names = List.map fst s.M.s_counters in
  check_bool "counters sorted" true (names = List.sort compare names)

let test_metrics_json () =
  let c = M.counter "test.json_counter" in
  M.incr c;
  let json = Obs.Json.to_string (M.to_json (M.snapshot ())) in
  let v = try parse_json json with Bad_json m -> Alcotest.fail m in
  match member "counters" v with
  | Some (Obj kvs) ->
      check_bool "counter present" true (List.mem_assoc "test.json_counter" kvs)
  | _ -> Alcotest.fail "no counters object"

(* A name with every character class the escaper must handle goes
   through both renderings and through a metrics counter of that name,
   and parses back (with this file's parser and with Obs.Json's own) to
   the same string. *)
let test_json_escaping () =
  let name = "q\"b\\s\nn\tt\001x" in
  let v = Obs.Json.Obj [ (name, Obs.Json.Str name) ] in
  List.iter
    (fun (layout, text) ->
      (match parse_json text with
      | Obj [ (k, Str s) ] ->
          check_string (layout ^ ": key") name k;
          check_string (layout ^ ": value") name s
      | _ -> Alcotest.failf "%s: unexpected shape %s" layout text
      | exception Bad_json m -> Alcotest.failf "%s: %s in %s" layout m text);
      match Obs.Json.parse text with
      | Ok (Obs.Json.Obj [ (k, Obs.Json.Str s) ]) ->
          check_string (layout ^ ": Obs.Json key") name k;
          check_string (layout ^ ": Obs.Json value") name s
      | _ -> Alcotest.failf "%s: Obs.Json does not read back %s" layout text)
    [ ("compact", Obs.Json.to_compact v); ("one-line", Obs.Json.to_string v) ];
  M.incr (M.counter name);
  let json = Obs.Json.to_string (M.to_json (M.snapshot ())) in
  match parse_json json with
  | v -> (
      match member "counters" v with
      | Some (Obj kvs) ->
          check_bool "escaped counter name reads back" true
            (List.mem_assoc name kvs)
      | _ -> Alcotest.fail "no counters object")
  | exception Bad_json m -> Alcotest.failf "metrics json: %s" m

let test_metrics_span_and_reset () =
  let h = M.histogram "test.span" in
  let r = M.span h (fun () -> 7) in
  check_int "span returns" 7 r;
  (match List.assoc_opt "test.span" (M.snapshot ()).M.s_histograms with
  | Some hs -> check_bool "span observed" true (hs.M.hs_count >= 1)
  | None -> Alcotest.fail "span histogram missing");
  M.reset ();
  let s = M.snapshot () in
  check_bool "counters zeroed" true
    (List.for_all (fun (_, v) -> v = 0) s.M.s_counters);
  check_bool "histograms zeroed" true
    (List.for_all (fun (_, h) -> h.M.hs_count = 0) s.M.s_histograms)

let test_metrics_percentiles () =
  let h = M.histogram "test.pct" in
  for v = 1 to 100 do
    M.observe h (float_of_int v)
  done;
  match List.assoc_opt "test.pct" (M.snapshot ()).M.s_histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some hs ->
      check_bool "exact min" true (hs.M.hs_min = 1.0);
      check_bool "exact max" true (hs.M.hs_max = 100.0);
      (* Rank 50 lands in bucket (32, 64]; the conservative estimate is
         its upper bound. *)
      check_bool "p50 bucket upper bound" true (M.percentile hs 0.5 = 64.0);
      (* Quantiles that never under-report: the estimate dominates the
         exact value from the raw sample. *)
      List.iter
        (fun q ->
          let exact =
            float_of_int
              (max 1 (int_of_float (Float.ceil (q *. float_of_int hs.M.hs_count))))
          in
          check_bool
            (Fmt.str "p%g conservative" (q *. 100.0))
            true
            (M.percentile hs q >= exact))
        [ 0.1; 0.5; 0.9; 0.99; 1.0 ];
      (* The top quantile clamps to the exact maximum. *)
      check_bool "p100 is exact max" true (M.percentile hs 1.0 = 100.0);
      check_bool "p0 clamps to min" true (M.percentile hs 0.0 >= 1.0);
      let empty = M.histogram "test.pct_empty" in
      ignore empty;
      match List.assoc_opt "test.pct_empty" (M.snapshot ()).M.s_histograms with
      | Some e -> check_bool "empty percentile" true (M.percentile e 0.5 = 0.0)
      | None -> Alcotest.fail "empty histogram missing"

(* Small samples (at most 64 distinct values) get exact order-statistic
   percentiles, not the conservative bucket upper bound. *)
let test_metrics_exact_small () =
  let h = M.histogram "test.pct_exact" in
  List.iter (M.observe h) [ 7.0; 3.0; 11.0; 3.0; 40.0 ];
  (match List.assoc_opt "test.pct_exact" (M.snapshot ()).M.s_histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some hs ->
      (match hs.M.hs_exact with
      | Some vals ->
          Alcotest.(check (list (pair (float 0.0) int)))
            "exact multiset ascending"
            [ (3.0, 2); (7.0, 1); (11.0, 1); (40.0, 1) ]
            vals
      | None -> Alcotest.fail "exact multiset dropped below the limit");
      (* Rank statistics of [3;3;7;11;40]: p50 -> rank 3 = 7, not the
         bucket-8 upper bound the conservative path would report. *)
      check_bool "p50 exact" true (M.percentile hs 0.5 = 7.0);
      check_bool "p20 exact" true (M.percentile hs 0.2 = 3.0);
      check_bool "p90 exact" true (M.percentile hs 0.9 = 40.0);
      check_bool "p100 exact" true (M.percentile hs 1.0 = 40.0));
  (* Exactness survives reset. *)
  M.reset ();
  M.observe h 5.0;
  match List.assoc_opt "test.pct_exact" (M.snapshot ()).M.s_histograms with
  | Some hs -> check_bool "exact after reset" true (M.percentile hs 0.5 = 5.0)
  | None -> Alcotest.fail "histogram missing after reset"

(* Past 64 distinct values the multiset is dropped and the conservative
   bucket estimate takes over — pinning the current behaviour the
   [test_metrics_percentiles] case above relies on. *)
let test_metrics_exact_overflow () =
  let h = M.histogram "test.pct_overflow" in
  for v = 1 to 64 do
    M.observe h (float_of_int v)
  done;
  (match List.assoc_opt "test.pct_overflow" (M.snapshot ()).M.s_histograms with
  | Some hs ->
      check_bool "64 distinct still exact" true (hs.M.hs_exact <> None);
      check_bool "p50 exact at the limit" true (M.percentile hs 0.5 = 32.0)
  | None -> Alcotest.fail "histogram missing");
  M.observe h 65.0;
  match List.assoc_opt "test.pct_overflow" (M.snapshot ()).M.s_histograms with
  | Some hs ->
      check_bool "65th distinct value drops the multiset" true
        (hs.M.hs_exact = None);
      (* Back on the conservative path: bucket upper bound, never below
         the true quantile. *)
      check_bool "p50 conservative again" true (M.percentile hs 0.5 = 64.0)
  | None -> Alcotest.fail "histogram missing"

(* Ring overflow is not silent: every wrapped emission bumps the
   process-wide trace.dropped counter. *)
let test_trace_dropped_counter () =
  let c = M.counter "trace.dropped" in
  M.set_counter c 0;
  let t = T.create ~capacity:3 () in
  for i = 1 to 8 do
    T.emit t ~at:i ~stall:0 (T.Marker (string_of_int i))
  done;
  check_int "per-ring dropped" 5 (T.dropped t);
  check_int "registry counter" 5 (M.value c);
  M.set_counter c 0

(* --- bound profile (the `sel4rt explain` data model) --- *)

module BP = Obs.Bound_profile

let row ?(context = "") ?(count = 1) ~func ~label ~exec ~stall ~pipeline () =
  {
    BP.r_func = func;
    r_context = context;
    r_label = label;
    r_count = count;
    r_cycles = exec + stall + pipeline;
    r_exec = exec;
    r_stall = stall;
    r_pipeline = pipeline;
    r_fetch_misses = 0;
    r_data_misses = 0;
  }

(* Row components are per visit; every aggregate multiplies by the
   block's execution count.  vec_entry 1x100 + l_body 4x140 + sc_exit
   1x20 = 680. *)
let profile_fixture () =
  {
    BP.p_entry = "syscall";
    p_wcet = 680;
    p_rows =
      [
        row ~func:"syscall" ~label:"vec_entry" ~exec:10 ~stall:90 ~pipeline:0 ();
        row ~func:"lookup" ~context:"syscall/lookup@op" ~count:4 ~label:"l_body"
          ~exec:20 ~stall:120 ~pipeline:0 ();
        row ~func:"syscall" ~label:"sc_exit" ~exec:15 ~stall:0 ~pipeline:5 ();
      ];
    p_edges = [ (("vec_entry", "l_body"), 4); (("l_body", "sc_exit"), 1) ];
    p_binding = [ ("loop bound lookup/l_head <= 4 per entry", 0) ];
  }

let test_bound_profile_totals () =
  let p = profile_fixture () in
  check_int "total" 680 (BP.total p);
  check_bool "exact" true (BP.exact p);
  check_int "exec" 105 (BP.exec_total p);
  check_int "stall" 570 (BP.stall_total p);
  check_int "pipeline" 5 (BP.pipeline_total p);
  check_int "components partition the total" (BP.total p)
    (BP.exec_total p + BP.stall_total p + BP.pipeline_total p);
  (match BP.by_function p with
  | (f1, c1) :: _ ->
      check_string "largest function first" "lookup" f1;
      check_int "lookup cycles" 560 c1
  | [] -> Alcotest.fail "by_function empty");
  let broken = { p with BP.p_wcet = 681 } in
  check_bool "inexact detected" false (BP.exact broken)

let test_bound_profile_folded () =
  let p = profile_fixture () in
  let folded = BP.to_folded p in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' folded)
  in
  check_bool "one line per nonzero component" true (List.length lines = 6);
  let total =
    List.fold_left
      (fun acc line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed folded line %S" line
        | Some i ->
            acc
            + int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      0 lines
  in
  check_int "folded sums to the bound" 680 total;
  check_bool "frames are semicolon-separated from the entry" true
    (List.for_all
       (fun l -> String.length l > 8 && String.sub l 0 8 = "syscall;")
       lines)

let test_bound_profile_json () =
  let p = profile_fixture () in
  let v =
    try parse_json (Obs.Json.to_string (BP.to_json p))
    with Bad_json m -> Alcotest.fail m
  in
  (match member "wcet_cycles" v with
  | Some (Num n) -> check_int "wcet field" 680 (int_of_float n)
  | _ -> Alcotest.fail "no wcet_cycles");
  (match member "blocks" v with
  | Some (Arr rows) -> check_int "three blocks" 3 (List.length rows)
  | _ -> Alcotest.fail "no blocks");
  match member "binding_constraints" v with
  | Some (Arr [ _ ]) -> ()
  | _ -> Alcotest.fail "no binding constraints"

let test_bound_profile_concat () =
  let a = profile_fixture () in
  let b =
    {
      BP.p_entry = "interrupt";
      p_wcet = 40;
      p_rows =
        [ row ~func:"interrupt" ~label:"irq_entry" ~exec:40 ~stall:0 ~pipeline:0 () ];
      p_edges = [];
      p_binding = [];
    }
  in
  let joined = BP.concat ~entry:"kernel_entry" [ a; b ] in
  check_int "concat total" 720 (BP.total joined);
  check_bool "concat exact" true (BP.exact joined);
  check_string "concat entry" "kernel_entry" joined.BP.p_entry;
  check_bool "contexts keep their source entry" true
    (List.for_all
       (fun (r : BP.row) ->
         let c = r.BP.r_context in
         let has_prefix p =
           String.length c >= String.length p
           && String.sub c 0 (String.length p) = p
         in
         has_prefix "syscall" || has_prefix "interrupt")
       joined.BP.p_rows)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_ring;
          Alcotest.test_case "deterministic streams" `Slow test_determinism;
          Alcotest.test_case "zero overhead" `Slow test_zero_overhead;
          Alcotest.test_case "chrome json" `Slow test_chrome_json;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "irq breakdown" `Quick test_attribution_irq;
          Alcotest.test_case "longest section" `Quick test_attribution_section;
          Alcotest.test_case "multi-line irq trace" `Quick
            test_attribution_multi_line;
          Alcotest.test_case "section profile" `Quick test_section_profile;
          Alcotest.test_case "real interrupt" `Slow
            test_attribution_real_interrupt;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and histograms" `Quick
            test_metrics_counters;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "span and reset" `Quick
            test_metrics_span_and_reset;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "exact small samples" `Quick
            test_metrics_exact_small;
          Alcotest.test_case "exact overflow to conservative" `Quick
            test_metrics_exact_overflow;
          Alcotest.test_case "trace.dropped counter" `Quick
            test_trace_dropped_counter;
        ] );
      ( "bound_profile",
        [
          Alcotest.test_case "totals and partition" `Quick
            test_bound_profile_totals;
          Alcotest.test_case "folded stacks" `Quick test_bound_profile_folded;
          Alcotest.test_case "json" `Quick test_bound_profile_json;
          Alcotest.test_case "concat" `Quick test_bound_profile_concat;
        ] );
    ]
