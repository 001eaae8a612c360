(* Process-wide metrics registry: counters, gauges, and log-bucketed
   histograms with one snapshot type.

   This unifies the ad-hoc counters scattered over the codebase (analysis
   cache hits/misses, hardware perf counters, pool statistics) and carries
   the per-IPET-stage timing spans.  Counters are atomic and gauges/
   histograms take a short per-registry lock, so instruments are safe to
   update from any domain of the Parallel pool; totals are
   order-independent, so metrics stay deterministic under parallelism
   (wall-time span *values* are not, by nature — they never feed traces).

   Histograms use base-2 log-scaled buckets: an observation v (> 0) lands
   in bucket ceil(log2 v), i.e. the bucket with upper bound 2^k covers
   (2^(k-1), 2^k].  Latency spans observe seconds, so bucket -20 is about
   a microsecond and bucket 0 is a second. *)

type counter = { c_name : string; cell : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  mutable count : int;
  mutable sum : float;
  mutable min_value : float;
  mutable max_value : float;
  buckets : (int, int) Hashtbl.t;  (* exponent -> observations *)
  mutable exact : (float, int) Hashtbl.t option;
      (* value -> observations, kept while the histogram has at most
         [exact_limit] distinct values; [None] once it overflowed *)
}

(* Small-count exactness: up to this many distinct observed values, the
   exact multiset is retained and percentiles are exact rather than
   bucket-conservative. *)
let exact_limit = 64

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let intern tbl name make =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some i -> i
      | None ->
          let i = make () in
          Hashtbl.replace tbl name i;
          i)

let counter name =
  intern counters name (fun () -> { c_name = name; cell = Atomic.make 0 })

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let value c = Atomic.get c.cell
let set_counter c v = Atomic.set c.cell v

let gauge name = intern gauges name (fun () -> { g_name = name; g_value = 0.0 })
let set_gauge g v = with_lock (fun () -> g.g_value <- v)

let histogram name =
  intern histograms name (fun () ->
      {
        h_name = name;
        count = 0;
        sum = 0.0;
        min_value = infinity;
        max_value = neg_infinity;
        buckets = Hashtbl.create 8;
        exact = Some (Hashtbl.create 8);
      })

let bucket_of v =
  if v <= 0.0 then min_int
  else
    let k = int_of_float (Float.ceil (Float.log2 v)) in
    (* Guard the rounding edge: ensure v <= 2^k. *)
    if 2.0 ** float_of_int k < v then k + 1 else k

let record_exact h ~n v =
  match h.exact with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl v with
      | Some c -> Hashtbl.replace tbl v (c + n)
      | None ->
          if Hashtbl.length tbl < exact_limit then Hashtbl.add tbl v n
          else h.exact <- None)

let observe h v =
  with_lock (fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_value then h.min_value <- v;
      if v > h.max_value then h.max_value <- v;
      record_exact h ~n:1 v;
      let k = bucket_of v in
      Hashtbl.replace h.buckets k
        (1 + Option.value ~default:0 (Hashtbl.find_opt h.buckets k)))

(* Record [n] observations of the same value in one locked update — the
   bulk path for callers that already hold a value -> count histogram
   (e.g. the soak simulator merging per-shard latency counts). *)
let observe_n h ~n v =
  if n > 0 then
    with_lock (fun () ->
        h.count <- h.count + n;
        h.sum <- h.sum +. (v *. float_of_int n);
        if v < h.min_value then h.min_value <- v;
        if v > h.max_value then h.max_value <- v;
        record_exact h ~n v;
        let k = bucket_of v in
        Hashtbl.replace h.buckets k
          (n + Option.value ~default:0 (Hashtbl.find_opt h.buckets k)))

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Time a thunk on the monotonic wall clock and observe elapsed seconds.
   Wall time is fine here: metrics describe the analysis engine itself;
   simulated-time measurements go through the tracer instead. *)
let span h f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      observe h (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9))
    f

(* --- snapshots --- *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (int * int) list;  (* (exponent, count), ascending *)
  hs_exact : (float * int) list option;
      (* (value, count) ascending by value while <= exact_limit distinct
         values were observed; [None] once the exact table overflowed *)
}

(* Percentile extraction.  With at most [exact_limit] distinct observed
   values the exact multiset survives in [hs_exact] and the percentile is
   the exact order statistic at rank ceil (q * count).  Beyond that, the
   estimate for rank r is the upper bound 2^k of the first log2 bucket
   whose cumulative count reaches r — a conservative (never
   under-reported) latency figure — clamped into [hs_min, hs_max], which
   are tracked exactly.  In particular any percentile that lands in the
   top occupied bucket reports the exact maximum. *)
let percentile h q =
  if h.hs_count = 0 then 0.0
  else
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.hs_count))) in
    match h.hs_exact with
    | Some ((_ :: _) as values) ->
        let rec exact cum = function
          | [] -> h.hs_max
          | (v, n) :: rest -> if cum + n >= rank then v else exact (cum + n) rest
        in
        exact 0 values
    | Some [] | None ->
        let rec walk cum = function
          | [] -> h.hs_max
          | (k, n) :: rest ->
              let cum = cum + n in
              if cum >= rank then
                let upper = if k = min_int then 0.0 else 2.0 ** float_of_int k in
                Float.max h.hs_min (Float.min upper h.hs_max)
              else walk cum rest
        in
        walk 0 h.hs_buckets

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}

let snapshot () =
  with_lock (fun () ->
      let sorted fold tbl = List.sort compare (Hashtbl.fold fold tbl []) in
      {
        s_counters =
          sorted (fun name c acc -> (name, Atomic.get c.cell) :: acc) counters;
        s_gauges = sorted (fun name g acc -> (name, g.g_value) :: acc) gauges;
        s_histograms =
          sorted
            (fun name h acc ->
              ( name,
                {
                  hs_count = h.count;
                  hs_sum = h.sum;
                  hs_min = (if h.count = 0 then 0.0 else h.min_value);
                  hs_max = (if h.count = 0 then 0.0 else h.max_value);
                  hs_buckets =
                    List.sort compare
                      (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h.buckets []);
                  hs_exact =
                    Option.map
                      (fun tbl ->
                        List.sort compare
                          (Hashtbl.fold (fun v n acc -> (v, n) :: acc) tbl []))
                      h.exact;
                } )
              :: acc)
            histograms;
      })

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges;
      Hashtbl.iter
        (fun _ h ->
          h.count <- 0;
          h.sum <- 0.0;
          h.min_value <- infinity;
          h.max_value <- neg_infinity;
          Hashtbl.reset h.buckets;
          h.exact <- Some (Hashtbl.create 8))
        histograms)

let to_json s =
  let open Json in
  let named f l = Obj (List.map (fun (name, v) -> (name, f v)) l) in
  let seconds v = Fixed (9, v) in
  let histogram h =
    Obj
      [
        ("count", int h.hs_count); ("sum", seconds h.hs_sum);
        ("min", seconds h.hs_min); ("max", seconds h.hs_max);
        ("p50", seconds (percentile h 0.5));
        ("p90", seconds (percentile h 0.9));
        ("p99", seconds (percentile h 0.99));
        ("p999", seconds (percentile h 0.999));
        ( "buckets",
          list
            (fun (k, n) -> Obj [ ("le_pow2", int k); ("count", int n) ])
            h.hs_buckets );
      ]
  in
  Obj
    [
      ("counters", named int s.s_counters);
      ("gauges", named (fun v -> Fixed (6, v)) s.s_gauges);
      ("histograms", named histogram s.s_histograms);
    ]

let pp ppf s =
  Fmt.pf ppf "counters:@,";
  List.iter (fun (n, v) -> Fmt.pf ppf "  %-44s %12d@," n v) s.s_counters;
  if s.s_gauges <> [] then begin
    Fmt.pf ppf "gauges:@,";
    List.iter (fun (n, v) -> Fmt.pf ppf "  %-44s %12.3f@," n v) s.s_gauges
  end;
  if s.s_histograms <> [] then begin
    Fmt.pf ppf "histograms:@,";
    List.iter
      (fun (n, h) ->
        Fmt.pf ppf
          "  %-44s n=%d sum=%.4fs min=%.4fs p50=%.4fs p99=%.4fs max=%.4fs@," n
          h.hs_count h.hs_sum h.hs_min (percentile h 0.5) (percentile h 0.99)
          h.hs_max)
      s.s_histograms
  end
