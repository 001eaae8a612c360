(* Tests for the hardware timing model: cache behaviour, pinning,
   machine-level latencies and CPU cycle accounting. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small cache for targeted tests: 4 sets, 2 ways, 16-byte lines. *)
let small () = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:2 ()

let is_hit = function Hw.Cache.Hit -> true | Hw.Cache.Miss _ -> false

let test_cache_basics () =
  let c = small () in
  check_bool "cold miss" false (is_hit (Hw.Cache.access c ~write:false 0x100));
  check_bool "re-access hits" true (is_hit (Hw.Cache.access c ~write:false 0x100));
  check_bool "same line hits" true (is_hit (Hw.Cache.access c ~write:false 0x10f));
  check_bool "other line misses" false
    (is_hit (Hw.Cache.access c ~write:false 0x200))

let test_cache_lru () =
  let c = small () in
  (* Three addresses mapping to the same set (stride = sets * line = 64). *)
  let a = 0x000 and b = 0x040 and d = 0x080 in
  ignore (Hw.Cache.access c ~write:false a);
  ignore (Hw.Cache.access c ~write:false b);
  (* Touch [a] so [b] is now LRU. *)
  ignore (Hw.Cache.access c ~write:false a);
  ignore (Hw.Cache.access c ~write:false d);
  (* [d] must have evicted [b], not [a]. *)
  check_bool "a survives" true (Hw.Cache.probe c a);
  check_bool "b evicted" false (Hw.Cache.probe c b);
  check_bool "d present" true (Hw.Cache.probe c d)

let test_dirty_eviction () =
  let c = small () in
  ignore (Hw.Cache.access c ~write:true 0x000);
  ignore (Hw.Cache.access c ~write:false 0x040);
  (match Hw.Cache.access c ~write:false 0x080 with
  | Hw.Cache.Miss { evicted_dirty } ->
      check_bool "dirty line written back" true evicted_dirty
  | Hw.Cache.Hit -> Alcotest.fail "expected miss");
  let stats = Hw.Cache.stats c in
  check "dirty evictions" 1 stats.Hw.Cache.dirty_evictions

let test_pinning () =
  let c = small () in
  Hw.Cache.lock_ways c 1;
  check_bool "pin succeeds" true (Hw.Cache.pin c 0x000);
  (* Flood the set with conflicting lines; the pinned line must survive. *)
  for i = 1 to 16 do
    ignore (Hw.Cache.access c ~write:true (i * 64))
  done;
  check_bool "pinned line survives flood" true (Hw.Cache.probe c 0x000);
  Hw.Cache.pollute c ~seed:42;
  check_bool "pinned line survives pollution" true (Hw.Cache.probe c 0x000);
  Hw.Cache.flush c;
  check_bool "pinned line survives flush" true (Hw.Cache.probe c 0x000);
  Hw.Cache.flush ~keep_pinned:false c;
  check_bool "full flush clears pins" false (Hw.Cache.probe c 0x000)

let test_pin_capacity () =
  let c = small () in
  Hw.Cache.lock_ways c 1;
  (* One locked way per set: a second conflicting pin must fail. *)
  check_bool "first pin" true (Hw.Cache.pin c 0x000);
  check_bool "conflicting pin refused" false (Hw.Cache.pin c 0x040)

let test_pin_without_lock () =
  let c = small () in
  check_bool "pin without locked ways fails" false (Hw.Cache.pin c 0x0)

(* Soundness of the paper's conservative analysis model (Section 5.1): the
   analysis treats each 4-way L1 set as if it were direct-mapped of one-way
   size, i.e. only the most recently used line of a set is assumed present.
   Property: if the 1-way model says hit, the real 4-way LRU cache hits. *)
let test_conservative_model_sound =
  QCheck.Test.make ~count:500
    ~name:"1-way direct-mapped must-hit implies 4-way LRU hit"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 1023))
    (fun trace ->
      let real = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:4 () in
      let model = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:1 () in
      List.for_all
        (fun word ->
          let addr = word * 4 in
          let model_hit = is_hit (Hw.Cache.access model ~write:false addr) in
          let real_hit = is_hit (Hw.Cache.access real ~write:false addr) in
          (not model_hit) || real_hit)
        trace)

(* Round-robin replacement: the victim cursor rotates through the ways,
   as on the ARM1136. *)
let test_round_robin_cycles_ways () =
  let c =
    Hw.Cache.create ~policy:Hw.Cache.Round_robin ~line_size:16 ~sets:1 ~ways:2
      ()
  in
  (* Fill both ways, then a third line evicts the first, a fourth the
     second. *)
  ignore (Hw.Cache.access c ~write:false 0x00);
  ignore (Hw.Cache.access c ~write:false 0x10);
  ignore (Hw.Cache.access c ~write:false 0x20);
  check_bool "first filled way evicted" false (Hw.Cache.probe c 0x00);
  check_bool "second way survives" true (Hw.Cache.probe c 0x10);
  ignore (Hw.Cache.access c ~write:false 0x30);
  check_bool "cursor rotated to the second way" false (Hw.Cache.probe c 0x10);
  check_bool "third line survives" true (Hw.Cache.probe c 0x20)

(* The paper's soundness argument (Section 5.1) holds for round-robin too:
   a model hit means no other access touched the set in between, so no
   replacement policy can have evicted the line. *)
let test_conservative_model_sound_rr =
  QCheck.Test.make ~count:500
    ~name:"1-way must-hit implies 4-way round-robin hit"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 1023))
    (fun trace ->
      let real =
        Hw.Cache.create ~policy:Hw.Cache.Round_robin ~line_size:16 ~sets:4
          ~ways:4 ()
      in
      let model = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:1 () in
      List.for_all
        (fun word ->
          let addr = word * 4 in
          let model_hit = is_hit (Hw.Cache.access model ~write:false addr) in
          let real_hit = is_hit (Hw.Cache.access real ~write:false addr) in
          (not model_hit) || real_hit)
        trace)

(* LRU inclusion: a k-way cache's contents include those of a (k-1)-way
   cache under the same trace (standard stack property of LRU). *)
let test_lru_inclusion =
  QCheck.Test.make ~count:300 ~name:"LRU stack inclusion property"
    QCheck.(list_of_size Gen.(int_range 1 80) (int_bound 2047))
    (fun trace ->
      let c2 = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:2 () in
      let c4 = Hw.Cache.create ~line_size:16 ~sets:4 ~ways:4 () in
      List.for_all
        (fun word ->
          let addr = word * 4 in
          let hit2 = is_hit (Hw.Cache.access c2 ~write:false addr) in
          let hit4 = is_hit (Hw.Cache.access c4 ~write:false addr) in
          (not hit2) || hit4)
        trace)

let test_machine_latencies () =
  let config = Hw.Config.default in
  let m = Hw.Machine.create config in
  check "cold load goes to memory" config.Hw.Config.mem_cycles_l2_off
    (Hw.Machine.read m 0x8000);
  check "warm load hits L1" config.Hw.Config.l1_hit_cycles
    (Hw.Machine.read m 0x8000);
  let m2 = Hw.Machine.create Hw.Config.with_l2 in
  check "cold load, L2 on, goes to memory"
    config.Hw.Config.mem_cycles_l2_on (Hw.Machine.read m2 0x8000)

let test_l2_catches_l1_eviction () =
  let m = Hw.Machine.create Hw.Config.with_l2 in
  let config = Hw.Machine.config m in
  ignore (Hw.Machine.read m 0x8000);
  (* Evict 0x8000 from L1 by flooding its set; L1 has 128 sets * 32 B =
     4 KiB stride, 4 ways.  The L2 (512 sets) keeps the line. *)
  for i = 1 to 8 do
    ignore (Hw.Machine.read m (0x8000 + (i * 128 * 32)))
  done;
  check_bool "line left L1" false (Hw.Cache.probe (Hw.Machine.dcache m) 0x8000);
  check "L2 services the reload" config.Hw.Config.l2_hit_cycles
    (Hw.Machine.read m 0x8000)

let test_l2_lockdown () =
  (* Addresses in the locked range always cost an L2 hit once they miss
     L1, regardless of L2 contents (Section 8 configuration). *)
  let config = Hw.Config.with_l2_lock ~base:0x8000 ~bytes:0x1000 Hw.Config.with_l2 in
  let m = Hw.Machine.create config in
  Hw.Machine.pollute m ~seed:1;
  check "locked fetch costs an L2 hit" config.Hw.Config.l2_hit_cycles
    (Hw.Machine.fetch m 0x8000);
  check "locked load costs an L2 hit" config.Hw.Config.l2_hit_cycles
    (Hw.Machine.read m 0x8f00);
  (* Outside the range: a polluted L2 means a full memory miss. *)
  check_bool "unlocked load costs memory latency" true
    (Hw.Machine.read m 0x20000 >= config.Hw.Config.mem_cycles_l2_on)

let test_l2_absorbs_l1_writebacks () =
  (* With the L2 present, evicting a dirty L1 line costs nothing extra
     (the write is absorbed); without it, the memory write-back is paid.
     This is what keeps the Figure 9 L2 penalty small. *)
  let run config =
    let m = Hw.Machine.create config in
    ignore (Hw.Machine.write m 0x000);
    (* Evict the dirty line by filling its set (stride 4 KiB, 4 ways). *)
    let cost = ref 0 in
    for i = 1 to 4 do
      cost := Hw.Machine.read m (i * 4096)
    done;
    !cost
  in
  let without_l2 = run Hw.Config.default in
  let with_l2 = run Hw.Config.with_l2 in
  check "L2 off pays the write-back"
    (Hw.Config.mem_cycles Hw.Config.default
    + Hw.Config.writeback_cycles Hw.Config.default)
    without_l2;
  check "L2 on absorbs it" (Hw.Config.mem_cycles Hw.Config.with_l2) with_l2

let test_branch_costs () =
  let m = Hw.Machine.create Hw.Config.default in
  check "static branch cost" 5 (Hw.Machine.branch m ~pc:0x100 ~taken:true);
  check "static branch cost (not taken)" 5
    (Hw.Machine.branch m ~pc:0x100 ~taken:false);
  let mp = Hw.Machine.create Hw.Config.with_branch_predictor in
  (* Counters reset to weakly-not-taken: a taken branch mispredicts first,
     then trains to predict correctly. *)
  check "first taken mispredicts" 7 (Hw.Machine.branch mp ~pc:0x100 ~taken:true);
  ignore (Hw.Machine.branch mp ~pc:0x100 ~taken:true);
  check "trained branch predicted" 1
    (Hw.Machine.branch mp ~pc:0x100 ~taken:true)

let test_predictor_counters () =
  let p = Hw.Branch_predictor.create ~entries:4 () in
  ignore (Hw.Branch_predictor.predict_and_update p ~pc:0 ~taken:true);
  ignore (Hw.Branch_predictor.predict_and_update p ~pc:0 ~taken:true);
  ignore (Hw.Branch_predictor.predict_and_update p ~pc:0 ~taken:true);
  check "predictions" 3 (Hw.Branch_predictor.predictions p);
  check "one initial misprediction" 1 (Hw.Branch_predictor.mispredictions p)

let test_cpu_accounting () =
  let cpu = Hw.Cpu.create Hw.Config.default in
  (* 8 instructions on one 32-byte line: 1 fetch miss + 8 execute cycles. *)
  Hw.Cpu.exec cpu ~base:0x1000 ~count:8;
  check "straight-line cost" (8 + 60) (Hw.Cpu.cycles cpu);
  Hw.Cpu.exec cpu ~base:0x1000 ~count:8;
  check "warm re-execution costs only issue cycles" (8 + 60 + 8)
    (Hw.Cpu.cycles cpu);
  let counters = Hw.Cpu.counters cpu in
  check "instruction counter" 16 counters.Hw.Cpu.instructions

let test_cycles_to_us () =
  (* 532 cycles at 532 MHz = 1 microsecond. *)
  Alcotest.(check (float 1e-9))
    "532 cycles is 1 us" 1.0
    (Hw.Config.cycles_to_us Hw.Config.default 532)

(* --- differential test against the reference machine (Ref_hw) --- *)

type op =
  | Exec of { base : int; count : int; traced : bool }
  | Fetch of int
  | Load of int
  | Store of int
  | Scan of {
      base : int;
      count : int;
      addr : int;
      stride : int;
      steps : int;
      traced : bool;
    }
  | Load_block of int * int
  | Store_block of int * int
  | Pin_i of int
  | Pin_d of int
  | Pollute of int
  | Flush

let pp_op ppf = function
  | Exec { base; count; traced } ->
      Fmt.pf ppf "exec %#x x%d%s" base count (if traced then " traced" else "")
  | Fetch a -> Fmt.pf ppf "fetch %#x" a
  | Load a -> Fmt.pf ppf "load %#x" a
  | Store a -> Fmt.pf ppf "store %#x" a
  | Scan { base; count; addr; stride; steps; traced } ->
      Fmt.pf ppf "scan %#x x%d %#x%+d x%d%s" base count addr stride steps
        (if traced then " traced" else "")
  | Load_block (a, n) -> Fmt.pf ppf "load_block %#x %d" a n
  | Store_block (a, n) -> Fmt.pf ppf "store_block %#x %d" a n
  | Pin_i a -> Fmt.pf ppf "pin_i %#x" a
  | Pin_d a -> Fmt.pf ppf "pin_d %#x" a
  | Pollute seed -> Fmt.pf ppf "pollute %d" seed
  | Flush -> Fmt.pf ppf "flush"

(* Apply one operation to both models; single fetches and pins return
   their results (latency, success), which must agree too. *)
let apply cpu r op =
  let m = Hw.Cpu.machine cpu in
  let with_tracer traced f =
    if traced then Hw.Cpu.set_tracer cpu (fun _ _ -> ());
    f ();
    if traced then Hw.Cpu.clear_tracer cpu
  in
  match op with
  | Exec { base; count; traced } ->
      with_tracer traced (fun () -> Hw.Cpu.exec cpu ~base ~count);
      Ref_hw.exec r ~base ~count;
      None
  | Fetch a -> Some (Hw.Machine.fetch m a, Ref_hw.fetch r a)
  | Load a ->
      Hw.Cpu.load cpu a;
      Ref_hw.load r a;
      None
  | Store a ->
      Hw.Cpu.store cpu a;
      Ref_hw.store r a;
      None
  | Scan { base; count; addr; stride; steps; traced } ->
      with_tracer traced (fun () -> Hw.Cpu.scan cpu ~base ~count ~addr ~stride ~steps);
      Ref_hw.scan r ~base ~count ~addr ~stride ~steps;
      None
  | Load_block (a, n) ->
      Hw.Cpu.load_block cpu a n;
      Ref_hw.load_block r a n;
      None
  | Store_block (a, n) ->
      Hw.Cpu.store_block cpu a n;
      Ref_hw.store_block r a n;
      None
  | Pin_i a ->
      Some (Bool.to_int (Hw.Machine.pin_icache m a), Bool.to_int (Ref_hw.pin_icache r a))
  | Pin_d a ->
      Some (Bool.to_int (Hw.Machine.pin_dcache m a), Bool.to_int (Ref_hw.pin_dcache r a))
  | Pollute seed ->
      Hw.Machine.pollute m ~seed;
      Ref_hw.pollute r ~seed;
      None
  | Flush ->
      Hw.Machine.flush m;
      Ref_hw.flush r;
      None

let model_caches cpu r =
  let m = Hw.Cpu.machine cpu in
  [
    ("L1-I", Hw.Machine.icache m, r.Ref_hw.icache);
    ("L1-D", Hw.Machine.dcache m, r.dcache);
  ]
  @
  match (Hw.Machine.l2 m, r.l2) with
  | Some a, Some b -> [ ("L2", a, b) ]
  | None, None -> []
  | _ -> Alcotest.fail "L2 present in one model only"

(* The first observable on which the models disagree after an
   operation, if any. *)
let state_mismatch cpu r =
  if Hw.Cpu.counters cpu <> Ref_hw.counters r then Some "counters"
  else if Hw.Cpu.stall_cycles cpu <> r.stall then Some "stall cycles"
  else
    List.find_map
      (fun (name, c, rc) ->
        if Hw.Cache.stats c <> Ref_hw.stats rc then Some (name ^ " stats") else None)
      (model_caches cpu r)

(* Every way of every set: tag, dirty and pinned bits. *)
let contents_mismatch cpu r =
  List.find_map
    (fun (name, c, rc) ->
      let found = ref None in
      for set = Hw.Cache.sets c - 1 downto 0 do
        for way = Hw.Cache.ways c - 1 downto 0 do
          if Hw.Cache.line c ~set ~way <> Ref_hw.line rc ~set ~way then
            found := Some (Fmt.str "%s set %d way %d" name set way)
        done
      done;
      !found)
    (model_caches cpu r)

(* Run [ops] through fresh models of [config]: [Error] names the first
   operation after which they disagree. *)
let differential config ops =
  let cpu = Hw.Cpu.create config and r = Ref_hw.create config in
  let rec go i = function
    | [] -> (
        match contents_mismatch cpu r with
        | None -> Ok ()
        | Some where -> Error (Fmt.str "final contents differ at %s" where))
    | op :: rest -> (
        let lat = apply cpu r op in
        let bad =
          match lat with
          | Some (a, b) when a <> b -> Some (Fmt.str "result %d vs %d" a b)
          | _ -> state_mismatch cpu r
        in
        match bad with
        | Some what -> Error (Fmt.str "op %d (%a): %s differ" i pp_op op what)
        | None -> go (i + 1) rest)
  in
  go 0 ops

(* Random streams over a few aliasing regions: code bases 4 KiB apart
   (one L1 way) and data lines 4 KiB apart over 192 KiB, so sets
   overflow at every level.  Fetch runs come from a small pool of bases
   and mostly repeat or extend a recent count, so runs repeat, grow and
   shrink across line boundaries with and without replacement activity
   in between; a few wrap round the whole I-cache (more lines than
   sets). *)
let random_ops rng n =
  let int = Random.State.int rng in
  let bases =
    Array.init 10 (fun _ ->
        0x8000 + (int 6 * 4096) + (4 * int 64) + if int 8 = 0 then 2 else 0)
  in
  let counts = Array.map (fun _ -> 1 + int 24) bases in
  let data () = 0x100000 + (int 48 * 4096) + (4 * int 128) in
  let code () = 0x8000 + (int 6 * 4096) + (4 * int 128) in
  List.init n (fun _ ->
      match int 100 with
      | k when k < 36 ->
          let b = int (Array.length bases) in
          let count =
            match int 4 with
            | 0 -> if int 16 = 0 then 1020 + int 20 else int 40
            | 1 -> Int.max 0 (counts.(b) - int 8)
            | 2 -> counts.(b) + 1 + int 8
            | _ -> counts.(b)
          in
          counts.(b) <- count;
          Exec { base = bases.(b); count; traced = int 10 = 0 }
      | k when k < 58 -> Load (data ())
      | k when k < 72 -> Store (data ())
      | k when k < 78 -> Fetch (code ())
      | k when k < 84 ->
          Scan
            {
              base = bases.(int (Array.length bases));
              count = 1 + int 6;
              addr = data ();
              stride = [| -8; -8; 8; -4; 0; 12; 32; -40; 100 |].(int 9);
              steps = int 40;
              traced = int 6 = 0;
            }
      | k when k < 88 -> Load_block (data (), int 300)
      | k when k < 92 -> Store_block (data (), int 300)
      | k when k < 95 -> Pin_i (code ())
      | k when k < 98 -> Pin_d (data ())
      | k when k < 99 -> Pollute (int 1000)
      | _ -> Flush)

(* The hardware configurations of test_kernel's sched-scan group, plus
   the L2 lock over part of the code. *)
let diff_configs =
  [
    ("default", Hw.Config.default);
    ("l2", Hw.Config.with_l2);
    ("round-robin", { Hw.Config.default with replacement = Hw.Config.Round_robin });
    ("locked ways", Hw.Config.with_pinning Hw.Config.default);
    ("l2 lock", Hw.Config.with_l2_lock ~base:0x8000 ~bytes:0x4000 Hw.Config.with_l2);
  ]

(* A run over more lines than the I-cache has sets leaves its first line
   resident but no longer its set's MRU line (line 128 shares its set);
   fetching a prefix of the run again re-touches it, so three
   conflicting fetches later it is line 128 that has been evicted. *)
let wrap_ops =
  let b = 0x8000 and way = 4096 in
  [
    Exec { base = b; count = 1040; traced = false };
    Exec { base = b; count = 4; traced = false };
    Fetch (b + (2 * way));
    Fetch (b + (3 * way));
    Fetch (b + (4 * way));
    Fetch b;
  ]

let test_differential_random () =
  List.iter
    (fun (name, config) ->
      (match differential config wrap_ops with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s, wrap-round run: %s" name e);
      for seed = 1 to 12 do
        let ops = random_ops (Random.State.make [| seed |]) 600 in
        match differential config ops with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s, seed %d: %s" name seed e
      done)
    diff_configs

(* One soak shard's access stream, recorded through the Cpu tracer with
   sequential fetches coalesced into runs as the untraced Cpu charges
   them, replayed into both models after pinning a few lines of kernel
   code: on the configuration it was recorded on (a locked way), and on
   a small cache with an L2.  The shard's code fits the real I-cache
   with no line sharing a set, so only the small one makes its fetch
   runs conflict. *)
let test_differential_soak_shard () =
  let build = Sel4.Build.improved in
  let config = Hw.Config.with_pinning Hw.Config.default in
  let w =
    Sim.make_world ~build ~config ~selection:None
      ~scenario:(List.hd Sim.scenarios) ~entries:1500 ~bound:max_int ~irq_wcet:0
      ~inv_every:0 ~rng:(Sel4_rt.Prng.create 42) ()
  in
  let ops = ref [] in
  Hw.Cpu.set_tracer (Sim.world_cpu w) (fun kind addr ->
      match (kind, !ops) with
      | Hw.Cpu.Fetch, Exec { base; count; _ } :: rest when base + (4 * count) = addr ->
          ops := Exec { base; count = count + 1; traced = false } :: rest
      | Hw.Cpu.Fetch, _ -> ops := Exec { base = addr; count = 1; traced = false } :: !ops
      | Load, _ -> ops := Load addr :: !ops
      | Store, _ -> ops := Store addr :: !ops);
  while not (Sim.world_done w) do
    Sim.world_step w
  done;
  Hw.Cpu.clear_tracer (Sim.world_cpu w);
  let pins = List.init 8 (fun i -> Pin_i (Sel4.Layout.text_base + (i * 96))) in
  let ops = pins @ List.rev !ops in
  check_bool "a long stream" true (List.length ops > 50_000);
  let small =
    { config with l1_sets = 8; l2_enabled = true; l2_sets = 32; l2_ways = 2 }
  in
  List.iter
    (fun (name, config) ->
      match differential config ops with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    [ ("recorded", config); ("small", small) ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "hw"
    [
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "dirty eviction" `Quick test_dirty_eviction;
          Alcotest.test_case "pinning" `Quick test_pinning;
          Alcotest.test_case "pin capacity" `Quick test_pin_capacity;
          Alcotest.test_case "pin without lock" `Quick test_pin_without_lock;
          Alcotest.test_case "round-robin replacement" `Quick
            test_round_robin_cycles_ways;
        ] );
      ( "cache-properties",
        qsuite
          [
            test_conservative_model_sound;
            test_conservative_model_sound_rr;
            test_lru_inclusion;
          ] );
      ( "machine",
        [
          Alcotest.test_case "latencies" `Quick test_machine_latencies;
          Alcotest.test_case "l2 backstop" `Quick test_l2_catches_l1_eviction;
          Alcotest.test_case "l2 lockdown" `Quick test_l2_lockdown;
          Alcotest.test_case "l2 absorbs writebacks" `Quick
            test_l2_absorbs_l1_writebacks;
          Alcotest.test_case "branch costs" `Quick test_branch_costs;
          Alcotest.test_case "predictor counters" `Quick test_predictor_counters;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "accounting" `Quick test_cpu_accounting;
          Alcotest.test_case "cycles to us" `Quick test_cycles_to_us;
        ] );
      ( "reference",
        [
          Alcotest.test_case "random streams match the naive machine" `Quick
            test_differential_random;
          Alcotest.test_case "a soak shard matches the naive machine" `Quick
            test_differential_soak_shard;
        ] );
    ]
