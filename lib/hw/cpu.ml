(* Cycle accounting for simulated kernel execution.

   The kernel model charges its work through this interface: straight-line
   instruction execution (with instruction fetches through the I-cache),
   data loads/stores (through the D-cache) and branches.  The accumulated
   cycle counter plays the role of the ARM1136 performance-monitoring-unit
   cycle counter used for the paper's measurements. *)

type counters = {
  instructions : int;
  loads : int;
  stores : int;
  branches : int;
  cycles : int;
}

type access_kind = Fetch | Load | Store

type t = {
  machine : Machine.t;
  l1_hit : int;  (* cached Config.l1_hit_cycles: avoids re-reading the
                    config record on every load/store *)
  l1_line : int;  (* cached Config.l1_line: {!scan} and the block charges *)
  mutable cycles : int;
  mutable stall : int;
      (* cycles spent in the memory hierarchy (fetch/load/store latency
         beyond the 1-cycle issue), a subset of [cycles] *)
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable tracer : (access_kind -> int -> unit) option;
      (* observation hook used to derive cache-pinning candidates from
         execution traces *)
  mutable events : Obs.Trace.t option;
      (* structured event trace; emission charges nothing *)
}

let create config =
  {
    machine = Machine.create config;
    l1_hit = config.Config.l1_hit_cycles;
    l1_line = config.Config.l1_line;
    cycles = 0;
    stall = 0;
    instructions = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    tracer = None;
    events = None;
  }

(* Refuse to silently replace a live tracer: two observers sharing one
   CPU would otherwise drop each other's accesses without a trace. *)
let set_tracer t f =
  if Option.is_some t.tracer then
    invalid_arg
      "Hw.Cpu.set_tracer: a tracer is already installed (clear it first)";
  t.tracer <- Some f

let clear_tracer t = t.tracer <- None

let trace t kind addr =
  match t.tracer with None -> () | Some f -> f kind addr

(* --- structured event tracing (Obs.Trace) --- *)

let emit t kind =
  match t.events with
  | None -> ()
  | Some buf -> Obs.Trace.emit buf ~at:t.cycles ~stall:t.stall kind

let set_trace_buffer t buf =
  t.events <- Some buf;
  Machine.set_pin_evict_hook t.machine
    (Some (fun cache addr -> emit t (Obs.Trace.Pin_evict { cache; addr })))

let clear_trace_buffer t =
  t.events <- None;
  Machine.set_pin_evict_hook t.machine None

let tracing t = match t.events with Some _ -> true | None -> false

let machine t = t.machine
let config t = Machine.config t.machine
let cycles t = t.cycles

let tick t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n

(* Execute [count] single-cycle instructions fetched sequentially starting
   at code address [base].  Fetch stalls are charged per I-cache line: the
   first access to a line misses, the remaining instructions on it hit. *)
let exec t ~base ~count =
  assert (count >= 0);
  t.instructions <- t.instructions + count;
  t.cycles <- t.cycles + count;
  match t.tracer with
  | None ->
      (* Untraced hot path: charge the whole run in one pass over the
         I-cache lines instead of one probe per instruction. *)
      let lat = Machine.fetch_run t.machine ~base ~count in
      t.cycles <- t.cycles + lat;
      t.stall <- t.stall + lat
  | Some f ->
      for i = 0 to count - 1 do
        f Fetch (base + (4 * i));
        let lat = Machine.fetch t.machine (base + (4 * i)) in
        t.cycles <- t.cycles + lat;
        t.stall <- t.stall + lat
      done

let load t addr =
  t.loads <- t.loads + 1;
  trace t Load addr;
  let lat = Machine.read t.machine addr in
  t.cycles <- t.cycles + lat;
  (* The L1-hit cost is the pipeline's load-use cost, not a stall. *)
  t.stall <- t.stall + Int.max 0 (lat - t.l1_hit)

let store t addr =
  t.stores <- t.stores + 1;
  trace t Store addr;
  let lat = Machine.write t.machine addr in
  t.cycles <- t.cycles + lat;
  t.stall <- t.stall + Int.max 0 (lat - t.l1_hit)

(* Bulk stores (loads) over [bytes] from [addr]: one access per L1 line
   (write-allocate), as object clearing and the kernel-mapping copy
   charge them. *)
let store_block t addr bytes =
  let line = t.l1_line in
  for i = 0 to ((bytes + line - 1) / line) - 1 do
    store t (addr + (i * line))
  done

let load_block t addr bytes =
  let line = t.l1_line in
  for i = 0 to ((bytes + line - 1) / line) - 1 do
    load t (addr + (i * line))
  done

(* [steps] repetitions of "execute [count] instructions from [base], then
   load [addr + i * stride]" (i = 0 .. steps - 1): the shape of a
   priority scan.  Cycle-, counter- and state-identical to calling
   {!exec} and {!load} in that order, but only the first step's fetch run
   and one load per D-cache line touch the caches:

   - after the first step, every fetch run repeats the immediately
     preceding one with only data accesses in between, which never touch
     the I-cache: {!Machine.fetch_run}'s replay case, [count] hits with
     zero stall each, counted here in one {!Cache.note_seq_hits};
   - a load to the line the previous load just made most-recently-used
     (the fetches in between touch only the I-cache and the L2) is an L1
     hit that cannot change any future replacement decision, so it costs
     [l1_hit] cycles and is counted rather than probed.

   The loop steps from one line crossing to the next in closed form:
   from a load at [a], the first later load off [a]'s line comes [k]
   steps on, where [k] follows from [a]'s offset in its line and the
   stride.  Loads that leave the line are real accesses, made in order
   with the cycle counter at the value the step-by-step charge would
   show, so pin-eviction events keep their stamps.  With a tracer
   attached every access is reported, so the steps run one by one. *)
let scan t ~base ~count ~addr ~stride ~steps =
  assert (steps >= 0);
  match t.tracer with
  | Some _ ->
      for i = 0 to steps - 1 do
        exec t ~base ~count;
        load t (addr + (i * stride))
      done
  | None ->
      if steps > 0 then begin
        exec t ~base ~count;
        load t addr;
        let line = t.l1_line in
        let same_line = ref 0 in
        let i = ref 0 in
        (* [!i]: the last step charged; its load is on the line at hand *)
        while !i < steps - 1 do
          let off = (addr + (!i * stride)) land (line - 1) in
          let k =
            if stride > 0 then (line - off + stride - 1) / stride
            else if stride < 0 then (off / -stride) + 1
            else steps
          in
          let next = Int.min (!i + k) steps in
          let hits = next - !i - 1 in
          t.instructions <- t.instructions + (count * hits);
          t.cycles <- t.cycles + ((count + t.l1_hit) * hits);
          t.loads <- t.loads + hits;
          same_line := !same_line + hits;
          if next < steps then begin
            t.instructions <- t.instructions + count;
            t.cycles <- t.cycles + count;
            load t (addr + (next * stride))
          end;
          i := next
        done;
        Cache.note_seq_hits (Machine.icache t.machine) (count * (steps - 1));
        Cache.note_seq_hits (Machine.dcache t.machine) !same_line
      end

let branch t ~pc ~taken =
  t.branches <- t.branches + 1;
  t.cycles <- t.cycles + Machine.branch t.machine ~pc ~taken

let counters t =
  {
    instructions = t.instructions;
    loads = t.loads;
    stores = t.stores;
    branches = t.branches;
    cycles = t.cycles;
  }

let stall_cycles t = t.stall

let reset t =
  t.cycles <- 0;
  t.stall <- 0;
  t.instructions <- 0;
  t.loads <- 0;
  t.stores <- 0;
  t.branches <- 0
