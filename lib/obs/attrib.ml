(* Latency attribution: turn a raw event trace into per-run breakdowns of
   where the cycles went.

   Two questions matter for the paper's argument:

   - For an interrupt: which non-preemptible section was executing when
     the line was asserted, how long until the next preemption opportunity,
     and how the response latency splits into memory-stall vs compute
     cycles.  (The assertion cycle is recovered from the delivery event:
     asserted = delivered - latency, which also covers interrupts armed to
     fire mid-operation.)

   - For any measured entry: the longest non-preemptible section — the
     longest stretch between consecutive preemption opportunities (kernel
     entry, polled preemption points, kernel exit) — since that is what
     bounds the response time an interrupt arriving at the worst moment
     would see. *)

type irq_breakdown = {
  core : int;  (* which core's ring the delivery came from; 0 single-core *)
  line : int;
  asserted_at : int;
  delivered_at : int;
  latency : int;
  section : string;  (* kernel event in progress at assertion, or "user" *)
  cycles_to_preempt : int option;
  stall_cycles : int;
  compute_cycles : int;
}

type section = {
  sec_label : string;  (* kernel event owning the longest section *)
  sec_cycles : int;
  sec_stall : int;  (* stall cycles inside that section *)
}

(* The kernel event (if any) in progress at cycle [at]: the last
   Kernel_enter at or before [at] without a matching exit before [at]. *)
let section_at events at =
  let rec walk current = function
    | [] -> current
    | (e : Trace.event) :: rest ->
        if e.Trace.at > at then current
        else
          let current =
            match e.Trace.kind with
            | Trace.Kernel_enter { event } -> Some event
            | Trace.Kernel_exit _ -> None
            | _ -> current
          in
          walk current rest
  in
  walk None events

(* Cumulative stall counter as of cycle [at]: the stall stamp of the last
   event at or before it. *)
let stall_at events at =
  let rec walk best = function
    | [] -> best
    | (e : Trace.event) :: rest ->
        if e.Trace.at > at then best else walk e.Trace.stall rest
  in
  walk 0 events

let irq_breakdowns ?(core = 0) events =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Irq_deliver { line; latency } ->
          let delivered_at = e.Trace.at in
          let asserted_at = delivered_at - latency in
          let section =
            match section_at events asserted_at with
            | Some s -> s
            | None -> "user"
          in
          let cycles_to_preempt =
            List.find_map
              (fun (p : Trace.event) ->
                match p.Trace.kind with
                | Trace.Preempt_point _
                  when p.Trace.at >= asserted_at && p.Trace.at <= delivered_at
                  ->
                    Some (p.Trace.at - asserted_at)
                | _ -> None)
              events
          in
          let stall_cycles =
            max 0 (min latency (e.Trace.stall - stall_at events asserted_at))
          in
          {
            core;
            line;
            asserted_at;
            delivered_at;
            latency;
            section;
            cycles_to_preempt;
            stall_cycles;
            compute_cycles = latency - stall_cycles;
          }
          |> Option.some
      | _ -> None)
    events

(* Longest gap between consecutive preemption opportunities inside kernel
   execution.  Opportunities: kernel entry, every polled preemption point,
   kernel exit. *)
let longest_nonpreemptible events =
  let best = ref None in
  let consider label cycles stall =
    match !best with
    | Some b when b.sec_cycles >= cycles -> ()
    | _ -> best := Some { sec_label = label; sec_cycles = cycles; sec_stall = stall }
  in
  let current = ref None in
  (* (label, cycle, stall) of the last opportunity *)
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Kernel_enter { event } ->
          current := Some (event, e.Trace.at, e.Trace.stall)
      | Trace.Preempt_point _ -> (
          match !current with
          | Some (label, at, stall) ->
              consider label (e.Trace.at - at) (e.Trace.stall - stall);
              current := Some (label, e.Trace.at, e.Trace.stall)
          | None -> ())
      | Trace.Kernel_exit _ -> (
          match !current with
          | Some (label, at, stall) ->
              consider label (e.Trace.at - at) (e.Trace.stall - stall);
              current := None
          | None -> ())
      | _ -> ())
    events;
  !best

(* Cycles per kernel section inside a window: segments between consecutive
   events are attributed to the kernel event in progress (or "user"),
   clipped to [from, until].  Sections keep first-appearance order among
   equals and sort by cycles, largest first. *)
let section_profile events ~from ~until =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let charge section cycles =
    if cycles > 0 then
      match Hashtbl.find_opt tbl section with
      | None ->
          order := section :: !order;
          Hashtbl.add tbl section cycles
      | Some c -> Hashtbl.replace tbl section (c + cycles)
  in
  let section = ref (match section_at events from with
    | Some s -> s
    | None -> "user")
  in
  let last = ref from in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.at > from && e.Trace.at <= until then begin
        charge !section (e.Trace.at - !last);
        last := e.Trace.at
      end;
      if e.Trace.at <= until then
        match e.Trace.kind with
        | Trace.Kernel_enter { event } -> if e.Trace.at >= from then section := event
        | Trace.Kernel_exit _ -> if e.Trace.at >= from then section := "user"
        | _ -> ())
    events;
  charge !section (until - !last);
  List.rev !order
  |> List.map (fun s -> (s, Hashtbl.find tbl s))
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
