(* A naive reference for [Wcet.Cache_analysis], for differential tests.

   The same must-analysis (the one-way model of Section 5.1, pinned lines
   always guaranteed) in its plainest form: a state is an immutable tag
   array plus its list of pinned line addresses; every meet builds a new
   state from the predecessors' out-states, and every access or clobber
   in the transfer copies the tags it changes.  Nothing is updated in
   place, so agreement on every block's cost is the evidence that the
   in-place fixpoint shares no state it must not. *)

type state = { tags : int array; pinned : int list }

let line_of ~line_size addr = addr / line_size * line_size

let fresh ~line_size ~sets pinned_lines =
  {
    tags = Array.make sets (-1);
    pinned = List.map (line_of ~line_size) pinned_lines;
  }

let set_of ~line_size ~sets addr = addr / line_size mod sets
let tag_of ~line_size ~sets addr = addr / line_size / sets

let must_hit ~line_size ~sets s addr =
  List.mem (line_of ~line_size addr) s.pinned
  || s.tags.(set_of ~line_size ~sets addr) = tag_of ~line_size ~sets addr

(* Accesses and clobbers return new states. *)
let access ~line_size ~sets s addr =
  if List.mem (line_of ~line_size addr) s.pinned then s
  else begin
    let tags = Array.copy s.tags in
    tags.(set_of ~line_size ~sets addr) <- tag_of ~line_size ~sets addr;
    { s with tags }
  end

let clobber s = { s with tags = Array.map (fun _ -> -1) s.tags }

let join a b =
  let keep i t = if t = b.tags.(i) then t else -1 in
  { a with tags = Array.mapi keep a.tags }

(* One block's cost from its in-states, and its out-states. *)
let transfer ~(config : Hw.Config.t) ~(payload : Wcet.Timing.t) ~num_succs
    istate dstate =
  let line_size = config.l1_line and sets = config.l1_sets in
  let miss = Hw.Config.worst_miss_cycles config in
  let penalty addr =
    if Hw.Config.l2_locked config addr then config.l2_hit_cycles else miss
  in
  let istate = ref istate and dstate = ref dstate in
  let cycles = ref 0 in
  let fetch_misses = ref 0 and fetch_hits = ref 0 in
  let data_misses = ref 0 and data_hits = ref 0 in
  List.iter
    (fun line ->
      if must_hit ~line_size ~sets !istate line then incr fetch_hits
      else begin
        incr fetch_misses;
        cycles := !cycles + penalty line;
        istate := access ~line_size ~sets !istate line
      end)
    (Wcet.Timing.code_lines payload ~line_size);
  List.iter
    (function
      | Wcet.Timing.Static { addr; _ } ->
          if must_hit ~line_size ~sets !dstate addr then incr data_hits
          else begin
            incr data_misses;
            cycles := !cycles + penalty addr;
            dstate := access ~line_size ~sets !dstate addr
          end
      | Wcet.Timing.Dynamic { count; _ } ->
          data_misses := !data_misses + count;
          cycles := !cycles + (count * miss);
          dstate := clobber !dstate)
    payload.Wcet.Timing.accesses;
  let branch =
    if Wcet.Timing.ends_in_branch payload ~num_succs then
      config.branch_cost_static
    else 0
  in
  ( {
      Wcet.Cache_analysis.cycles =
        payload.Wcet.Timing.instrs + !cycles
        + (!data_hits * config.l1_hit_cycles)
        + branch;
      fetch_misses = !fetch_misses;
      fetch_hits = !fetch_hits;
      data_misses = !data_misses;
      data_hits = !data_hits;
    },
    !istate,
    !dstate )

(* Worklist fixpoint from cold caches at the entry; per-block costs from
   the converged in-states, zero for unreachable blocks. *)
let analyse ~(config : Hw.Config.t) ?(pinned_code = []) ?(pinned_data = [])
    (fn : Wcet.Timing.t Cfg.Flowgraph.fn) =
  let line_size = config.l1_line and sets = config.l1_sets in
  let cold_i () = fresh ~line_size ~sets pinned_code in
  let cold_d () = fresh ~line_size ~sets pinned_data in
  let n = Cfg.Flowgraph.num_blocks fn in
  let preds = Cfg.Flowgraph.preds fn in
  let ins = Array.make n None and outs = Array.make n None in
  let block b = Cfg.Flowgraph.block fn b in
  let run b (i, d) =
    let blk = block b in
    transfer ~config ~payload:blk.Cfg.Flowgraph.payload
      ~num_succs:(List.length blk.Cfg.Flowgraph.succs)
      i d
  in
  let meet b =
    let avail = List.filter_map (fun p -> outs.(p)) preds.(b) in
    if b = fn.Cfg.Flowgraph.entry || avail = [] then (cold_i (), cold_d ())
    else
      let first = List.hd avail in
      List.fold_left
        (fun (i, d) (i', d') -> (join i i', join d d'))
        first (List.tl avail)
  in
  let queue = Queue.create () in
  Queue.push fn.Cfg.Flowgraph.entry queue;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    let ((i, d) as st) = meet b in
    let changed =
      match ins.(b) with
      | Some (i0, d0) -> i0.tags <> i.tags || d0.tags <> d.tags
      | None -> true
    in
    if changed then begin
      ins.(b) <- Some st;
      let _, i', d' = run b st in
      outs.(b) <- Some (i', d');
      List.iter
        (fun s ->
          if not (Queue.fold (fun found q -> found || q = s) false queue) then
            Queue.push s queue)
        (block b).Cfg.Flowgraph.succs
    end
  done;
  Array.init n (fun b ->
      match ins.(b) with
      | Some st ->
          let c, _, _ = run b st in
          c
      | None ->
          {
            Wcet.Cache_analysis.cycles = 0;
            fetch_misses = 0;
            fetch_hits = 0;
            data_misses = 0;
            data_hits = 0;
          })
