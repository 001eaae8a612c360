(* Block-by-block decomposition of a WCET bound.

   A profile is the optimal IPET basis made legible: every row is a block
   with positive execution count on the analytic worst-case path, its
   per-visit cycles split into instruction execution, memory stall and
   pipeline penalty; the [p_binding] rows are the loop bounds and
   provenance-labelled user constraints that are tight at the optimum —
   the constraints that actually shape the bound.

   The invariant the exports rely on: the ILP objective is exactly
   [sum_b cycles_b * count_b], so [total] reproduces the bound to the
   cycle and the folded-stack / JSON views account for every cycle. *)

type row = {
  r_func : string;
  r_context : string;
  r_label : string;
  r_count : int;
  r_cycles : int;
  r_exec : int;
  r_stall : int;
  r_pipeline : int;
  r_fetch_misses : int;
  r_data_misses : int;
}

type t = {
  p_entry : string;
  p_wcet : int;
  p_rows : row list;
  p_edges : ((string * string) * int) list;
  p_binding : (string * int) list;
}

let total t =
  List.fold_left (fun acc r -> acc + (r.r_count * r.r_cycles)) 0 t.p_rows

let component f t =
  List.fold_left (fun acc r -> acc + (r.r_count * f r)) 0 t.p_rows

let exec_total = component (fun r -> r.r_exec)
let stall_total = component (fun r -> r.r_stall)
let pipeline_total = component (fun r -> r.r_pipeline)
let exact t = total t = t.p_wcet

let by_function t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let cycles = r.r_count * r.r_cycles in
      match Hashtbl.find_opt tbl r.r_func with
      | None ->
          order := r.r_func :: !order;
          Hashtbl.add tbl r.r_func cycles
      | Some c -> Hashtbl.replace tbl r.r_func (c + cycles))
    t.p_rows;
  List.rev !order
  |> List.map (fun f -> (f, Hashtbl.find tbl f))
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)

let functions t = List.map fst (by_function t)

let concat ~entry parts =
  {
    p_entry = entry;
    p_wcet = List.fold_left (fun acc p -> acc + p.p_wcet) 0 parts;
    p_rows =
      List.concat_map
        (fun p ->
          List.map
            (fun r ->
              { r with r_context = p.p_entry ^ ";" ^ r.r_context })
            p.p_rows)
        parts;
    p_edges = List.concat_map (fun p -> p.p_edges) parts;
    p_binding =
      List.concat_map
        (fun p ->
          List.map (fun (l, v) -> (p.p_entry ^ ": " ^ l, v)) p.p_binding)
        parts;
  }

(* Folded stacks: the inlining context is already a call path
   ("syscall/lookup@b3"); splitting on '/' gives natural flamegraph
   frames, with the cycle component (exec/stall/pipeline) as the leaf so
   the split is visible as colour-by-frame in any flamegraph viewer. *)
let to_folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      let frames =
        String.concat ";"
          (t.p_entry :: String.split_on_char '/' r.r_context)
      in
      List.iter
        (fun (component, per_visit) ->
          if per_visit > 0 then
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s %d\n" frames r.r_label component
                 (r.r_count * per_visit)))
        [ ("exec", r.r_exec); ("stall", r.r_stall); ("pipeline", r.r_pipeline) ])
    t.p_rows;
  Buffer.contents buf

let to_json t =
  let open Json in
  let block r =
    Obj
      [
        ("func", Str r.r_func); ("context", Str r.r_context);
        ("label", Str r.r_label); ("count", int r.r_count);
        ("cycles_per_visit", int r.r_cycles);
        ("total_cycles", int (r.r_count * r.r_cycles));
        ("exec", int r.r_exec); ("stall", int r.r_stall);
        ("pipeline", int r.r_pipeline); ("fetch_misses", int r.r_fetch_misses);
        ("data_misses", int r.r_data_misses);
      ]
  in
  let edge ((a, b), c) =
    Obj [ ("from", Str a); ("to", Str b); ("count", int c) ]
  in
  let binding (label, lhs) = Obj [ ("label", Str label); ("lhs", int lhs) ] in
  Obj
    [
      ("entry", Str t.p_entry); ("wcet_cycles", int t.p_wcet);
      ("exec_cycles", int (exec_total t));
      ("stall_cycles", int (stall_total t));
      ("pipeline_cycles", int (pipeline_total t)); ("exact", Bool (exact t));
      ("blocks", list block t.p_rows); ("edges", list edge t.p_edges);
      ("binding_constraints", list binding t.p_binding);
    ]

let pp ppf t =
  Fmt.pf ppf "@[<v>WCET decomposition: %s = %d cycles@,@," t.p_entry t.p_wcet;
  Fmt.pf ppf "%-34s %5s %9s %10s %8s %8s %8s@," "block" "count" "cyc/visit"
    "total" "exec" "stall" "pipe";
  let by_fn = by_function t in
  List.iter
    (fun (func, fn_total) ->
      List.iter
        (fun r ->
          if r.r_func = func then
            Fmt.pf ppf "%-34s %5d %9d %10d %8d %8d %8d@,"
              (r.r_context ^ "/" ^ r.r_label)
              r.r_count r.r_cycles (r.r_count * r.r_cycles)
              (r.r_count * r.r_exec) (r.r_count * r.r_stall)
              (r.r_count * r.r_pipeline))
        t.p_rows;
      Fmt.pf ppf "%-34s %5s %9s %10d  (%s)@," "" "" "" fn_total func)
    by_fn;
  Fmt.pf ppf "@,%-34s %5s %9s %10d %8d %8d %8d@," "total" "" "" (total t)
    (exec_total t) (stall_total t) (pipeline_total t);
  Fmt.pf ppf "bound check: sum %d %s bound %d@," (total t)
    (if exact t then "=" else "<>")
    t.p_wcet;
  if t.p_binding <> [] then begin
    Fmt.pf ppf "@,binding constraints at the optimum:@,";
    List.iter
      (fun (label, lhs) ->
        (* Relative rows (loop bounds, conflicts vs. an entry count)
           evaluate to 0 when tight; printing that adds nothing. *)
        if lhs = 0 then Fmt.pf ppf "  tight: %s@," label
        else Fmt.pf ppf "  tight at %d: %s@," lhs label)
      t.p_binding
  end;
  Fmt.pf ppf "@]"
