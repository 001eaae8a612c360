(* Backward program slicing (Weiser 1984) on SSA form, as used in
   Section 5.3 of the paper to isolate the instructions that determine a
   loop's control flow before handing the result to the model checker.

   The slicing criterion is the set of registers used by branch
   terminators: the slice preserves every branch decision, hence every
   block visit count, while discarding computations that only feed results
   (accumulators, message words, stores never re-read by a branch).

   Memory is handled conservatively, mirroring the paper's admitted
   limitation ("we presently are unable to compute the bounds of loops
   which store and load critical values to and from memory" without
   pointer analysis): if any needed load exists, all stores are kept. *)

type stats = { total_instrs : int; kept_instrs : int; total_phis : int; kept_phis : int }

type def_site =
  | Def_phi of string * Ssa.phi (* block label *)
  | Def_instr of string * int * Lang.instr (* block label, index *)

let build_def_map (t : Ssa.t) =
  let defs = Hashtbl.create 32 in
  List.iter
    (fun (b : Ssa.ssa_block) ->
      List.iter
        (fun (phi : Ssa.phi) ->
          Hashtbl.replace defs phi.Ssa.dest (Def_phi (b.Ssa.label, phi)))
        b.Ssa.phis;
      List.iteri
        (fun i instr ->
          List.iter
            (fun r ->
              Hashtbl.replace defs r (Def_instr (b.Ssa.label, i, instr)))
            (Lang.defs_of_instr instr))
        b.Ssa.instrs)
    t.Ssa.blocks;
  defs

let compute (t : Ssa.t) =
  let defs = build_def_map t in
  let needed_regs = Hashtbl.create 32 in
  let needed_instrs = Hashtbl.create 32 in
  let needed_phis = Hashtbl.create 32 in
  let keep_all_stores = ref false in
  let work = Queue.create () in
  let need r =
    if not (Hashtbl.mem needed_regs r) then begin
      Hashtbl.replace needed_regs r ();
      Queue.push r work
    end
  in
  (* Criterion: every register a branch terminator reads. *)
  List.iter
    (fun (b : Ssa.ssa_block) ->
      List.iter need (Lang.uses_of_terminator b.Ssa.term))
    t.Ssa.blocks;
  let mark_stores () =
    if not !keep_all_stores then begin
      keep_all_stores := true;
      List.iter
        (fun (b : Ssa.ssa_block) ->
          List.iteri
            (fun i instr ->
              match instr with
              | Lang.Store _ ->
                  Hashtbl.replace needed_instrs (b.Ssa.label, i) ();
                  List.iter need (Lang.uses_of_instr instr)
              | _ -> ())
            b.Ssa.instrs)
        t.Ssa.blocks
    end
  in
  while not (Queue.is_empty work) do
    let r = Queue.pop work in
    match Hashtbl.find_opt defs r with
    | None -> () (* version .0: an input or implicit zero *)
    | Some (Def_phi (label, phi)) ->
        if not (Hashtbl.mem needed_phis (label, r)) then begin
          Hashtbl.replace needed_phis (label, r) ();
          List.iter
            (fun (_, op) -> List.iter need (Lang.uses_of_operand op))
            phi.Ssa.sources
        end
    | Some (Def_instr (label, i, instr)) ->
        if not (Hashtbl.mem needed_instrs (label, i)) then begin
          Hashtbl.replace needed_instrs (label, i) ();
          List.iter need (Lang.uses_of_instr instr);
          match instr with Lang.Load _ -> mark_stores () | _ -> ()
        end
  done;
  let total_instrs = ref 0 and kept_instrs = ref 0 in
  let total_phis = ref 0 and kept_phis = ref 0 in
  let blocks =
    List.map
      (fun (b : Ssa.ssa_block) ->
        let phis =
          List.filter
            (fun (p : Ssa.phi) ->
              incr total_phis;
              let keep = Hashtbl.mem needed_phis (b.Ssa.label, p.Ssa.dest) in
              if keep then incr kept_phis;
              keep)
            b.Ssa.phis
        in
        let instrs =
          List.filteri
            (fun i _ ->
              incr total_instrs;
              let keep = Hashtbl.mem needed_instrs (b.Ssa.label, i) in
              if keep then incr kept_instrs;
              keep)
            b.Ssa.instrs
        in
        { b with Ssa.phis; instrs })
      t.Ssa.blocks
  in
  ( { t with Ssa.blocks },
    {
      total_instrs = !total_instrs;
      kept_instrs = !kept_instrs;
      total_phis = !total_phis;
      kept_phis = !kept_phis;
    } )

let pp_stats ppf s =
  Fmt.pf ppf "instrs %d/%d kept, phis %d/%d kept" s.kept_instrs s.total_instrs
    s.kept_phis s.total_phis
