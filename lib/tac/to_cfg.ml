(* Lowering TAC programs onto the generic CFG library, so that dominators,
   dominance frontiers (for SSA) and natural loops can be reused. *)

type t = {
  fn : Lang.block Cfg.Flowgraph.fn;
  id_of_label : (string, int) Hashtbl.t;
  label_of_id : string array;
}

let lower (program : Lang.program) =
  Lang.validate program;
  let builder = Cfg.Flowgraph.Builder.create "tac" in
  let id_of_label = Hashtbl.create 16 in
  (* The entry block must come first so that builder ids match a natural
     traversal; add entry, then the rest in program order. *)
  let is_entry (b : Lang.block) = b.Lang.label = program.Lang.entry in
  let ordered =
    List.find is_entry program.Lang.blocks
    :: List.filter (fun b -> not (is_entry b)) program.Lang.blocks
  in
  List.iter
    (fun (b : Lang.block) ->
      let id = Cfg.Flowgraph.Builder.add builder ~label:b.Lang.label b in
      Hashtbl.replace id_of_label b.Lang.label id)
    ordered;
  List.iter
    (fun (b : Lang.block) ->
      let src = Hashtbl.find id_of_label b.Lang.label in
      List.iter
        (fun s ->
          Cfg.Flowgraph.Builder.edge builder src (Hashtbl.find id_of_label s))
        (Lang.successors b.Lang.term))
    ordered;
  let fn = Cfg.Flowgraph.Builder.finish builder in
  let label_of_id =
    Array.map (fun b -> b.Cfg.Flowgraph.label) fn.Cfg.Flowgraph.blocks
  in
  { fn; id_of_label; label_of_id }

let id t label = Hashtbl.find t.id_of_label label
let label t id = t.label_of_id.(id)
