(* Natural-loop detection.

   A back edge is an edge u -> h where h dominates u; the natural loop of h
   is h plus all blocks that can reach u without passing through h.  Loops
   sharing a header are merged, as is conventional.  The analysis annotates
   each loop header with an iteration bound (Section 5.2: "we annotate the
   control flow graph with the upper bound on the number of iterations of
   all loops"). *)

type loop = {
  header : int;
  body : int list;  (* includes the header *)
  back_edges : (int * int) list;
  depth : int;  (* 1 = outermost *)
}

type t = { loops : loop list; loop_of_header : (int, loop) Hashtbl.t }

let compute fn =
  let dom = Dominators.compute fn in
  let preds = Flowgraph.preds fn in
  let reachable = Flowgraph.reachable fn in
  (* Collect back edges grouped by header. *)
  let by_header = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      if reachable.(b.Flowgraph.id) then
        List.iter
          (fun s ->
            if Dominators.dominates dom s b.Flowgraph.id then
              Hashtbl.replace by_header s
                ((b.Flowgraph.id, s)
                :: (try Hashtbl.find by_header s with Not_found -> [])))
          b.Flowgraph.succs)
    fn.Flowgraph.blocks;
  let natural_loop header back_edges =
    let in_loop = Hashtbl.create 8 in
    Hashtbl.replace in_loop header ();
    let rec pull b =
      if not (Hashtbl.mem in_loop b) then begin
        Hashtbl.replace in_loop b ();
        List.iter pull preds.(b)
      end
    in
    List.iter (fun (u, _) -> pull u) back_edges;
    let body =
      List.sort compare
        (Hashtbl.fold (fun b () acc -> b :: acc) in_loop [])
    in
    { header; body; back_edges; depth = 0 }
  in
  let loops =
    Hashtbl.fold
      (fun header edges acc -> natural_loop header edges :: acc)
      by_header []
  in
  (* Nesting depth: the number of loops whose body contains this header. *)
  let with_depth =
    List.map
      (fun l ->
        let depth =
          List.length
            (List.filter (fun outer -> List.mem l.header outer.body) loops)
        in
        { l with depth })
      loops
  in
  let sorted =
    List.sort (fun a b -> compare (a.header, a.depth) (b.header, b.depth))
      with_depth
  in
  let loop_of_header = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace loop_of_header l.header l) sorted;
  { loops = sorted; loop_of_header }

let loops t = t.loops
let headers t = List.map (fun l -> l.header) t.loops

let loop_of_header t h = Hashtbl.find_opt t.loop_of_header h

let innermost_containing t b =
  let containing = List.filter (fun l -> List.mem b l.body) t.loops in
  match List.sort (fun a b -> compare b.depth a.depth) containing with
  | [] -> None
  | l :: _ -> Some l

(* Entry edges of a loop: edges from outside the body into the header. *)
let entry_edges fn l =
  let preds = Flowgraph.preds fn in
  List.filter_map
    (fun p ->
      if List.mem p l.body then None else Some (p, l.header))
    preds.(l.header)

let is_reducible fn t =
  (* Every retreating edge must be a back edge to a natural-loop header
     that dominates its source; we check that no edge targets a block that
     appears earlier in reverse postorder unless it is a recorded back
     edge. *)
  let rpo = Flowgraph.reverse_postorder fn in
  let index = Array.make (Flowgraph.num_blocks fn) (-1) in
  List.iteri (fun i b -> index.(b) <- i) rpo;
  let back = Hashtbl.create 8 in
  List.iter
    (fun l -> List.iter (fun e -> Hashtbl.replace back e ()) l.back_edges)
    t.loops;
  Array.for_all
    (fun b ->
      index.(b.Flowgraph.id) < 0
      || List.for_all
           (fun s ->
             index.(s) > index.(b.Flowgraph.id)
             || Hashtbl.mem back (b.Flowgraph.id, s))
           b.Flowgraph.succs)
    fn.Flowgraph.blocks
