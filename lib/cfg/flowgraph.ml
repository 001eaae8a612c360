(* Control-flow graphs of basic blocks, parameterised by a per-block
   payload.  The WCET layer instantiates the payload with timing
   information (instruction counts and memory-access descriptors); the
   graph algorithms below are payload-agnostic.

   A block whose [call] field is [Some f] represents a call site: control
   enters the callee and, on return, continues with the block's (unique)
   successor.  Virtual inlining (Section 5.2 of the paper) eliminates these
   before analysis. *)

type 'a block = {
  id : int;
  label : string;
  payload : 'a;
  succs : int list;
  call : string option;
}

type 'a fn = { name : string; entry : int; blocks : 'a block array }

type 'a program = { funcs : 'a fn list; main : string }

let block fn id = fn.blocks.(id)
let num_blocks fn = Array.length fn.blocks
let succs fn id = fn.blocks.(id).succs

let exits fn =
  Array.to_list fn.blocks
  |> List.filter_map (fun b -> if b.succs = [] then Some b.id else None)

let preds fn =
  let preds = Array.make (num_blocks fn) [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) b.succs)
    fn.blocks;
  Array.map List.rev preds

(* Reverse postorder from the entry; unreachable blocks are absent. *)
let reverse_postorder fn =
  let n = num_blocks fn in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (succs fn id);
      order := id :: !order
    end
  in
  dfs fn.entry;
  !order

let reachable fn =
  let n = num_blocks fn in
  let seen = Array.make n false in
  List.iter (fun id -> seen.(id) <- true) (reverse_postorder fn);
  seen

exception Malformed of string

(* Structural validation: ids dense and self-consistent, entry valid, edges
   in range, call blocks have at most one successor (the return point). *)
let validate fn =
  let n = num_blocks fn in
  let fail fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt in
  if n = 0 then fail "%s: empty function" fn.name;
  if fn.entry < 0 || fn.entry >= n then fail "%s: bad entry" fn.name;
  Array.iteri
    (fun i b ->
      if b.id <> i then fail "%s: block %d has id %d" fn.name i b.id;
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            fail "%s: edge %d -> %d out of range" fn.name i s)
        b.succs;
      match b.call with
      | Some _ when List.length b.succs > 1 ->
          fail "%s: call block %d has multiple successors" fn.name i
      | _ -> ())
    fn.blocks

let validate_program p =
  List.iter validate p.funcs;
  let names = List.map (fun f -> f.name) p.funcs in
  let rec dups = function
    | [] -> ()
    | x :: rest ->
        if List.mem x rest then
          raise (Malformed (Fmt.str "duplicate function %s" x))
        else dups rest
  in
  dups names;
  if not (List.mem p.main names) then
    raise (Malformed (Fmt.str "missing main %s" p.main));
  List.iter
    (fun f ->
      Array.iter
        (fun b ->
          match b.call with
          | Some callee when not (List.mem callee names) ->
              raise
                (Malformed (Fmt.str "%s calls unknown %s" f.name callee))
          | _ -> ())
        f.blocks)
    p.funcs

let find_fn p name =
  match List.find_opt (fun f -> f.name = name) p.funcs with
  | Some f -> f
  | None -> raise (Malformed (Fmt.str "unknown function %s" name))

(* Builder -------------------------------------------------------------- *)

module Builder = struct
  type 'a t = {
    name : string;
    mutable rev_blocks : (string * 'a * string option) list;
    mutable edges : (int * int) list;
    mutable entry : int;
    mutable count : int;
  }

  let create name =
    { name; rev_blocks = []; edges = []; entry = 0; count = 0 }

  let add ?call t ~label payload =
    let id = t.count in
    t.rev_blocks <- (label, payload, call) :: t.rev_blocks;
    t.count <- t.count + 1;
    id

  let edge t a b = t.edges <- (a, b) :: t.edges
  let set_entry t id = t.entry <- id

  let finish t =
    let blocks = Array.of_list (List.rev t.rev_blocks) in
    let succs = Array.make (Array.length blocks) [] in
    List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) t.edges;
    let fn =
      {
        name = t.name;
        entry = t.entry;
        blocks =
          Array.mapi
            (fun id (label, payload, call) ->
              { id; label; payload; succs = List.rev succs.(id); call })
            blocks;
      }
    in
    validate fn;
    fn
end
