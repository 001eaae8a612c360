(* Capability derivation tree (seL4's mapping database), kept as a
   first-child / sibling-list tree threaded through slots.

   Derived caps (mint, copy, retype results) become children of the cap
   they were derived from.  Revocation deletes the subtree below a slot,
   one slot at a time — the canonical incremental-consistency operation:
   after each removal the tree is again well formed, so a preemption point
   fits between any two removals (Section 3.3 uses exactly this shape for
   endpoint deletion; CNode revoke shares it). *)

open Ktypes

let slot_addr slot =
  match slot.sl_cnode with
  | Some cn -> cn.cn_addr + (16 * slot.sl_index)
  | None -> Layout.data_base + 0x8000 + (16 * slot.sl_index)

(* Link [child] as a derivation child of [parent]. *)
let insert_child ctx ~parent ~child =
  assert (child.cdt_parent = None);
  Ctx.exec ctx Layout.R.cdt_ops Costs.cdt_insert_instrs;
  Ctx.store ctx (slot_addr parent);
  Ctx.store ctx (slot_addr child);
  child.cdt_parent <- Some parent;
  child.cdt_next <- parent.cdt_first_child;
  (match parent.cdt_first_child with
  | Some first ->
      Ctx.store ctx (slot_addr first);
      first.cdt_prev <- Some child
  | None -> ());
  parent.cdt_first_child <- Some child

(* Unlink a slot from the tree.  Its children are re-parented to the
   slot's parent and spliced into the sibling list in the slot's place
   (seL4 keeps derivation ancestry transitive on delete). *)
let remove ctx slot =
  Ctx.exec ctx Layout.R.cdt_ops Costs.cdt_remove_instrs;
  Ctx.store ctx (slot_addr slot);
  let parent = slot.cdt_parent in
  let before = slot.cdt_prev and after = slot.cdt_next in
  let rec set_parent = function
    | None -> ()
    | Some c ->
        Ctx.store ctx (slot_addr c);
        c.cdt_parent <- parent;
        set_parent c.cdt_next
  in
  set_parent slot.cdt_first_child;
  let rec last = function
    | Some c when c.cdt_next <> None -> last c.cdt_next
    | other -> other
  in
  (* The segment replacing [slot] in the sibling list: its child list, or
     nothing. *)
  let seg_first, seg_last =
    match (slot.cdt_first_child, last slot.cdt_first_child) with
    | Some f, Some l -> (Some f, Some l)
    | _ -> (None, None)
  in
  let link_left = match seg_first with Some f -> Some f | None -> after in
  (match before with
  | Some b -> b.cdt_next <- link_left
  | None -> (
      match parent with
      | Some p -> p.cdt_first_child <- link_left
      | None -> ()));
  (match seg_first with Some f -> f.cdt_prev <- before | None -> ());
  let seg_end = match seg_last with Some l -> Some l | None -> before in
  (match after with Some a -> a.cdt_prev <- seg_end | None -> ());
  (match seg_last with Some l -> l.cdt_next <- after | None -> ());
  slot.cdt_parent <- None;
  slot.cdt_first_child <- None;
  slot.cdt_prev <- None;
  slot.cdt_next <- None

(* Transplant a slot's derivation-tree position onto another slot: the
   new slot takes over parent, siblings and children (capability moves
   keep their place in the tree, unlike copies which derive). *)
let replace ctx ~old_slot ~new_slot =
  Ctx.exec ctx Layout.R.cdt_ops Costs.cdt_insert_instrs;
  Ctx.store ctx (slot_addr old_slot);
  Ctx.store ctx (slot_addr new_slot);
  assert (new_slot.cdt_parent = None && new_slot.cdt_first_child = None);
  new_slot.cdt_parent <- old_slot.cdt_parent;
  new_slot.cdt_first_child <- old_slot.cdt_first_child;
  new_slot.cdt_prev <- old_slot.cdt_prev;
  new_slot.cdt_next <- old_slot.cdt_next;
  (match old_slot.cdt_parent with
  | Some p -> (
      match p.cdt_first_child with
      | Some f when f == old_slot -> p.cdt_first_child <- Some new_slot
      | _ -> ())
  | None -> ());
  (match old_slot.cdt_prev with
  | Some prev -> prev.cdt_next <- Some new_slot
  | None -> ());
  (match old_slot.cdt_next with
  | Some next -> next.cdt_prev <- Some new_slot
  | None -> ());
  let rec reparent = function
    | None -> ()
    | Some child ->
        child.cdt_parent <- Some new_slot;
        reparent child.cdt_next
  in
  reparent old_slot.cdt_first_child;
  old_slot.cdt_parent <- None;
  old_slot.cdt_first_child <- None;
  old_slot.cdt_prev <- None;
  old_slot.cdt_next <- None

(* First leaf-most descendant below [slot], or None: revoke deletes
   descendants bottom-up so that each step removes a leaf of the
   subtree. *)
let rec deepest_descendant slot =
  match slot.cdt_first_child with
  | None -> None
  | Some child -> Some (match deepest_descendant child with
    | Some deeper -> deeper
    | None -> child)

let descendants slot =
  let rec walk acc = function
    | None -> acc
    | Some child ->
        let acc = walk (child :: acc) child.cdt_first_child in
        walk acc child.cdt_next
  in
  List.rev (walk [] slot.cdt_first_child)

let has_children slot = slot.cdt_first_child <> None

(* Well-formedness of the sibling lists and parent pointers, used by the
   invariant checker. *)
let check_well_formed slot =
  (* Slots are cyclic records: all comparisons must be physical. *)
  let same a b = match a with Some x -> x == b | None -> false in
  let rec check_children parent = function
    | None -> true
    | Some child ->
        same child.cdt_parent parent
        && (match child.cdt_next with
           | Some next -> same next.cdt_prev child
           | None -> true)
        && (match child.cdt_prev with
           | Some prev -> same prev.cdt_next child
           | None -> same parent.cdt_first_child child)
        && check_children child child.cdt_first_child
        && check_children parent child.cdt_next
  in
  check_children slot slot.cdt_first_child
