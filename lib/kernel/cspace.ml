(* Guarded capability-space decoding.

   seL4 cap addresses are 32-bit values resolved through a tree of CNodes,
   each consuming a guard (bits that must match) plus a radix (bits
   indexing into the node's slots).  An adversarial capability space can
   force one bit per level — 32 levels, each a fresh cache miss — which is
   the paper's Figure 7 worst case and its dominant syscall cost.  seL4's
   defence is authority: don't let untrusted code build its own deep
   spaces. *)

open Ktypes

type error =
  | Invalid_root
  | Guard_mismatch of int (* level *)
  | Depth_exhausted
  | Empty_slot of int (* level *)

type result = Ok_slot of slot * int (* levels traversed *) | Error of error

let word_bits = 32

(* Resolve [cptr] against the cspace rooted at [root_cap].  Returns the
   slot addressed, charging one level's work per CNode traversed. *)
let resolve ctx ~root_cap ~cptr =
  let rec level cap remaining depth =
    Ctx.exec ctx Layout.R.cspace_lookup Costs.cspace_level_instrs;
    match cap with
    | Cnode_cap { cnode; guard; guard_bits } ->
        Ctx.load ctx cnode.cn_addr;
        let radix = cnode.cn_bits in
        let need = guard_bits + radix in
        if need > remaining then Error Depth_exhausted
        else begin
          let shifted_guard =
            (cptr lsr (remaining - guard_bits)) land ((1 lsl guard_bits) - 1)
          in
          if guard_bits > 0 && shifted_guard <> guard then
            Error (Guard_mismatch depth)
          else begin
            let index =
              (cptr lsr (remaining - need)) land ((1 lsl radix) - 1)
            in
            let slot = cnode.cn_slots.(index) in
            Ctx.load ctx (Cdt.slot_addr slot);
            let remaining = remaining - need in
            if remaining = 0 then Ok_slot (slot, depth + 1)
            else
              match slot.cap with
              | Cnode_cap _ as next ->
                  Ctx.branch ctx Layout.R.cspace_lookup ~taken:true;
                  level next remaining (depth + 1)
              | Null_cap -> Error (Empty_slot depth)
              | _ ->
                  (* Resolution stops early at a non-CNode cap; seL4 treats
                     this as resolving to that slot. *)
                  Ok_slot (slot, depth + 1)
          end
        end
    | _ -> Error Invalid_root
  in
  level root_cap word_bits 0

let pp_error ppf = function
  | Invalid_root -> Fmt.string ppf "invalid root"
  | Guard_mismatch d -> Fmt.pf ppf "guard mismatch at level %d" d
  | Depth_exhausted -> Fmt.string ppf "depth exhausted"
  | Empty_slot d -> Fmt.pf ppf "empty slot at level %d" d
