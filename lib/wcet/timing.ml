(* Timing payload attached to every CFG basic block.

   This is the information the paper's analysis extracts from the compiled
   kernel binary: how many instructions a block executes, which code
   addresses it occupies (for I-cache analysis), and which data it touches
   (for D-cache analysis).  Data accesses are classified by how much the
   static analysis knows about their address:

   - [Static]: the address is known (globals, fixed kernel structures);
     must-analysis can prove hits for these.
   - [Dynamic]: the address is statically unknown (pointer chasing through
     capability spaces, page tables, thread queues); the conservative model
     must treat every such access as a miss, and a dynamic *write* can evict
     any line, so it also clears the data must-state.

   The same block descriptions drive both the static analysis and the
   worst-case measurement replays, which keeps "computed >= observed" an
   empirical theorem rather than an artefact of mismatched models. *)

type access =
  | Static of { addr : int; write : bool }
  | Dynamic of { write : bool; count : int }

type t = {
  base : int;  (* code address of the first instruction *)
  instrs : int;
  accesses : access list;
  branch : bool option;
      (* Some b overrides the default "conditional iff >= 2 successors" *)
}

let make ?(accesses = []) ?branch ~base ~instrs () =
  assert (instrs >= 0 && base >= 0);
  { base; instrs; accesses; branch }

(* Code lines occupied by this block's instructions, for a given I-cache
   line size (ARM: 4-byte instructions). *)
let code_lines t ~line_size =
  if t.instrs = 0 then []
  else begin
    let first = t.base / line_size in
    let last = (t.base + (4 * t.instrs) - 1) / line_size in
    List.init (last - first + 1) (fun i -> (first + i) * line_size)
  end

let ends_in_branch t ~num_succs =
  match t.branch with Some b -> b | None -> num_succs >= 2

let pp ppf t =
  Fmt.pf ppf "base=%#x instrs=%d accesses=%d" t.base t.instrs
    (List.length t.accesses)
