(** Block-by-block decomposition of a WCET bound.

    The IPET ILP solution is not just a number: the optimal assignment of
    block and edge counts *is* the analytic worst-case path.  A profile
    reconstructs that path as per-block cycle contributions — split into
    instruction execution, memory (cache) stall and pipeline (branch)
    cycles — together with the edge flows and the binding constraint rows
    (with their provenance labels) that limit the objective.

    This module is a pure data container with folded-stack and JSON
    exports; [lib/wcet]'s [Explain] builds profiles from analysis
    results, keeping [lib/obs] dependency-free. *)

type row = {
  r_func : string;  (** source function the block was inlined from *)
  r_context : string;
      (** virtual-inlining call path (e.g. ["syscall/lookup@b3"]);
          equals [r_func] for top-level blocks *)
  r_label : string;  (** source block label *)
  r_count : int;  (** executions on the worst-case path *)
  r_cycles : int;  (** sound per-visit cycles (the ILP objective weight) *)
  r_exec : int;  (** per-visit instruction-issue cycles *)
  r_stall : int;  (** per-visit memory-hierarchy stall cycles *)
  r_pipeline : int;  (** per-visit branch/pipeline penalty cycles *)
  r_fetch_misses : int;  (** per-visit I-cache misses charged *)
  r_data_misses : int;  (** per-visit D-cache misses charged *)
}
(** Invariant: [r_cycles = r_exec + r_stall + r_pipeline], so row totals
    sum exactly to the bound. *)

type t = {
  p_entry : string;  (** analysed entry point (e.g. ["syscall"]) *)
  p_wcet : int;  (** the bound being decomposed, in cycles *)
  p_rows : row list;  (** blocks with positive worst-case count *)
  p_edges : ((string * string) * int) list;
      (** edge flows at the optimum: (from label, to label) -> count *)
  p_binding : (string * int) list;
      (** tight constraint rows at the optimum: (provenance-carrying ILP
          row label, left-hand-side value) *)
}

val total : t -> int
(** Sum of [r_count * r_cycles] over the rows; equals [p_wcet] for any
    profile built from a solved ILP. *)

val exec_total : t -> int

val stall_total : t -> int

val pipeline_total : t -> int

val exact : t -> bool
(** [total t = p_wcet] — the decomposition accounts for every cycle of
    the bound. *)

val by_function : t -> (string * int) list
(** Total cycles charged per source function, largest first. *)

val functions : t -> string list
(** Source functions charged by the bound, largest contribution first. *)

val concat : entry:string -> t list -> t
(** Combine profiles end-to-end (e.g. syscall + interrupt path for the
    full kernel-entry response bound); [p_wcet] is the sum of the parts
    and rows keep their per-part entry as a context prefix. *)

val to_folded : t -> string
(** Folded-stack (flamegraph-collapsed) lines:
    [entry;call;path;label;component count], one line per non-zero
    execution/stall/pipeline component, newline-terminated.  Feed
    directly to [flamegraph.pl] or speedscope. *)

val to_json : t -> Json.t

val pp : t Fmt.t
(** Human-readable decomposition: rows grouped by function with
    subtotals, the exec/stall/pipeline split, edge flows elided, and the
    binding constraints that shape the optimum. *)
