(** Cache-pinning selection (Section 4): trace an interrupt delivery on
    the executable kernel, rank the touched lines by frequency, and
    greedily take what fits in one locked way per cache — plus the first
    256 bytes of the kernel stack and the key scheduler/IRQ data words,
    as the paper pinned. *)

type selection = {
  code_lines : int list;  (** I-cache line addresses *)
  data_lines : int list;  (** D-cache line addresses *)
}

val select : Sel4.Build.t -> selection
(** Trace-derived selection, at most one line per cache set. *)

val install : selection -> Hw.Machine.t -> unit
(** Pin the selection into a machine configured with locked ways. *)

val context : ?l2:bool -> ?pin:bool -> Sel4.Build.t -> Analysis_ctx.t
(** The analysis context for [build] on the default hardware, with the L2
    enabled when [l2].  When [pin] (default [false]), one L1 way per
    cache is locked ({!Hw.Config.with_pinning}) and holds [select build]
    as the context's pins. *)

val pp : selection Fmt.t
