(* The unified analysis context (see analysis_ctx.mli).  The record is
   deliberately flat and immutable: a context is cheap to derive from
   another with [{ ctx with ... }], and two structurally equal contexts
   always denote the same analysis inputs (the analysis cache keys on the
   same four components). *)

type pins = { code : int list; data : int list }

let no_pins = { code = []; data = [] }

type t = {
  config : Hw.Config.t;
  params : Kernel_model.params;
  pins : pins;
  build : Sel4.Build.t;
}

let make ?(config = Hw.Config.default) ?(params = Kernel_model.default_params)
    ?(pins = no_pins) ?(build = Sel4.Build.improved) () =
  { config; params; pins; build }

let default = make ()

let pp ppf t =
  Fmt.pf ppf "build=(%a) l2=%b pins=%d+%d depth=%d" Sel4.Build.pp t.build
    t.config.Hw.Config.l2_enabled
    (List.length t.pins.code)
    (List.length t.pins.data)
    t.params.Kernel_model.decode_depth
