(** The unified analysis context: one value carrying the four inputs every
    analysis driver needs — the hardware configuration, the workload
    parameters, the cache-pinning selection and the kernel build variant —
    so drivers take [Analysis_ctx.t] instead of re-copying the
    [?params ?pins ~config build] label sprawl.

    {!Response_time}, {!Workloads}, {!Experiments} and [Explore] are all
    expressed in terms of it; the deprecated optional-label wrappers that
    bridged one release have been removed. *)

type pins = { code : int list; data : int list }
(** Cache lines locked into one L1 way (Section 4 of the paper):
    instruction lines in [code], data lines in [data]. *)

val no_pins : pins

type t = {
  config : Hw.Config.t;  (** hardware/cache configuration *)
  params : Kernel_model.params;  (** workload shape (depth, message, caps) *)
  pins : pins;  (** pinned cache lines, [no_pins] when unused *)
  build : Sel4.Build.t;  (** kernel build variant under analysis *)
}

val make :
  ?config:Hw.Config.t ->
  ?params:Kernel_model.params ->
  ?pins:pins ->
  ?build:Sel4.Build.t ->
  unit ->
  t
(** Smart constructor.  Defaults: {!Hw.Config.default},
    {!Kernel_model.default_params}, {!no_pins}, {!Sel4.Build.improved}. *)

val default : t
(** [make ()]. *)

val pp : t Fmt.t
