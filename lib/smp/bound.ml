module Costs = Sel4.Costs

type t = {
  b_core : int;
  b_base : int;
  b_send : int;
  b_recv : int;
  b_contention : int;
  b_total : int;
}

let shared_classes = [ Race.Sched_queues; Race.Cur_thread; Race.Irq_state ]

let interfering_pairs () =
  List.filter
    (fun (p : Race.pair) ->
      List.exists (fun c -> List.mem c shared_classes) p.Race.p_classes)
    (Race.matrix ())

let per_core (topo : Topology.t) ~base ~core =
  let cores = topo.Topology.cores in
  let send =
    if cores > 1 then (cores - 1) * Costs.ipi_send_instrs else 0
  in
  let recv =
    if Topology.receives_ipis topo ~core then
      Costs.ipi_receive_instrs + Costs.tlb_shootdown_instrs
    else 0
  in
  let contention =
    if cores > 1 then
      List.length (interfering_pairs ()) * Costs.remote_line_transfer_cycles
    else 0
  in
  {
    b_core = core;
    b_base = base;
    b_send = send;
    b_recv = recv;
    b_contention = contention;
    b_total = base + send + recv + contention;
  }

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("core", int t.b_core); ("base", int t.b_base); ("ipi_send", int t.b_send);
      ("ipi_receive", int t.b_recv); ("contention", int t.b_contention);
      ("total", int t.b_total);
    ]

let pp ppf t =
  Fmt.pf ppf "core %d: %d = %d base + %d send + %d recv + %d contention"
    t.b_core t.b_total t.b_base t.b_send t.b_recv t.b_contention
