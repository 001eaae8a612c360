type policy = Spread | Shielded

type t = { cores : int; policy : policy }

let make ~cores ~policy =
  if cores < 1 then invalid_arg "Smp.Topology.make: cores must be >= 1";
  { cores; policy }

let policy_name = function Spread -> "spread" | Shielded -> "shielded"

let tenant_cores t =
  match t.policy with
  | Spread -> List.init t.cores Fun.id
  | Shielded ->
      if t.cores = 1 then [ 0 ] else List.init (t.cores - 1) (fun c -> c + 1)

let route_line t ~line =
  match t.policy with Shielded -> 0 | Spread -> line mod t.cores

let place_tenants t ~total =
  let counts = Array.make t.cores 0 in
  let homes = Array.of_list (tenant_cores t) in
  for i = 0 to total - 1 do
    let c = homes.(i mod Array.length homes) in
    counts.(c) <- counts.(c) + 1
  done;
  counts

let receives_ipis t ~core =
  t.cores > 1 && List.mem core (tenant_cores t)

let sends_shootdowns t ~core =
  t.cores > 1
  && List.mem core (tenant_cores t)
  (* a broadcast needs at least one *other* tenant core to hit; under
     Shielded the shielded core must never be a target, so with two cores
     the single tenant core has nobody to shoot down *)
  && List.length (tenant_cores t) > 1
