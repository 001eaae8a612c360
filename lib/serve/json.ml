(* An alias kept for perfbench, which names [Serve.Json]; the value and
   its printer live in [Obs.Json]. *)
include Obs.Json
