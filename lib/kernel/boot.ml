(* Minimal root-task bootstrap, shared by tests, examples and benchmarks.

   Builds the initial capability environment the way seL4's boot protocol
   does: a root untyped, a root CNode retyped out of it, and a root thread
   whose cspace resolves a 32-bit cap address in a single level (guard of
   24 zero bits + 8 radix bits).  All objects are created through the real
   retype path so that boot-time state satisfies the invariants. *)

open Ktypes

type env = {
  k : Kernel.t;
  root_cnode : cnode;
  root_tcb : tcb;
  ut_slot : slot;  (* large untyped for further allocations *)
}

let root_cnode_bits = 8
let root_guard_bits = 32 - root_cnode_bits

(* Capability address of root CNode slot [i] under the standard guard. *)
let cptr i = i

exception Boot_failure of string

let retype_now env_k ~ut_slot obj_type ~count ~dest_slots =
  match
    Untyped_ops.retype (Kernel.ctx env_k)
      ~fresh_id:(fun () -> Kernel.fresh_id env_k)
      ~register:(Kernel.register env_k) ~ut_slot obj_type ~count ~dest_slots
  with
  | Untyped_ops.Done caps -> caps
  | Untyped_ops.Preempted -> raise (Boot_failure "retype preempted at boot")
  | Untyped_ops.Error e ->
      raise (Boot_failure (Fmt.to_to_string Untyped_ops.pp_error e))

let boot ?cpu ?cpu_id ?(root_priority = 100) (build : Build.t) =
  let k = Kernel.create ?cpu ?cpu_id build in
  let ut_slot = Kernel.boot_untyped k ~size_bits:26 (* 64 MiB *) in
  (* Root CNode. *)
  let cnode_dest = Kernel.new_root_slot k in
  let root_cnode =
    match
      retype_now k ~ut_slot (Cnode_object root_cnode_bits) ~count:1
        ~dest_slots:[ cnode_dest ]
    with
    | [ Cnode_cap { cnode; _ } ] -> cnode
    | _ -> raise (Boot_failure "no cnode")
  in
  (* Re-guard the root cnode cap so one level consumes the full word. *)
  cnode_dest.cap <-
    Cnode_cap { cnode = root_cnode; guard = 0; guard_bits = root_guard_bits };
  (* Root TCB. *)
  let tcb_dest = Kernel.new_root_slot k in
  let root_tcb =
    match retype_now k ~ut_slot Tcb_object ~count:1 ~dest_slots:[ tcb_dest ] with
    | [ Tcb_cap tcb ] -> tcb
    | _ -> raise (Boot_failure "no tcb")
  in
  root_tcb.priority <- root_priority;
  root_tcb.cspace_root <- cnode_dest.cap;
  root_tcb.state <- Running;
  (Kernel.switch_to k root_tcb : unit);
  (* Give the root task its own untyped and cnode caps inside its cspace,
     so syscalls can name them. *)
  root_cnode.cn_slots.(0).cap <- ut_slot.cap;
  Kernel.incref k ut_slot.cap;
  Cdt.insert_child (Kernel.ctx k) ~parent:ut_slot ~child:root_cnode.cn_slots.(0);
  root_cnode.cn_slots.(1).cap <- cnode_dest.cap;
  Kernel.incref k cnode_dest.cap;
  Cdt.insert_child (Kernel.ctx k) ~parent:cnode_dest
    ~child:root_cnode.cn_slots.(1);
  root_cnode.cn_slots.(2).cap <- Tcb_cap root_tcb;
  Kernel.incref k (Tcb_cap root_tcb);
  Cdt.insert_child (Kernel.ctx k) ~parent:tcb_dest ~child:root_cnode.cn_slots.(2);
  { k; root_cnode; root_tcb; ut_slot }

(* Slot indices 0-2 are reserved by [boot]. *)
let ut_cptr = cptr 0
let first_free_slot = 3

(* Convenience: retype via the real syscall path into root cnode slots
   starting at [dest]; returns the created caps' cptrs. *)
let retype_syscall env obj_type ~count ~dest =
  let dest_slots =
    List.init count (fun i -> env.root_cnode.cn_slots.(dest + i))
  in
  match
    Kernel.run_to_completion env.k
      (Kernel.Ev_invoke
         (Kernel.Inv_retype { ut = ut_cptr; obj_type; count; dest_slots }))
  with
  | Kernel.Completed -> List.init count (fun i -> cptr (dest + i))
  | Kernel.Preempted -> raise (Boot_failure "retype did not complete")
  | Kernel.Failed e -> raise (Boot_failure e)

(* Create an extra thread sharing the root cspace. *)
let spawn_thread env ~priority ~dest =
  let cptrs = retype_syscall env Tcb_object ~count:1 ~dest in
  let tcb =
    match env.root_cnode.cn_slots.(dest).cap with
    | Tcb_cap tcb -> tcb
    | _ -> raise (Boot_failure "spawn: no tcb")
  in
  tcb.priority <- priority;
  tcb.cspace_root <- env.root_tcb.cspace_root;
  ignore cptrs;
  tcb

let make_runnable env tcb =
  if not (Ktypes.is_runnable tcb) then begin
    tcb.state <- Running;
    Sched.make_runnable (Kernel.ctx env.k) env.k.Kernel.sched tcb
  end

(* Create an endpoint in root cnode slot [dest]. *)
let spawn_endpoint env ~dest =
  ignore (retype_syscall env Endpoint_object ~count:1 ~dest);
  match env.root_cnode.cn_slots.(dest).cap with
  | Endpoint_cap { ep; _ } -> ep
  | _ -> raise (Boot_failure "spawn: no endpoint")

(* Create a notification in root cnode slot [dest]. *)
let spawn_notification env ~dest =
  ignore (retype_syscall env Notification_object ~count:1 ~dest);
  match env.root_cnode.cn_slots.(dest).cap with
  | Notification_cap { ntfn; _ } -> ntfn
  | _ -> raise (Boot_failure "spawn: no notification")
