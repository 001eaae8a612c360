(* Cache-pinning selection (Section 4).

   The paper pinned 118 instruction lines chosen from execution traces of
   interrupt deliveries, the first 256 bytes of the kernel stack, and some
   key data regions, all fitting in one quarter of each L1 cache.  We do
   the same: trace an interrupt delivery on the executable kernel, rank
   the touched lines by frequency, and greedily take as many as fit in the
   locked way. *)

type selection = {
  code_lines : int list;
  data_lines : int list;
}

let line_of config addr =
  addr / config.Hw.Config.l1_line * config.Hw.Config.l1_line

(* Lines a locked way can hold: one per set. *)
let way_capacity config = config.Hw.Config.l1_sets

(* Collect the (kind, line) access histogram of one interrupt delivery. *)
let trace_interrupt_delivery build =
  let config = Hw.Config.default in
  let s =
    Workloads.scenario (Analysis_ctx.make ~build ()) Kernel_model.Interrupt
  in
  let code : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let data : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl line = Hashtbl.replace tbl line (1 + try Hashtbl.find tbl line with Not_found -> 0) in
  Hw.Cpu.set_tracer s.Workloads.cpu (fun kind addr ->
      let line = line_of config addr in
      match kind with
      | Hw.Cpu.Fetch -> bump code line
      | Hw.Cpu.Load | Hw.Cpu.Store -> bump data line);
  let _ = Workloads.measure_once s ~seed:1 in
  Hw.Cpu.clear_tracer s.Workloads.cpu;
  (code, data)

(* Greedy selection: most-frequently-used lines first, at most one line
   per cache set (a locked way holds one line per set), stopping at the
   way's capacity. *)
let select_lines config tbl ~extra ~capacity =
  let sets_used = Hashtbl.create 64 in
  let set_of line = line / config.Hw.Config.l1_line mod config.Hw.Config.l1_sets in
  let candidates =
    extra
    @ (Hashtbl.fold (fun line count acc -> (line, count) :: acc) tbl []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.map fst)
  in
  let rec pick acc n = function
    | [] -> List.rev acc
    | _ when n >= capacity -> List.rev acc
    | line :: rest ->
        if Hashtbl.mem sets_used (set_of line) then pick acc n rest
        else begin
          Hashtbl.replace sets_used (set_of line) ();
          pick (line :: acc) (n + 1) rest
        end
  in
  pick [] 0 candidates

(* The pin set: traced interrupt-path code lines, plus the first 256
   bytes of the kernel stack and the key scheduler/IRQ data words. *)
let select build =
  let config = Hw.Config.default in
  let code_hist, data_hist = trace_interrupt_delivery build in
  let stack_lines =
    List.init (256 / config.Hw.Config.l1_line) (fun i ->
        Sel4.Layout.stack_base + (i * config.Hw.Config.l1_line))
  in
  let key_data =
    List.map (line_of config)
      [
        Sel4.Layout.bitmap_top;
        Sel4.Layout.cur_thread_ptr;
        Sel4.Layout.irq_pending_word;
        Sel4.Layout.irq_handler_table;
      ]
  in
  {
    code_lines = select_lines config code_hist ~extra:[] ~capacity:(way_capacity config);
    data_lines =
      select_lines config data_hist ~extra:(stack_lines @ key_data)
        ~capacity:(way_capacity config);
  }

(* Install the selection into a machine whose configuration reserved
   locked ways. *)
let install selection machine =
  List.iter (fun l -> ignore (Hw.Machine.pin_icache machine l)) selection.code_lines;
  List.iter (fun l -> ignore (Hw.Machine.pin_dcache machine l)) selection.data_lines

let pp ppf s =
  Fmt.pf ppf "pinned %d I-lines, %d D-lines" (List.length s.code_lines)
    (List.length s.data_lines)

(* The one place a pinning choice becomes an analysis context: the
   selection's lines become the context's pins, and the configuration
   reserves the locked way that holds them. *)
let context ?(l2 = false) ?(pin = false) build =
  let config = if l2 then Hw.Config.with_l2 else Hw.Config.default in
  if not pin then Analysis_ctx.make ~config ~build ()
  else
    let s = select build in
    Analysis_ctx.make
      ~config:(Hw.Config.with_pinning config)
      ~pins:{ Analysis_ctx.code = s.code_lines; data = s.data_lines }
      ~build ()
