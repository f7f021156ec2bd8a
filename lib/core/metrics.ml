open Acsi_aos
module Interp = Acsi_vm.Interp

type t = {
  policy : string;
  total_cycles : int;
  app_cycles : int;
  aos_cycles : int;
  component_cycles : (Accounting.component * int) list;
  opt_code_bytes : int;
  installed_opt_bytes : int;
  baseline_code_bytes : int;
  opt_compile_cycles : int;
  opt_compilations : int;
  opt_methods : int;
  baseline_methods : int;
  method_samples : int;
  trace_samples : int;
  dcg_size : int;
  rule_count : int;
  refusals : int;
  refusals_by_reason : (string * int) list;
  instructions : int;
  calls : int;
  guard_hits : int;
  guard_misses : int;
  inline_total : int;
  guard_sites : int;
  output_checksum : int;
  classes_loaded : int;
  methods_compiled : int;
  bytecodes_compiled : int;
  osr_count : int;
  osr_up : int;
  osr_down : int;
  deopt_guard : int;
  deopt_invalidate : int;
  async_installs : int;
  max_compile_queue_depth : int;
  overlapped_aos_cycles : int;
}

let checksum output =
  List.fold_left (fun acc v -> (acc * 31) + v + 17) 0 output land max_int

let of_run vm sys =
  let program = Interp.program vm in
  let acct = System.accounting sys in
  let registry = System.registry sys in
  let inline_total = ref 0 in
  let guard_sites = ref 0 in
  Registry.iter registry ~f:(fun _ e ->
      inline_total := !inline_total + e.Registry.stats.Acsi_jit.Expand.inline_count;
      guard_sites := !guard_sites + e.Registry.stats.Acsi_jit.Expand.guard_count);
  let total = Interp.cycles vm in
  let aos_cycles = Accounting.total acct in
  (* Async-compile accounting: background compile cycles are charged to
     the component accounting but never reach the shared clock — they
     overlap mutator execution. Subtracting the raw accounting total
     from the clock would deduct work the clock never saw and
     under-report application time, so the overlapped share is added
     back: [app = total - (aos - overlapped)]. In the stalling model
     [overlapped = 0] and this reduces to [total - aos]. *)
  let overlapped_aos_cycles = System.overlapped_aos_cycles sys in
  (* Table 1 reports dynamically compiled code: methods actually executed. *)
  let methods_compiled = System.baseline_compiled_methods sys in
  let bytecodes_compiled =
    Array.fold_left
      (fun acc (m : Acsi_bytecode.Meth.t) ->
        if Interp.was_executed vm m.Acsi_bytecode.Meth.id then
          acc + Acsi_bytecode.Meth.size_units m
        else acc)
      0
      (Acsi_bytecode.Program.methods program)
  in
  {
    policy = Acsi_policy.Policy.to_string (System.config sys).System.policy;
    total_cycles = total;
    app_cycles = total - (aos_cycles - overlapped_aos_cycles);
    aos_cycles;
    component_cycles =
      List.map (fun c -> (c, Accounting.get acct c)) Accounting.all_components;
    opt_code_bytes = Registry.cumulative_bytes registry;
    installed_opt_bytes = Registry.installed_bytes registry;
    baseline_code_bytes = System.baseline_code_bytes sys;
    opt_compile_cycles = Registry.cumulative_compile_cycles registry;
    opt_compilations = Registry.opt_compilation_count registry;
    opt_methods = Registry.opt_method_count registry;
    baseline_methods = System.baseline_compiled_methods sys;
    method_samples = System.method_samples_taken sys;
    trace_samples = System.trace_samples_taken sys;
    dcg_size = Acsi_profile.Dcg.size (System.dcg sys);
    rule_count = Acsi_profile.Rules.rule_count (System.rules sys);
    refusals = Db.refusal_count (System.db sys);
    refusals_by_reason =
      List.map
        (fun (r, n) -> (Acsi_jit.Oracle.refusal_reason_to_string r, n))
        (Db.refusal_reasons (System.db sys));
    instructions = Interp.instructions_executed vm;
    calls = Interp.calls_executed vm;
    guard_hits = Interp.guard_hits vm;
    guard_misses = Interp.guard_misses vm;
    inline_total = !inline_total;
    guard_sites = !guard_sites;
    output_checksum = checksum (Interp.output vm);
    classes_loaded = Acsi_bytecode.Program.class_count program;
    methods_compiled;
    bytecodes_compiled;
    osr_count = Interp.osr_count vm;
    osr_up = Interp.osr_up vm;
    osr_down = Interp.osr_down vm;
    deopt_guard = Interp.deopt_guard_count vm;
    deopt_invalidate = Interp.deopt_invalidate_count vm;
    async_installs = System.async_installs sys;
    max_compile_queue_depth = System.max_compile_queue_depth sys;
    overlapped_aos_cycles;
  }

(* Snapshot/diff over the counters that keep advancing monotonically on a
   shared VM + AOS instance. Server mode runs many requests against one
   instance; attributing work to a request (or a warmup window) by reading
   absolute counters would double-count everything that came before, so
   consumers snapshot at window boundaries and report the diffs. *)
type snapshot = {
  s_cycles : int;
  s_aos_cycles : int;
  s_instructions : int;
  s_calls : int;
  s_guard_hits : int;
  s_guard_misses : int;
  s_osr : int;
  s_osr_down : int;
  s_method_samples : int;
  s_trace_samples : int;
  s_opt_compilations : int;
  s_async_installs : int;
  s_output_len : int;
}

let snapshot vm sys =
  {
    s_cycles = Interp.cycles vm;
    s_aos_cycles = Accounting.total (System.accounting sys);
    s_instructions = Interp.instructions_executed vm;
    s_calls = Interp.calls_executed vm;
    s_guard_hits = Interp.guard_hits vm;
    s_guard_misses = Interp.guard_misses vm;
    s_osr = Interp.osr_count vm;
    s_osr_down = Interp.osr_down vm;
    s_method_samples = System.method_samples_taken sys;
    s_trace_samples = System.trace_samples_taken sys;
    s_opt_compilations =
      Registry.opt_compilation_count (System.registry sys)
      + System.in_flight_compiles sys;
    s_async_installs = System.async_installs sys;
    s_output_len = List.length (Interp.output vm);
  }

let diff ~before ~after =
  {
    s_cycles = after.s_cycles - before.s_cycles;
    s_aos_cycles = after.s_aos_cycles - before.s_aos_cycles;
    s_instructions = after.s_instructions - before.s_instructions;
    s_calls = after.s_calls - before.s_calls;
    s_guard_hits = after.s_guard_hits - before.s_guard_hits;
    s_guard_misses = after.s_guard_misses - before.s_guard_misses;
    s_osr = after.s_osr - before.s_osr;
    s_osr_down = after.s_osr_down - before.s_osr_down;
    s_method_samples = after.s_method_samples - before.s_method_samples;
    s_trace_samples = after.s_trace_samples - before.s_trace_samples;
    s_opt_compilations =
      after.s_opt_compilations - before.s_opt_compilations;
    s_async_installs = after.s_async_installs - before.s_async_installs;
    s_output_len = after.s_output_len - before.s_output_len;
  }

let pct_change ~from_v to_v =
  if from_v = 0 then 0.0
  else 100.0 *. (float_of_int to_v -. float_of_int from_v) /. float_of_int from_v

let speedup_pct ~baseline t =
  if t.total_cycles = 0 then 0.0
  else
    100.0
    *. ((float_of_int baseline.total_cycles /. float_of_int t.total_cycles)
       -. 1.0)

let code_size_change_pct ~baseline t =
  pct_change ~from_v:baseline.opt_code_bytes t.opt_code_bytes

let compile_time_change_pct ~baseline t =
  pct_change ~from_v:baseline.opt_compile_cycles t.opt_compile_cycles

let component_pct t c =
  if t.total_cycles = 0 then 0.0
  else
    100.0
    *. float_of_int (List.assoc c t.component_cycles)
    /. float_of_int t.total_cycles

let pp fmt t =
  let f = Format.fprintf in
  f fmt "@[<v>policy               %s@," t.policy;
  f fmt "total cycles         %d@," t.total_cycles;
  f fmt "  application        %d@," t.app_cycles;
  f fmt "  AOS overhead       %d (%.3f%%)@," t.aos_cycles
    (100.0 *. float_of_int t.aos_cycles /. float_of_int (max 1 t.total_cycles));
  List.iter
    (fun (c, cyc) ->
      f fmt "    %-22s %d@," (Accounting.component_name c) cyc)
    t.component_cycles;
  f fmt "opt code bytes       %d (installed %d)@," t.opt_code_bytes
    t.installed_opt_bytes;
  f fmt "baseline code bytes  %d@," t.baseline_code_bytes;
  f fmt "opt compile cycles   %d over %d compilations of %d methods@,"
    t.opt_compile_cycles t.opt_compilations t.opt_methods;
  f fmt "samples              %d method / %d trace@," t.method_samples
    t.trace_samples;
  f fmt "profile              %d traces, %d rules, %d refusals@," t.dcg_size
    t.rule_count t.refusals;
  List.iter
    (fun (reason, n) -> if n > 0 then f fmt "  refused %-12s %d@," reason n)
    t.refusals_by_reason;
  if t.overlapped_aos_cycles > 0 then
    f fmt "overlapped AOS       %d cycles (background compiles)@,"
      t.overlapped_aos_cycles;
  f fmt "execution            %d instrs, %d calls@," t.instructions t.calls;
  f fmt "guards               %d hits / %d misses (%d sites, %d inlines)@,"
    t.guard_hits t.guard_misses t.guard_sites t.inline_total;
  (* Deopt traffic only exists under speculation / generalized OSR;
     keep the line out of baseline reports so goldens stay stable. *)
  if t.osr_down > 0 || t.deopt_guard > 0 || t.deopt_invalidate > 0 then
    f fmt "deopt                %d up / %d down (%d guard-storm, %d invalidated)@,"
      t.osr_up t.osr_down t.deopt_guard t.deopt_invalidate;
  f fmt "output checksum      %d@]" t.output_checksum

type cache_stats = { hits : int; misses : int; evictions : int }

let tier_cache_stats () = { hits = 0; misses = 0; evictions = 0 }
let reset_tier_cache_stats () = ()
