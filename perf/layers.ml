(* Host-time attribution from outside the libraries.

   The benchmark times every call it makes into a layer, and every VM
   hook it can interpose on, against one monotonic clock. A stack of
   open layers turns nested spans into self times: while a layer is on
   top of the stack the clock runs against it, so an [Interp.run] span
   minus the AOS hooks it fired is the VM's own time. Inside an
   operation, time with no layer open is the harness's own glue and is
   reported as unattributed; self times plus unattributed equal the
   operation's wall time, and the benchmark fails a traced run whose
   unattributed share is too large to trust.

   State is process-global: one traced pass runs on the main domain at a
   time, and the only other domains (the fleet's shards) run library
   code the benchmark cannot interpose on. *)

module Interp = Acsi_vm.Interp

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Vm_create  (** [Interp.create] *)
  | Aos_create  (** [System.create], summaries included when enabled *)
  | Vm  (** [Interp.run], minus the hooks below *)
  | Aos_timer  (** [on_timer_sample]: listeners, organizers, compiles *)
  | Aos_invoke  (** [on_invoke]: trace listener *)
  | Aos_first_exec  (** [on_first_execution]: baseline compile, seeding *)
  | Deopt_class_load  (** [on_class_load]: CHA invalidation *)
  | Deopt_guard_miss  (** [on_guard_miss]: guard-storm detection *)
  | Core_metrics  (** [Metrics.of_run] *)
  | Server  (** [Server.run], whole *)
  | Shards  (** [Shards.run], whole *)
  | Jit_expand  (** replay: [Oracle] + [Expand.compile] *)
  | Jit_check  (** replay: [Jit_check.check] *)
  | Tier_compile  (** replay: [Tier.compile] *)
  | Summary  (** replay: [Summary.analyze] *)
  | Verify  (** the benchmark's own output checks *)

let all =
  [
    Vm_create; Aos_create; Vm; Aos_timer; Aos_invoke; Aos_first_exec;
    Deopt_class_load; Deopt_guard_miss; Core_metrics; Server; Shards;
    Jit_expand; Jit_check; Tier_compile; Summary; Verify;
  ]

let name = function
  | Vm_create -> "vm.create"
  | Aos_create -> "aos.create"
  | Vm -> "vm.run"
  | Aos_timer -> "aos.timer"
  | Aos_invoke -> "aos.invoke"
  | Aos_first_exec -> "aos.first_exec"
  | Deopt_class_load -> "deopt.class_load"
  | Deopt_guard_miss -> "deopt.guard_miss"
  | Core_metrics -> "core.metrics"
  | Server -> "server.run"
  | Shards -> "shards.run"
  | Jit_expand -> "jit.expand"
  | Jit_check -> "analysis.jit_check"
  | Tier_compile -> "tier.compile"
  | Summary -> "analysis.summary"
  | Verify -> "perf.verify"

let index = function
  | Vm_create -> 0
  | Aos_create -> 1
  | Vm -> 2
  | Aos_timer -> 3
  | Aos_invoke -> 4
  | Aos_first_exec -> 5
  | Deopt_class_load -> 6
  | Deopt_guard_miss -> 7
  | Core_metrics -> 8
  | Server -> 9
  | Shards -> 10
  | Jit_expand -> 11
  | Jit_check -> 12
  | Tier_compile -> 13
  | Summary -> 14
  | Verify -> 15

let n_layers = List.length all
let self_ns = Array.make n_layers 0
let calls = Array.make n_layers 0
let stack = Array.make 64 0
let depth = ref 0
let mark = ref 0
let in_op = ref false
let current_op = ref 0
let unattributed_ns = ref 0
let reconciled = ref true

(* Perfetto spans, kept in memory only when a trace file was asked for
   and written out once the run ends. The invoke and guard-miss hooks
   fire millions of times on the sweep, each for well under a
   microsecond, so they appear in the self-time table but not as spans;
   the buffer is bounded and overflow is counted, not silently lost. *)
let max_spans = 1_000_000
let span_layer = ref [||]
let span_op = ref [||]
let span_t0 = ref [||]
let span_t1 = ref [||]
let n_spans = ref 0
let spans_dropped = ref 0

let record_spans () =
  span_layer := Array.make max_spans 0;
  span_op := Array.make max_spans 0;
  span_t0 := Array.make max_spans 0;
  span_t1 := Array.make max_spans 0

(* Layer [-1] marks an op's own span. *)
let push_span l t0 t1 =
  if Array.length !span_layer > 0 && l <> index Aos_invoke && l <> index Deopt_guard_miss
  then
    if !n_spans < max_spans then begin
      let i = !n_spans in
      !span_layer.(i) <- l;
      !span_op.(i) <- !current_op;
      !span_t0.(i) <- t0;
      !span_t1.(i) <- t1;
      incr n_spans
    end
    else incr spans_dropped

let reset () =
  Array.fill self_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  depth := 0;
  unattributed_ns := 0;
  reconciled := true

let charge_open now =
  if !depth > 0 then begin
    let top = stack.(!depth - 1) in
    self_ns.(top) <- self_ns.(top) + (now - !mark)
  end
  else if !in_op then unattributed_ns := !unattributed_ns + (now - !mark);
  mark := now

let within layer f =
  let l = index layer in
  let t0 = now_ns () in
  charge_open t0;
  stack.(!depth) <- l;
  incr depth;
  calls.(l) <- calls.(l) + 1;
  let leave () =
    let t1 = now_ns () in
    charge_open t1;
    decr depth;
    push_span l t0 t1
  in
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let total_self () = Array.fold_left ( + ) 0 self_ns

(* One operation (a cell), numbered by [id]: its result, its wall time
   and the unattributed part of that. [within] calls outside an
   operation (checks, compile replays) accumulate self time but no
   unattributed time. *)
let op id f =
  current_op := id;
  let a0 = total_self () and u0 = !unattributed_ns in
  let t0 = now_ns () in
  mark := t0;
  in_op := true;
  let res = match f () with v -> Ok v | exception e -> Error e in
  let t1 = now_ns () in
  charge_open t1;
  in_op := false;
  push_span (-1) t0 t1;
  let wall = t1 - t0 and u = !unattributed_ns - u0 in
  if total_self () - a0 + u <> wall then reconciled := false;
  (res, wall, u)

(* Interpose on the hooks [System.create] installed. The wrappers call
   the original closures unchanged, so virtual behaviour is untouched;
   the traced pass checks that against the untraced one. *)
let wrap_hooks (vm : Interp.t) =
  let timer = vm.Interp.on_timer_sample in
  let invoke = vm.Interp.on_invoke in
  let first = vm.Interp.on_first_execution in
  let load = vm.Interp.on_class_load in
  let miss = vm.Interp.on_guard_miss in
  Interp.set_on_timer_sample vm (fun v -> within Aos_timer (fun () -> timer v));
  Interp.set_on_invoke vm (fun v m -> within Aos_invoke (fun () -> invoke v m));
  Interp.set_on_first_execution vm (fun m ->
      within Aos_first_exec (fun () -> first m));
  Interp.set_on_class_load vm (fun v c ->
      within Deopt_class_load (fun () -> load v c));
  Interp.set_on_guard_miss vm (fun v m pc ->
      within Deopt_guard_miss (fun () -> miss v m pc))

let self_s layer = float_of_int self_ns.(index layer) *. 1e-9
let call_count layer = calls.(index layer)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (Perfetto-loadable): one complete event per
   span, microseconds from the earliest span, every span tagged with its
   op id; layers nest under their op's span on one track. *)
let write_perfetto ~op_name path =
  let names = Array.of_list (List.map name all) in
  let base = ref max_int in
  for i = 0 to !n_spans - 1 do
    base := min !base !span_t0.(i)
  done;
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to !n_spans - 1 do
    let l = !span_layer.(i) and op = !span_op.(i) in
    Printf.fprintf oc
      "%s\n{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
      (if i = 0 then "" else ",")
      (json_string (if l < 0 then op_name op else names.(l)))
      (if l < 0 then "op" else "layer")
      (float_of_int (!span_t0.(i) - !base) /. 1e3)
      (float_of_int (!span_t1.(i) - !span_t0.(i)) /. 1e3)
      op
  done;
  output_string oc "\n]}\n";
  close_out oc
