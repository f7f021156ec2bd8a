open Acsi_bytecode

exception Runtime_error of string
exception Unverified of string
exception Cycle_limit_exceeded

let rerr fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

type frame = {
  f_vm : t;  (* the VM the frame runs in; closure-tier code reads it here *)
  mutable f_code : Code.t;
  mutable f_ncode : nfn array;
      (* closure-tier entry points, one per source pc ([Tier]); [[||]]
         means the frame executes on the interpreter tier *)
  mutable f_pc : int;
  mutable f_regs : Value.t array;
      (* locals in [0, max_locals) of [f_code]; the operand stack grows
         from [max_locals] up. One allocation per call instead of two —
         [f_sp] is an absolute index into [f_regs], so stack slot [i]
         lives at [max_locals + i] ({!stack_base}). *)
  mutable f_sp : int;  (* absolute; empty stack = [stack_base fr] *)
  (* The closure tier's window state while this frame is on top: the
     virtual cycles until the next timer check, and the instructions
     executed but not yet settled (see [flush]). Set by [dispatch] on
     every entry; ints, so no store to them pays a write barrier. *)
  mutable f_rem : int;
  mutable f_nin : int;
}

and t = {
  program : Program.t;
  cost : Cost.t;
  mutable cycles : int;
  globals : Value.t array;
  code_table : Code.t array;
  param_slots : int array;  (* per method, so [invoke] skips the Meth.t *)
  (* [Program.dispatch_ids] and the selector count, read by every virtual
     call, and [Program.field_counts], read by every [New], without a
     call into [Program]. *)
  dispatch_ids : int array;
  nsel : int;
  field_counts : int array;
  mutable frames : frame array;
  mutable depth : int;  (* live frames in [frames] *)
  mutable output_rev : int list;
  mutable instr_count : int;
  mutable call_count : int;
  mutable guard_hits : int;
  mutable guard_misses : int;
  mutable osr_up : int;  (* interpreter/baseline -> optimized transfers *)
  mutable osr_down : int;  (* optimized -> baseline deoptimizations *)
  mutable deopt_guard : int;  (* osr_down transfers caused by guard storms *)
  mutable deopt_invalidate : int;  (* ... caused by CHA invalidation *)
  executed : bool array;
  invocations : int array;
  (* Class loading, modeled as first instantiation: [class_loaded] flips
     once per class at its first [New], firing [on_class_load] — the
     invalidation hook speculative inlining hangs CHA proofs on. *)
  class_loaded : bool array;
  (* The initial (baseline) compilations, kept so deoptimization can
     reconstruct source frames even after [install_code] replaced a
     method's entry with optimized code. *)
  baseline_code : Code.t array;
  (* hooks *)
  mutable on_first_execution : Ids.Method_id.t -> unit;
  mutable on_invoke : t -> Ids.Method_id.t -> unit;
  mutable on_timer_sample : t -> unit;
  (* In-branch hooks: unlike the timer hook these fire *inside* an
     execution window (at a New / failed Guard, both of which settle the
     clock and restart the window unclipped). They may charge cycles but
     must never mutate the frame stack — the running frame's [f_pc]/[f_sp]
     are not saved at the firing point. Default no-ops. *)
  mutable on_class_load : t -> Ids.Class_id.t -> unit;
  mutable on_guard_miss : t -> Ids.Method_id.t -> int -> unit;
  sample_period : int;
  mutable next_sample : int;
  invoke_stride : int;
  mutable invoke_countdown : int;
  mutable next_thread_id : int;
  (* Windows never extend past this clock value: [max_int] outside a
     threaded slice, the quantum boundary inside one ([resume]). Both
     the driver loops and [continue_window]'s mid-window restarts clip
     to it, so preemption can only land where a timer check could. *)
  mutable window_end : int;
  (* Closure-tier ("native") code, parallel to [code_table]: entry
     closures per source pc, and the operand-stack entry depth the tier
     compiler assumed for each pc (checked on OSR transfer). An empty
     array means the method runs on the interpreter tier. *)
  native_table : nfn array array;
  native_depths : int array array;
  (* Tier code for [baseline_code], kept for deoptimized frames. *)
  baseline_native : (nfn array * int array) array;
  (* Per-tier host-time calibration: wall seconds and virtual cycles
     attributed per bucket (0 = interpreter-tier windows, 1 = closure-
     tier windows, 2 = timer hooks / AOS). Sampled at window granularity
     in the driver loops, so a window spanning a cross-tier call is
     attributed to the tier it entered on. Host time is nondeterministic
     by nature; nothing virtual ever reads these. *)
  mutable calibrate : bool;
  cal_cycles : int array;
  cal_host_s : float array;
  (* The thread whose stack [frames]/[depth] hold: the running one, or
     between slices the one that ran last. Hooks that fire between
     slices (the scheduler's switch hook installs code, and an install
     may OSR the top frames) act on that stack, so [resume] writes it
     back into this thread before swapping the next one in. A per-VM
     placeholder before the first [resume]. *)
  mutable last_thread : thread;
}

(* A closure-tier entry point, statement or breaker, applied to the
   frame it runs: everything it reads (the VM, registers, window state)
   hangs off that one argument, and OCaml applies an unknown
   single-argument closure directly, while more arguments go through a
   [caml_applyN] shuffling stub on every statement. Closures never
   capture a VM, so a shard can adopt code another shard's VM compiled. *)
and nfn = frame -> unit

(* See [resume] below. *)
and thread = {
  th_id : int;
  mutable th_frames : frame array;
  mutable th_depth : int;
  mutable th_started : bool;
}

(* Where a frame's operand stack starts: its code's [max_locals]. *)
let[@inline] stack_base fr = fr.f_code.Code.max_locals

(* A fresh register array of [n] zeros. Literal arrays up to 16 slots
   are allocated inline on the minor heap; [Array.make] is a C call. *)
let make_regs n : Value.t array =
  let z = (Obj.magic 0 : Value.t) in
  match n with
  | 1 -> [| z |]
  | 2 -> [| z; z |]
  | 3 -> [| z; z; z |]
  | 4 -> [| z; z; z; z |]
  | 5 -> [| z; z; z; z; z |]
  | 6 -> [| z; z; z; z; z; z |]
  | 7 -> [| z; z; z; z; z; z; z |]
  | 8 -> [| z; z; z; z; z; z; z; z |]
  | 9 -> [| z; z; z; z; z; z; z; z; z |]
  | 10 -> [| z; z; z; z; z; z; z; z; z; z |]
  | 11 -> [| z; z; z; z; z; z; z; z; z; z; z |]
  | 12 -> [| z; z; z; z; z; z; z; z; z; z; z; z |]
  | 13 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 14 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 15 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 16 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | n -> Array.make n z

(* [max 1 code.max_stack] without [Stdlib.max], whose polymorphic
   comparison is a C call. *)
let[@inline] stack_slots (code : Code.t) =
  let n = code.Code.max_stack in
  if n > 1 then n else 1

let cal_buckets = [| "interp"; "closure"; "system" |]

let max_call_depth = 200_000

(* --- deoptimization plans (built by [Acsi_deopt], executed here) --- *)

(* One source frame to reconstruct from (or consume into) an optimized
   frame. Plans are listed outermost-first; all offsets index the
   *optimized* frame's [f_regs]: the region's locals live at
   [dp_base, ...) and its operand-stack slice at
   [b + dp_stack_lo, b + dp_stack_lo + dp_stack_len), [b] being its
   {!stack_base}.
   For every non-innermost plan, [dp_pc] is the call instruction the
   source frame is suspended at and [dp_stack_len] its residual stack
   depth *after* the arguments were popped — the exact invariant
   [invoke]/[Return] maintain for suspended callers. *)
type frame_plan = {
  dp_meth : Ids.Method_id.t;
  dp_pc : int;
  dp_base : int;
  dp_stack_lo : int;
  dp_stack_len : int;
}

type deopt_reason = Guard_storm | Cha_invalidated

let create ~cost ~sample_period ~invoke_stride program =
  let methods = Program.methods program in
  Array.iter
    (fun (m : Meth.t) ->
      if m.Meth.max_stack < 0 then raise (Unverified m.Meth.name))
    methods;
  let code_table = Array.map (fun m -> Code.baseline cost m) methods in
  {
    program;
    cost;
    cycles = 0;
    globals = Array.make (max 1 (Program.global_count program)) Value.zero;
    code_table;
    param_slots = Array.map Meth.param_slots methods;
    dispatch_ids = Program.dispatch_ids program;
    nsel = Program.selector_count program;
    field_counts = Program.field_counts program;
    frames = Array.make 0 (Obj.magic 0);
    depth = 0;
    output_rev = [];
    instr_count = 0;
    call_count = 0;
    guard_hits = 0;
    guard_misses = 0;
    osr_up = 0;
    osr_down = 0;
    deopt_guard = 0;
    deopt_invalidate = 0;
    executed = Array.make (Array.length methods) false;
    invocations = Array.make (Array.length methods) 0;
    class_loaded = Array.make (max 1 (Program.class_count program)) false;
    baseline_code = Array.copy code_table;
    on_first_execution = (fun _ -> ());
    on_invoke = (fun _ _ -> ());
    on_timer_sample = (fun _ -> ());
    on_class_load = (fun _ _ -> ());
    on_guard_miss = (fun _ _ _ -> ());
    sample_period;
    next_sample = sample_period;
    invoke_stride;
    invoke_countdown = invoke_stride;
    next_thread_id = 0;
    window_end = max_int;
    native_table = Array.make (Array.length methods) [||];
    native_depths = Array.make (Array.length methods) [||];
    baseline_native = Array.make (Array.length methods) ([||], [||]);
    calibrate = false;
    cal_cycles = Array.make (Array.length cal_buckets) 0;
    cal_host_s = Array.make (Array.length cal_buckets) 0.0;
    last_thread =
      { th_id = -1; th_frames = [||]; th_depth = 0; th_started = false };
  }

let program t = t.program
let cost t = t.cost
let sample_period t = t.sample_period
let cycles t = t.cycles
let instructions_executed t = t.instr_count
let calls_executed t = t.call_count
let guard_hits t = t.guard_hits
let guard_misses t = t.guard_misses
let output t = List.rev t.output_rev

let install_code t (mid : Ids.Method_id.t) code =
  t.code_table.((mid :> int)) <- code;
  (* Any previously compiled closure tier targeted the replaced code. *)
  t.native_table.((mid :> int)) <- [||];
  t.native_depths.((mid :> int)) <- [||]

let install_native t (mid : Ids.Method_id.t) ~fns ~entry_depths =
  if Array.length fns <> Array.length t.code_table.((mid :> int)).Code.instrs
  then invalid_arg "Interp.install_native: entry count mismatch";
  t.native_table.((mid :> int)) <- fns;
  t.native_depths.((mid :> int)) <- entry_depths;
  if t.code_table.((mid :> int)) == t.baseline_code.((mid :> int)) then
    t.baseline_native.((mid :> int)) <- (fns, entry_depths)

let native_installed t (mid : Ids.Method_id.t) =
  Array.length t.native_table.((mid :> int)) > 0

let code_of t (mid : Ids.Method_id.t) = t.code_table.((mid :> int))
let was_executed t (mid : Ids.Method_id.t) = t.executed.((mid :> int))
let set_on_first_execution t f = t.on_first_execution <- f
let set_on_invoke t f = t.on_invoke <- f
let set_on_timer_sample t f = t.on_timer_sample <- f
let set_on_class_load t f = t.on_class_load <- f
let set_on_guard_miss t f = t.on_guard_miss <- f
let class_is_loaded t (cid : Ids.Class_id.t) = t.class_loaded.((cid :> int))
let baseline_code_of t (mid : Ids.Method_id.t) = t.baseline_code.((mid :> int))

(* First instantiation of a class = its load event. Out of line: the
   [New] branches only pay one array read on the hot path. *)
let note_class_load t (cid : Ids.Class_id.t) =
  if not (Array.unsafe_get t.class_loaded (cid :> int)) then begin
    t.class_loaded.((cid :> int)) <- true;
    t.on_class_load t cid
  end
let charge t cycles = t.cycles <- t.cycles + cycles
let set_calibrate t on = t.calibrate <- on

let calibration t =
  Array.to_list
    (Array.mapi
       (fun i name -> (name, t.cal_cycles.(i), t.cal_host_s.(i)))
       cal_buckets)

let now_s = Unix.gettimeofday
let osr_count t = t.osr_up + t.osr_down
let osr_up t = t.osr_up
let osr_down t = t.osr_down
let deopt_guard_count t = t.deopt_guard
let deopt_invalidate_count t = t.deopt_invalidate
let invocation_count t (mid : Ids.Method_id.t) = t.invocations.((mid :> int))

(* On-stack replacement of the innermost frame: if it is executing stale
   code for [mid] at a root-level source pc that still exists in the
   currently installed code, transfer the frame. Only the top frame is
   eligible — outer frames are suspended at call sites whose replacement
   code may have inlined the callee, which would resume into the middle of
   an inline region with the wrong continuation. Root locals keep their
   slots (the expander maps them identically); the operand stack carries
   over because root-level source points have equal stack depth in both
   codes (both verify against the same source). *)
let osr t (mid : Ids.Method_id.t) =
  if t.depth = 0 then false
  else
    let fr = t.frames.(t.depth - 1) in
    let current = t.code_table.((mid :> int)) in
    if
      (not (Ids.Method_id.equal fr.f_code.Code.meth mid))
      || fr.f_code == current
    then false
    else
      let (src_m, src_pc), parents = Code.source_at fr.f_code ~pc:fr.f_pc in
      if (not (Ids.Method_id.equal src_m mid)) || parents <> [] || src_pc < 0
      then false
      else
        let target =
          match current.Code.src with
          | None -> if src_pc < Array.length current.Code.instrs then Some src_pc else None
          | Some entries ->
              let n = Array.length entries in
              let rec find pc =
                if pc >= n then None
                else
                  let e = entries.(pc) in
                  if
                    Ids.Method_id.equal e.Code.src_meth mid
                    && e.Code.src_pc = src_pc
                    && e.Code.parents = []
                  then Some pc
                  else find (pc + 1)
              in
              find 0
        in
        match target with
        | None -> false
        | Some pc' ->
            let sp_rel = fr.f_sp - stack_base fr in
            (* The target pc must expect exactly the operand-stack depth
               the suspended frame carries: the peephole optimizer can
               leave a root-level source entry on an instruction whose
               entry depth differs from the source pc's (constant
               folding keeps the consumer's entry), and transferring
               there would misalign the stack. *)
            let depth_ok =
              sp_rel <= current.Code.max_stack
              && (Code.entry_depths t.program current).(pc') = sp_rel
            in
            if not depth_ok then false
            else begin
              (* When the target runs on the closure tier, the transfer
                 additionally lands on a compiled entry point: the entry
                 depth the tier compiler derived for [pc'] at install
                 time must agree with the depth the interpreter-side
                 verifier just derived — the frame layout (one array,
                 locals below [max_locals], stack above) is shared
                 between tiers only under that agreement. *)
              let nc = t.native_table.((mid :> int)) in
              if Array.length nc > 0 then begin
                let nd = t.native_depths.((mid :> int)) in
                if pc' >= Array.length nd || nd.(pc') <> sp_rel then
                  rerr
                    "osr: closure-tier entry depth mismatch at pc %d \
                     (interpreter expects %d)"
                    pc' sp_rel
              end;
              let old_base = stack_base fr and new_base = current.Code.max_locals in
              let regs = make_regs (new_base + stack_slots current) in
              Array.blit fr.f_regs 0 regs 0 (min old_base new_base);
              Array.blit fr.f_regs old_base regs new_base sp_rel;
              fr.f_code <- current;
              fr.f_ncode <- nc;
              fr.f_pc <- pc';
              fr.f_regs <- regs;
              fr.f_sp <- new_base + sp_rel;
              t.osr_up <- t.osr_up + 1;
              true
            end

(* Generalized upward transfer: replace the top [Array.length plans]
   baseline frames (outermost first, matching [plans]) by ONE optimized
   frame resuming at [pc] of the currently installed code for [mid]. The
   caller ([Acsi_deopt.try_osr_up]) has already checked that each live
   frame matches its plan (method, pc, stack depth) — this function only
   moves state. Locals of every source frame scatter to their region
   bases; operand-stack slices concatenate bottom-up above [max_locals],
   exactly inverting {!deopt_top_frame}. *)
let osr_into t (mid : Ids.Method_id.t) ~(plans : frame_plan array) ~pc =
  let k = Array.length plans in
  if k = 0 || t.depth < k then invalid_arg "Interp.osr_into: bad plan count";
  let code = t.code_table.((mid :> int)) in
  let base = code.Code.max_locals in
  let regs = make_regs (base + stack_slots code) in
  let sp_rel = ref 0 in
  Array.iteri
    (fun i p ->
      let sf = t.frames.(t.depth - k + i) in
      let sbase = stack_base sf in
      let nl = min sbase (max 0 (base - p.dp_base)) in
      Array.blit sf.f_regs 0 regs p.dp_base nl;
      let slen = sf.f_sp - sbase in
      Array.blit sf.f_regs sbase regs (base + p.dp_stack_lo) slen;
      sp_rel := p.dp_stack_lo + slen)
    plans;
  let nc = t.native_table.((mid :> int)) in
  (if Array.length nc > 0 then begin
     (* Same cross-tier agreement check as {!osr}: landing on a compiled
        entry point requires the tier compiler's entry depth for [pc] to
        match the depth we just materialized. *)
     let nd = t.native_depths.((mid :> int)) in
     if pc >= Array.length nd || nd.(pc) <> !sp_rel then
       rerr "osr_into: closure-tier entry depth mismatch at pc %d" pc
   end);
  let fr = t.frames.(t.depth - k) in
  fr.f_code <- code;
  fr.f_ncode <- nc;
  fr.f_pc <- pc;
  fr.f_regs <- regs;
  fr.f_sp <- base + !sp_rel;
  t.depth <- t.depth - k + 1;
  t.osr_up <- t.osr_up + 1

let walk_source_stack t ~f =
  let continue_ = ref true in
  let i = ref (t.depth - 1) in
  while !continue_ && !i >= 0 do
    let fr = t.frames.(!i) in
    let (m, pc), parents = Code.source_at fr.f_code ~pc:fr.f_pc in
    continue_ := f m pc;
    let rec parents_loop = function
      | [] -> ()
      | (caller, callsite) :: rest ->
          if !continue_ then begin
            continue_ := f caller callsite;
            parents_loop rest
          end
    in
    parents_loop parents;
    decr i
  done

(* --- frame stack management --- *)

(* A fresh thread's stack starts at 8 slots and doubles, up to
   [max_call_depth] slots, so a full stack is the overflow: a server
   spawns one stack per session, and most sessions never nest 8 calls
   deep. Free slots hold an immediate and are never read. The first
   stack is a literal, allocated inline like [make_regs]'s. *)
let[@inline never] grow_frames t =
  if t.depth >= max_call_depth then rerr "call stack overflow";
  let z = (Obj.magic 0 : frame) in
  if t.depth = 0 then t.frames <- [| z; z; z; z; z; z; z; z |]
  else begin
    let cap = if t.depth < 4 then 8 else 2 * t.depth in
    let cap = if cap > max_call_depth then max_call_depth else cap in
    let bigger = Array.make cap z in
    Array.blit t.frames 0 bigger 0 t.depth;
    t.frames <- bigger
  end

(* Frames are freshly allocated per call on purpose: records and register
   arrays born in the minor heap keep locals/stack stores on the cheap
   minor-to-minor write path and die young. The one barriered store of a
   call is the frame's slot in [t.frames]. Reusing the popped frame at
   the same depth and code was re-measured on 2026-10-18 (10 alternated
   pairs of 10 s per workload, 2-core container): allocation per static
   call 14 -> 0 words (on a build whose record was a word longer), but sweep ops_per_s -4.9% (2/10 pairs won) and
   cell_ms_p50 +9.2% (0/10), warmup ops_per_s +4.7% (6/10, inside its
   quartile spread). Pooled frames are promoted, and every pointer store
   into their registers then pays the remembered-set barrier. *)
let[@inline] push_frame t code ncode =
  if t.depth >= Array.length t.frames then grow_frames t;
  let base = code.Code.max_locals in
  let fr =
    {
      f_vm = t;
      f_code = code;
      f_ncode = ncode;
      f_pc = 0;
      f_regs = make_regs (base + stack_slots code);
      f_sp = base;
      f_rem = 0;
      f_nin = 0;
    }
  in
  Array.unsafe_set t.frames t.depth fr;
  t.depth <- t.depth + 1;
  fr

(* Deoptimize the innermost frame: replace one optimized frame by the
   stack of baseline frames its deopt point describes (outermost plan
   first, so the innermost source frame ends up on top). Only safe at an
   instruction boundary (a VM hook) — the optimized frame's [f_pc]/[f_sp]
   must be settled. Charges nothing: the caller accounts for the
   transfer ([Cost.deopt_frame] per reconstructed frame in the AOS). *)
let deopt_top_frame t ~(plans : frame_plan array) ~(reason : deopt_reason) =
  if t.depth = 0 || Array.length plans = 0 then
    invalid_arg "Interp.deopt_top_frame: nothing to transfer";
  let fr = t.frames.(t.depth - 1) in
  let opt_regs = fr.f_regs in
  let opt_base = stack_base fr in
  t.depth <- t.depth - 1;
  Array.iteri
    (fun i p ->
      let code = t.baseline_code.((p.dp_meth :> int)) in
      let nc, nd = t.baseline_native.((p.dp_meth :> int)) in
      (* As in {!osr_into}; the outer frames resume after a return. *)
      if i = Array.length plans - 1 && Array.length nc > 0
         && nd.(p.dp_pc) <> p.dp_stack_len
      then rerr "deopt: closure-tier entry depth mismatch at pc %d" p.dp_pc;
      let nfr = push_frame t code nc in
      let nl = min code.Code.max_locals (max 0 (opt_base - p.dp_base)) in
      Array.blit opt_regs p.dp_base nfr.f_regs 0 nl;
      Array.blit opt_regs (opt_base + p.dp_stack_lo) nfr.f_regs
        code.Code.max_locals p.dp_stack_len;
      nfr.f_pc <- p.dp_pc;
      nfr.f_sp <- code.Code.max_locals + p.dp_stack_len)
    plans;
  t.osr_down <- t.osr_down + 1;
  match reason with
  | Guard_storm -> t.deopt_guard <- t.deopt_guard + 1
  | Cha_invalidated -> t.deopt_invalidate <- t.deopt_invalidate + 1

(* --- helpers --- *)

(* Value primitives, defined here rather than called in {!Value}: every
   library builds with [-opaque] in dune's dev profile, so a call into
   another module is never inlined, and these sit on the interpreter's
   hottest paths. They follow {!Value}'s representation: an integer is an
   immediate, everything else a block, and no match on a [Value.t] runs
   before an [is_int] test. *)

let[@inline] is_int (v : Value.t) = Obj.is_int (Obj.repr v)
let[@inline] int_of (v : Value.t) : int = Obj.magic v

(* [Value.equal_cmp]: every object and array is one block and [null]
   is one shared block, so reference equality is [==]. *)
let[@inline] equal_cmp (a : Value.t) b = a == b

(* Stores into a [Value.t array]. OCaml's write barrier ([caml_modify])
   has work to do only when the new value is a block (it may need a
   remembered-set entry) or the old one is (the concurrent marker must
   see it before it is overwritten). When both are immediates the store
   is exactly what the compiler emits for an [int array], so these write
   through an [int array] view in that case and keep the barrier in all
   others. *)
let[@inline] set (a : Value.t array) i (v : Value.t) =
  if is_int v && is_int (Array.unsafe_get a i) then
    Array.unsafe_set (Obj.magic a : int array) i (int_of v)
  else Array.unsafe_set a i v

(* Bounds-checked [set], for indices the verifier does not bound. *)
let[@inline] store (a : Value.t array) i (v : Value.t) =
  if is_int v && is_int a.(i) then
    Array.unsafe_set (Obj.magic a : int array) i (int_of v)
  else a.(i) <- v

let[@inline never] not_int v = rerr "expected an integer, got %a" Value.pp v
let[@inline] as_int v = if is_int v then int_of v else not_int v

(* The slots of an object or an array ({!Value.slots}): slot 0 holds
   the class id or the pad, field or element [i] is slot [i + 1]. *)
let[@inline] slots (v : Value.t) : Value.t array = Obj.magic v

let[@inline never] not_obj v =
  if v == Value.null then rerr "null dereference"
  else rerr "expected an object, got %a" Value.pp v

let[@inline never] not_arr v =
  if v == Value.null then rerr "null array dereference"
  else rerr "expected an array, got %a" Value.pp v

let[@inline] as_obj v =
  if is_int v then not_obj v
  else
    match (v : Value.t) with
    | Value.Obj_c _ -> slots v
    | Value.Null_c _ | Value.Arr_c _ -> not_obj v

let[@inline] as_arr v =
  if is_int v then not_arr v
  else
    match (v : Value.t) with
    | Value.Arr_c _ -> slots v
    | Value.Null_c _ | Value.Obj_c _ -> not_arr v

(* Fields and elements, bounds-checked: the verifier bounds neither a
   field index against the receiver's class nor an array index, and
   slot 0 is never a field or an element. *)
let[@inline never] no_field (p : Program.t) (o : Value.t array) i =
  rerr "field %d out of bounds on an object of class %s" i
    (Program.clazz p (Obj.magic (Array.unsafe_get o 0))).Clazz.name

let[@inline] field p (o : Value.t array) i =
  if i < 0 || i >= Array.length o - 1 then no_field p o i
  else Array.unsafe_get o (i + 1)

let[@inline] set_field p (o : Value.t array) i v =
  if i < 0 || i >= Array.length o - 1 then no_field p o i
  else set o (i + 1) v

let[@inline never] no_elt (a : Value.t array) i =
  rerr "array index %d out of bounds (length %d)" i (Array.length a - 1)

let[@inline] elt (a : Value.t array) i =
  if i < 0 || i >= Array.length a - 1 then no_elt a i
  else Array.unsafe_get a (i + 1)

let[@inline] set_elt (a : Value.t array) i v =
  if i < 0 || i >= Array.length a - 1 then no_elt a i
  else set a (i + 1) v

let[@inline] eval_binop op a b =
  match (op : Instr.binop) with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then rerr "division by zero" else a / b
  | Instr.Rem -> if b = 0 then rerr "remainder by zero" else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)

let[@inline] eval_cmp c a b =
  let r =
    match (c : Instr.cmp) with
    | Instr.Eq -> equal_cmp a b
    | Instr.Ne -> not (equal_cmp a b)
    | Instr.Lt -> as_int a < as_int b
    | Instr.Le -> as_int a <= as_int b
    | Instr.Gt -> as_int a > as_int b
    | Instr.Ge -> as_int a >= as_int b
  in
  if r then 1 else 0

(* --- execution --- *)

(* Push [mid]'s frame for a call from [caller], whose [f_sp] still
   counts the arguments: charge the call, pop the arguments into the
   callee's locals, fire the invocation hooks. The one call sequence of
   every engine. *)
let[@inline] invoke t caller (mid : Ids.Method_id.t) =
  let m = (mid :> int) in
  t.call_count <- t.call_count + 1;
  t.invocations.(m) <- t.invocations.(m) + 1;
  if not t.executed.(m) then begin
    t.executed.(m) <- true;
    t.on_first_execution mid
  end;
  let code = t.code_table.(m) in
  (* Frame setup cost depends on the callee's prologue quality. *)
  t.cycles <-
    t.cycles
    + (match code.Code.tier with
      | Code.Baseline -> t.cost.Cost.call
      | Code.Optimized -> t.cost.Cost.opt_call);
  let fr = push_frame t code t.native_table.(m) in
  (* Pop arguments from the caller's stack into the callee's locals.
     Unsafe accesses are bounded by the verifier: a call site's arguments
     are on the caller's operand stack ([f_sp >= stack_base + nslots]) and
     parameter slots fit the callee's locals ([nslots <= max_locals]).
     The callee's registers are fresh zeros in the minor heap, so an
     integer argument is a plain store. *)
  let nslots = t.param_slots.(m) in
  let regs = fr.f_regs and cregs = caller.f_regs in
  let sp = caller.f_sp - nslots in
  for k = 0 to nslots - 1 do
    set regs k (Array.unsafe_get cregs (sp + k))
  done;
  caller.f_sp <- sp;
  t.invoke_countdown <- t.invoke_countdown - 1;
  if t.invoke_countdown <= 0 then begin
    t.invoke_countdown <- t.invoke_stride;
    t.on_invoke t mid
  end

let[@inline never] no_implementation t cls sel =
  rerr "no implementation of %s on class %s"
    (Program.selector_name t.program (Ids.Selector.of_int sel))
    (Program.clazz t.program cls).Clazz.name

(* The target of a virtual call on [recv]: the class id in the
   receiver's first slot, then one read of the flat table. The table
   holds ids [Method_id.of_int] produced, and [Method_id.t] is
   [private int], so the coercion back is the identity. *)
let[@inline] dispatch_target t (recv : Value.t) sel : Ids.Method_id.t =
  if is_int recv then not_obj recv
  else
    match recv with
    | Value.Obj_c { cls } ->
        let m = t.dispatch_ids.(((cls :> int) * t.nsel) + sel) in
        if m < 0 then no_implementation t cls sel else Obj.magic m
    | Value.Null_c _ | Value.Arr_c _ -> not_obj recv

(* Charge, count and execute the one instruction at [fr]'s pc with the
   naive loop's semantics: the clock and every counter exact after each
   instruction, every access bounds-checked. The body of the executable
   specification ({!run_reference}), and the engine of closure-less
   frames and of the closure tier's window tails ({!exec_until}). *)
let exec_one t fr =
  let instr = fr.f_code.Code.instrs.(fr.f_pc) in
  t.instr_count <- t.instr_count + 1;
  t.cycles <-
    t.cycles
    + (match fr.f_code.Code.tier with
      | Code.Baseline -> t.cost.Cost.baseline_instr
      | Code.Optimized -> t.cost.Cost.opt_instr);
  let stack = fr.f_regs in
  match instr with
  | Instr.Const n ->
      stack.(fr.f_sp) <- Value.of_int n;
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Const_null ->
      stack.(fr.f_sp) <- Value.null;
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Load i ->
      stack.(fr.f_sp) <- fr.f_regs.(i);
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Store i ->
      fr.f_sp <- fr.f_sp - 1;
      fr.f_regs.(i) <- stack.(fr.f_sp);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Dup ->
      stack.(fr.f_sp) <- stack.(fr.f_sp - 1);
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Pop ->
      fr.f_sp <- fr.f_sp - 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Swap ->
      let a = stack.(fr.f_sp - 1) in
      stack.(fr.f_sp - 1) <- stack.(fr.f_sp - 2);
      stack.(fr.f_sp - 2) <- a;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Binop op ->
      let b = as_int stack.(fr.f_sp - 1) in
      let a = as_int stack.(fr.f_sp - 2) in
      fr.f_sp <- fr.f_sp - 1;
      stack.(fr.f_sp - 1) <- Value.of_int (eval_binop op a b);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Neg ->
      stack.(fr.f_sp - 1) <- Value.of_int (-as_int stack.(fr.f_sp - 1));
      fr.f_pc <- fr.f_pc + 1
  | Instr.Not ->
      stack.(fr.f_sp - 1) <-
        Value.of_int (if Value.truthy stack.(fr.f_sp - 1) then 0 else 1);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Cmp c ->
      let b = stack.(fr.f_sp - 1) in
      let a = stack.(fr.f_sp - 2) in
      fr.f_sp <- fr.f_sp - 1;
      stack.(fr.f_sp - 1) <- Value.of_int (eval_cmp c a b);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Jump target -> fr.f_pc <- target
  | Instr.Jump_if target ->
      fr.f_sp <- fr.f_sp - 1;
      if Value.truthy stack.(fr.f_sp) then fr.f_pc <- target
      else fr.f_pc <- fr.f_pc + 1
  | Instr.Jump_ifnot target ->
      fr.f_sp <- fr.f_sp - 1;
      if Value.truthy stack.(fr.f_sp) then fr.f_pc <- fr.f_pc + 1
      else fr.f_pc <- target
  | Instr.New cid ->
      t.cycles <- t.cycles + t.cost.Cost.alloc;
      note_class_load t cid;
      stack.(fr.f_sp) <- Value.alloc t.field_counts.((cid :> int)) cid;
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Get_field i ->
      let o = as_obj stack.(fr.f_sp - 1) in
      stack.(fr.f_sp - 1) <- field t.program o i;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Put_field i ->
      let v = stack.(fr.f_sp - 1) in
      let o = as_obj stack.(fr.f_sp - 2) in
      set_field t.program o i v;
      fr.f_sp <- fr.f_sp - 2;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Get_global i ->
      stack.(fr.f_sp) <- t.globals.(i);
      fr.f_sp <- fr.f_sp + 1;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Put_global i ->
      fr.f_sp <- fr.f_sp - 1;
      t.globals.(i) <- stack.(fr.f_sp);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Array_new ->
      let n = as_int stack.(fr.f_sp - 1) in
      if n < 0 then rerr "negative array size %d" n;
      t.cycles <-
        t.cycles + t.cost.Cost.alloc + (n * t.cost.Cost.alloc_array_word);
      stack.(fr.f_sp - 1) <- Value.make_array n;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Array_get ->
      let i = as_int stack.(fr.f_sp - 1) in
      let a = as_arr stack.(fr.f_sp - 2) in
      let v = elt a i in
      fr.f_sp <- fr.f_sp - 1;
      stack.(fr.f_sp - 1) <- v;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Array_set ->
      let v = stack.(fr.f_sp - 1) in
      let i = as_int stack.(fr.f_sp - 2) in
      let a = as_arr stack.(fr.f_sp - 3) in
      set_elt a i v;
      fr.f_sp <- fr.f_sp - 3;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Array_len ->
      let a = as_arr stack.(fr.f_sp - 1) in
      stack.(fr.f_sp - 1) <- Value.of_int (Array.length a - 1);
      fr.f_pc <- fr.f_pc + 1
  | Instr.Call_static mid -> invoke t fr mid
  | Instr.Call_direct mid -> invoke t fr mid
  | Instr.Call_virtual (sel, argc) ->
      t.cycles <- t.cycles + t.cost.Cost.virtual_dispatch;
      let recv = stack.(fr.f_sp - 1 - argc) in
      invoke t fr (dispatch_target t recv (sel :> int))
  | Instr.Guard_method g ->
      t.cycles <- t.cycles + t.cost.Cost.guard;
      let recv = stack.(fr.f_sp - 1 - g.Instr.argc) in
      let ok =
        (not (Value.is_int recv))
        &&
        match recv with
        | Value.Obj_c { cls } -> (
            match Program.dispatch t.program cls g.Instr.sel with
            | Some target -> Ids.Method_id.equal target g.Instr.expected
            | None -> false)
        | Value.Null_c _ | Value.Arr_c _ -> false
      in
      if ok then begin
        t.guard_hits <- t.guard_hits + 1;
        fr.f_pc <- fr.f_pc + 1
      end
      else begin
        t.guard_misses <- t.guard_misses + 1;
        t.on_guard_miss t fr.f_code.Code.meth fr.f_pc;
        fr.f_pc <- g.Instr.fail
      end
  | Instr.Return ->
      let result = stack.(fr.f_sp - 1) in
      t.depth <- t.depth - 1;
      if t.depth > 0 then begin
        let caller = t.frames.(t.depth - 1) in
        caller.f_regs.(caller.f_sp) <- result;
        caller.f_sp <- caller.f_sp + 1;
        caller.f_pc <- caller.f_pc + 1
      end
  | Instr.Return_void ->
      t.depth <- t.depth - 1;
      if t.depth > 0 then begin
        let caller = t.frames.(t.depth - 1) in
        caller.f_pc <- caller.f_pc + 1
      end
  | Instr.Instance_of cid ->
      let v = stack.(fr.f_sp - 1) in
      let r =
        if Value.is_int v then 0
        else
          match v with
          | Value.Obj_c { cls } ->
              if Program.is_subclass t.program ~sub:cls ~super:cid
              then 1
              else 0
          | Value.Null_c _ | Value.Arr_c _ -> 0
      in
      stack.(fr.f_sp - 1) <- Value.of_int r;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Print_int ->
      fr.f_sp <- fr.f_sp - 1;
      t.output_rev <- as_int stack.(fr.f_sp) :: t.output_rev;
      fr.f_pc <- fr.f_pc + 1
  | Instr.Nop -> fr.f_pc <- fr.f_pc + 1

(* Execute [fr]'s instructions on [exec_one] while the clock is below
   [limit] and [fr] is on top: frames without closure-tier code, and the
   closure tier's window tails. An allocation or a guard moves the limit
   to [next_sample], the unclipped restart the tier's breakers make; a
   call or a return ends the run, and the driver starts the next window
   in the new top frame. *)
let rec exec_until t fr limit =
  if t.cycles < limit then begin
    let instr = fr.f_code.Code.instrs.(fr.f_pc) in
    exec_one t fr;
    if t.depth > 0 && t.frames.(t.depth - 1) == fr then
      exec_until t fr
        (match instr with
        | Instr.New _ | Instr.Array_new | Instr.Guard_method _ -> t.next_sample
        | _ -> limit)
  end

(* Window accounting of the closure tier: while a frame is on top, its
   [f_rem] is the number of virtual cycles until the window ends, and its
   [f_nin] counts source instructions executed since the last
   settlement. Counters are settled in one step ("flush") whenever an
   instruction charges anything beyond the frame's uniform per-dispatch
   cost, or when the window ends — each of the [f_nin] deferred
   instructions charged exactly [icost], so the clock can be
   reconstructed exactly. Nothing observes the clock mid-window (hooks
   only fire between windows), except an escaping [Runtime_error] —
   which aborts the run, so the lag is unobservable; [exec_one] keeps
   exact per-instruction accounting on that path. *)
let[@inline] flush t icost ninstr =
  t.instr_count <- t.instr_count + ninstr;
  t.cycles <- t.cycles + (ninstr * icost)

(* The call and return sequences of the closure tier's breakers
   ({!call_breaker} and friends): settle the window's deferred
   instructions ([nin], the call or return itself included), then switch
   frames; the caller continues the window in the new top frame with
   [continue_window]. [pc] and [sp] are the call instruction's; [call]
   saves them in [fr], where the return resumes. *)
let[@inline] call t fr pc sp icost nin mid =
  flush t icost nin;
  fr.f_pc <- pc;
  fr.f_sp <- sp;
  invoke t fr mid

let[@inline] call_virtual t fr pc sp icost nin sel argc =
  flush t icost nin;
  t.cycles <- t.cycles + t.cost.Cost.virtual_dispatch;
  fr.f_pc <- pc;
  fr.f_sp <- sp;
  let recv = Array.unsafe_get fr.f_regs (sp - 1 - argc) in
  invoke t fr (dispatch_target t recv sel)

(* Pop the returning frame; [true] if a caller resumes. A value return
   pushes [result] onto the caller's stack. *)
let[@inline] return t icost nin =
  flush t icost nin;
  t.depth <- t.depth - 1;
  t.depth > 0
  &&
  let caller = Array.unsafe_get t.frames (t.depth - 1) in
  caller.f_pc <- caller.f_pc + 1;
  true

let[@inline] return_value t result icost nin =
  flush t icost nin;
  t.depth <- t.depth - 1;
  t.depth > 0
  &&
  let caller = Array.unsafe_get t.frames (t.depth - 1) in
  store caller.f_regs caller.f_sp result;
  caller.f_sp <- caller.f_sp + 1;
  caller.f_pc <- caller.f_pc + 1;
  true

(* After a call or return, keep running the new top frame in the same
   window as long as the timer is not due, instead of bouncing through
   the driver loop. A frame without closure-tier code ends the window;
   the driver runs it next, with the same limit. *)
let[@inline never] continue_window t =
  if t.depth > 0 then begin
    let limit =
      if t.window_end < t.next_sample then t.window_end else t.next_sample
    in
    let remaining = limit - t.cycles in
    if remaining > 0 then begin
      let fr = Array.unsafe_get t.frames (t.depth - 1) in
      let nc = fr.f_ncode in
      if Array.length nc > 0 then begin
        fr.f_rem <- remaining;
        fr.f_nin <- 0;
        (Array.unsafe_get nc fr.f_pc) fr
      end
    end
  end

(* The closure tier's call and return breakers: the call and return
   sequences above as closures over the instruction's static pc, stack
   pointer and tier cost. A breaker pays for itself, so it runs only
   while the budget is positive; otherwise it ends the window there,
   before the instruction executes. *)
(* A [fun fr -> ...] directly under a function's parameters is merged
   into that function by the compiler, and applying the partial
   application then goes through a [caml_curryN] stub that walks one
   closure per captured argument. Behind [Sys.opaque_identity] it stays a
   one-argument closure. Also used by [Tier]. *)
let closure (f : nfn) : nfn = Sys.opaque_identity f

let[@inline] stop fr pc sp icost =
  flush fr.f_vm icost fr.f_nin;
  fr.f_pc <- pc;
  fr.f_sp <- sp

let call_breaker ~pc ~sp ~icost mid =
  closure (fun fr ->
      if fr.f_rem <= 0 then stop fr pc sp icost
      else begin
        let t = fr.f_vm in
        call t fr pc sp icost (fr.f_nin + 1) mid;
        continue_window t
      end)

let virtual_breaker ~pc ~sp ~icost (sel : Ids.Selector.t) argc =
  let sel = (sel :> int) in
  closure (fun fr ->
      if fr.f_rem <= 0 then stop fr pc sp icost
      else begin
        let t = fr.f_vm in
        call_virtual t fr pc sp icost (fr.f_nin + 1) sel argc;
        continue_window t
      end)

let return_breaker ~pc ~sp ~icost =
  closure (fun fr ->
      if fr.f_rem <= 0 then stop fr pc sp icost
      else
        let t = fr.f_vm in
        if
          return_value t
            (Array.unsafe_get fr.f_regs (sp - 1))
            icost (fr.f_nin + 1)
        then continue_window t)

let return_void_breaker ~pc ~sp ~icost =
  closure (fun fr ->
      if fr.f_rem <= 0 then stop fr pc sp icost
      else
        let t = fr.f_vm in
        if return t icost (fr.f_nin + 1) then continue_window t)

(* Calibrated variants of the two driver-loop steps: same calls in the
   same order, additionally attributing the wall-time and virtual-cycle
   deltas to a bucket. Kept out of line so the uncalibrated loop stays
   branch-free beyond one flag test per window. *)
let timer_hook t =
  if t.calibrate then begin
    let c0 = t.cycles and h0 = now_s () in
    t.on_timer_sample t;
    t.cal_cycles.(2) <- t.cal_cycles.(2) + (t.cycles - c0);
    t.cal_host_s.(2) <- t.cal_host_s.(2) +. (now_s () -. h0)
  end
  else t.on_timer_sample t

(* One window of [budget] cycles from the top frame [fr]: its closures
   when it has closure-tier code, [exec_until] otherwise. *)
let window t fr budget =
  let nc = fr.f_ncode in
  if Array.length nc = 0 then exec_until t fr (t.cycles + budget)
  else begin
    fr.f_rem <- budget;
    fr.f_nin <- 0;
    (Array.unsafe_get nc fr.f_pc) fr
  end

let window_calibrated t fr budget =
  let b = if Array.length fr.f_ncode = 0 then 0 else 1 in
  let c0 = t.cycles and h0 = now_s () in
  window t fr budget;
  t.cal_cycles.(b) <- t.cal_cycles.(b) + (t.cycles - c0);
  t.cal_host_s.(b) <- t.cal_host_s.(b) +. (now_s () -. h0)

(* The driver, for a whole run ([quantum_end = max_int]) and for a
   thread's slice. The naive loop compares [cycles >= next_sample]
   before every instruction; here the check runs once per *window*,
   whose limit is the next timer check or [quantum_end]. Within a
   window, the closure tier's prepayment and [exec_until] stop before
   the clock reaches the limit, and every instruction with an extra
   charge (calls, returns, allocations, guards) settles the clock and
   re-derives the window — i.e. hooks fire at bit-identical cycle
   counts, in bit-identical VM states, as under the naive loop. The
   timer fires before the fetch: hooks may install code or
   on-stack-replace the top frame, so nothing is cached across them. *)
let drive cycle_limit t quantum_end =
  while t.depth > 0 && t.cycles < quantum_end do
    if t.cycles >= t.next_sample then begin
      t.next_sample <- t.next_sample + t.sample_period;
      if t.cycles > cycle_limit then raise Cycle_limit_exceeded;
      timer_hook t
    end;
    if t.depth > 0 then begin
      let fr = t.frames.(t.depth - 1) in
      let limit =
        if t.next_sample < quantum_end then t.next_sample else quantum_end
      in
      let gap = limit - t.cycles in
      (* Even when the clock already passed [next_sample] again (an AOS
         hook can charge more than a whole period), the naive loop still
         executes one instruction between consecutive checks — a 1-cycle
         window admits exactly one instruction, every charge being >= 1. *)
      let budget = if gap <= 0 then 1 else gap in
      if t.calibrate then window_calibrated t fr budget else window t fr budget
    end
  done

(* Push [main]'s frame, firing its first-execution hook the first time. *)
let start_main t =
  let main = Program.main t.program in
  if not t.executed.((main :> int)) then begin
    t.executed.((main :> int)) <- true;
    t.on_first_execution main
  end;
  ignore
    (push_frame t t.code_table.((main :> int)) t.native_table.((main :> int)));
  t.call_count <- t.call_count + 1

let run ?(cycle_limit = max_int) t =
  start_main t;
  drive cycle_limit t max_int

(* The naive instruction-at-a-time loop, kept as the executable
   specification of the interpreter: [run] must be observationally
   identical (cycles, output, counters, hook timing). Its loop is its
   own; the closure tier shares only [exec_one]'s instruction semantics,
   in its window tails. The differential tests run both. *)
let run_reference ?(cycle_limit = max_int) t =
  start_main t;
  while t.depth > 0 do
    if t.cycles >= t.next_sample then begin
      t.next_sample <- t.next_sample + t.sample_period;
      if t.cycles > cycle_limit then raise Cycle_limit_exceeded;
      t.on_timer_sample t
    end;
    exec_one t t.frames.(t.depth - 1)
  done

(* --- virtual threads --- *)

(* A virtual thread is a suspended call stack. The VM owns exactly one
   *running* stack ([t.frames]/[t.depth]); [resume] swaps a thread's stack
   in, interprets it for up to [quantum] cycles, and swaps it back out.
   Suspension only ever happens at a cycle-budget window boundary, where
   the running frame's [pc]/[sp] are saved and the deferred
   instruction/cycle counters settled — i.e. at exactly the points where the
   single-threaded driver would consider a timer sample. Everything else
   (clock, code tables, globals, heap, hooks, counters) is shared: threads
   model Java threads of one JVM, not separate VMs.

   Reentrancy: two suspended frames of the same method share nothing
   mutable. Each [invoke] allocates a fresh frame with its own register
   array; a [Code.t] and its closure-tier entry points are immutable after
   construction and only ever *replaced* (never mutated) by
   [install_code], and a frame keeps executing the [f_code]/[f_ncode] it
   started with even after a replacement. The interleaving regression
   tests pin this. *)
type thread_status = Running | Done

let spawn t =
  let id = t.next_thread_id in
  t.next_thread_id <- id + 1;
  { th_id = id; th_frames = [||]; th_depth = 0; th_started = false }

let thread_id th = th.th_id

(* Overwrite with an immediate every slot above [t.depth] that still
   holds a popped frame. Pushes fill the stack bottom-up and every free
   slot starts as an immediate (see [grow_frames]), so popped frames sit
   in one run directly above the live ones. A suspended thread's array
   outlives minor collections; a stale frame left in it would be
   promoted with its registers and everything they point to. *)
let clear_popped t =
  let frames = t.frames in
  let i = ref t.depth in
  while
    !i < Array.length frames
    && Obj.is_block (Obj.repr (Array.unsafe_get frames !i))
  do
    Array.unsafe_set frames !i (Obj.magic 0 : frame);
    incr i
  done

let resume ?(cycle_limit = max_int) t th ~quantum =
  if quantum <= 0 then invalid_arg "Interp.resume: quantum must be positive";
  (* The VM's stack belongs to the thread that ran last, and a hook
     between slices may have changed it (an OSR merges frames and lowers
     [t.depth]). Write it back into that thread, then swap [th] in; if
     [th] ran last, its live stack is already in place. *)
  if t.last_thread != th then begin
    let prev = t.last_thread in
    prev.th_frames <- t.frames;
    prev.th_depth <- t.depth;
    t.last_thread <- th;
    t.frames <- th.th_frames;
    t.depth <- th.th_depth
  end;
  if not th.th_started then begin
    th.th_started <- true;
    start_main t
  end;
  let quantum_end =
    if quantum >= max_int - t.cycles then max_int else t.cycles + quantum
  in
  (* Save the (possibly reallocated) stack back even if a runtime error or
     the cycle limit escapes mid-slice, so the scheduler's view stays
     consistent with the VM's. Popped frames are cleared here, once per
     slice, and not on each return: returns are the hot path of every
     engine, and [run] (which never parks a stack) runs none of this. *)
  t.window_end <- quantum_end;
  Fun.protect
    ~finally:(fun () ->
      t.window_end <- max_int;
      clear_popped t;
      th.th_frames <- t.frames;
      th.th_depth <- t.depth)
    (fun () ->
      (* [run]'s driver, with the window additionally clipped at the
         quantum boundary: preemption can only happen where a timer
         check could have happened, so threaded execution samples at
         exactly the yield points single-threaded execution has. *)
      drive cycle_limit t quantum_end;
      if t.depth = 0 then Done else Running)
