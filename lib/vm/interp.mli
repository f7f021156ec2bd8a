(** The virtual machine interpreter.

    Executes whatever code the code table currently holds for each method —
    baseline bodies or JIT-produced optimized code — while advancing the
    virtual cycle clock according to {!Cost}. New code activates on the
    next invocation of the method; frames already on the stack keep
    executing the code they started in, unless the AOS explicitly
    transfers the innermost frame with {!osr}.

    There are two engines. Methods with closure-tier code ({!Tier}) run
    on it, with the timer check batched over windows of provably
    event-free instructions. Everything else — frames without closures
    and the tier's window tails — runs one instruction at a time on the
    naive loop's semantics ({!exec_until}). Cycle counts, hook firing
    points, counters and output are bit-identical to the naive
    instruction-at-a-time loop, which is kept as {!run_reference} and
    differentially tested against {!run}.

    Hooks let the adaptive optimization system observe execution without
    the interpreter knowing anything about it:
    - [on_first_execution] fires the first time a method is invoked
      (modeling lazy baseline compilation);
    - [on_invoke] fires every [invoke_stride]-th method invocation, after
      the callee frame is pushed — this models Jikes RVM's prologue
      yieldpoint edge sampling, making edge samples proportional to
      invocation frequency;
    - [on_timer_sample] fires every [sample_period] virtual cycles,
      modeling the 100 Hz timer tick that drives the method listener. *)

open Acsi_bytecode

exception Runtime_error of string
(** Null dereference, out-of-bounds access, division by zero, missing
    dispatch target, or call-stack overflow. *)

exception Cycle_limit_exceeded

(** {2 Representation}

    The frame and VM records are exposed (rather than abstract) for one
    consumer: the closure-tier compiler {!Tier}, which compiles installed
    bytecode into chains of closures that manipulate VM state directly at
    interpreter speed. Treat them as read-only outside [Acsi_vm]; all
    invariants are documented on the implementation. *)

type frame = {
  f_vm : t;  (** the VM the frame runs in *)
  mutable f_code : Code.t;
  mutable f_ncode : nfn array;
      (** closure-tier entry points, one per source pc; [[||]] means the
          frame executes one instruction at a time ({!exec_until}) *)
  mutable f_pc : int;
  mutable f_regs : Value.t array;
      (** locals in [0, max_locals) of [f_code]; the operand stack grows
          from [max_locals] up *)
  mutable f_sp : int;  (** absolute index into [f_regs] *)
  mutable f_rem : int;
      (** closure tier, while the frame is on top: virtual cycles until
          the next timer check *)
  mutable f_nin : int;
      (** closure tier: instructions executed but not yet settled into
          [cycles]/[instr_count] *)
}
(** One activation. The closure tier's window state ([f_rem], [f_nin])
    lives in the frame it belongs to: a dispatch into a frame's closures
    sets both, a call or return settles them before switching frames,
    and each is an integer, so no store to it pays a write barrier. The
    tier keeps no stack pointer: its operand slots are static per pc
    ([max_locals] plus the verifier's entry depth). *)

and t = {
  program : Program.t;
  cost : Cost.t;
  mutable cycles : int;
  globals : Value.t array;
  code_table : Code.t array;
  param_slots : int array;
  dispatch_ids : int array;  (** {!Program.dispatch_ids} *)
  nsel : int;  (** {!Program.selector_count} *)
  mutable frames : frame array;
  mutable depth : int;
  mutable output_rev : int list;
  mutable instr_count : int;
  mutable call_count : int;
  mutable guard_hits : int;
  mutable guard_misses : int;
  mutable osr_up : int;
  mutable osr_down : int;
  mutable deopt_guard : int;
  mutable deopt_invalidate : int;
  executed : bool array;
  invocations : int array;
  class_loaded : bool array;
  baseline_code : Code.t array;
  mutable on_first_execution : Ids.Method_id.t -> unit;
  mutable on_invoke : t -> Ids.Method_id.t -> unit;
  mutable on_timer_sample : t -> unit;
  mutable on_class_load : t -> Ids.Class_id.t -> unit;
  mutable on_guard_miss : t -> Ids.Method_id.t -> int -> unit;
  sample_period : int;
  mutable next_sample : int;
  invoke_stride : int;
  mutable invoke_countdown : int;
  mutable next_thread_id : int;
  mutable window_end : int;
  native_table : nfn array array;
  native_depths : int array array;
  baseline_native : (nfn array * int array) array;
      (** closure-tier code for [baseline_code], for deoptimized frames *)
  mutable calibrate : bool;
  cal_cycles : int array;
  cal_host_s : float array;
  mutable last_thread : thread;
      (** the thread whose stack [frames]/[depth] hold: the running one,
          or between slices the one that ran last ({!resume} writes the
          stack back into it before swapping the next thread in) *)
}

and nfn = frame -> unit
(** A closure-tier entry point, statement or breaker, applied to the
    frame it runs: it resumes that frame at the pc it was compiled for,
    reaching the VM through [f_vm]. Single-argument closures apply
    directly in native code, without a [caml_applyN] stub per
    statement, and since no closure captures a VM, a shard can adopt
    closures another shard's VM compiled. *)

and thread
(** A virtual thread; see {!resume}. *)

(** {2 Deoptimization plans}

    A transfer between one optimized frame and the stack of source
    (baseline) frames it subsumes is described by an array of
    [frame_plan]s, listed outermost-first. Plans are constructed and
    validated by the [Acsi_deopt] library from a [Code.t]'s inline map;
    the VM only executes them. All offsets index the *optimized* frame's
    register array: a region's locals live at [dp_base, ...) and its
    operand-stack slice at [max_locals + dp_stack_lo, ... + dp_stack_len).
    For non-innermost plans, [dp_pc] is the call instruction the source
    frame is suspended at and [dp_stack_len] its residual stack depth
    after arguments were popped. *)

type frame_plan = {
  dp_meth : Ids.Method_id.t;
  dp_pc : int;
  dp_base : int;
  dp_stack_lo : int;
  dp_stack_len : int;
}

(** Why a downward transfer happened (the deopt-reason taxonomy). *)
type deopt_reason = Guard_storm | Cha_invalidated

val create :
  ?cost:Cost.t ->
  ?sample_period:int ->
  ?invoke_stride:int ->
  Program.t ->
  t
(** A fresh VM with every method's code table entry set to its baseline
    compilation. [sample_period] defaults to 100_000 cycles;
    [invoke_stride] to 2048 invocations. *)

val program : t -> Program.t
val cost : t -> Cost.t

val sample_period : t -> int
(** The timer-sample period this VM was created with: the virtual-cycle
    weight each timer sample represents (used by sampled profiles). *)

val cycles : t -> int
(** Application cycles consumed so far (excluding AOS overhead, which the
    AOS accounts for separately). *)

val instructions_executed : t -> int
val calls_executed : t -> int

val invocation_count : t -> Ids.Method_id.t -> int
(** Dynamic invocations of one method (inlined calls do not count). *)

val guard_hits : t -> int
val guard_misses : t -> int

val osr_count : t -> int
(** Successful on-stack transfers in either direction
    ([osr_up + osr_down]). *)

val osr_up : t -> int
(** Upward transfers: interpreter/baseline frames replaced by optimized
    code ({!osr} and {!osr_into}). *)

val osr_down : t -> int
(** Downward transfers (deoptimizations): optimized frames replaced by
    reconstructed baseline frames ({!deopt_top_frame}). *)

val deopt_guard_count : t -> int
(** [osr_down] transfers whose reason was {!Guard_storm}. *)

val deopt_invalidate_count : t -> int
(** [osr_down] transfers whose reason was {!Cha_invalidated}. *)

val output : t -> int list
(** Values printed by [Print_int], oldest first. The observable behaviour
    used by the semantics-preservation tests. *)

val install_code : t -> Ids.Method_id.t -> Code.t -> unit
(** Also discards any closure-tier code compiled for the replaced
    [Code.t]; re-install with {!install_native} after recompiling. *)

val install_native : t ->
  Ids.Method_id.t -> fns:nfn array -> entry_depths:int array -> unit
(** Activate closure-tier entry points for the *currently installed*
    code of [mid] (one per source pc; [entry_depths.(pc)] is the
    operand-stack depth the compiler derived for entering at [pc] —
    cross-checked on OSR transfers). New invocations dispatch through
    the closures; live frames keep their tier. Raises [Invalid_argument]
    if [fns] does not cover the installed code 1:1. *)

val native_installed : t -> Ids.Method_id.t -> bool

val set_calibrate : t -> bool -> unit
(** Enable per-tier host-time sampling in the driver loops (off by
    default; costs two clock reads per window when on). *)

val calibration : t -> (string * int * float) list
(** [(bucket, virtual_cycles, host_seconds)] accumulated while
    calibration was on, for buckets ["interp"] (windows of frames
    without closure-tier code), ["closure"] (closure-tier windows, their
    tails included) and ["system"] (timer hooks, i.e. AOS work).
    Attribution is per window: a closure-tier window that calls into
    other closure-tier code stays in one bucket. Host seconds are wall
    time — nondeterministic; nothing on the virtual side reads them. *)

val code_of : t -> Ids.Method_id.t -> Code.t

val was_executed : t -> Ids.Method_id.t -> bool
(** Whether the method has ever been invoked (i.e. baseline-compiled). *)

val set_on_first_execution : t -> (Ids.Method_id.t -> unit) -> unit
val set_on_invoke : t -> (t -> Ids.Method_id.t -> unit) -> unit
val set_on_timer_sample : t -> (t -> unit) -> unit

val set_on_class_load : t -> (t -> Ids.Class_id.t -> unit) -> unit
(** [on_class_load] fires at a class's first instantiation (the model's
    class-load event), after the allocation's cycles were charged and
    *before* the instance exists — so a CHA invalidation handler runs
    ahead of any possible dispatch on the new class. Fires inside an
    execution window: the handler may charge cycles but must not mutate
    the frame stack. *)

val set_on_guard_miss : t -> (t -> Ids.Method_id.t -> int -> unit) -> unit
(** [on_guard_miss vm mid pc] fires when the guard at [pc] of [mid]'s
    installed code fails, after the miss was counted. Same in-window
    restrictions as [on_class_load]. *)

val class_is_loaded : t -> Ids.Class_id.t -> bool
(** Whether the class has been instantiated at least once. *)

val baseline_code_of : t -> Ids.Method_id.t -> Code.t
(** The method's initial baseline compilation, independent of what
    {!install_code} later activated (deoptimization reconstructs source
    frames against this). *)

val deopt_top_frame :
  t -> plans:frame_plan array -> reason:deopt_reason -> unit
(** Replace the innermost (optimized) frame by the stack of baseline
    frames described by [plans]. Only safe at an instruction boundary
    (a timer hook) where the frame's [f_pc]/[f_sp] are settled. Charges
    nothing; the caller accounts for the transfer cost. *)

val osr_into : t -> Ids.Method_id.t -> plans:frame_plan array -> pc:int -> unit
(** Replace the top [Array.length plans] frames (which the caller has
    verified to match [plans]) by one frame of [mid]'s currently
    installed code resuming at [pc] — the inverse of
    {!deopt_top_frame}, generalizing {!osr} across inline regions. *)

val charge : t -> int -> unit
(** Advance the virtual clock by externally-accounted cycles (the runtime
    uses this to make AOS overhead visible to the timer). *)

val osr : t -> Ids.Method_id.t -> bool
(** Attempt on-stack replacement of the innermost frame onto the currently
    installed code for [mid] (an extension over the paper's system, which
    had none — recompiled code normally activates on the next invocation).
    Only safe at an instruction boundary, i.e. from within a VM hook.
    Returns whether a transfer happened. *)

val walk_source_stack : t -> f:(Ids.Method_id.t -> int -> bool) -> unit
(** Visit the source-level call stack innermost-first as
    [(method, source pc)] pairs, expanding optimized frames through their
    inline maps. The innermost pair is the currently executing method;
    each subsequent pair is a caller with the pc of its call site. [f]
    returns [false] to stop walking. *)

val stack_depth : t -> int
(** Physical frame count (for tests). *)

val run : ?cycle_limit:int -> t -> unit
(** Execute from the program's [main] until it returns. Raises
    {!Cycle_limit_exceeded} if the clock passes [cycle_limit]. *)

val run_reference : ?cycle_limit:int -> t -> unit
(** The naive instruction-at-a-time interpreter loop, kept as the
    executable specification of {!run}: on any program and hook
    configuration both produce bit-identical cycles, counters, output and
    hook timing. On the suite programs it takes about 2-5x the time of
    {!run} with every method on the closure tier; exists for
    differential testing. *)

(** {2 Virtual threads}

    A virtual thread is a suspendable call stack running the program's
    [main]. The VM multiplexes many of them over its single virtual
    clock: {!resume} swaps a thread's stack in, interprets for up to a
    quantum of cycles, and suspends it again at a cycle-budget window
    boundary — the same yield points where the single-threaded driver
    checks the timer, so sampling happens at thread switches exactly as
    with Jikes RVM's yieldpoint-based quanta. Clock, code tables, heap,
    globals, hooks and counters are shared across threads (one JVM, many
    Java threads); only the call stack is per-thread. Frames of the same
    method in different threads share no mutable state: each invocation
    allocates a fresh frame, and installed code is immutable. *)

type thread_status = Running | Done

val spawn : t -> thread
(** A fresh suspended thread poised to invoke the program's [main]. The
    main frame is pushed (and [main]'s first-execution hook fired, if it
    has never run) on the first {!resume}. *)

val thread_id : thread -> int
(** Spawn-order identifier, unique within this VM. *)

val thread_depth : thread -> int
(** Physical frame count at the last suspension (0 before the first
    resume and after completion). *)

val thread_done : thread -> bool
(** Whether the thread has started and run [main] to completion. *)

val resume : ?cycle_limit:int -> t -> thread -> quantum:int -> thread_status
(** Execute the thread for at most [quantum] virtual cycles (timer hooks
    included), then suspend it. Returns [Done] when [main] returned.
    Raises [Invalid_argument] if [quantum <= 0], {!Cycle_limit_exceeded}
    if the shared clock passes [cycle_limit]. Must not be called
    re-entrantly (from within a VM hook). *)

(** {2 Execution internals, exposed for the closure tier ({!Tier})}

    The tier compiler emits closures that replicate the naive loop's
    observable behaviour exactly; they reuse these helpers so settlement
    rules, error messages, and cross-tier transfers have a single
    definition. Its call and return breakers are built here, and its
    window tails run on {!exec_until}. Not a stable public API. *)

val rerr : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val as_int : Value.t -> int
val as_obj : Value.t -> Value.obj
val as_arr : Value.t -> Value.t array
val eval_binop : Instr.binop -> int -> int -> int
val eval_cmp : Instr.cmp -> Value.t -> Value.t -> int

val note_class_load : t -> Ids.Class_id.t -> unit
(** Mark the class loaded and fire [on_class_load] if this is its first
    instantiation ([New] branches of all execution engines call this). *)

val exec_until : t -> frame -> int -> unit
(** [exec_until t fr limit] executes [fr]'s instructions one at a time,
    each with the naive loop's charge and semantics, while [cycles] is
    below [limit] and [fr] is on top of the stack. An allocation or a
    guard moves the limit to the next timer check (the closure tier's
    unclipped restart); a call or a return ends the run. The driver runs
    frames without closure-tier code on it, and the closure tier its
    window tails. *)

val closure : nfn -> nfn
(** The identity, opaque to the compiler: a [fun fr -> ...] written
    directly under a function's parameters is merged into that function,
    and each application of the partial application then goes through a
    [caml_curryN] stub. [closure (fun fr -> ...)] stays a one-argument
    closure. *)

val call_breaker : pc:int -> sp:int -> icost:int -> Ids.Method_id.t -> nfn
(** The closure tier's [Call_static]/[Call_direct] at [pc], whose static
    stack pointer is [sp] and per-instruction cost [icost]: the call
    sequence (settle the window, push the callee, move the arguments,
    charge the call, fire the invocation hooks) as a closure, continuing
    the window in the callee. Ends the window instead if its budget is
    spent. *)

val virtual_breaker :
  pc:int -> sp:int -> icost:int -> Ids.Selector.t -> int -> nfn
(** [Call_virtual (sel, argc)] likewise, dispatching through
    [dispatch_ids]. *)

val return_breaker : pc:int -> sp:int -> icost:int -> nfn
val return_void_breaker : pc:int -> sp:int -> icost:int -> nfn
(** [Return] and [Return_void] likewise, continuing the window in the
    caller. *)
