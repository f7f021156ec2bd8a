(** The adaptive optimization system (paper Figure 3), wired onto a VM.

    [create] installs the three hooks the VM exposes:
    - first execution of a method charges its baseline compilation;
    - the timer sample drives the method listener, and every 16th
      sample runs an organizer epoch: the method sample organizer and
      the dynamic call graph organizer drain their buffers, the AI
      organizer periodically rebuilds inlining rules from hot traces
      (and, for the adaptive-resolution policy, re-flags insufficiently
      skewed polymorphic sites), the decay organizer periodically decays
      the profile, the controller turns hot methods into compilation
      plans, and the compilation thread drains the queue installing
      optimized code;
    - the invocation stride drives the trace listener.

    Every code install (baseline, compiled, adopted) goes through one
    {!Acsi_analysis.Jit_check}-gated path: a finding is a recorded
    refusal that keeps the current code, never an exception.

    All overhead cycles are charged both to the per-component accounting
    (Figure 6) and to the VM clock, so total execution time includes the
    adaptive system's own cost. *)

open Acsi_profile

type compile_queue_policy =
  | Fifo  (** enqueue order; with a pool of 1, the serial model exactly *)
  | Hot_first  (** hottest method (current sample weight) first *)

val queue_policy_name : compile_queue_policy -> string
val queue_policy_of_string : string -> compile_queue_policy option

type config = {
  policy : Acsi_policy.Policy.t;
  hot_edge_threshold : float;
      (** fraction of total profile weight above which a trace becomes an
          inlining rule (the paper's 1.5%) *)
  ai_period : int;  (** organizer epochs between AI-organizer passes *)
  decay_period : int;  (** organizer epochs between decay passes *)
  decay_factor : float;
  oracle_config : Acsi_jit.Oracle.config;
  max_opt_versions : int;  (** recompilation cap per method *)
  refusal_ttl : int;
      (** AI-organizer passes before a recorded inline refusal expires and
          the missing-edge organizer may retry (phase adaptation) *)
  merge_rules_to_edges : bool;
      (** ablation: merge hot traces into plain edges when building rules
          (the collection-time merging the paper's hybrid approach avoids) *)
  trace_on_timer : bool;
      (** ablation: drive the trace listener from the timer instead of the
          invocation stride — edge weights become time-biased *)
  enable_osr : bool;
      (** extension: on-stack-replace the innermost frame when its method
          gets (re)compiled; the paper's system activates new code only on
          the next invocation *)
  static_seed : bool;
      (** static pre-warm oracle: at method first-execution time, consult
          the interprocedural summary table ({!Acsi_analysis.Summary})
          and immediately compile methods whose summaries prove
          profitable inlining — before any sample exists. Summary
          analysis itself models class-load-time work and is uncharged
          (like verification); the seed compilations it triggers ARE
          charged at seed time. Each seeded decision is recorded in
          provenance under the [Static] source. Default [false] — all
          goldens are pinned to the purely reactive system. *)
  speculate : bool;
      (** guard-free speculative inlining with deoptimization: the
          oracle may inline a virtual site with {e no} guard when the
          site is monomorphic over the {e loaded} class universe and the
          receiver provably pre-exists the activation
          ({!Acsi_analysis.Preexist}). The CHA assumptions ride on the
          installed {!Acsi_vm.Code.t}; a class load that breaks one
          triggers a synchronous revert to baseline (inside the load
          hook, before the first instance exists — so no dispatch can
          reach the broken inline) plus downward frame transfers through
          the {!Acsi_deopt} tables at the next timer samples, and a
          recompile against the new universe. Methods whose inline
          guards fail 32 times at one (method, pc) site are deoptimized
          the same way. Also unlocks generalized multi-frame
          OSR when {!enable_osr} is on. Default [false] — all goldens
          are pinned to the guarded system. *)
  collect_termination_stats : bool;
  async_compile : bool;
      (** compile on a background virtual thread whose cycles overlap
          mutator execution instead of stalling it: jobs start when the
          (serial) background compiler is free, finish [compile_cycles]
          later on the shared clock, and install at the first yield point
          at or after their finish time ({!poll_async_installs}). Compile
          cycles are charged to the Figure-6 component accounting but not
          to the shared clock. Default [false] — the paper's measurement
          configuration stalls, and all goldens are pinned to it. *)
  compiler_pool : int;
      (** background compiler threads sharing the compile queue (async
          model only). Each has its own busy-until timeline; a drained
          job goes to the earliest-free compiler (ties to the lowest
          index). Default [1] — byte-identical to the serial background
          thread. *)
  compile_queue_policy : compile_queue_policy;
      (** ordering of each drained compile batch before pool assignment;
          every ordering is stable over FIFO enqueue order. Default
          {!Fifo}. *)
  obs : Acsi_obs.Control.config;
      (** observability: structured tracing, inline-decision provenance
          and the CCT profile ({!Acsi_obs}). Defaults to
          {!Acsi_obs.Control.off}; with everything off the system's
          behaviour — every cycle count and every printed number — is
          byte-identical to a build without the subsystem. *)
}

val default_config : Acsi_policy.Policy.t -> config

type t

val create : ?profile:Dcg.t -> config -> Acsi_vm.Interp.t -> t
(** [profile] seeds the dynamic call graph with previously collected data
    (see {!Acsi_profile.Persist}), reproducing offline profile-directed
    inlining: the first AI-organizer pass derives rules from a mature
    profile instead of warming one up online. *)

val config : t -> config
val accounting : t -> Accounting.t
val db : t -> Db.t
val dcg : t -> Dcg.t
val registry : t -> Registry.t
val rules : t -> Rules.t
val flags : t -> Flags.t
val trace_stats : t -> Trace_listener.stats

val baseline_compiled_methods : t -> int

val static_seeded_methods : t -> int
(** Methods compiled by the static pre-warm oracle (0 unless
    {!config.static_seed}). *)

val speculative_installs : t -> int
(** Optimized codes installed carrying at least one CHA assumption
    (0 unless {!config.speculate}). *)

val pending_deopts : t -> int
(** Reverted codes whose stale frames may still await a downward
    transfer. *)

val baseline_code_bytes : t -> int
val method_samples_taken : t -> int
val trace_samples_taken : t -> int
val epochs_run : t -> int

(** {2 Asynchronous compilation} *)

val poll_async_installs : t -> unit
(** Install every background compilation whose virtual finish time has
    passed. Called automatically at each timer sample; schedulers may
    also call it at thread switches so installs land at the earliest
    yield point. No-op when nothing is ready (and in the stalling
    model, where the in-flight queue is always empty). *)

val compile_queue_depth : t -> int
(** Recompilation requests currently queued to the compiler. *)

val max_compile_queue_depth : t -> int
(** High-water mark of the compile queue over the run. *)

val in_flight_compiles : t -> int
(** Background compilations finished by the compiler model but not yet
    past their virtual finish time (always 0 in the stalling model). *)

val async_installs : t -> int
(** Code installations performed by the background compilation model. *)

val adopt_compiled :
  t ->
  Acsi_bytecode.Ids.Method_id.t ->
  Acsi_vm.Code.t ->
  Acsi_jit.Expand.stats ->
  rule_stamp:int ->
  native:(Acsi_vm.Interp.nfn array * int array) option ->
  unit
(** Install optimized code compiled by another AOS instance (a shard's
    publish-once code-cache hit): the adopter pays no compile cycles,
    but the code goes through the same install path as local compiles.
    [native], when provided, reuses the publisher's closure-tier code —
    closures are VM-independent, since runtime state, window state
    included, flows through the frame they run. An install that
    {!Acsi_analysis.Jit_check} refuses installs nothing, keeps the
    current code, is recorded as
    {!Acsi_obs.Provenance.Install_refused} (with a warning and a
    tracer instant), and bars the method from later compiles and
    adoptions in this run; a second attempt is a silent no-op.
    Successful adoptions are recorded in the {!registry} and in
    {!adopted_installs}. Raises [Invalid_argument] on
    assumption-carrying (speculative) code: its CHA proofs hold against
    the publisher's loaded universe, not the adopter's. *)

val adopted_installs : t -> int
(** Cross-shard adoptions performed via {!adopt_compiled}. *)

val async_overlap_instructions : t -> int
(** Mutator instructions retired between background-compile job starts
    and their installs, summed over all jobs: positive means mutator
    execution demonstrably overlapped compilation. *)

val overlapped_aos_cycles : t -> int
(** AOS cycles charged to the per-component accounting but NOT to the
    shared virtual clock: exactly the background-compilation cycles the
    async model overlaps with mutator execution (always 0 in the
    stalling model). The accounting identity every run satisfies is
    [app_cycles = total_cycles - (aos_total - overlapped_aos_cycles)] —
    subtracting the raw accounting total from the clock would double
    count work the clock never saw. *)

(** {2 Observability} *)

val obs : t -> Acsi_obs.Control.t
(** The run's observability bundle (tracer + provenance + CCT profile),
    as configured by {!config.obs}. *)

val tracer : t -> Acsi_obs.Tracer.t
val provenance : t -> Acsi_obs.Provenance.t option
val cprof : t -> Acsi_obs.Cprof.t option

val span_rows : t -> (string * int * int) list
(** The reconciliation table: one (component name, {!Accounting} total,
    summed span durations on the tracer's track of that name) row per
    {!Accounting.all_components} entry, in that order; a component with
    no spans reads 0. The two totals are equal whenever the tracer's
    ring dropped nothing ({!Acsi_obs.Export.track_totals}). *)

(** {2 Fleet telemetry}

    Always-on, off-the-clock instrumentation: recording reads the
    virtual clock but never charges it, so it cannot perturb any run
    (all pinned goldens are byte-identical with or without a consumer).
    The histograms live in {!Acsi_obs.Hist}'s log-bucketed
    representation and merge across shards. *)

val compile_wait_hist : t -> Acsi_obs.Hist.t
(** Virtual cycles each compile job spent queued: enqueue to the moment
    a compiler (the stalling thread, or a pool compiler's timeline)
    begins it. *)

val deopt_gap_hist : t -> Acsi_obs.Hist.t
(** Deopt-to-recompile gap: virtual cycles from a method's reversion
    ({!pending_deopts} growing) to the install of its replacement
    optimized code. *)

(** One fleet-telemetry event, timestamped on this VM's virtual clock.
    [Tel_deopt.invalidated] distinguishes CHA-invalidation deopts from
    guard storms; [Tel_reinstall.gap] is the matching deopt-to-recompile
    gap also recorded in {!deopt_gap_hist}. *)
type tel_event =
  | Tel_deopt of { mid : int; at : int; invalidated : bool }
  | Tel_reinstall of { mid : int; at : int; gap : int }

val set_telemetry_events : t -> bool -> unit
(** Turn the telemetry event log on or off (default off — the sharded
    server enables it and drains at every round barrier, bounding the
    log; unconsumed logs would grow with the run). *)

val take_telemetry_events : t -> tel_event list
(** Drain the pending event log, oldest first. *)

(** {2 Organizer kernels and their executable specs}

    The adaptive-resolution and missing-edge organizers run on indexed
    data (DCG site views, the registry's inverted method->roots index).
    The pre-index implementations are kept as reference specs; the
    [test_brain] differential suite pins each optimized kernel to its
    spec on generated inputs. *)

val flag_decisions :
  Dcg.t ->
  skew_threshold:float ->
  min_context_share:float ->
  (Acsi_bytecode.Ids.Method_id.t * int * bool) list
(** Adaptive-resolution verdicts, one per polymorphic site (>= 2 recorded
    callees): [(caller, callsite, resolve)] where [resolve = true] means
    the site's distribution is already skewed (directly or through a
    sufficiently heavy deep context) and tracing can stop. Unordered. *)

val flag_decisions_reference :
  Dcg.t ->
  skew_threshold:float ->
  min_context_share:float ->
  (Acsi_bytecode.Ids.Method_id.t * int * bool) list
(** Spec for {!flag_decisions}: flat aggregate rebuild + nested folds. *)

val recompile_candidates :
  Registry.t ->
  caller:Acsi_bytecode.Ids.Method_id.t ->
  callsite:int ->
  callee:Acsi_bytecode.Ids.Method_id.t ->
  rules_version:int ->
  max_opt_versions:int ->
  Acsi_bytecode.Ids.Method_id.t list
(** The missing-edge organizer's per-rule query: optimized roots that
    contain [caller], are stale w.r.t. [rules_version], have version
    headroom, and have not inlined the edge. Ascending root order. *)

val recompile_candidates_reference :
  Registry.t ->
  caller:Acsi_bytecode.Ids.Method_id.t ->
  callsite:int ->
  callee:Acsi_bytecode.Ids.Method_id.t ->
  rules_version:int ->
  max_opt_versions:int ->
  Acsi_bytecode.Ids.Method_id.t list
(** Spec for {!recompile_candidates}: a scan over every registry entry. *)
