open Acsi_bytecode
open Acsi_profile
module Interp = Acsi_vm.Interp
module Cost = Acsi_vm.Cost

let log_src = Logs.Src.create "acsi.aos" ~doc:"adaptive optimization system"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Ordering discipline of the background compiler pool's shared queue.
   [Fifo] preserves enqueue order (with a pool of 1 this is byte-identical
   to the original serial background thread). [Hot_first] reorders each
   drain batch by current method hotness, so the methods burning the most
   cycles reach a free compiler first. *)
type compile_queue_policy = Fifo | Hot_first

let queue_policy_name = function
  | Fifo -> "fifo"
  | Hot_first -> "hot"

let queue_policy_of_string = function
  | "fifo" -> Some Fifo
  | "hot" | "hot-first" -> Some Hot_first
  | _ -> None

type config = {
  policy : Acsi_policy.Policy.t;
  hot_edge_threshold : float;
  ai_period : int;
  decay_period : int;
  decay_factor : float;
  oracle_config : Acsi_jit.Oracle.config;
  max_opt_versions : int;
  refusal_ttl : int;
  merge_rules_to_edges : bool;
  trace_on_timer : bool;
  enable_osr : bool;
  static_seed : bool;
      (** static pre-warm oracle: at a method's first execution, if the
          interprocedural summaries ({!Acsi_analysis.Summary}) prove it
          has statically inlinable call sites, compile it optimized
          immediately — before any sample exists. Default [false]; the
          paper's system (and every golden) is purely reactive. *)
  speculate : bool;
      (** guard-free speculative inlining: let the oracle inline virtual
          sites that are monomorphic over the *loaded* class universe
          with no guard when the receiver pre-exists the activation,
          record the CHA assumptions on the installed code, invalidate
          synchronously on class load, deopt active stale frames through
          the {!Acsi_deopt} tables, and deopt guard-stormy methods.
          Default [false]; all goldens are pinned to the guarded
          system. *)
  collect_termination_stats : bool;
  async_compile : bool;
  compiler_pool : int;
      (** number of background compiler threads sharing the compile
          queue (async model only); 1 reproduces the serial background
          thread exactly *)
  compile_queue_policy : compile_queue_policy;
  obs : Acsi_obs.Control.config;
}

let default_config policy =
  {
    policy;
    hot_edge_threshold = 0.015;
    ai_period = 4;
    decay_period = 8;
    decay_factor = 0.95;
    oracle_config = Acsi_jit.Oracle.default_config;
    max_opt_versions = 4;
    refusal_ttl = 12;
    merge_rules_to_edges = false;
    trace_on_timer = false;
    enable_osr = false;
    static_seed = false;
    speculate = false;
    collect_termination_stats = false;
    async_compile = false;
    compiler_pool = 1;
    compile_queue_policy = Fifo;
    obs = Acsi_obs.Control.off;
  }

(* One background compilation in flight: the code is already produced
   (the compiler snapshots the rules when it starts the job), but it only
   becomes installable once the virtual clock reaches [ic_finish] — the
   point where the background compiler thread, running concurrently with
   the mutators, would have completed it. *)
type in_flight_compile = {
  ic_meth : Ids.Method_id.t;
  ic_code : Acsi_vm.Code.t;
  ic_stats : Acsi_jit.Expand.stats;
  ic_rule_stamp : int;  (** rules version the job was compiled against *)
  ic_start : int;  (** cycle a pool compiler began the job *)
  ic_finish : int;  (** cycle the job completes and may install *)
  ic_instrs_at_start : int;  (** mutator instruction count at [ic_start] *)
  ic_seq : int;  (** job submission order, install tie-break *)
}

(* Fleet-telemetry events, recorded only when [set_telemetry_events]
   turned the log on (the sharded server does, per round). Timestamps
   are this VM's virtual clock. *)
type tel_event =
  | Tel_deopt of { mid : int; at : int; invalidated : bool }
  | Tel_reinstall of { mid : int; at : int; gap : int }

type t = {
  cfg : config;
  vm : Interp.t;
  program : Program.t;
  cost : Cost.t;
  accounting : Accounting.t;
  db : Db.t;
  dcg : Dcg.t;
  registry : Registry.t;
  hot_methods : Hot_methods.t;
  flags : Flags.t;
  oracle : Acsi_jit.Oracle.t;
  listener : Trace_listener.t;
  (* static pre-warm oracle: summaries computed once at creation when
     [static_seed] is on; [static_compiling] marks oracle decisions made
     during a seed compilation so provenance can attribute them to the
     [Static] source *)
  summaries : Acsi_analysis.Summary.table option;
  mutable static_compiling : bool;
  mutable static_seeds : int;
  (* speculation & deoptimization: current optimized installs with their
     frame-state tables ([deopt_tables], keyed by method id); reverted
     codes whose active stale frames still await a downward transfer
     ([pending_deopt], matched by physical code identity); guard-failure
     counters per method, indexed by pc and kept across reinstalls;
     memoized pre-existence analyses *)
  deopt_tables : (int, Acsi_vm.Code.t * Acsi_deopt.Deopt.table) Hashtbl.t;
  mutable pending_deopt :
    (Acsi_vm.Code.t * Acsi_deopt.Deopt.table * Interp.deopt_reason) list;
  guard_fails : int array array;
  preexist_cache : (int, bool array) Hashtbl.t;
  (* per-program facts every install check re-reads (root typings,
     baseline depths), owned here so no other domain ever sees them *)
  install_facts : Acsi_analysis.Jit_check.facts;
  mutable speculative_installs : int;
  mutable rules : Rules.t;
  mutable rules_version : int;
  (* buffers *)
  mutable method_buffer : Ids.Method_id.t list;
  mutable method_buffer_len : int;
  mutable trace_buffer : Trace.t list;
  mutable trace_buffer_len : int;
  (* compilation queue: method plus its enqueue cycle (queue-wait input) *)
  compile_queue : (Ids.Method_id.t * int) Queue.t;
  pending : bool array;
  (* methods whose install [Jit_check] refused: never enqueued, compiled
     or adopted again in this run *)
  refused : bool array;
  (* asynchronous (pool) compilation: finished code waiting for its
     virtual finish time, kept sorted by (finish, submission seq) — with
     more than one compiler, jobs submitted later can finish earlier *)
  mutable in_flight : in_flight_compile list;
  mutable in_flight_seq : int;
  (* per-compiler busy-until timelines; length = max 1 compiler_pool *)
  compilers : int array;
  mutable async_installs : int;
  mutable adopted_installs : int;
  mutable max_queue_depth : int;
  mutable overlap_instructions : int;
  mutable overlapped_aos_cycles : int;
  obs : Acsi_obs.Control.t;
  (* fleet telemetry: always-on histograms (queue wait measured at
     compile start, deopt-to-reinstall gap) — off the virtual clock, so
     they never perturb a run — and an opt-in bounded event log the
     sharded server drains at barriers to draw deopt flow arrows *)
  tel_compile_wait : Acsi_obs.Hist.t;
  tel_deopt_gap : Acsi_obs.Hist.t;
  last_deopt : (int, int) Hashtbl.t;
  mutable tel_events_on : bool;
  mutable tel_events : tel_event list; (* newest first *)
  (* counters *)
  mutable baseline_methods : int;
  mutable baseline_bytes : int;
  mutable method_samples : int;
  mutable trace_samples : int;
  mutable samples_in_epoch : int;
  mutable epochs : int;
}

let config t = t.cfg
let accounting t = t.accounting
let db t = t.db
let dcg t = t.dcg
let registry t = t.registry
let rules t = t.rules
let flags t = t.flags
let trace_stats t = Trace_listener.stats t.listener
let baseline_compiled_methods t = t.baseline_methods
let baseline_code_bytes t = t.baseline_bytes
let method_samples_taken t = t.method_samples
let trace_samples_taken t = t.trace_samples
let epochs_run t = t.epochs
let compile_queue_depth t = Queue.length t.compile_queue
let max_compile_queue_depth t = t.max_queue_depth
let in_flight_compiles t = List.length t.in_flight
let async_installs t = t.async_installs
let adopted_installs t = t.adopted_installs
let async_overlap_instructions t = t.overlap_instructions
let overlapped_aos_cycles t = t.overlapped_aos_cycles
let static_seeded_methods t = t.static_seeds
let speculative_installs t = t.speculative_installs
let pending_deopts t = List.length t.pending_deopt
let obs t = t.obs
let compile_wait_hist t = t.tel_compile_wait
let deopt_gap_hist t = t.tel_deopt_gap
let set_telemetry_events t on = t.tel_events_on <- on
let take_telemetry_events t =
  let evs = List.rev t.tel_events in
  t.tel_events <- [];
  evs
let tel_emit t e = if t.tel_events_on then t.tel_events <- e :: t.tel_events
let tracer t = t.obs.Acsi_obs.Control.tracer
let provenance t = t.obs.Acsi_obs.Control.prov
let cprof t = t.obs.Acsi_obs.Control.cprof

let span_rows t =
  let totals = Acsi_obs.Export.track_totals (tracer t) in
  List.map
    (fun c ->
      let nm = Accounting.component_name c in
      let spans = Option.value (List.assoc_opt nm totals) ~default:0 in
      (nm, Accounting.get t.accounting c, spans))
    Accounting.all_components

(* All AOS work is charged to both the component accounting (Figure 6) and
   the VM clock (total time includes the adaptive system).

   The tracer span mirrors the charge one-for-one: same component track,
   same cycle count, stamped at the pre-charge clock — so with tracing on
   and no ring drops, summed span durations per track reconcile exactly
   with the Accounting totals ([Acsi_obs.Export.track_totals]). [ev]
   names the span after the work being charged. *)
let charge ?(ev = "aos") t component cycles =
  (let tr = t.obs.Acsi_obs.Control.tracer in
   if Acsi_obs.Tracer.enabled tr then
     let t0 = Interp.cycles t.vm in
     Acsi_obs.Tracer.span tr
       ~track:(Accounting.component_name component)
       ~name:ev ~t0 ~t1:(t0 + cycles));
  Accounting.charge t.accounting component cycles;
  Interp.charge t.vm cycles

let enqueue_compile t (mid : Ids.Method_id.t) =
  if not (t.pending.((mid :> int)) || t.refused.((mid :> int))) then begin
    t.pending.((mid :> int)) <- true;
    Queue.add (mid, Interp.cycles t.vm) t.compile_queue;
    t.max_queue_depth <-
      Int.max t.max_queue_depth (Queue.length t.compile_queue);
    Acsi_obs.Tracer.counter (tracer t)
      ~track:(Accounting.component_name Accounting.Compilation)
      ~name:"queue-depth" ~t:(Interp.cycles t.vm)
      ~value:(Queue.length t.compile_queue)
  end

(* --- organizers --- *)

let method_organizer t =
  charge ~ev:"drain-method-buffer" t Accounting.Method_organizer
    (t.method_buffer_len * t.cost.Cost.organizer_per_event);
  List.iter (Hot_methods.add_sample t.hot_methods) t.method_buffer;
  t.method_buffer <- [];
  t.method_buffer_len <- 0

let dcg_organizer t =
  charge ~ev:"drain-trace-buffer" t Accounting.Ai_organizer
    (t.trace_buffer_len * t.cost.Cost.organizer_per_event);
  List.iter (Dcg.add_sample t.dcg) t.trace_buffer;
  t.trace_buffer <- [];
  t.trace_buffer_len <- 0

(* Adaptive resolution (§4.3): find hot polymorphic sites whose callee
   distribution is not skewed; flag them for deeper tracing unless some
   sufficiently heavy deep context already resolves them.

   The decision for one site depends only on that site's callee and
   deep-context weights, so the pass reads the DCG's incremental site
   views: one bucket-local sum per aggregate instead of the flat-table
   rebuild (and its contexts x contexts product) the reference spec
   below performs. The decision list is order-independent — every site
   yields at most one Resolve/Flag, and [Flags] state is per-site. *)
let flag_decisions dcg ~skew_threshold ~min_context_share =
  let acc = ref [] in
  Dcg.iter_sites dcg ~f:(fun ~caller ~callsite view ->
      if Dcg.view_callee_count view >= 2 then begin
        let total = Dcg.view_total view in
        let top = Dcg.view_top_callee_weight view in
        let resolve =
          top /. total >= skew_threshold
          || (* Does some heavy deep context already discriminate? *)
          Dcg.view_deep_exists view ~f:(fun ~total:ctotal ~top:ctop ->
              ctotal >= min_context_share *. total
              && ctop /. ctotal >= skew_threshold)
        in
        acc := (caller, callsite, resolve) :: !acc
      end);
  !acc

(* The pre-view implementation, kept as the executable spec for the
   differential tests: rebuild flat per-site / per-context aggregates
   from the whole trace table, then scan them with nested folds. *)
let flag_decisions_reference dcg ~skew_threshold ~min_context_share =
  let site_total : (int * int, float ref) Hashtbl.t = Hashtbl.create 32 in
  let site_callee : (int * int * int, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let ctx_total : ((int * int) list, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let ctx_callee : ((int * int) list * int, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let bump tbl key w =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r +. w
    | None -> Hashtbl.add tbl key (ref w)
  in
  Dcg.iter dcg ~f:(fun trace w ->
      let e0 = trace.Trace.chain.(0) in
      let site = ((e0.Trace.caller :> int), e0.Trace.callsite) in
      let callee = (trace.Trace.callee :> int) in
      bump site_total site w;
      bump site_callee (fst site, snd site, callee) w;
      if Array.length trace.Trace.chain >= 2 then begin
        let ctx =
          Array.to_list trace.Trace.chain
          |> List.map (fun e -> ((e.Trace.caller :> int), e.Trace.callsite))
        in
        bump ctx_total ctx w;
        bump ctx_callee (ctx, callee) w
      end);
  let acc = ref [] in
  Hashtbl.iter
    (fun (caller_i, callsite) total ->
      let callees =
        Hashtbl.fold
          (fun (c, s, callee) w acc ->
            if c = caller_i && s = callsite then (callee, !w) :: acc else acc)
          site_callee []
      in
      match callees with
      | [] | [ _ ] -> ()
      | _ :: _ :: _ ->
          let top =
            List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 callees
          in
          let caller = Ids.Method_id.of_int caller_i in
          let resolve =
            top /. !total >= skew_threshold
            ||
            (* Does some heavy deep context already discriminate? *)
            Hashtbl.fold
              (fun ctx ctotal acc ->
                acc
                ||
                match ctx with
                | (c, s) :: _
                  when c = caller_i && s = callsite
                       && !ctotal >= min_context_share *. !total ->
                    let ctop =
                      Hashtbl.fold
                        (fun (ctx', _) w acc ->
                          if ctx' = ctx then Float.max acc !w else acc)
                        ctx_callee 0.0
                    in
                    ctop /. !ctotal >= skew_threshold
                | _ -> false)
              ctx_total false
          in
          acc := (caller, callsite, resolve) :: !acc)
    site_total;
  !acc

(* A site is imprecise when its top target holds less than
   [skew_threshold] of its weight, unless a deep context holding at
   least [min_context_share] of that weight is itself skewed. A site
   flagged [max_flag_attempts] times without resolving gives up. *)
let skew_threshold = 0.8
let min_context_share = 0.1
let max_flag_attempts = 8

let update_flags t =
  List.iter
    (fun (caller, callsite, resolve) ->
      if resolve then Flags.resolve t.flags ~caller ~callsite
      else
        Flags.flag t.flags ~caller ~callsite ~max_attempts:max_flag_attempts)
    (flag_decisions t.dcg ~skew_threshold ~min_context_share)

(* The roots worth recompiling for one missing hot edge: every optimized
   root whose current code contains the caller (so the call site lives in
   its code), is stale w.r.t. the current rules, has version headroom,
   and has not already inlined the edge. Ascending root order — the same
   order the reference scan visits entries in. *)
let recompile_candidates registry ~caller ~callsite ~callee ~rules_version
    ~max_opt_versions =
  List.filter
    (fun root ->
      match Registry.entry registry root with
      | None -> false
      | Some entry ->
          entry.Registry.rule_stamp < rules_version
          && entry.Registry.version < max_opt_versions
          && not (Registry.has_inlined registry ~root ~caller ~callsite ~callee))
    (Registry.roots_containing registry caller)

(* Executable spec of [recompile_candidates]: the product-of-linear-scans
   form (every registry entry probed for containment). For the
   differential tests; must agree exactly, including order. *)
let recompile_candidates_reference registry ~caller ~callsite ~callee
    ~rules_version ~max_opt_versions =
  let acc = ref [] in
  Registry.iter registry ~f:(fun root entry ->
      if
        Registry.contains_method registry ~root caller
        && entry.Registry.rule_stamp < rules_version
        && entry.Registry.version < max_opt_versions
        && not (Registry.has_inlined registry ~root ~caller ~callsite ~callee)
      then acc := root :: !acc);
  List.rev !acc

(* The AI missing-edge organizer: hot edges that optimized code failed to
   inline (and that the compiler has not refused) trigger recompilation,
   up to the per-method version cap. The edge's call site lives in the
   direct caller's own code, but also in every optimized root that inlined
   that caller — all of them are candidates.

   Virtual-time invariant: the organizer's cost model is one event per
   rule plus one event per (rule, registry entry) pair — what the
   reference scan charges as it walks every entry. The indexed scan
   visits only the roots that contain the caller, but charges the
   identical event count in one batched charge, so the clock (and every
   printed number) is unchanged. *)
let missing_edge_scan t =
  let entry_events =
    Registry.opt_method_count t.registry * t.cost.Cost.organizer_per_event
  in
  Rules.iter t.rules ~f:(fun r ->
      charge ~ev:"missing-edge-scan" t Accounting.Ai_organizer
        t.cost.Cost.organizer_per_event;
      let e0 = r.Rules.trace.Trace.chain.(0) in
      let caller = e0.Trace.caller in
      let callsite = e0.Trace.callsite in
      let callee = r.Rules.trace.Trace.callee in
      let callee_m = Program.meth t.program callee in
      let inlinable =
        match Meth.size_class callee_m with
        | Meth.Large -> false
        | Meth.Tiny | Meth.Small | Meth.Medium -> true
      in
      if
        inlinable
        && not
             (Db.refused t.db ~caller ~callsite ~callee ~now:t.rules_version
                ~ttl:t.cfg.refusal_ttl)
      then begin
        charge ~ev:"missing-edge-scan" t Accounting.Ai_organizer entry_events;
        List.iter
          (fun root ->
            Log.debug (fun m ->
                m "missing edge %a@%d => %a: recompiling %a" Ids.Method_id.pp
                  caller callsite Ids.Method_id.pp callee Ids.Method_id.pp
                  root);
            enqueue_compile t root)
          (recompile_candidates t.registry ~caller ~callsite ~callee
             ~rules_version:t.rules_version
             ~max_opt_versions:t.cfg.max_opt_versions)
      end)

(* Ablation: collapse hot traces to their underlying edges, merging the
   weights — the "merge partial matches at collection time" alternative
   the paper rejects in §3.3. *)
let merge_to_edges hot =
  let table = Trace.Table.create 64 in
  List.iter
    (fun (trace, w) ->
      let edge = Trace.edge trace in
      match Trace.Table.find_opt table edge with
      | Some r -> r := !r +. w
      | None -> Trace.Table.add table edge (ref w))
    hot;
  Trace.Table.fold (fun trace w acc -> (trace, !w) :: acc) table []

let ai_organizer t =
  charge ~ev:"rebuild-rules" t Accounting.Ai_organizer
    (Dcg.size t.dcg * t.cost.Cost.ai_organizer_per_trace);
  let hot = Dcg.hot t.dcg ~threshold:t.cfg.hot_edge_threshold in
  let hot = if t.cfg.merge_rules_to_edges then merge_to_edges hot else hot in
  Log.debug (fun m ->
      m "AI organizer: %d traces in DCG, %d hot -> rules v%d"
        (Dcg.size t.dcg) (List.length hot) (t.rules_version + 1));
  (let tr = tracer t in
   if Acsi_obs.Tracer.enabled tr then begin
     let track = Accounting.component_name Accounting.Ai_organizer in
     let now = Interp.cycles t.vm in
     Acsi_obs.Tracer.counter tr ~track ~name:"dcg-size" ~t:now
       ~value:(Dcg.size t.dcg);
     Acsi_obs.Tracer.instant tr ~track ~name:"rules-rebuild" ~t:now
       ~args:
         [
           ("version", string_of_int (t.rules_version + 1));
           ("hot_traces", string_of_int (List.length hot));
         ]
       ()
   end);
  t.rules <- Rules.of_hot_traces hot;
  t.rules_version <- t.rules_version + 1;
  Acsi_jit.Oracle.set_rules t.oracle t.rules;
  if Acsi_policy.Policy.is_adaptive_resolving t.cfg.policy then update_flags t;
  missing_edge_scan t

(* Traces whose weight decays below this are dropped. *)
let dcg_prune_below = 0.05

let decay_organizer t =
  charge ~ev:"decay" t Accounting.Decay_organizer
    (Dcg.size t.dcg * t.cost.Cost.decay_per_trace);
  Dcg.decay t.dcg ~factor:t.cfg.decay_factor ~prune_below:dcg_prune_below;
  Hot_methods.decay t.hot_methods ~factor:t.cfg.decay_factor

(* A method is hot with at least this many (decayed) samples and this
   share of all samples. *)
let hot_method_min_samples = 3.0
let hot_method_fraction = 0.01

let controller t =
  let hot =
    Hot_methods.hot t.hot_methods ~min_samples:hot_method_min_samples
      ~fraction:hot_method_fraction
  in
  List.iter
    (fun (mid, _samples) ->
      charge ~ev:"plan-recompile" t Accounting.Controller
        t.cost.Cost.controller_per_event;
      match Registry.entry t.registry mid with
      | None -> enqueue_compile t mid
      | Some _ -> ())
    hot

(* Produce optimized code for one queued method (shared by the stalling
   and background compilation models). *)
let compile_one t (mid : Ids.Method_id.t) =
  t.pending.((mid :> int)) <- false;
  let root = Program.meth t.program mid in
  let code, stats = Acsi_jit.Expand.compile t.program t.cost t.oracle ~root in
  Log.info (fun m ->
      m "opt-compiled %s: %d units, %d inlines, %d guards" root.Meth.name
        stats.Acsi_jit.Expand.expanded_units
        stats.Acsi_jit.Expand.inline_count stats.Acsi_jit.Expand.guard_count);
  (code, stats)

(* --- speculation & deoptimization --- *)

(* The unique dispatch target of [sel] over the classes instantiated so
   far, or [None]: the loaded-CHA analogue of
   [Program.monomorphic_target] over the sealed universe. *)
let loaded_mono t sel =
  let n = Program.class_count t.program in
  let target = ref None in
  let unique = ref true in
  for c = 0 to n - 1 do
    let cid = Ids.Class_id.of_int c in
    if !unique && Interp.class_is_loaded t.vm cid then
      match Program.dispatch t.program cid sel with
      | Some m -> (
          match !target with
          | None -> target := Some m
          | Some m' -> if not (Ids.Method_id.equal m m') then unique := false)
      | None -> ()
  done;
  if !unique then !target else None

let preexist_pcs t (root : Meth.t) =
  match t.summaries with
  | None -> [||]
  | Some table -> (
      let key = (root.Meth.id :> int) in
      match Hashtbl.find_opt t.preexist_cache key with
      | Some a -> a
      | None ->
          let a =
            Acsi_analysis.Preexist.receiver_preexists t.program table root
          in
          Hashtbl.add t.preexist_cache key a;
          a)

let assumptions_hold t (code : Acsi_vm.Code.t) =
  List.for_all
    (fun (sel, target) ->
      match loaded_mono t sel with
      | Some m -> Ids.Method_id.equal m target
      | None -> false)
    code.Acsi_vm.Code.assumptions

(* --- the install pipeline --- *)

let record_tier t mid outcome =
  match t.obs.Acsi_obs.Control.prov with
  | Some prov -> Acsi_obs.Provenance.add_tier prov mid outcome
  | None -> ()

(* A refused install or a tier fall-back: logged, marked by an instant
   on the Compilation track (charged nothing beyond the probe model
   every tracer event follows) and recorded in provenance. *)
let report_failure t mid ~ev ~why outcome =
  let name = (Program.meth t.program mid).Meth.name in
  Log.warn (fun m -> m "%s %s: %s" ev name why);
  Acsi_obs.Tracer.instant (tracer t)
    ~track:(Accounting.component_name Accounting.Compilation)
    ~name:ev ~t:(Interp.cycles t.vm)
    ~args:[ ("method", name); ("reason", why) ]
    ();
  record_tier t mid outcome

(* Every code install goes through here: baseline code at first
   execution and on deopt reverts, compiled code (stalling, background,
   static seed) and code adopted from another shard. [Jit_check] runs
   once (free on baseline code, which has no source map). On a finding
   nothing is installed on either engine, the current code keeps
   running, and [refused] bars the method from further compiles and
   adoptions, so a refusal never becomes a recompile loop. Otherwise
   the code goes to the interpreter, then to the closure tier (reusing
   the [native] closures a publisher shipped); a tier compile that
   raises leaves the method without closures, so its frames run one
   instruction at a time ([Interp.exec_until]). Both checks model
   host-side work, so nothing here charges the virtual clock. Returns
   whether the code was installed. *)
let install t (mid : Ids.Method_id.t) code ~native =
  match
    Acsi_analysis.Jit_check.check ~facts:t.install_facts t.program code
  with
  | d :: _ ->
      let why = Acsi_analysis.Diag.to_string d in
      t.refused.((mid :> int)) <- true;
      report_failure t mid ~ev:"install-refused" ~why
        (Acsi_obs.Provenance.Install_refused why);
      false
  | [] ->
      Interp.install_code t.vm mid code;
      (match
         match native with
         | Some (fns, entry_depths) ->
             Interp.install_native t.vm mid ~fns ~entry_depths
         | None -> Acsi_vm.Tier.install t.vm mid code
       with
      | () -> record_tier t mid Acsi_obs.Provenance.Tier_compiled
      | exception exn ->
          let why = Printexc.to_string exn in
          report_failure t mid ~ev:"tier-fell-back" ~why
            (Acsi_obs.Provenance.Tier_fell_back why));
      true

(* Take [mid] off its current optimized code: future invocations run the
   baseline again (closure tier reinstalled to match), frames still
   executing the stale code are drained by [drain_pending_deopt] at the
   next timer samples, and a recompile is enqueued — the speculation
   closures read the *current* loaded universe, so the replacement is
   compiled without the broken assumption. Safe inside an execution
   window: mutates code tables only, never the frame stack. *)
let revert_optimized t (mid : Ids.Method_id.t) ~reason ~ev =
  match Hashtbl.find_opt t.deopt_tables (mid :> int) with
  | None -> ()
  | Some (code, table) ->
      Hashtbl.remove t.deopt_tables (mid :> int);
      t.pending_deopt <- (code, table, reason) :: t.pending_deopt;
      (let at = Interp.cycles t.vm in
       Hashtbl.replace t.last_deopt (mid :> int) at;
       tel_emit t
         (Tel_deopt
            {
              mid = (mid :> int);
              at;
              invalidated = reason = Interp.Cha_invalidated;
            }));
      ignore (install t mid (Interp.baseline_code_of t.vm mid) ~native:None);
      charge ~ev t Accounting.Controller t.cost.Cost.controller_per_event;
      Log.info (fun m ->
          m "deopt %s: reverted to baseline (%s)"
            (Program.meth t.program mid).Meth.name
            (match (reason : Interp.deopt_reason) with
            | Interp.Guard_storm -> "guard storm"
            | Interp.Cha_invalidated -> "CHA invalidated"));
      enqueue_compile t mid

(* Inline-guard failures at one (method, pc) site before the guard-storm
   deopt reverts the method to baseline and re-enqueues it. *)
let deopt_guard_threshold = 32

let on_guard_miss t (mid : Ids.Method_id.t) pc =
  if Hashtbl.mem t.deopt_tables (mid :> int) then begin
    let old = t.guard_fails.((mid :> int)) in
    let counts =
      if pc < Array.length old then old
      else begin
        (* A longer reinstall: grow, keeping every pc's count. *)
        let grown = Array.make (max (pc + 1) (2 * Array.length old)) 0 in
        Array.blit old 0 grown 0 (Array.length old);
        t.guard_fails.((mid :> int)) <- grown;
        grown
      end
    in
    let n = counts.(pc) + 1 in
    counts.(pc) <- n;
    if n = deopt_guard_threshold then
      revert_optimized t mid ~reason:Interp.Guard_storm ~ev:"deopt-guard-storm"
  end

(* Synchronous CHA invalidation: fires from the class-load hook, i.e.
   after the allocation's cycles were charged but *before* the first
   instance of [cid] exists — so no dispatch can ever reach a
   speculative inline whose assumption the new class breaks. One
   controller event is charged per assumption-carrying code scanned. *)
let on_class_load t (cid : Ids.Class_id.t) =
  let broken = ref [] in
  Hashtbl.iter
    (fun key ((code : Acsi_vm.Code.t), _) ->
      if code.Acsi_vm.Code.assumptions <> [] then begin
        charge ~ev:"invalidate-scan" t Accounting.Controller
          t.cost.Cost.controller_per_event;
        if
          List.exists
            (fun (sel, target) ->
              match Program.dispatch t.program cid sel with
              | Some m -> not (Ids.Method_id.equal m target)
              | None -> false)
            code.Acsi_vm.Code.assumptions
        then broken := key :: !broken
      end)
    t.deopt_tables;
  List.iter
    (fun key ->
      revert_optimized t (Ids.Method_id.of_int key)
        ~reason:Interp.Cha_invalidated ~ev:"deopt-invalidate")
    (List.sort compare !broken)

(* Downward transfer of stale frames: when the top frame still runs a
   reverted code (matched by physical identity) and its pc has a valid
   deopt point, reconstruct the baseline frames there. Runs at timer
   samples — an instruction boundary, where frame mutation is legal. A
   pc without a point simply waits for a later sample. *)
let drain_pending_deopt t vm =
  match t.pending_deopt with
  | [] -> ()
  | pend ->
      if vm.Interp.depth > 0 then begin
        let fr = vm.Interp.frames.(vm.Interp.depth - 1) in
        let code = fr.Interp.f_code in
        match List.find_opt (fun (c, _, _) -> c == code) pend with
        | Some (_, table, reason) -> (
            match Acsi_deopt.Deopt.point_at table ~pc:fr.Interp.f_pc with
            | Some plans ->
                Interp.deopt_top_frame vm ~plans ~reason;
                charge ~ev:"deopt-transfer" t Accounting.Controller
                  (Array.length plans * t.cost.Cost.deopt_frame)
            | None -> ())
        | None -> ()
      end

(* Install freshly compiled code ([install]), optionally OSR the
   innermost frame, and record the compilation. [rule_stamp] is the rules
   version the code was built against — for background compilations that
   can be older than the current version at install time. Code for a
   refused method (a job compiled before the refusal) is dropped. *)
let install_compiled t (mid : Ids.Method_id.t) code stats ~rule_stamp =
  if t.refused.((mid :> int)) then ()
  else if t.cfg.speculate && not (assumptions_hold t code) then begin
    (* A class load between compile and install broke an assumption
       (possible under the background model): drop the code and
       recompile against the current loaded universe. *)
    Log.info (fun m ->
        m "dropping stale speculative code for %s (assumption broken before install)"
          (Program.meth t.program mid).Meth.name);
    enqueue_compile t mid
  end
  else if install t mid code ~native:None then begin
  (if t.cfg.speculate then begin
     Hashtbl.replace t.deopt_tables
       (mid :> int)
       ( code,
         Acsi_deopt.Deopt.table_of_code
           ~depths:(Acsi_analysis.Jit_check.deopt_depths t.install_facts)
           t.program code );
     if code.Acsi_vm.Code.assumptions <> [] then
       t.speculative_installs <- t.speculative_installs + 1
   end);
  (if t.cfg.enable_osr then
     let moved = Interp.osr t.vm mid in
     if (not moved) && t.cfg.speculate then
       match Hashtbl.find_opt t.deopt_tables (mid :> int) with
       | Some (c, tbl) ->
           (* Generalized transfer: the root-level OSR above refuses
              frames suspended inside what is now an inline region; the
              deopt table can move those too (multi-frame collapse). *)
           let d0 = t.vm.Interp.depth in
           if Acsi_deopt.Deopt.try_osr_up t.vm c tbl then
             charge ~ev:"osr-up" t Accounting.Controller
               ((d0 - t.vm.Interp.depth + 1) * t.cost.Cost.deopt_frame)
       | None -> ());
  (* Deopt-to-recompile gap: this install closes any open deopt window
     for the method (clock read only; nothing is charged). *)
  (match Hashtbl.find_opt t.last_deopt (mid :> int) with
  | Some t0 ->
      Hashtbl.remove t.last_deopt (mid :> int);
      let at = Interp.cycles t.vm in
      let gap = at - t0 in
      Acsi_obs.Hist.record t.tel_deopt_gap gap;
      tel_emit t (Tel_reinstall { mid = (mid :> int); at; gap })
  | None -> ());
  Registry.record t.registry mid stats ~rule_stamp;
  Db.record_compilation t.db
    {
      Db.ce_method = mid;
      ce_version =
        (match Registry.entry t.registry mid with
        | Some e -> e.Registry.version
        | None -> 0);
      ce_units = stats.Acsi_jit.Expand.expanded_units;
      ce_bytes = stats.Acsi_jit.Expand.code_bytes;
      ce_cycles = stats.Acsi_jit.Expand.compile_cycles;
      ce_inlines = stats.Acsi_jit.Expand.inline_count;
      ce_guards = stats.Acsi_jit.Expand.guard_count;
    }
  end

(* The static pre-warm oracle (hybrid static+online inlining): at a
   method's first execution, if the interprocedural summaries prove the
   method has at least one statically inlinable call site (unique
   non-recursive target, Tiny/Small after its own inlining, not
   always-throwing), compile it optimized right away — before any sample
   exists. The rules are still empty at this point, so every inline the
   expander performs is decided by the oracle's static heuristics over
   summary-proven sites; provenance records them under the [Static]
   source. The compile itself stalls and is charged like any stalling
   opt-compile — seeding buys earlier optimized code, not free cycles.
   Seeded methods enter the registry at the current rules version, so
   the missing-edge organizer refines them later exactly as it would any
   reactively compiled method. *)
let static_seed_install t (mid : Ids.Method_id.t) =
  match t.summaries with
  | None -> ()
  | Some table ->
      if Acsi_analysis.Summary.seed_worthy table mid then begin
        let root = Program.meth t.program mid in
        t.static_compiling <- true;
        let code, stats =
          Acsi_jit.Expand.compile t.program t.cost t.oracle ~root
        in
        t.static_compiling <- false;
        t.static_seeds <- t.static_seeds + 1;
        Log.debug (fun m ->
            m "static seed %s: %d units, %d inlines" root.Meth.name
              stats.Acsi_jit.Expand.expanded_units
              stats.Acsi_jit.Expand.inline_count);
        charge ~ev:"static-seed-compile" t Accounting.Compilation
          stats.Acsi_jit.Expand.compile_cycles;
        install_compiled t mid code stats ~rule_stamp:t.rules_version
      end

(* The stalling compilation model (the default, and the paper's
   measurement configuration): compile cycles are charged to the shared
   clock, so the requesting execution waits for the compiler. *)
let compilation_thread t =
  while not (Queue.is_empty t.compile_queue) do
    let mid, enq = Queue.pop t.compile_queue in
    Acsi_obs.Hist.record t.tel_compile_wait (Interp.cycles t.vm - enq);
    let code, stats = compile_one t mid in
    charge ~ev:"opt-compile" t Accounting.Compilation
      stats.Acsi_jit.Expand.compile_cycles;
    install_compiled t mid code stats ~rule_stamp:t.rules_version
  done

(* Drain the compile queue into a batch ordered by the configured queue
   policy. All orderings are stable over the FIFO enqueue order, so
   [Fifo] is the identity and ties never depend on hash or allocation
   order. *)
let policy_order t jobs =
  match t.cfg.compile_queue_policy with
  | Fifo -> jobs
  | Hot_first ->
      List.stable_sort
        (fun (a, _) (b, _) ->
          Float.compare
            (Hot_methods.samples t.hot_methods b)
            (Hot_methods.samples t.hot_methods a))
        jobs

(* The background compilation model: the compiler runs on its own virtual
   thread whose cycles overlap mutator execution. Each job starts when
   the (serial) background thread is free, finishes [compile_cycles]
   later on the shared clock, and is installed at the first yield point
   at or after its finish time. Compile cycles are charged to the
   Figure-6 component accounting but NOT to the shared clock — that is
   the overlap. *)
let start_async_compiles t =
  let jobs = ref [] in
  while not (Queue.is_empty t.compile_queue) do
    (* a revert may have queued a method whose in-flight job was refused *)
    let ((mid : Ids.Method_id.t), _) as job = Queue.pop t.compile_queue in
    if not t.refused.((mid :> int)) then jobs := job :: !jobs
  done;
  List.iter
    (fun (mid, enq) ->
      let code, stats = compile_one t mid in
      Accounting.charge t.accounting Accounting.Compilation
        stats.Acsi_jit.Expand.compile_cycles;
      (* Charged to the Figure-6 accounting but not to the shared clock:
         these are the overlapped cycles the async model hides. *)
      t.overlapped_aos_cycles <-
        t.overlapped_aos_cycles + stats.Acsi_jit.Expand.compile_cycles;
      let now = Interp.cycles t.vm in
      (* Earliest-free compiler of the pool takes the job; ties go to the
         lowest index, so the assignment is a pure function of the
         timelines. *)
      let k = ref 0 in
      Array.iteri (fun i busy -> if busy < t.compilers.(!k) then k := i)
        t.compilers;
      let start = Int.max now t.compilers.(!k) in
      let finish = start + stats.Acsi_jit.Expand.compile_cycles in
      t.compilers.(!k) <- finish;
      (* Queue wait = enqueue to the moment a pool compiler picks the
         job up, on the virtual timeline. *)
      Acsi_obs.Hist.record t.tel_compile_wait (start - enq);
      (* The span covers the pool compiler's own busy interval
         [start, finish) — exactly [compile_cycles] long, so the
         Compilation track still reconciles with its Accounting total. *)
      Acsi_obs.Tracer.span (tracer t)
        ~track:(Accounting.component_name Accounting.Compilation)
        ~name:"opt-compile-async" ~t0:start ~t1:finish;
      let seq = t.in_flight_seq in
      t.in_flight_seq <- seq + 1;
      let ic =
        {
          ic_meth = mid;
          ic_code = code;
          ic_stats = stats;
          ic_rule_stamp = t.rules_version;
          ic_start = start;
          ic_finish = finish;
          ic_instrs_at_start = Interp.instructions_executed t.vm;
          ic_seq = seq;
        }
      in
      (* Sorted insert by (finish, seq): the install poll pops from the
         head, and with one FIFO compiler this degenerates to the plain
         append of the serial model. *)
      let before, after =
        List.partition
          (fun o ->
            o.ic_finish < ic.ic_finish
            || (o.ic_finish = ic.ic_finish && o.ic_seq < ic.ic_seq))
          t.in_flight
      in
      t.in_flight <- before @ (ic :: after))
    (policy_order t (List.rev !jobs))

let poll_async_installs t =
  let now = Interp.cycles t.vm in
  let rec go () =
    match t.in_flight with
    | ic :: rest when ic.ic_finish <= now ->
        t.in_flight <- rest;
        t.async_installs <- t.async_installs + 1;
        Acsi_obs.Tracer.instant (tracer t)
          ~track:(Accounting.component_name Accounting.Compilation)
          ~name:"install-async" ~t:now
          ~args:
            [
              ( "method",
                (Program.meth t.program ic.ic_meth).Meth.name );
              ("finished_at", string_of_int ic.ic_finish);
            ]
          ();
        t.overlap_instructions <-
          t.overlap_instructions
          + (Interp.instructions_executed t.vm - ic.ic_instrs_at_start);
        install_compiled t ic.ic_meth ic.ic_code ic.ic_stats
          ~rule_stamp:ic.ic_rule_stamp;
        go ()
    | _ -> ()
  in
  go ()

(* Cross-shard adoption: install optimized code that was compiled (and
   published) by another shard's AOS. The adopter pays no compile cycles
   — that is the point of the publish-once code cache — but the install
   goes through the same [install] path, and its [Jit_check], as local
   installs. When the publisher also shipped its closure-tier code
   ([native]), the closures are reused directly: they are VM-independent
   (runtime state flows through the frame they run), so re-compiling
   them per shard would be pure waste. *)
let adopt_compiled t (mid : Ids.Method_id.t) code stats ~rule_stamp ~native =
  if code.Acsi_vm.Code.assumptions <> [] then
    invalid_arg
      "System.adopt_compiled: speculative code is shard-local (its CHA \
       assumptions hold against the publisher's loaded universe, not ours)";
  if (not t.refused.((mid :> int))) && install t mid code ~native then begin
    Registry.record t.registry mid stats ~rule_stamp;
    t.adopted_installs <- t.adopted_installs + 1
  end

let run_epoch t =
  t.epochs <- t.epochs + 1;
  method_organizer t;
  dcg_organizer t;
  if t.epochs mod t.cfg.ai_period = 0 then ai_organizer t;
  if t.epochs mod t.cfg.decay_period = 0 then decay_organizer t;
  controller t;
  if t.cfg.async_compile then start_async_compiles t else compilation_thread t

(* --- listeners (VM hooks) --- *)

let take_trace_sample t vm =
  match Trace_listener.sample t.listener vm with
  | Some (trace, walked) ->
      charge ~ev:"trace-sample" t Accounting.Listeners
        (walked * t.cost.Cost.trace_sample_frame);
      t.trace_buffer <- trace :: t.trace_buffer;
      t.trace_buffer_len <- t.trace_buffer_len + 1;
      t.trace_samples <- t.trace_samples + 1
  | None -> ()

(* Timer samples per organizer epoch. *)
let organizer_period = 16

let on_timer_sample t vm =
  (* Stale speculative frames deoptimize at the first settled boundary,
     before this sample can observe (and attribute cycles to) code that
     is no longer installed. *)
  if t.cfg.speculate then drain_pending_deopt t vm;
  (* Background compilations whose finish time has passed install at this
     yield point, before any new sampling or organizer work. *)
  if t.cfg.async_compile then poll_async_installs t;
  charge ~ev:"method-sample" t Accounting.Listeners t.cost.Cost.method_sample;
  if t.cfg.trace_on_timer then take_trace_sample t vm;
  (* CCT profile: attribute this sample's period to the full source-level
     calling context. Pure observation — walks the stack but charges
     nothing, so enabling it never moves the clock. *)
  (match t.obs.Acsi_obs.Control.cprof with
  | Some cp ->
      let rev = ref [] in
      Interp.walk_source_stack vm ~f:(fun mid pc ->
          rev := (mid, pc) :: !rev;
          true);
      Acsi_obs.Cprof.add_sample cp ~stack:(List.rev !rev)
        ~weight:(Interp.sample_period vm)
  | None -> ());
  (* The method listener records the currently executing (source) method. *)
  let current = ref None in
  Interp.walk_source_stack vm ~f:(fun mid _pc ->
      current := Some mid;
      false);
  (match !current with
  | Some mid ->
      t.method_buffer <- mid :: t.method_buffer;
      t.method_buffer_len <- t.method_buffer_len + 1;
      t.method_samples <- t.method_samples + 1
  | None -> ());
  t.samples_in_epoch <- t.samples_in_epoch + 1;
  if t.samples_in_epoch >= organizer_period then begin
    t.samples_in_epoch <- 0;
    run_epoch t
  end

let on_invoke t vm _callee =
  if not t.cfg.trace_on_timer then take_trace_sample t vm

let on_first_execution t mid =
  let m = Program.meth t.program mid in
  let units = Meth.size_units m in
  charge ~ev:"baseline-compile" t Accounting.Compilation
    (t.cost.Cost.baseline_compile_fixed
    + (units * t.cost.Cost.baseline_compile_unit));
  t.baseline_methods <- t.baseline_methods + 1;
  t.baseline_bytes <-
    t.baseline_bytes + (units * t.cost.Cost.baseline_bytes_per_unit);
  (* Lazy baseline compilation also targets the closure tier. The tier
     compiler's own verification pass ([Verify.entry_depths]) raises on
     anything the full verifier would reject, so an unverifiable body
     falls back to the interpreter and fails dynamically exactly as
     before. The hook fires before the frame is pushed, so even the
     first invocation runs on the closures. *)
  ignore (install t mid (Interp.code_of t.vm mid) ~native:None);
  (* The static pre-warm oracle replaces the just-installed baseline code
     with summary-driven optimized code before the first frame is even
     pushed — the hook fires ahead of the push, so the very first
     invocation runs the seeded code. *)
  if t.cfg.static_seed then static_seed_install t mid

let create ?profile cfg vm =
  let program = Interp.program vm in
  let flags = Flags.create () in
  let dcg = match profile with Some d -> d | None -> Dcg.create () in
  let oracle = Acsi_jit.Oracle.create ~config:cfg.oracle_config program in
  let obs =
    Acsi_obs.Control.create cfg.obs
      ~probe:(Interp.cost vm).Cost.probe
      ~charge:(fun c -> Interp.charge vm c)
      ~now:(fun () -> Interp.cycles vm)
  in
  let t =
    {
      cfg;
      vm;
      program;
      cost = Interp.cost vm;
      accounting = Accounting.create ();
      db = Db.create ();
      dcg;
      registry = Registry.create program;
      hot_methods = Hot_methods.create program;
      flags;
      oracle;
      listener =
        Trace_listener.create
          ~collect_termination_stats:cfg.collect_termination_stats program
          ~policy:cfg.policy ~flags;
      (* Summaries model class-load-time analysis performed before the
         measured run starts (like verification, host-side work); the
         compiles they trigger ARE charged, at seed time. *)
      summaries =
        (if cfg.static_seed || cfg.speculate then
           Some (Acsi_analysis.Summary.analyze program)
         else None);
      static_compiling = false;
      static_seeds = 0;
      deopt_tables = Hashtbl.create 16;
      pending_deopt = [];
      guard_fails = Array.make (Program.method_count program) [||];
      preexist_cache = Hashtbl.create 16;
      install_facts = Acsi_analysis.Jit_check.facts program;
      speculative_installs = 0;
      rules = Rules.empty ();
      rules_version = 0;
      method_buffer = [];
      method_buffer_len = 0;
      trace_buffer = [];
      trace_buffer_len = 0;
      compile_queue = Queue.create ();
      pending = Array.make (Program.method_count program) false;
      refused = Array.make (Program.method_count program) false;
      in_flight = [];
      in_flight_seq = 0;
      compilers = Array.make (max 1 cfg.compiler_pool) 0;
      async_installs = 0;
      adopted_installs = 0;
      max_queue_depth = 0;
      overlap_instructions = 0;
      overlapped_aos_cycles = 0;
      obs;
      tel_compile_wait = Acsi_obs.Hist.create ();
      tel_deopt_gap = Acsi_obs.Hist.create ();
      last_deopt = Hashtbl.create 16;
      tel_events_on = false;
      tel_events = [];
      baseline_methods = 0;
      baseline_bytes = 0;
      method_samples = 0;
      trace_samples = 0;
      samples_in_epoch = 0;
      epochs = 0;
    }
  in
  Acsi_jit.Oracle.set_on_refusal oracle (fun ~site ~callee reason ->
      let e0 = site.(0) in
      Db.record_refusal t.db ~caller:e0.Trace.caller
        ~callsite:e0.Trace.callsite ~callee ~stamp:t.rules_version reason);
  (match obs.Acsi_obs.Control.prov with
  | Some prov ->
      Acsi_jit.Oracle.set_on_decision oracle (fun info ->
          let source =
            if info.Acsi_obs.Provenance.i_speculative then
              Acsi_obs.Provenance.Speculative
            else if t.static_compiling then Acsi_obs.Provenance.Static
            else Acsi_obs.Provenance.Sampled
          in
          Acsi_obs.Provenance.add ~source prov info)
  | None -> ());
  if cfg.speculate then begin
    Acsi_jit.Oracle.set_speculation oracle
      (Some
         {
           Acsi_jit.Oracle.spec_mono = (fun sel -> loaded_mono t sel);
           spec_preexists =
             (fun root pc ->
               let a = preexist_pcs t root in
               pc >= 0 && pc < Array.length a && a.(pc));
         });
    Interp.set_on_class_load vm (fun _vm cid -> on_class_load t cid);
    Interp.set_on_guard_miss vm (fun _vm mid pc -> on_guard_miss t mid pc)
  end;
  Interp.set_on_first_execution vm (on_first_execution t);
  Interp.set_on_timer_sample vm (on_timer_sample t);
  Interp.set_on_invoke vm (on_invoke t);
  t
