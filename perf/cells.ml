(* The four workloads as lists of cells, and how one cell runs and is
   checked.

   A cell is one call into a library entry point: [Runtime.run] (sweep,
   diagnose), [Server.run] (warmup) or [Shards.run] (fleet). Each
   program is built once per run and shared by its cells, as the bench
   harness shares it across policies, so the tier's process-global
   baseline-compile cache holds every program of a workload from the
   reference run on. Every cell's output is checked against
   [Runtime.run_no_aos] — baseline execution with no adaptive system, an
   independent path through the VM — computed before any timing. *)

open Acsi_core
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Server = Acsi_server.Server
module Shards = Acsi_server.Shards

type kind =
  | Batch of { cfg : Config.t; group : string; policy : Policy.t }
  | Serve of { cfg : Config.t; clients : int; per_client : int; think : int }
  | Fleet of {
      cfg : Config.t;
      shards : int;
      sessions : int;
      period : int;
      jobs : int;
    }

type cell = { key : string; prog : string; scale : int; kind : kind }

(* --- workload definitions ------------------------------------------- *)

type size = Full | Smoke

let workload_names = [ "sweep"; "warmup"; "fleet"; "diagnose" ]

let default_scale prog = (Workloads.find prog).Workloads.default_scale

(* The paper sweep: every suite program under the context-insensitive
   baseline and each of the 24 policies of Figures 4-6. *)
let sweep size =
  let progs, policies, scale =
    match size with
    | Full ->
        ( List.map (fun s -> s.Workloads.name) Workloads.all,
          Policy.Context_insensitive :: Policy.paper_sweep,
          default_scale )
    | Smoke ->
        ([ "db"; "jack" ], Policy.[ Context_insensitive; Fixed 3 ], fun _ -> 4)
  in
  List.concat_map
    (fun prog ->
      List.map
        (fun policy ->
          {
            key = prog ^ "/" ^ Policy.to_string policy;
            prog;
            scale = scale prog;
            kind = Batch { cfg = Config.default ~policy; group = ""; policy };
          })
        policies)
    progs

(* Closed-loop serving of tiny requests, reactive and statically seeded.
   jess and jbb are left out: their concurrent requests interleave their
   output (jbb's only when seeded), so no reference can check it. *)
let warmup size =
  let progs, per_client =
    match size with
    | Full ->
        ( [ "db"; "compress"; "jack"; "javac"; "mtrt"; "mpeg"; "richards";
            "dispatch"; "session" ],
          16 )
    | Smoke -> ([ "db"; "session" ], 3)
  in
  List.concat_map
    (fun prog ->
      List.map
        (fun seeded ->
          let cfg = Config.default ~policy:(Policy.Fixed 3) in
          let cfg =
            { cfg with Config.aos = { cfg.Config.aos with System.static_seed = seeded } }
          in
          {
            key = (prog ^ if seeded then "/static" else "/reactive");
            prog;
            scale = 1;
            kind = Serve { cfg; clients = 4; per_client; think = 50_000 };
          })
        [ false; true ])
    progs

let fleet_cell ~sessions ~jobs =
  {
    key = Printf.sprintf "session/4-shards/%d" sessions;
    prog = "session";
    scale = 1;
    kind =
      Fleet
        {
          cfg = Config.default ~policy:(Policy.Fixed 3);
          shards = 4;
          sessions;
          period = 450;
          jobs;
        };
  }

(* Measured on one host domain: with two, the other core's load from
   outside the benchmark moved throughput by up to 20% between runs,
   which no probe on the main domain can see. The traced run re-runs the
   fleet on [parallel_jobs] domains for the parallel speed-up and to
   check that the domains change no virtual number. *)
let parallel_jobs () = min 2 (Parallel.available_cores ())

let fleet size =
  let sessions = match size with Full -> 500_000 | Smoke -> 4_000 in
  [ fleet_cell ~sessions ~jobs:1 ]

(* The investigation configuration: speculation with OSR, tracer +
   provenance + CCT on, every policy family. The depth bound rotates
   over 2..5 by program so all depths are covered without the seed
   changing any virtual number. *)
let diagnose_obs =
  {
    Acsi_obs.Control.trace = true;
    provenance = true;
    cprof = true;
    capacity = 1 lsl 20;
    probe_on_clock = false;
  }

let diagnose ?(obs = diagnose_obs) size =
  let progs, scale =
    match size with
    | Full ->
        ([ "javac"; "jack"; "jbb"; "dispatch"; "richards"; "db" ], default_scale)
    | Smoke -> ([ "dispatch"; "db" ], fun _ -> 4)
  in
  List.concat
    (List.mapi
       (fun i prog ->
         let d = 2 + (i mod 4) in
         let policies =
           match size with
           | Full ->
               Policy.
                 [
                   Context_insensitive; Fixed d; Parameterless d;
                   Class_methods d; Large_methods d; Hybrid_param_class d;
                   Hybrid_param_large d; Adaptive_resolving d;
                 ]
           | Smoke -> Policy.[ Context_insensitive; Adaptive_resolving d ]
         in
         List.concat_map
           (fun seeded ->
             let group = if seeded then "spec+static" else "spec" in
             List.map
               (fun policy ->
                 let cfg = Config.default ~policy in
                 let aos =
                   {
                     cfg.Config.aos with
                     System.speculate = true;
                     enable_osr = true;
                     static_seed = seeded;
                     obs;
                   }
                 in
                 {
                   key = prog ^ "/" ^ group ^ "/" ^ Policy.to_string policy;
                   prog;
                   scale = scale prog;
                   kind = Batch { cfg = { cfg with Config.aos }; group; policy };
                 })
               policies)
           [ false; true ])
       progs)

let cells ~size = function
  | "sweep" -> sweep size
  | "warmup" -> warmup size
  | "fleet" -> fleet size
  | "diagnose" -> diagnose size
  | w -> invalid_arg ("unknown workload " ^ w)

(* The seed only orders the cells. Every virtual input is fixed, so the
   virtual metrics are the same for every seed; host time varies with
   the heap state each cell inherits. *)
let shuffle ~seed cells =
  let a = Array.of_list cells in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* --- references -------------------------------------------------------- *)

type reference = {
  r_program : Acsi_bytecode.Program.t;  (** shared by the cells *)
  r_out : int list;
  r_sum : int;
  r_cycles : int;
}

let build c = (Workloads.find c.prog).Workloads.build ~scale:c.scale

(* One reference per (program, scale), keyed so. *)
let references cells =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem tbl (c.prog, c.scale)) then begin
        let program = build c in
        let vm =
          Runtime.run_no_aos
            (Config.default ~policy:Policy.Context_insensitive)
            program
        in
        let out = Interp.output vm in
        Hashtbl.replace tbl (c.prog, c.scale)
          {
            r_program = program;
            r_out = out;
            r_sum = Metrics.checksum out;
            r_cycles = Interp.cycles vm;
          }
      end)
    cells;
  tbl

(* [Metrics.checksum] of [n] back-to-back copies of [out], without
   materializing them. *)
let repeated_checksum out n =
  let acc = ref 0 in
  for _ = 1 to n do
    acc := List.fold_left (fun acc v -> (acc * 31) + v + 17) !acc out
  done;
  !acc land max_int

(* --- outcomes -------------------------------------------------------------- *)

(* Request or session latency over the reference's single-run cycles.
   Batch cells contribute one sample each (their whole run); the fleet
   only exposes its exact summary percentiles. *)
type slowdown = Samples of float array | Quantiles of float * float

type outcome = {
  ops : int;  (** operations attempted: runs, requests or sessions *)
  failed : int;
  cycles : int;  (** virtual cycles: total, or the fleet's makespan *)
  clock : int;  (** virtual clock the AOS share is taken over *)
  aos : int;  (** cycles charged to the AOS components *)
  compiles : int;  (** optimizing compilations *)
  checksum : int;
  slow : slowdown;
  stats : (string * float) list;  (** per-layer counters *)
}

let failed_outcome ~ops =
  {
    ops;
    failed = ops;
    cycles = 0;
    clock = 0;
    aos = 0;
    compiles = 0;
    checksum = 0;
    slow = Samples [||];
    stats = [];
  }

let planned_ops c =
  match c.kind with
  | Batch _ -> 1
  | Serve { clients; per_client; _ } -> clients * per_client
  | Fleet { sessions; _ } -> sessions

let fi = float_of_int

(* Figure 6's components, virtual Mcycles each. *)
let component_stats comps =
  List.map
    (fun (c, cyc) ->
      ( (match (c : Acsi_aos.Accounting.component) with
        | Listeners -> "aos.listeners_mcycles"
        | Compilation -> "aos.compilation_mcycles"
        | Decay_organizer -> "aos.decay_organizer_mcycles"
        | Ai_organizer -> "aos.ai_organizer_mcycles"
        | Method_organizer -> "aos.method_organizer_mcycles"
        | Controller -> "aos.controller_mcycles"),
        fi cyc /. 1e6 ))
    comps

let bytecodes program = fi (Acsi_bytecode.Program.total_bytecodes program)

let batch_outcome (r : reference) vm sys (m : Metrics.t) =
  let tracer = System.tracer sys in
  {
    ops = 1;
    failed = (if m.Metrics.output_checksum = r.r_sum then 0 else 1);
    cycles = m.Metrics.total_cycles;
    clock = m.Metrics.total_cycles;
    aos = m.Metrics.aos_cycles;
    compiles = m.Metrics.opt_compilations;
    checksum = m.Metrics.output_checksum;
    slow = Samples [| fi m.Metrics.total_cycles /. fi r.r_cycles |];
    stats =
      [
        ("lang.bytecodes", bytecodes (Interp.program vm));
        ("vm.app_cycles", fi m.Metrics.app_cycles);
        ("vm.instructions", fi m.Metrics.instructions);
        ("vm.calls", fi m.Metrics.calls);
        ("aos.samples", fi m.Metrics.method_samples);
        ("aos.trace_samples", fi m.Metrics.trace_samples);
        ("aos.epochs", fi (System.epochs_run sys));
        ("aos.opt_compilations", fi m.Metrics.opt_compilations);
        ("aos.refusals", fi m.Metrics.refusals);
        ("aos.dcg_size", fi m.Metrics.dcg_size);
        ("aos.rules", fi m.Metrics.rule_count);
        ("aos.opt_code_kb", fi m.Metrics.opt_code_bytes /. 1024.0);
        ("aos.compile_mcycles", fi m.Metrics.opt_compile_cycles /. 1e6);
        ("deopt.osr_up", fi m.Metrics.osr_up);
        ("deopt.osr_down", fi m.Metrics.osr_down);
        ("deopt.guard_storms", fi m.Metrics.deopt_guard);
        ("deopt.invalidations", fi m.Metrics.deopt_invalidate);
        ("deopt.guard_checks", fi (m.Metrics.guard_hits + m.Metrics.guard_misses));
        ("deopt.speculative_installs", fi (System.speculative_installs sys));
        ("obs.trace_events", fi (Acsi_obs.Tracer.length tracer));
        ("obs.trace_dropped", fi (Acsi_obs.Tracer.dropped tracer));
        ( "obs.provenance_decisions",
          match System.provenance sys with
          | Some p -> fi (Acsi_obs.Provenance.count p)
          | None -> 0.0 );
      ]
      @ component_stats m.Metrics.component_cycles;
  }

let serve_outcome (r : reference) c program (res : Server.result) =
  let s = res.Server.summary in
  let planned = planned_ops c in
  let served = List.length res.Server.requests in
  let ok = s.Server.sv_output_checksum = repeated_checksum r.r_out served in
  (* The warmup windows' activity diffs cover the whole run. *)
  let act f =
    List.fold_left (fun a (w : Server.window) -> a + f w.Server.w_activity) 0
      res.Server.windows
  in
  {
    ops = planned;
    failed = (planned - served) + if ok then 0 else served;
    cycles = s.Server.sv_total_cycles;
    clock = s.Server.sv_total_cycles;
    aos = act (fun d -> d.Metrics.s_aos_cycles);
    compiles = s.Server.sv_opt_compilations;
    checksum = s.Server.sv_output_checksum;
    slow =
      Samples
        (Array.of_list
           (List.map
              (fun (q : Server.request) -> fi q.Server.r_latency /. fi r.r_cycles)
              res.Server.requests));
    stats =
      [
        ("lang.bytecodes", bytecodes program);
        ("vm.instructions", fi (act (fun d -> d.Metrics.s_instructions)));
        ("vm.calls", fi (act (fun d -> d.Metrics.s_calls)));
        ("aos.samples", fi (act (fun d -> d.Metrics.s_method_samples)));
        ("aos.trace_samples", fi (act (fun d -> d.Metrics.s_trace_samples)));
        ("aos.opt_compilations", fi s.Server.sv_opt_compilations);
        ("deopt.osr_up", fi s.Server.sv_osr);
        ("server.requests", fi served);
        ("server.slices", fi s.Server.sv_slices);
        ("server.switches", fi s.Server.sv_switches);
        ("server.async_installs", fi s.Server.sv_async_installs);
        ("server.max_queue_depth", fi s.Server.sv_max_queue_depth);
        ("server.overlap_instructions", fi s.Server.sv_overlap_instructions);
        ("server.warmup_requests", fi s.Server.sv_warmup_requests);
      ];
  }

let fleet_outcome (r : reference) c program (res : Shards.result) =
  let s = res.Shards.summary in
  let planned = planned_ops c in
  let served =
    List.fold_left (fun a h -> a + h.Shards.h_served) 0 res.Shards.shard_stats
  in
  let expected =
    List.fold_left
      (fun acc h -> (acc * 31) + repeated_checksum r.r_out h.Shards.h_served + 17)
      0 res.Shards.shard_stats
    land max_int
  in
  let tel = res.Shards.telemetry in
  let conserved = Shards.flows_conserved tel in
  let ok = s.Shards.sh_output_checksum = expected && conserved in
  let sum f = List.fold_left (fun a sys -> a + f sys) 0 res.Shards.systems in
  let registry f = sum (fun sys -> f (System.registry sys)) in
  let comps =
    List.map
      (fun comp ->
        ( comp,
          sum (fun sys -> Acsi_aos.Accounting.get (System.accounting sys) comp) ))
      Acsi_aos.Accounting.all_components
  in
  let compiles =
    List.fold_left (fun a h -> a + h.Shards.h_opt_compilations) 0 res.Shards.shard_stats
  in
  {
    ops = planned;
    failed = (planned - served) + if ok then 0 else served;
    cycles = s.Shards.sh_makespan;
    clock = s.Shards.sh_sum_cycles;
    aos = sum (fun sys -> Acsi_aos.Accounting.total (System.accounting sys));
    compiles;
    checksum = s.Shards.sh_output_checksum;
    slow =
      Quantiles
        (fi s.Shards.sh_p50 /. fi r.r_cycles, fi s.Shards.sh_p99 /. fi r.r_cycles);
    stats =
      [
        ("lang.bytecodes", bytecodes program);
        ("aos.samples", fi (sum System.method_samples_taken));
        ("aos.trace_samples", fi (sum System.trace_samples_taken));
        ("aos.epochs", fi (sum System.epochs_run));
        ("aos.opt_compilations", fi compiles);
        ("aos.refusals", fi (sum (fun sys -> Acsi_aos.Db.refusal_count (System.db sys))));
        ("aos.dcg_size", fi s.Shards.sh_merged_dcg_size);
        ("aos.rules", fi (sum (fun sys -> Acsi_profile.Rules.rule_count (System.rules sys))));
        ("aos.opt_code_kb", fi (registry Acsi_aos.Registry.cumulative_bytes) /. 1024.0);
        ( "aos.compile_mcycles",
          fi (registry Acsi_aos.Registry.cumulative_compile_cycles) /. 1e6 );
        ("server.requests", fi served);
        ("shards.rounds", fi s.Shards.sh_rounds);
        ("shards.steals", fi s.Shards.sh_steals);
        ("shards.published", fi s.Shards.sh_published);
        ("shards.adopted", fi s.Shards.sh_adopted);
        ("shards.fairness", s.Shards.sh_fairness);
        ( "shards.compile_wait_p99",
          fi (Acsi_obs.Hist.quantile tel.Shards.tel_compile_wait 99.0) );
        ("shards.flows_conserved", if conserved then 1.0 else 0.0);
      ]
      @ component_stats comps;
  }

(* The virtual part of an outcome: equal across passes, seeds, tracing
   and host parallelism, or the benchmark reports itself incorrect. *)
let fingerprint o = (o.failed, o.cycles, o.clock, o.aos, o.compiles, o.checksum)

(* --- running a cell -------------------------------------------------------- *)

let serve_mode = function
  | Serve { clients; per_client; think; _ } ->
      Server.Closed { clients; requests_per_client = per_client; think }
  | Batch _ | Fleet _ -> invalid_arg "serve_mode"

let run_fleet c program =
  match c.kind with
  | Fleet { cfg; shards; sessions; period; jobs } ->
      Shards.run ~seed:7 ~jobs ~pool:2 ~pool_policy:System.Hot_first ~shards
        ~sessions ~period ~name:c.prog cfg program
  | Batch _ | Serve _ -> invalid_arg "run_fleet"

(* The untraced path: the libraries' own entry points, nothing
   interposed. Returns the cell's output check, for the caller to run
   once the cell's time is taken. *)
let run_plain (r : reference) c =
  let program = r.r_program in
  match c.kind with
  | Batch { cfg; _ } ->
      let res = Runtime.run cfg program in
      fun () -> batch_outcome r res.Runtime.vm res.Runtime.sys res.Runtime.metrics
  | Serve { cfg; _ } ->
      let res = Server.run ~mode:(serve_mode c.kind) ~name:c.prog cfg program in
      fun () -> serve_outcome r c program res
  | Fleet _ ->
      let res = run_fleet c program in
      fun () -> fleet_outcome r c program res

(* The traced path: [Runtime.run] taken apart into its public steps so
   each one, and each hook the AOS installs, is timed as its own layer.
   Batch cells also hand back the VM and system for the compile replay
   and the tier calibration. *)
let run_traced (r : reference) c =
  let program = r.r_program in
  match c.kind with
  | Batch { cfg; _ } ->
      let vm =
        Layers.within Layers.Vm_create (fun () ->
            Interp.create ~cost:cfg.Config.cost
              ~sample_period:cfg.Config.sample_period
              ~invoke_stride:cfg.Config.invoke_stride program)
      in
      Interp.set_calibrate vm true;
      let sys =
        Layers.within Layers.Aos_create (fun () -> System.create cfg.Config.aos vm)
      in
      Layers.wrap_hooks vm;
      Layers.within Layers.Vm (fun () ->
          Interp.run ~cycle_limit:cfg.Config.cycle_limit vm);
      let m = Layers.within Layers.Core_metrics (fun () -> Metrics.of_run vm sys) in
      ((fun () -> batch_outcome r vm sys m), Some (vm, sys))
  | Serve { cfg; _ } ->
      let res =
        Layers.within Layers.Server (fun () ->
            Server.run ~mode:(serve_mode c.kind) ~name:c.prog cfg program)
      in
      ((fun () -> serve_outcome r c program res), None)
  | Fleet _ ->
      let res = Layers.within Layers.Shards (fun () -> run_fleet c program) in
      ((fun () -> fleet_outcome r c program res), None)

(* What each cell would set up from source before executing anything:
   the program, its VM and its adaptive system — one pair per shard for
   the fleet. Returns the nanoseconds the build took. *)
let setup c =
  let t0 = Layers.now_ns () in
  let program = build c in
  let build_ns = Layers.now_ns () - t0 in
  let create cfg aos =
    let vm =
      Interp.create ~cost:cfg.Config.cost ~sample_period:cfg.Config.sample_period
        ~invoke_stride:cfg.Config.invoke_stride program
    in
    ignore (Sys.opaque_identity (System.create aos vm))
  in
  (match c.kind with
  | Batch { cfg; _ } -> create cfg cfg.Config.aos
  | Serve { cfg; _ } -> create cfg { cfg.Config.aos with System.async_compile = true }
  | Fleet { cfg; shards; _ } ->
      for _ = 1 to shards do
        create cfg
          {
            cfg.Config.aos with
            System.async_compile = true;
            compiler_pool = 2;
            compile_queue_policy = System.Hot_first;
          }
      done);
  build_ns

(* Recompile every optimized root of a finished batch cell through the
   public compile pipeline — oracle + expander, the JIT-output checker,
   the closure tier — against the cell's final rules, timing each stage.
   Returns the number of roots replayed. *)
let replay vm sys =
  let program = Interp.program vm in
  let aos = System.config sys in
  let cost = Interp.cost vm in
  let n = ref 0 in
  let oracle =
    Layers.within Layers.Jit_expand (fun () ->
        let o = Acsi_jit.Oracle.create ~config:aos.System.oracle_config program in
        Acsi_jit.Oracle.set_rules o (System.rules sys);
        o)
  in
  Acsi_aos.Registry.iter (System.registry sys) ~f:(fun mid _ ->
      incr n;
      let code =
        Layers.within Layers.Jit_expand (fun () ->
            fst
              (Acsi_jit.Expand.compile program cost oracle
                 ~root:(Acsi_bytecode.Program.meth program mid)))
      in
      ignore
        (Layers.within Layers.Jit_check (fun () ->
             Acsi_analysis.Jit_check.check program code));
      ignore (Layers.within Layers.Tier_compile (fun () -> Acsi_vm.Tier.compile vm code)));
  if aos.System.static_seed || aos.System.speculate then
    ignore
      (Layers.within Layers.Summary (fun () -> Acsi_analysis.Summary.analyze program));
  !n
