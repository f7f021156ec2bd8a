(* Command-line driver: run one benchmark under one context-sensitivity
   policy and print the run's metrics, optionally with the compilation log
   and the baseline comparison the paper's figures are built from. *)

open Acsi_core
module Cli = Acsi_cli.Cli
module Workloads = Acsi_workloads.Workloads

let list_benchmarks () =
  Format.printf "@[<v>Available benchmarks:@,";
  List.iter
    (fun (s : Acsi_workloads.Workloads.spec) ->
      Format.printf "  %-10s %s (default scale %d)@,"
        s.Acsi_workloads.Workloads.name s.description s.default_scale)
    Acsi_workloads.Workloads.all;
  Format.printf "@]%!";
  0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Read and compile a .acsi program. A malformed program is one
   [path: message] diagnostic, never an uncaught exception. *)
let load_acsi path =
  match Acsi_lang.Parser.compile (read_file path) with
  | program -> Ok program
  | exception
      ( Acsi_lang.Lexer.Error msg
      | Acsi_lang.Parser.Error msg
      | Acsi_lang.Compile.Error msg
      | Acsi_bytecode.Verify.Error msg ) ->
      Error (Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> Error msg

(* A trap or the cycle limit ends the run with one diagnostic and exit 1;
   the limit bounds the whole run, so there is nothing to resume. So does
   an output file that cannot be written: one [path: message] line. *)
let reporting_errors f =
  match f () with
  | code -> code
  | exception Acsi_vm.Interp.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      1
  | exception Acsi_vm.Interp.Cycle_limit_exceeded ->
      Format.eprintf "runtime error: cycle limit exceeded@.";
      1
  | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      1

(* Print the installed code of every method whose (unmangled) name
   contains [pattern]: the post-run view of what the JIT produced. *)
let disassemble program vm pattern =
  Array.iter
    (fun (m : Acsi_bytecode.Meth.t) ->
      let name = m.Acsi_bytecode.Meth.name in
      let matches =
        let n = String.length name and k = String.length pattern in
        let rec go i =
          i + k <= n
          && (String.equal (String.sub name i k) pattern || go (i + 1))
        in
        go 0
      in
      if matches then begin
        let code = Acsi_vm.Interp.code_of vm m.Acsi_bytecode.Meth.id in
        Format.printf "@.%a@." Acsi_vm.Code.pp code
      end)
    (Acsi_bytecode.Program.methods program)

(* Structural + typed verification of a whole program, with diagnostics
   in the [method:pc: message] format. Returns whether it passed. *)
let verify_program program =
  match
    Acsi_bytecode.Verify.program program;
    Acsi_analysis.Typecheck.program program
  with
  | () -> true
  | exception Acsi_bytecode.Verify.Error msg ->
      Format.eprintf "%s@." msg;
      false
  | exception Acsi_analysis.Diag.Error d ->
      Format.eprintf "%s@." (Acsi_analysis.Diag.to_string d);
      false

(* Load the program a subcommand should run: a textual mini-language
   file when given, a built-in benchmark otherwise. Returns a
   human-readable label along with the program; a malformed file is one
   diagnostic and exit 1. *)
let load_program ~(spec : Workloads.spec) ~file ~scale =
  match file with
  | Some path -> (
      match load_acsi path with
      | Error msg ->
          Format.eprintf "%s@." msg;
          Error 1
      | Ok program -> Ok (path, program))
  | None ->
      let scale = Cli.scale_for spec scale in
      Ok
        ( Printf.sprintf "%s at scale %d" spec.Workloads.name scale,
          spec.Workloads.build ~scale )

let run_one ~spec ~file ~cfg ~scale ~compare_baseline ~show_compilations
    ~disasm ~jobs ~verify =
  match load_program ~spec ~file ~scale with
  | Error code -> code
  | Ok (label, program) ->
      (* Typed verification before execution: on by default for the
         textual-language pipeline, opt-in for built-in benchmarks. *)
      let verify_on =
        match verify with Some b -> b | None -> Option.is_some file
      in
      if verify_on && not (verify_program program) then 1
      else
        (* With --jobs > 1 the baseline of --compare runs on a second
           domain concurrently with the measured run; both runs are
           deterministic, so the printed numbers do not depend on it. *)
        let baseline_cfg =
          Config.with_policy cfg Acsi_policy.Policy.Context_insensitive
        in
        let result, baseline_result =
          if compare_baseline && jobs > 1 then
            match
              Parallel.map ~jobs
                (fun cfg -> Runtime.run cfg program)
                [ cfg; baseline_cfg ]
            with
            | [ r; b ] -> (r, Some b)
            | _ -> assert false
          else (Runtime.run cfg program, None)
        in
        Format.printf "%s:@.%a@." label Metrics.pp result.Runtime.metrics;
        if show_compilations then begin
          Format.printf "@.Compilation log:@.";
          List.iter
            (fun (e : Acsi_aos.Db.compilation_event) ->
              let m =
                Acsi_bytecode.Program.meth program e.Acsi_aos.Db.ce_method
              in
              Format.printf
                "  %-22s v%d %4d units %5d bytes %7d cycles %2d inlines %d \
                 guards@."
                m.Acsi_bytecode.Meth.name e.Acsi_aos.Db.ce_version
                e.Acsi_aos.Db.ce_units e.Acsi_aos.Db.ce_bytes
                e.Acsi_aos.Db.ce_cycles e.Acsi_aos.Db.ce_inlines
                e.Acsi_aos.Db.ce_guards)
            (Acsi_aos.Db.compilations (Acsi_aos.System.db result.Runtime.sys))
        end;
        (match disasm with
        | Some pattern -> disassemble program result.Runtime.vm pattern
        | None -> ());
        (if compare_baseline then
           let base =
             match baseline_result with
             | Some base -> base
             | None -> Runtime.run baseline_cfg program
           in
           let bm = base.Runtime.metrics in
           let m = result.Runtime.metrics in
           Format.printf
             "@.vs context-insensitive baseline:@.  speedup %+.2f%%  code \
              size %+.2f%%  compile time %+.2f%%@."
             (Metrics.speedup_pct ~baseline:bm m)
             (Metrics.code_size_change_pct ~baseline:bm m)
             (Metrics.compile_time_change_pct ~baseline:bm m));
        0

open Cmdliner

let bench_arg = Cli.bench_arg ~default:"db" "Benchmark name."

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List benchmarks and exit.")

let compare_arg =
  Arg.(
    value & flag
    & info [ "compare" ]
        ~doc:"Also run the context-insensitive baseline and print deltas.")

let compilations_arg =
  Arg.(
    value & flag
    & info [ "compilations" ] ~doc:"Print the optimizing-compilation log.")

let disasm_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "disasm" ]
        ~doc:
          "After the run, disassemble the installed code of methods whose \
           name contains the given substring.")

let jobs_arg =
  Cli.jobs_arg ~default:1
    "Domains to use; with --compare, 2+ runs the baseline concurrently with \
     the measured run."

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ]
        ~doc:
          "Run a textual mini-language program (.acsi) instead of a named \
           benchmark.")

let verify_flag =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "verify" ]
              ~doc:
                "Run structural and typed verification over the whole \
                 program before executing (default for --file)." );
          ( Some false,
            info [ "no-verify" ] ~doc:"Skip pre-run typed verification." );
        ])

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let main list_only verbose spec file scale compare_baseline show_compilations
    disasm jobs verify cfg =
  setup_logs verbose;
  if list_only then list_benchmarks ()
  else
    reporting_errors (fun () ->
        run_one ~spec ~file ~cfg ~scale ~compare_baseline ~show_compilations
          ~disasm ~jobs ~verify)

(* --- trace / explain: the observability subcommands (lib/obs) --- *)

(* "Cls.name" display names for trace/explain output. *)
let qualified_name program mid =
  let m = Acsi_bytecode.Program.meth program mid in
  let c = Acsi_bytecode.Program.clazz program m.Acsi_bytecode.Meth.owner in
  c.Acsi_bytecode.Clazz.name ^ "." ^ m.Acsi_bytecode.Meth.name

let policy_name (cfg : Config.t) =
  Acsi_policy.Policy.to_string cfg.Config.aos.Acsi_aos.System.policy

let run_with_obs ~cfg ~obs program =
  Runtime.run
    { cfg with Config.aos = { cfg.Config.aos with Acsi_aos.System.obs } }
    program

let write_buffer path buf =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

(* `acsi-run trace`: run one workload with the structured tracer (and the
   CCT profiler) enabled, write a Perfetto-loadable Chrome trace-event
   file, and print the Figure-6-style per-component breakdown with its
   reconciliation check: with no ring drops, every AOS component's summed
   span durations must equal its Accounting total exactly. *)
let trace_one ~spec ~file ~cfg ~scale ~out ~jsonl ~flame ~min_pct ~capacity
    ~probe_on_clock =
  match load_program ~spec ~file ~scale with
  | Error code -> code
  | Ok (label, program) ->
      List.iter Cli.check_writable (out :: Option.to_list jsonl);
      let obs =
        {
          Acsi_obs.Control.trace = true;
          provenance = true;
          cprof = true;
          capacity;
          probe_on_clock;
        }
      in
      let result = run_with_obs ~cfg ~obs program in
      let sys = result.Runtime.sys in
      let m = result.Runtime.metrics in
      let tracer = Acsi_aos.System.tracer sys in
      let buf = Buffer.create 65536 in
      Acsi_obs.Export.to_chrome_json buf tracer;
      write_buffer out buf;
      (match jsonl with
      | None -> ()
      | Some path ->
          Buffer.clear buf;
          Acsi_obs.Export.to_jsonl buf tracer;
          write_buffer path buf);
      Format.printf "%s under %s:@." label (policy_name cfg);
      let totals = Acsi_obs.Export.track_totals tracer in
      Format.printf "@.%a@."
        (Acsi_obs.Export.pp_breakdown ~total:m.Metrics.total_cycles)
        totals;
      let inlined, refused =
        match Acsi_aos.System.provenance sys with
        | Some prov -> Acsi_obs.Provenance.outcome_counts prov
        | None -> (0, 0)
      in
      let dropped = Acsi_obs.Tracer.dropped tracer in
      Format.printf
        "@.%d events recorded (%d dropped), %d inline decisions (%d \
         inlined, %d refused)@."
        (Acsi_obs.Tracer.length tracer)
        dropped (inlined + refused) inlined refused;
      (* On-stack transfer traffic; only under --speculate (or OSR)
         is there anything to say. *)
      if m.Metrics.osr_count > 0 then
        Format.printf
          "osr: %d up / %d down (deopt: %d guard-storm, %d \
           CHA-invalidated; %d speculative installs)@."
          m.Metrics.osr_up m.Metrics.osr_down m.Metrics.deopt_guard
          m.Metrics.deopt_invalidate
          (Acsi_aos.System.speculative_installs sys);
      (* The reconciliation contract (see Acsi_obs.Tracer): only
         checkable when the ring kept every event. *)
      let mismatches =
        List.filter
          (fun (_, acct_v, span_v) -> acct_v <> span_v)
          (Acsi_aos.System.span_rows sys)
      in
      (if dropped > 0 then
         (* A wrapped ring silently undercounts spans, which could
            mask a genuine span-vs-Accounting divergence — so drops
            fail the check rather than skipping it. *)
         Format.printf
           "reconciliation: FAILED — %d events dropped, span totals \
            undercount (raise --capacity)@."
           dropped
       else if mismatches = [] then
         Format.printf
           "reconciliation: OK — every component's span total equals its \
            accounting total@."
       else
         List.iter
           (fun (nm, acct_v, span_v) ->
             Format.printf
               "reconciliation MISMATCH: %s accounting=%d spans=%d@." nm
               acct_v span_v)
           mismatches);
      (if flame then
         match Acsi_aos.System.cprof sys with
         | Some cp ->
             Format.printf "@.%a@."
               (Acsi_obs.Cprof.pp_flame
                  ~name:(qualified_name program)
                  ~min_pct)
               cp
         | None -> ());
      Format.printf "trace written to %s@." out;
      if mismatches <> [] || dropped > 0 then 1 else 0

(* `acsi-run explain [METHOD[:PC]]`: run with the oracle's decision-
   provenance sink installed and print every recorded inline decision —
   optionally restricted to call sites in one method (matched by
   unqualified or "Cls.name" qualified name), or to one call-site pc. *)
let explain_one ~spec ~file ~cfg ~scale ~query =
  match load_program ~spec ~file ~scale with
  | Error code -> code
  | Ok (label, program) -> (
      let name = qualified_name program in
      (* The queried method is resolved before the run: method names
         carry an arity suffix ("get/1"), and queries are accepted with
         or without it, qualified by class or not. *)
      let query =
        match query with
        | None -> Ok None
        | Some (meth_str, pc) -> (
            let unmangled s =
              match String.index_opt s '/' with
              | Some i -> String.sub s 0 i
              | None -> s
            in
            let callers =
              Array.to_list (Acsi_bytecode.Program.methods program)
              |> List.filter_map (fun (m : Acsi_bytecode.Meth.t) ->
                     let mid = m.Acsi_bytecode.Meth.id in
                     let forms =
                       [
                         m.Acsi_bytecode.Meth.name;
                         unmangled m.Acsi_bytecode.Meth.name;
                         name mid;
                         unmangled (name mid);
                       ]
                     in
                     if List.exists (String.equal meth_str) forms then
                       Some mid
                     else None)
            in
            match callers with
            | [] ->
                Format.eprintf
                  "no method named %S (try a \"Cls.name\" qualified name)@."
                  meth_str;
                Error 2
            | callers -> Ok (Some (callers, pc)))
      in
      match query with
      | Error code -> code
      | Ok query -> (
          let obs =
            { Acsi_obs.Control.off with Acsi_obs.Control.provenance = true }
          in
          let result = run_with_obs ~cfg ~obs program in
          match Acsi_aos.System.provenance result.Runtime.sys with
          | None ->
              Format.eprintf "internal error: provenance store missing@.";
              1
          | Some prov ->
              let decisions =
                (match query with
                | None -> Acsi_obs.Provenance.all prov
                | Some (callers, pc) ->
                    List.concat_map
                      (fun caller ->
                        Acsi_obs.Provenance.at prov ~caller ?callsite:pc ())
                      callers)
                |> List.sort (fun (a : Acsi_obs.Provenance.decision) b ->
                       compare a.Acsi_obs.Provenance.d_seq
                         b.Acsi_obs.Provenance.d_seq)
              in
              let total = Acsi_obs.Provenance.count prov in
              let inlined, refused =
                Acsi_obs.Provenance.outcome_counts prov
              in
              Format.printf "%s under %s:@.@." label (policy_name cfg);
              if decisions = [] then
                Format.printf "no recorded inline decisions match@."
              else
                List.iter
                  (fun d ->
                    Format.printf "%a@."
                      (Acsi_obs.Provenance.pp_decision ~name)
                      d)
                  decisions;
              Format.printf
                "@.%d decisions shown of %d recorded (%d inlined, %d \
                 refused)@."
                (List.length decisions) total inlined refused;
              (let sampled, static, speculative =
                 Acsi_obs.Provenance.source_counts prov
               in
               if static > 0 then
                 Format.printf
                   "%d decided by the static oracle (before any sample), \
                    %d sample-driven@."
                   static sampled;
               if speculative > 0 then
                 Format.printf
                   "%d decided speculatively (guard-free, loaded-CHA + \
                    pre-existence)@."
                   speculative);
              (* The orthogonal decision axis: what happened to each
                 code install (closure tier compiled, install refused
                 by Jit_check, or fell back to the interpreter). Only
                 shown for whole-program queries — install decisions
                 are per-method, not per-call-site. *)
              (if query = None && Acsi_obs.Provenance.tier_count prov > 0
               then begin
                 Format.printf "@.Execution-tier decisions:@.";
                 List.iter
                   (fun td ->
                     Format.printf "%a@."
                       (Acsi_obs.Provenance.pp_tier_decision ~name)
                       td)
                   (Acsi_obs.Provenance.tier_all prov);
                 let compiled, refused, fell_back =
                   Acsi_obs.Provenance.tier_outcome_counts prov
                 in
                 Format.printf
                   "%d tier decisions (%d compiled, %d refused, %d fell \
                    back)@."
                   (Acsi_obs.Provenance.tier_count prov)
                   compiled refused fell_back
               end);
              0))

(* `acsi-run lint [FILES]`: typed verification plus dead-code and
   unused-local lints over the given .acsi programs, or over every
   built-in workload when no file is given. *)
let lint_targets files =
  let findings = ref 0 and targets = ref 0 and notes = ref 0 in
  let lint_one label program =
    incr targets;
    let diags = Acsi_analysis.Lint.program program in
    List.iter
      (fun d ->
        incr findings;
        Format.printf "%s: %s@." label (Acsi_analysis.Diag.to_string d))
      diags;
    (* Summary-backed advisory notes: printed, never fatal — a
       monomorphic dispatch or a discarded pure result is legitimate
       code, just provably dead weight. *)
    List.iter
      (fun d ->
        incr notes;
        Format.printf "%s: note: %s@." label (Acsi_analysis.Diag.to_string d))
      (Acsi_analysis.Lint.program_notes program)
  in
  let ok = ref true in
  (match files with
  | [] ->
      List.iter
        (fun (name, program) -> lint_one name program)
        (Workloads.build_all ())
  | files ->
      List.iter
        (fun path ->
          match load_acsi path with
          | Error msg ->
              ok := false;
              Format.printf "%s@." msg
          | Ok program -> lint_one path program)
        files);
  if !findings = 0 && !ok then begin
    Format.printf "lint: %d target%s clean%s@." !targets
      (if !targets = 1 then "" else "s")
      (if !notes > 0 then Printf.sprintf " (%d advisory notes)" !notes
       else "");
    0
  end
  else 1

(* `acsi-run analyze [FILES]`: the compositional interprocedural summary
   pass ({!Acsi_analysis.Summary}) over the given .acsi programs, or
   over every built-in workload when no file is given. Pure static
   analysis — nothing executes; each table is a deterministic function
   of its program, so --jobs changes wall time only, never output. *)
let analyze_targets ~jobs files =
  let targets =
    match files with
    | [] ->
        List.map
          (fun (s : Workloads.spec) ->
            ( s.Workloads.name,
              fun () -> Ok (s.Workloads.build ~scale:s.Workloads.default_scale)
            ))
          (Workloads.all @ Workloads.extended)
    | files ->
        List.map
          (fun path -> (path, fun () -> load_acsi path))
          files
  in
  let render (label, build) =
    match build () with
    | Error msg -> Error msg
    | Ok program ->
        let table = Acsi_analysis.Summary.analyze program in
        Ok
          (Format.asprintf "%s:@.%a" label
             (fun fmt () -> Acsi_analysis.Summary.print fmt program table)
             ())
  in
  (* Tables render to strings inside the pool; printing stays on the
     calling domain in input order, so the output is identical for
     every --jobs value. *)
  let rendered = Parallel.map ~jobs render targets in
  let ok = ref true in
  List.iteri
    (fun i r ->
      match r with
      | Ok text ->
          if i > 0 then Format.printf "@.";
          Format.printf "%s%!" text
      | Error msg ->
          ok := false;
          Format.eprintf "%s@." msg)
    rendered;
  if !ok then 0 else 1

(* Serve each benchmark in turn, a blank line between their reports. *)
let serve_each ~specs ~scale serve_one =
  List.iteri
    (fun i (spec : Workloads.spec) ->
      if i > 0 then Format.printf "@.";
      serve_one spec.Workloads.name
        (spec.Workloads.build ~scale:(Cli.scale_for spec scale)))
    specs;
  0

let serve_bench_arg =
  Cli.benches_arg
    ~default:[ "db"; "jess"; "compress" ]
    "Comma-separated benchmark names to serve."

(* serve, fleet and metrics have no --speculate. *)
let serve_config_arg = Cli.config_term ~speculate:(Term.const false) ()

let windows_arg doc = Arg.(value & flag & info [ "windows" ] ~doc)

(* `acsi-run serve`: closed-loop serving — each benchmark's requests run
   as virtual threads over one shared VM/AOS instance, with background
   compilation, and the summary reports throughput and latency
   percentiles. Deterministic: identical invocations print identical
   summaries. *)
let serve_main verbose specs cfg scale requests_per_client clients think
    show_windows =
  setup_logs verbose;
  let mode =
    Acsi_server.Server.Closed { clients; requests_per_client; think }
  in
  serve_each ~specs ~scale (fun name program ->
      let result = Acsi_server.Server.run ~mode ~name cfg program in
      Format.printf "%a@." Acsi_server.Server.pp_summary
        result.Acsi_server.Server.summary;
      if show_windows then
        Format.printf "%a@." Acsi_server.Server.pp_windows
          result.Acsi_server.Server.windows)

let serve_cmd =
  let doc =
    "serve a deterministic closed-loop request workload over one shared VM \
     and adaptive system, reporting throughput and latency percentiles"
  in
  let requests =
    Arg.(
      value & opt (Cli.at_least 1) 8
      & info [ "requests" ] ~doc:"Requests per client.")
  and clients =
    Arg.(
      value & opt (Cli.at_least 1) 4
      & info [ "clients" ] ~doc:"Concurrent clients.")
  and think =
    Arg.(
      value
      & opt (Cli.at_least 0) 50_000
      & info [ "think" ]
          ~doc:"Client think time in cycles between requests.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_main $ Cli.verbose_arg $ serve_bench_arg $ serve_config_arg
      $ Cli.scale_arg $ requests $ clients $ think
      $ windows_arg "Also print the per-window warmup curve.")

(* The sharded server's knobs, applied: N virtual processors with work
   stealing, a publish-once code cache and per-shard compiler pools,
   serving [--sessions] open-loop arrivals. fleet and metrics share it. *)
let fleet_arg =
  let sessions =
    Arg.(
      value & opt (Cli.at_least 1) 8
      & info [ "sessions" ] ~doc:"Sessions to serve, in total.")
  and shards =
    Arg.(
      value & opt (Cli.at_least 1) 2
      & info [ "shards" ]
          ~doc:
            "Sharded virtual processors (per-shard run queues, \
             deterministic work stealing, publish-once code cache).")
  and period =
    Arg.(
      value
      & opt (Cli.at_least 2) 2400
      & info [ "open" ] ~docv:"PERIOD"
          ~doc:"Mean inter-arrival period in cycles of the open-loop arrivals.")
  and seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Seed for the open-loop arrival schedule.")
  and pool =
    Arg.(
      value & opt (Cli.at_least 1) 1
      & info [ "pool" ] ~doc:"Background compiler threads per shard.")
  and pool_policy =
    Arg.(
      value
      & opt Cli.pool_policy Acsi_aos.System.Fifo
      & info [ "pool-policy" ] ~doc:"Compiler-pool queue policy: fifo or hot.")
  and barrier =
    Arg.(
      value
      & opt (Cli.at_least 1) 2_000_000
      & info [ "barrier" ]
          ~doc:
            "Virtual cycles between cross-shard barriers (DCG merge, code \
             publication, work stealing).")
  and jobs =
    Cli.jobs_arg ~names:[ "jobs" ] ~default:1
      "Host domains running shards in parallel within a round; never \
       affects results."
  in
  let fleet sessions shards period seed pool pool_policy barrier jobs ~name
      cfg program =
    Acsi_server.Shards.run ~seed ~jobs ~barrier ~pool ~pool_policy ~shards
      ~sessions ~period ~name cfg program
  in
  Term.(
    const fleet $ sessions $ shards $ period $ seed $ pool $ pool_policy
    $ barrier $ jobs)

(* `acsi-run fleet`: open-loop serving across sharded virtual
   processors; the summary reports throughput and latency percentiles.
   Deterministic, and byte-identical across --jobs. *)
let fleet_main verbose specs cfg scale fleet show_windows =
  setup_logs verbose;
  serve_each ~specs ~scale (fun name program ->
      let result = fleet ~name cfg program in
      Format.printf "%a@." Acsi_server.Shards.pp_summary
        result.Acsi_server.Shards.summary;
      if show_windows then
        Format.printf "%a@." Acsi_server.Shards.pp_shards
          result.Acsi_server.Shards.shard_stats)

let fleet_cmd =
  let doc =
    "serve a deterministic open-loop session workload across sharded \
     virtual processors, reporting throughput and latency percentiles"
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const fleet_main $ Cli.verbose_arg $ serve_bench_arg $ serve_config_arg
      $ Cli.scale_arg $ fleet_arg
      $ windows_arg "Also print the per-shard breakdown.")

(* `acsi-run metrics`: run one fleet cell and print its virtual-clock
   time-series (one per shard) plus the latency / steal-distance /
   compile-wait / deopt-gap histograms as OpenMetrics (default) or JSONL
   text; an OpenMetrics name is always "acsi_" ^ its JSONL name.
   Telemetry reads the virtual clock but never charges it, and is
   emitted only in the serial barrier section, so the export is
   byte-identical across --jobs and never perturbs the run it observes. *)
let metrics_one ~spec ~cfg ~scale ~fleet ~format ~flows_out =
  let module Export = Acsi_obs.Export in
  Option.iter Cli.check_writable flows_out;
  let program = spec.Workloads.build ~scale:(Cli.scale_for spec scale) in
  let name = spec.Workloads.name in
  let labels = [ ("bench", name) ] in
  let tel = (fleet ~name cfg program).Acsi_server.Shards.telemetry in
  let series =
    List.mapi
      (fun i s -> (labels @ [ ("shard", string_of_int i) ], s))
      (Array.to_list tel.Acsi_server.Shards.tel_series)
  and hists =
    [
      ("session_latency", tel.tel_latency_all);
      ("steal_distance", tel.tel_steal_distance);
      ("compile_wait", tel.tel_compile_wait);
      ("deopt_gap", tel.tel_deopt_gap);
    ]
  in
  let buf = Buffer.create 4096 in
  (match format with
  | `Openmetrics ->
      List.iter
        (fun (labels, s) ->
          Export.series_openmetrics buf ~prefix:"acsi_" ~labels s)
        series;
      List.iter
        (fun (name, h) ->
          Export.hist_openmetrics buf ~name:("acsi_" ^ name) ~labels h)
        hists;
      Buffer.add_string buf "# EOF\n"
  | `Jsonl ->
      List.iter
        (fun (labels, s) -> Export.series_jsonl buf ~name:"shard" ~labels s)
        series;
      List.iter (fun (name, h) -> Export.hist_jsonl buf ~name ~labels h) hists);
  Option.iter
    (fun path ->
      let fbuf = Buffer.create 4096 in
      Export.to_chrome_json fbuf (Acsi_server.Shards.telemetry_tracer tel);
      write_buffer path fbuf;
      Format.eprintf "metrics: wrote flow trace to %s@." path)
    flows_out;
  print_string (Buffer.contents buf);
  0

let metrics_main verbose spec cfg scale fleet format flows_out =
  setup_logs verbose;
  reporting_errors (fun () ->
      metrics_one ~spec ~cfg ~scale ~fleet ~format ~flows_out)

let metrics_cmd =
  let doc =
    "serve one benchmark as a fleet with telemetry and export the \
     virtual-clock time-series and latency histograms as OpenMetrics or \
     JSONL (deterministic: byte-identical across --jobs)"
  in
  let bench =
    Cli.bench_arg ~default:"session"
      "Benchmark to serve while collecting telemetry."
  and format =
    Arg.(
      value
      & opt
          (enum [ ("openmetrics", `Openmetrics); ("jsonl", `Jsonl) ])
          `Openmetrics
      & info [ "format" ] ~doc:"Output format: openmetrics or jsonl.")
  and flows =
    Arg.(
      value
      & opt (some string) None
      & info [ "flows" ] ~docv:"FILE"
          ~doc:
            "Also write the cross-shard flow trace (steal/adopt/deopt \
             arrows between shard tracks) as Chrome trace-event JSON for \
             Perfetto.")
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const metrics_main $ Cli.verbose_arg $ bench $ serve_config_arg
      $ Cli.scale_arg $ fleet_arg $ format $ flows)

let lint_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Mini-language programs (.acsi) to lint; every built-in workload \
           when omitted.")

let run_cmd_term =
  Term.(
    const main $ list_arg $ Cli.verbose_arg $ bench_arg $ file_arg
    $ Cli.scale_arg $ compare_arg $ compilations_arg $ disasm_arg $ jobs_arg
    $ verify_flag $ Cli.config_term ())

let lint_cmd =
  let doc =
    "typed verification, dead-code and unused-local lints over programs"
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const lint_targets $ lint_files_arg)

let analyze_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Mini-language programs (.acsi) to analyze; every built-in \
           workload when omitted.")

let analyze_main verbose jobs files =
  setup_logs verbose;
  analyze_targets ~jobs files

let analyze_cmd =
  let doc =
    "print the compositional interprocedural summary table (size after \
     inlining, effects, escapes, constness, always-throws, CHA \
     monomorphic-dispatch proofs) for programs, without executing them"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const analyze_main $ Cli.verbose_arg $ jobs_arg $ analyze_files_arg)

let trace_out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "out" ]
        ~doc:"Chrome trace-event output file (Perfetto-loadable).")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:"Also write the event stream as line-per-event JSON.")

let trace_flame_arg =
  Arg.(
    value & flag
    & info [ "flame" ]
        ~doc:
          "Also print the CCT-derived virtual-cycle profile as a text \
           flamegraph.")

let trace_min_pct_arg =
  Arg.(
    value & opt float 1.0
    & info [ "min-pct" ]
        ~doc:
          "Prune flamegraph subtrees below this percent of the profile \
           total.")

let trace_capacity_arg =
  Arg.(
    value
    & opt (Cli.at_least 1) (1 lsl 20)
    & info [ "capacity" ]
        ~doc:
          "Most events the tracer holds; memory grows with the events \
           recorded, up to this bound. Drops (oldest first) void the \
           reconciliation check.")

let trace_probe_arg =
  Arg.(
    value & flag
    & info [ "probe-on-clock" ]
        ~doc:
          "Charge the cost model's per-event probe cost to the virtual \
           clock, making the tracing overhead itself visible to the run.")

let trace_main verbose spec file cfg scale out jsonl flame min_pct capacity
    probe_on_clock =
  setup_logs verbose;
  reporting_errors (fun () ->
      trace_one ~spec ~file ~cfg ~scale ~out ~jsonl ~flame ~min_pct ~capacity
        ~probe_on_clock)

let trace_cmd =
  let doc =
    "run one workload with structured tracing on and export a \
     Perfetto-loadable trace plus the per-component overhead breakdown"
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_main $ Cli.verbose_arg $ bench_arg $ file_arg
      $ Cli.config_term () $ Cli.scale_arg $ trace_out_arg $ trace_jsonl_arg
      $ trace_flame_arg $ trace_min_pct_arg $ trace_capacity_arg
      $ trace_probe_arg)

(* METHOD[:PC]: a method name and an optional call-site pc >= 0. *)
let explain_query =
  let parse q =
    match String.index_opt q ':' with
    | None -> Ok (q, None)
    | Some i -> (
        let pc = String.sub q (i + 1) (String.length q - i - 1) in
        match int_of_string_opt pc with
        | Some n when n >= 0 -> Ok (String.sub q 0 i, Some n)
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "invalid pc '%s' in '%s'" pc q)))
  in
  let pp ppf (meth, pc) =
    Format.pp_print_string ppf meth;
    Option.iter (Format.fprintf ppf ":%d") pc
  in
  Arg.conv (parse, pp)

let explain_query_arg =
  Arg.(
    value
    & pos 0 (some explain_query) None
    & info [] ~docv:"METHOD[:PC]"
        ~doc:
          "Restrict to decisions whose innermost context entry is a call \
           site in this method (unqualified or Cls.name), optionally at \
           exactly the given bytecode pc. All decisions when omitted.")

let explain_main verbose spec file cfg scale query =
  setup_logs verbose;
  reporting_errors (fun () ->
      explain_one ~spec ~file ~cfg ~scale ~query)

let explain_cmd =
  let doc =
    "run one workload with decision provenance on and print why the \
     oracle inlined (or refused) each context-sensitive candidate"
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const explain_main $ Cli.verbose_arg $ bench_arg $ file_arg
      $ Cli.config_term () $ Cli.scale_arg $ explain_query_arg)

(* `acsi-run profile`: deterministic DCG persistence. --dump writes the
   run's final dynamic call graph in the textual {!Acsi_profile.Persist}
   format; --load seeds a run from a previously dumped profile,
   reproducing the offline profile-directed setups the paper contrasts
   itself with (§6). Profiles are program-specific (dense method ids),
   so dump and load must name the same benchmark and scale. *)
let profile_one ~spec ~file ~cfg ~scale ~dump ~load =
  match load_program ~spec ~file ~scale with
  | Error code -> code
  | Ok (label, program) -> (
      match
        match load with
        | None -> Ok None
        | Some path -> (
            try Ok (Some (Acsi_profile.Persist.load path))
            with Acsi_profile.Persist.Malformed msg ->
              Error (Printf.sprintf "%s: malformed profile: %s" path msg))
      with
      | Error msg ->
          Format.eprintf "%s@." msg;
          1
      | Ok profile ->
          Option.iter Cli.check_writable dump;
          let result = Runtime.run ?profile cfg program in
          let dcg = Acsi_aos.System.dcg result.Runtime.sys in
          Option.iter (fun path -> Acsi_profile.Persist.save path dcg) dump;
          Format.printf "%s under %s:@.%a@." label (policy_name cfg) Metrics.pp
            result.Runtime.metrics;
          (match load with
          | Some path -> Format.printf "profile seeded from %s@." path
          | None -> ());
          Option.iter
            (fun path ->
              Format.printf "profile (%d traces) written to %s@."
                (Acsi_profile.Dcg.size dcg) path)
            dump;
          0)

let profile_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump" ] ~docv:"FILE"
        ~doc:"Write the run's final dynamic call graph to FILE.")

let profile_load_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Seed the dynamic call graph from FILE before the run (offline \
           profile-directed inlining).")

let profile_main verbose spec file cfg scale dump load =
  setup_logs verbose;
  reporting_errors (fun () ->
      profile_one ~spec ~file ~cfg ~scale ~dump ~load)

let profile_cmd =
  let doc =
    "run one workload and persist its dynamic call graph, or seed a run \
     from a dumped profile (deterministic text format)"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const profile_main $ Cli.verbose_arg $ bench_arg $ file_arg
      $ Cli.config_term () $ Cli.scale_arg $ profile_dump_arg
      $ profile_load_arg)

let cmd =
  let doc =
    "run an adaptive-context-sensitive-inlining experiment on one benchmark"
  in
  Cmd.group ~default:run_cmd_term (Cmd.info "acsi-run" ~doc)
    [
      analyze_cmd;
      lint_cmd;
      serve_cmd;
      fleet_cmd;
      metrics_cmd;
      trace_cmd;
      explain_cmd;
      profile_cmd;
    ]

let () = exit (Cmd.eval' cmd)
