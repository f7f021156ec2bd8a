(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                 full reproduction
     dune exec bench/main.exe -- --help       the sections and knobs
     dune exec bench/compare.exe A.json B.json   diff two results files

   Everything is deterministic: identical invocations print identical
   numbers, whatever --jobs is — cells fan out across domains but are
   collected and printed in serial order. Every figure is on the virtual
   clock; host time is measured by perf/, not here. *)

open Acsi_core
module Cli = Acsi_cli.Cli
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads

type section =
  | Table1
  | Fig4
  | Fig5
  | Fig6
  | Term_stats
  | Summary
  | Ablations
  | Serve
  | Trace
  | Deopt

type mode = {
  sections : section list;
  shards : int list;  (** shard counts for the sharded-server section *)
  sessions : int;  (** open-loop sessions per sharded cell, before scaling *)
  scale_factor : float;
  jobs : int;
  json_path : string option;  (** the results file the run is appended to *)
  cfg : Config.t;
      (** every cell's configuration, up to its policy: --static-seed and
          --speculate apply to all of them *)
}

let on mode section = List.mem section mode.sections

(* The non-default knobs of the run's configuration, as recorded in its
   results file (sorted): compare.exe refuses a comparison across them at
   equal scale unless told otherwise. *)
let stamp (cfg : Config.t) =
  List.filter_map
    (fun (knob, on) -> if on then Some knob else None)
    [
      ("speculate", cfg.Config.aos.Acsi_aos.System.speculate);
      ("static_seed", cfg.Config.aos.Acsi_aos.System.static_seed);
    ]

(* One results cell (see results.ml): figures travel as printed text. *)
let cell section key metrics = { Results.section; key; metrics }
let ints = List.map (fun (name, v) -> (name, string_of_int v))
let fixed6 v = Printf.sprintf "%.6f" v

let hr title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* --- the main sweep, shared by table1/fig4/fig5/fig6/summary --- *)

let the_sweep = ref None

let sweep mode =
  match !the_sweep with
  | Some s -> s
  | None ->
      let s =
        Experiment.paper_sweep
          ~progress:(fun msg -> Format.eprintf "  [sweep] %s@." msg)
          ~jobs:mode.jobs mode.cfg
          ~scale_factor:mode.scale_factor
      in
      the_sweep := Some s;
      s

(* --- §4 in-text termination statistics --- *)

let term_stats mode =
  hr "Trace-termination statistics (paper section 4, in-text numbers)";
  Format.printf
    "Collected with the trace listener instrumented, under fixed(max=5).@.\
     Paper: ~20%% of callees immediately parameterless; 50-80%% hit a@.\
     parameterless method within 5 levels; 50-80%% hit a class (instance)@.\
     method within 2 edges; ~50%% need 4+ edges to reach a large method.@.@.";
  Format.printf "%-10s %10s %14s %12s %12s %12s@." "bench" "samples"
    "callee-p-less" "p-less<=5" "class<=2" "large>=4";
  (* One cell per benchmark; each returns its formatted row, printed in
     benchmark order below regardless of which domain ran it. *)
  let rows =
    Parallel.map ~jobs:mode.jobs
      (fun (name, program) ->
        let result =
          Runtime.run
            (Experiment.paper_config
               (Config.with_policy mode.cfg (Policy.Fixed 5)))
            program
        in
        let st = Acsi_aos.System.trace_stats result.Runtime.sys in
        let n = max 1 st.Acsi_aos.Trace_listener.samples in
        let pct x = 100.0 *. float_of_int x /. float_of_int n in
        Format.asprintf "%-10s %10d %13.1f%% %11.1f%% %11.1f%% %11.1f%%@." name
          st.Acsi_aos.Trace_listener.samples
          (pct st.Acsi_aos.Trace_listener.callee_parameterless)
          (pct st.Acsi_aos.Trace_listener.param_stop_within_5)
          (pct st.Acsi_aos.Trace_listener.class_stop_within_2)
          (pct st.Acsi_aos.Trace_listener.large_needs_4))
      (Workloads.build_all ~scale_factor:mode.scale_factor ())
  in
  List.iter print_string rows

(* --- ablations of the design choices DESIGN.md calls out --- *)

let ablations mode =
  hr "Ablations (DESIGN.md: key design decisions)";
  let interesting = [ "db"; "javac"; "jbb" ] in
  let programs =
    List.filter
      (fun (n, _) -> List.mem n interesting)
      (Workloads.build_all ~scale_factor:mode.scale_factor ())
  in
  let run ?(tweak_aos = fun c -> c) ?(tweak_oracle = fun c -> c) program
      policy =
    let cfg = Config.with_policy mode.cfg policy in
    let aos = tweak_aos cfg.Config.aos in
    let aos =
      {
        aos with
        Acsi_aos.System.oracle_config =
          tweak_oracle aos.Acsi_aos.System.oracle_config;
      }
    in
    (Runtime.run { cfg with Config.aos } program).Runtime.metrics
  in
  let show fmt name base m =
    Format.fprintf fmt
      "  %-32s speedup %+7.2f%%  code %+8.2f%%  compile %+8.2f%%@." name
      (Metrics.speedup_pct ~baseline:base m)
      (Metrics.code_size_change_pct ~baseline:base m)
      (Metrics.compile_time_change_pct ~baseline:base m)
  in
  (* Each benchmark's block is many serial runs (every row shares the
     block's baseline), so the blocks themselves are the parallel unit:
     one domain per benchmark, output buffered and printed in order. *)
  let blocks =
    Parallel.map ~jobs:mode.jobs
      (fun (name, program) ->
        let buf = Buffer.create 1024 in
        let fmt = Format.formatter_of_buffer buf in
        let show = show fmt in
        Format.fprintf fmt "@.%s (deltas vs context-insensitive baseline):@."
          name;
      let base = run program Policy.Context_insensitive in
      let collect =
        Runtime.run (Config.with_policy mode.cfg (Policy.Fixed 3)) program
      in
      show "fixed(3), full system" base collect.Runtime.metrics;
      show "fixed(3), exact-match oracle" base
        (run
           ~tweak_oracle:(fun c ->
             { c with Acsi_jit.Oracle.exact_match_only = true })
           program (Policy.Fixed 3));
      show "fixed(3), rules merged to edges" base
        (run
           ~tweak_aos:(fun c ->
             { c with Acsi_aos.System.merge_rules_to_edges = true })
           program (Policy.Fixed 3));
      show "fixed(3), time-based tracing" base
        (run
           ~tweak_aos:(fun c ->
             { c with Acsi_aos.System.trace_on_timer = true })
           program (Policy.Fixed 3));
      List.iter
        (fun threshold ->
          show
            (Printf.sprintf "fixed(3), hot threshold %.1f%%"
               (100.0 *. threshold))
            base
            (run
               ~tweak_aos:(fun c ->
                 { c with Acsi_aos.System.hot_edge_threshold = threshold })
               program (Policy.Fixed 3)))
        [ 0.005; 0.03 ];
      show "fixed(3), no peephole optimizer" base
        (run
           ~tweak_oracle:(fun c -> { c with Acsi_jit.Oracle.peephole = false })
           program (Policy.Fixed 3));
      show "fixed(3), with OSR (extension)" base
        (run
           ~tweak_aos:(fun c -> { c with Acsi_aos.System.enable_osr = true })
           program (Policy.Fixed 3));
      (* Offline profile-directed inlining: seed the run with the profile a
         previous identical run collected (see Acsi_profile.Persist). *)
      let profile =
        Acsi_profile.Persist.of_string
          (Acsi_profile.Persist.to_string
             (Acsi_aos.System.dcg collect.Runtime.sys))
      in
      show "fixed(3), offline-seeded profile" base
        (Runtime.run ~profile (Config.with_policy mode.cfg (Policy.Fixed 3))
           program)
          .Runtime.metrics;
        Format.pp_print_flush fmt ();
        Buffer.contents buf)
      programs
  in
  List.iter print_string blocks;
  (* Representation comparison (paper section 6's future work): the flat
     trace table vs the calling-context tree on each benchmark's final
     profile. *)
  Format.printf
    "@.Profile representation sizes under fixed(max=4), flat trace-table entries vs CCT nodes:@.";
  let rows =
    Parallel.map ~jobs:mode.jobs
      (fun (name, program) ->
        let result =
          Runtime.run (Config.with_policy mode.cfg (Policy.Fixed 4)) program
        in
        let dcg = Acsi_aos.System.dcg result.Runtime.sys in
        let cct = Acsi_profile.Cct.of_dcg dcg in
        Format.asprintf "  %-10s flat=%4d entries   cct=%4d nodes (depth %d)@."
          name
          (Acsi_profile.Dcg.size dcg)
          (Acsi_profile.Cct.node_count cct)
          (Acsi_profile.Cct.max_depth cct))
      programs
  in
  List.iter print_string rows

(* --- extension: the §7 "more object-oriented programs" suite --- *)

let extended mode =
  hr "Extension: larger object-oriented programs (paper section 7)";
  (* Same shape as the ablations: one domain per program, buffered. *)
  let blocks =
    Parallel.map ~jobs:mode.jobs
      (fun (spec : Workloads.spec) ->
        let buf = Buffer.create 1024 in
        let fmt = Format.formatter_of_buffer buf in
        let program =
          spec.Workloads.build
            ~scale:(Workloads.scaled spec ~scale_factor:mode.scale_factor)
        in
        let base =
          (Runtime.run
             (Config.with_policy mode.cfg Policy.Context_insensitive)
             program)
            .Runtime.metrics
        in
        Format.fprintf fmt "%s (%s):@." spec.Workloads.name
          spec.Workloads.description;
        List.iter
          (fun policy ->
            let m =
              (Runtime.run (Config.with_policy mode.cfg policy) program)
                .Runtime.metrics
            in
            Format.fprintf fmt
              "  %-18s speedup %+7.2f%%  code %+8.2f%%  compile %+8.2f%%               guards %d/%d@."
              (Policy.to_string policy)
              (Metrics.speedup_pct ~baseline:base m)
              (Metrics.code_size_change_pct ~baseline:base m)
              (Metrics.compile_time_change_pct ~baseline:base m)
              m.Metrics.guard_hits m.Metrics.guard_misses)
          Policy.[ Fixed 2; Fixed 4; Parameterless 4; Hybrid_param_large 4 ];
        Format.pp_print_flush fmt ();
        Buffer.contents buf)
      Workloads.extended
  in
  List.iter print_string blocks

(* --- server mode: virtual-threaded request workloads --- *)

(* Three benchmarks served as closed-loop request workloads over one
   shared VM/AOS each, with the background compiler on. Every number
   printed (and recorded to the results file) is deterministic: the
   workloads are independent cells fanned out with Parallel.map and
   collected in order, so --jobs does not change the output. *)
let serve_mode mode =
  hr "Server mode (virtual threads, background compilation)";
  let policy = Policy.Fixed 3 in
  let cells =
    Parallel.map ~jobs:mode.jobs
      (fun name ->
        let spec = Workloads.find name in
        let program =
          spec.Workloads.build
            ~scale:(Workloads.scaled spec ~scale_factor:mode.scale_factor)
        in
        let result =
          Acsi_server.Server.run
            ~mode:
              (Acsi_server.Server.Closed
                 { clients = 4; requests_per_client = 6; think = 50_000 })
            ~name
            (Config.with_policy mode.cfg policy)
            program
        in
        let s = result.Acsi_server.Server.summary in
        (* The warmup curve as a sparkline (mean latency per window,
           high blocks = slow cold windows) next to the telemetry
           histogram's quantiles — all virtual-clock figures, so the
           panel is byte-stable like the summary above it. *)
        let curve =
          Acsi_obs.Timeseries.spark
            (Array.of_list
               (List.map
                  (fun (w : Acsi_server.Server.window) ->
                    int_of_float w.Acsi_server.Server.w_mean_latency)
                  result.Acsi_server.Server.windows))
        in
        let lat = result.Acsi_server.Server.latency in
        let text =
          Format.asprintf
            "%a@.  warmup curve %s  (mean latency per window)  hist p50 %d \
             p90 %d p99 %d over %d requests@.@."
            Acsi_server.Server.pp_summary s curve
            (Acsi_obs.Hist.quantile lat 50.0)
            (Acsi_obs.Hist.quantile lat 90.0)
            (Acsi_obs.Hist.quantile lat 99.0)
            (Acsi_obs.Hist.count lat)
        in
        ( text,
          cell "server"
            (name ^ "/" ^ s.Acsi_server.Server.sv_policy)
            (ints
               [
                 ("requests", s.Acsi_server.Server.sv_requests);
                 ("total_cycles", s.Acsi_server.Server.sv_total_cycles);
               ]
            @ [
                ( "throughput_rpmc",
                  fixed6 s.Acsi_server.Server.sv_throughput_rpmc );
              ]
            @ ints
                [
                  ("p50", s.Acsi_server.Server.sv_p50);
                  ("p95", s.Acsi_server.Server.sv_p95);
                  ("p99", s.Acsi_server.Server.sv_p99);
                ]) ))
      [ "db"; "jess"; "compress" ]
  in
  List.iter (fun (text, _) -> print_string text) cells;
  List.map snd cells

(* --- sharded server: N virtual processors, work stealing --- *)

(* The session workload served open-loop across 1, 2 and 4 virtual
   processors (override the list with --shards, the load with
   --sessions). Cells run serially at top level: Acsi_server.Shards
   parallelises *inside* a cell — disjoint shards fan out across host
   domains between virtual-time barriers — and its figures are
   --jobs-independent by construction, so stdout stays byte-stable.

   The arrival period is fixed where one shard saturates (~3x
   overloaded: queueing delay dominates p50) while four shards keep up
   (p50 is approximately the bare service time). The throughput ratio
   and that latency contrast between the cells are the scaling story;
   every recorded figure lands in the results file's "shards" and
   "telemetry" cells, where compare.exe holds it to the determinism
   contract. *)
let shard_mode mode =
  hr "Sharded server (virtual processors, work stealing, compiler pool)";
  let policy = Policy.Fixed 3 in
  let spec = Workloads.find "session" in
  (* Scale 1 on purpose (not the spec's default_scale): the shortest
     session maximises sessions per host-second, and millions of tiny
     sessions are exactly the load the sharded tier exists for. *)
  let program = spec.Workloads.build ~scale:1 in
  let sessions =
    max 1000 (int_of_float (mode.scale_factor *. float_of_int mode.sessions))
  in
  let period = 450 in
  List.map
    (fun shards ->
      let result =
        Acsi_server.Shards.run ~seed:1 ~jobs:mode.jobs ~pool:2
          ~pool_policy:Acsi_aos.System.Hot_first ~shards ~sessions ~period
          ~name:spec.Workloads.name
          (Config.with_policy mode.cfg policy)
          program
      in
      let s = result.Acsi_server.Shards.summary in
      Format.printf "%a@.@." Acsi_server.Shards.pp_summary s;
      (* Fleet-telemetry panel: per-shard live-session sparklines, the
         latency histogram's quantiles, and the flow-arrow counts with
         the conservation verdict — all virtual-clock figures, so the
         panel is byte-stable like the summary above it. *)
      let tel = result.Acsi_server.Shards.telemetry in
      let lat = tel.Acsi_server.Shards.tel_latency_all in
      let p q = Acsi_obs.Hist.quantile lat q in
      let steal_flows = Acsi_server.Shards.flow_pairs tel Acsi_server.Shards.Steal in
      let adopt_flows = Acsi_server.Shards.flow_pairs tel Acsi_server.Shards.Adopt in
      let deopt_flows =
        Acsi_server.Shards.flow_pairs tel Acsi_server.Shards.Deopt
        + Acsi_server.Shards.flow_pairs tel Acsi_server.Shards.Invalidate
      in
      let conserved = Acsi_server.Shards.flows_conserved tel in
      Format.printf
        "  telemetry: latency p50/p90/p99 %d/%d/%d over %d sessions, \
         compile-wait p99 %d, deopt-gap p99 %d@."
        (p 50.0) (p 90.0) (p 99.0) (Acsi_obs.Hist.count lat)
        (Acsi_obs.Hist.quantile tel.Acsi_server.Shards.tel_compile_wait 99.0)
        (Acsi_obs.Hist.quantile tel.Acsi_server.Shards.tel_deopt_gap 99.0);
      Format.printf "  flows: %d steal + %d adopt + %d deopt, conserved: %s@."
        steal_flows adopt_flows deopt_flows
        (if conserved then "yes" else "NO");
      Array.iteri
        (fun i series ->
          Format.printf "  shard%d live %s@." i
            (Acsi_obs.Timeseries.sparkline series "live"))
        tel.Acsi_server.Shards.tel_series;
      Format.printf "@.";
      let series_checksum =
        Array.fold_left
          (fun acc series ->
            ((acc * 31) + Acsi_obs.Timeseries.checksum series) land max_int)
          17
          tel.Acsi_server.Shards.tel_series
      in
      let deopts =
        Array.fold_left
          (fun acc series -> acc + Acsi_obs.Timeseries.last series "deopts")
          0
          tel.Acsi_server.Shards.tel_series
      in
      let open Acsi_server.Shards in
      let shard_cell =
        cell "shards"
          (Printf.sprintf "%s/%s/shards=%d/pool=%d/%s/sessions=%d/period=%d"
             s.sh_workload s.sh_policy s.sh_shards s.sh_pool s.sh_pool_policy
             s.sh_sessions s.sh_period)
          (ints [ ("makespan", s.sh_makespan) ]
          @ [ ("throughput_spmc", fixed6 s.sh_throughput_spmc) ]
          @ ints
              [
                ("p50", s.sh_p50);
                ("p95", s.sh_p95);
                ("p99", s.sh_p99);
                ("steals", s.sh_steals);
              ]
          @ [ ("fairness", fixed6 s.sh_fairness) ]
          @ ints [ ("published", s.sh_published); ("adopted", s.sh_adopted) ])
      in
      let telemetry_cell =
        cell "telemetry"
          (Printf.sprintf "%s/shards=%d/sessions=%d/interval=%d" s.sh_workload
             s.sh_shards s.sh_sessions tel.tel_interval)
          (ints
             [
               ("hist_p50", p 50.0);
               ("hist_p90", p 90.0);
               ("hist_p99", p 99.0);
               ("hist_count", Acsi_obs.Hist.count lat);
               ("hist_sum", Acsi_obs.Hist.sum lat);
               ( "compile_wait_p99",
                 Acsi_obs.Hist.quantile tel.tel_compile_wait 99.0 );
               ("deopt_gap_p99", Acsi_obs.Hist.quantile tel.tel_deopt_gap 99.0);
               ("steal_flows", steal_flows);
               ("adopt_flows", adopt_flows);
             ]
          @ [ ("flow_conserved", string_of_bool conserved) ]
          @ ints
              [ ("deopts", deopts); ("series_checksum", series_checksum) ])
      in
      (shard_cell, telemetry_cell))
    mode.shards
  |> List.split
  |> fun (shard_cells, telemetry_cells) -> shard_cells @ telemetry_cells

(* --- static pre-warm oracle: the warmup ablation (--serve) --- *)

(* Each serve workload run twice — static_seed off, then on — as a
   closed-loop request workload of tiny requests (scale 1 on purpose,
   like the sharded section: the warmup knee only shows when a request
   is small next to the compile work, and the cells stay identical in
   --quick and full runs). The claim under test is the paper's class-
   load-time gambit: summaries computed before the first request let
   the system install optimized code before any sample exists, so
   steady-state latency arrives earlier. Checksums must agree wherever
   requests do not interleave output (the checksum is order-sensitive;
   jess and jbb interleave, which the table reports honestly). *)
let static_oracle_mode mode =
  hr "Static pre-warm oracle (summary-seeded inlining, warmup ablation)";
  let policy = Policy.Fixed 3 in
  let serve ~seeded name program =
    let cfg = Config.with_policy mode.cfg policy in
    let cfg =
      {
        cfg with
        Config.aos = { cfg.Config.aos with Acsi_aos.System.static_seed = seeded };
      }
    in
    (Acsi_server.Server.run
       ~mode:
         (Acsi_server.Server.Closed
            { clients = 4; requests_per_client = 16; think = 50_000 })
       ~name cfg program)
      .Acsi_server.Server.summary
  in
  let cells =
    Parallel.map ~jobs:mode.jobs
      (fun name ->
        let spec = Workloads.find name in
        let program = spec.Workloads.build ~scale:1 in
        ( name,
          serve ~seeded:false name program,
          serve ~seeded:true name program ))
      [ "db"; "jess"; "compress"; "jack"; "javac"; "jbb"; "session" ]
  in
  let open Acsi_server.Server in
  Format.printf "%-10s %8s %11s %11s %7s %12s %12s  %s@." "bench" "requests"
    "warmup-off" "warmup-on" "delta" "steady-off" "steady-on" "checksum";
  List.iter
    (fun (name, off, on_) ->
      Format.printf "%-10s %8d %11d %11d %+7d %12.0f %12.0f  %s@." name
        off.sv_requests off.sv_warmup_requests on_.sv_warmup_requests
        (on_.sv_warmup_requests - off.sv_warmup_requests)
        off.sv_steady_latency on_.sv_steady_latency
        (if off.sv_output_checksum = on_.sv_output_checksum then "identical"
         else "differs (interleaved output)"))
    cells;
  let improved =
    List.length
      (List.filter
         (fun (_, off, on_) ->
           on_.sv_warmup_requests < off.sv_warmup_requests
           && off.sv_output_checksum = on_.sv_output_checksum)
         cells)
  in
  Format.printf
    "@.%d of %d workloads reach steady state earlier with the static oracle \
     (identical output)@."
    improved (List.length cells);
  List.map
    (fun (name, off, on_) ->
      cell "static" (name ^ "/" ^ off.sv_policy)
        (ints
           [
             ("requests", off.sv_requests);
             ("warmup_off", off.sv_warmup_requests);
             ("warmup_on", on_.sv_warmup_requests);
           ]
        @ [
            ("steady_off", fixed6 off.sv_steady_latency);
            ("steady_on", fixed6 on_.sv_steady_latency);
          ]
        @ ints
            [
              ("checksum_off", off.sv_output_checksum);
              ("checksum_on", on_.sv_output_checksum);
            ]))
    cells

(* --- guards vs guard-free: the speculative-inlining ablation --- *)

(* Each panel workload run twice — speculation off, then on — at its
   full default scale (fixed on purpose, like the sharded section: the
   speculative compile has to land before the hot phase ends for the
   guard-count contrast to be visible, so the cells stay identical in
   --quick and full runs). The claim under test is Detlefs & Agesen's:
   at loaded-CHA-monomorphic sites whose receiver provably pre-exists
   the activation, the inline guard can be dropped entirely, and class
   loading plus deoptimization — not a method test per dispatch — pays
   for the speculation. Output checksums must match on every row; a
   mismatch means the deopt machinery changed program semantics, and
   the harness aborts. *)
let deopt_panel mode =
  hr "Guards vs guard-free speculation (pre-existence + deoptimization)";
  let policy = Policy.Fixed 3 in
  let guard_cost = Acsi_vm.Cost.default.Acsi_vm.Cost.guard in
  let cells =
    Parallel.map ~jobs:mode.jobs
      (fun name ->
        let spec = Workloads.find name in
        let program = spec.Workloads.build ~scale:spec.Workloads.default_scale in
        let half ~spec_on =
          let cfg = Config.with_policy mode.cfg policy in
          let cfg =
            {
              cfg with
              Config.aos =
                {
                  cfg.Config.aos with
                  Acsi_aos.System.speculate = spec_on;
                  enable_osr =
                    (spec_on || cfg.Config.aos.Acsi_aos.System.enable_osr);
                };
            }
          in
          (Runtime.run cfg program).Runtime.metrics
        in
        (name, half ~spec_on:false, half ~spec_on:true))
      [ "javac"; "jack"; "jbb"; "dispatch" ]
  in
  let open Metrics in
  let checks m = m.guard_hits + m.guard_misses in
  Format.printf "%-10s %15s %15s %12s %12s %13s %s@." "bench" "guards-off"
    "guards-on" "guard-cyc-off" "guard-cyc-on" "deopts-on" "checksum";
  List.iter
    (fun (name, off, on_) ->
      Format.printf "%-10s %7d/%-7d %7d/%-7d %12d %12d %5d st %3d inv  %s@."
        name off.guard_hits off.guard_misses on_.guard_hits on_.guard_misses
        (checks off * guard_cost) (checks on_ * guard_cost) on_.deopt_guard
        on_.deopt_invalidate
        (if off.output_checksum = on_.output_checksum then "identical"
         else "DIFFERS");
      if off.output_checksum <> on_.output_checksum then begin
        Format.eprintf
          "SEMANTIC VIOLATION: %s output checksum changed under \
           speculation (%d vs %d)@."
          name off.output_checksum on_.output_checksum;
        exit 1
      end)
    cells;
  let reclaimed =
    List.fold_left
      (fun acc (_, off, on_) -> acc + ((checks off - checks on_) * guard_cost))
      0 cells
  in
  Format.printf
    "@.%d guard cycles reclaimed across the panel (identical output \
     everywhere)@."
    reclaimed;
  List.map
    (fun (name, off, on_) ->
      cell "speculation"
        (name ^ "/" ^ Policy.to_string policy)
        (ints
           [
             ("hits_off", off.guard_hits);
             ("misses_off", off.guard_misses);
             ("hits_on", on_.guard_hits);
             ("misses_on", on_.guard_misses);
             ("guards_on", checks on_);
             ("storms_on", on_.deopt_guard);
             ("invalidated_on", on_.deopt_invalidate);
             ("cycles_off", off.total_cycles);
             ("cycles_on", on_.total_cycles);
             ("checksum_off", off.output_checksum);
             ("checksum_on", on_.output_checksum);
           ]))
    cells

(* --- traced sweep: per-component overhead from tracer spans --- *)

(* Figure-6 ground truth, measured the hard way: re-run a handful of
   cells with the structured tracer on and reconcile each AOS
   component's summed span durations against its Accounting total —
   exact equality, or the harness aborts. The breakdowns are printed
   and recorded to the results file ("components" cells) so
   compare.exe can flag any drift between two runs at the same scale.
   Tracing is off-clock (no probe cost), so every cell's total_cycles
   is identical to its untraced twin in the main sweep. *)
let traced_components mode =
  hr "Traced per-component overhead (tracer spans vs accounting)";
  let benches = [ "db"; "javac"; "jbb" ] in
  let policies =
    Policy.[ Context_insensitive; Fixed 3; Hybrid_param_large 4 ]
  in
  let cells =
    Parallel.map ~jobs:mode.jobs
      (fun (bench, policy) ->
        let spec = Workloads.find bench in
        let program =
          spec.Workloads.build
            ~scale:(Workloads.scaled spec ~scale_factor:mode.scale_factor)
        in
        let cfg = Config.with_policy mode.cfg policy in
        let cfg =
          {
            cfg with
            Config.aos =
              {
                cfg.Config.aos with
                Acsi_aos.System.obs =
                  {
                    Acsi_obs.Control.off with
                    Acsi_obs.Control.trace = true;
                    capacity = 1 lsl 20;
                  };
              };
          }
        in
        let result = Runtime.run cfg program in
        let sys = result.Runtime.sys in
        let dropped = Acsi_obs.Tracer.dropped (Acsi_aos.System.tracer sys) in
        let rows =
          List.map
            (fun (nm, acct_v, span_v) ->
              if span_v <> acct_v && dropped = 0 then begin
                Format.eprintf
                  "RECONCILIATION FAILURE: %s/%s %s spans=%d accounting=%d@."
                  bench (Policy.to_string policy) nm span_v acct_v;
                exit 1
              end;
              (nm, acct_v))
            (Acsi_aos.System.span_rows sys)
        in
        let text =
          Format.asprintf "%s / %s:@.%a@.@." bench (Policy.to_string policy)
            (Acsi_obs.Export.pp_breakdown
               ~total:result.Runtime.metrics.Metrics.total_cycles)
            rows
        in
        ( text,
          cell "components"
            (bench ^ "/" ^ Policy.to_string policy)
            (ints rows) ))
      (List.concat_map
         (fun b -> List.map (fun p -> (b, p)) policies)
         benches)
  in
  List.iter (fun (text, _) -> print_string text) cells;
  List.map snd cells

(* --- the results file --- *)

(* The sweep's cells: one per (benchmark, policy), baselines first. *)
let sweep_cells (s : Experiment.sweep) =
  let total key (m : Metrics.t) =
    cell "sweep" key (ints [ ("total_cycles", m.Metrics.total_cycles) ])
  in
  List.map (fun (bench, m) -> total (bench ^ "/cins") m) s.Experiment.baselines
  @ List.map
      (fun (p : Experiment.point) ->
        total
          (p.Experiment.bench ^ "/" ^ Policy.to_string p.Experiment.policy)
          p.Experiment.metrics)
      s.Experiment.points

(* The trajectory a --json run appends to, read before any cell runs: a
   file that cannot be read aborts the run and is left untouched, and a
   path that cannot be written is one [path: message] line and exit 1. *)
let read_trajectory path =
  let prior =
    if not (Sys.file_exists path) then []
    else
      try Results.read_file path
      with Sys_error msg | Results.Parse_error msg ->
        Format.eprintf "cannot append to %s: %s@." path msg;
        exit 2
  in
  match Cli.check_writable (Results.tmp_of path) with
  | () -> prior
  | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      exit 1

let write_json mode path prior cells =
  let run =
    {
      Results.jobs = mode.jobs;
      scale_factor = mode.scale_factor;
      config = stamp mode.cfg;
      cells;
    }
  in
  Results.write_file path (prior @ [ run ]);
  Format.eprintf "  [json] appended run %d to %s (%d cells, jobs %d)@."
    (List.length prior) path (List.length cells) mode.jobs

let run mode =
  let prior = Option.fold ~none:[] ~some:read_trajectory mode.json_path in
  Format.printf
    "Adaptive Online Context-Sensitive Inlining (CGO 2003) — reproduction \
     harness@.scale factor %.2f@."
    mode.scale_factor;
  if on mode Table1 then begin
    hr "Table 1";
    Report.table1 Format.std_formatter (sweep mode);
    Format.print_newline ()
  end;
  if on mode Fig4 then begin
    hr "Figure 4";
    Report.figure4 Format.std_formatter (sweep mode)
  end;
  if on mode Fig5 then begin
    hr "Figure 5";
    Report.figure5 Format.std_formatter (sweep mode)
  end;
  if on mode Fig6 then begin
    hr "Figure 6";
    Report.figure6 Format.std_formatter (sweep mode);
    Format.print_newline ()
  end;
  if on mode Term_stats then term_stats mode;
  if on mode Summary then begin
    hr "Summary";
    Report.summary Format.std_formatter (sweep mode);
    Format.print_newline ()
  end;
  if on mode Ablations then begin
    ablations mode;
    extended mode
  end;
  (* Sections print as they run, so they run in this order. *)
  let section s f = if on mode s then f mode else [] in
  let server = section Serve serve_mode in
  let shards = section Serve shard_mode in
  let static = section Serve static_oracle_mode in
  let speculation = section Deopt deopt_panel in
  let components = section Trace traced_components in
  let cells =
    List.concat
      [
        (match !the_sweep with Some s -> sweep_cells s | None -> []);
        server;
        shards;
        static;
        speculation;
        components;
      ]
  in
  (match mode.json_path with
  | Some path when cells <> [] -> write_json mode path prior cells
  | Some _ | None -> ());
  Format.printf "@.done.@."

open Cmdliner

(* At least one shard count, each in 1..64: "4" or "1,8". *)
let shard_counts =
  let parse s =
    let counts = List.map int_of_string_opt (String.split_on_char ',' s) in
    let valid = function Some n -> n >= 1 && n <= 64 | None -> false in
    if List.for_all valid counts then Ok (List.filter_map Fun.id counts)
    else
      Error
        (`Msg (Printf.sprintf "invalid value '%s', counts must be in 1..64" s))
  in
  Arg.conv
    ( parse,
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
        Format.pp_print_int )

let sections_arg =
  let section s name doc = (s, Arg.info [ name ] ~doc) in
  Arg.(
    value
    & vflag_all []
        [
          section Table1 "table1" "Table 1: benchmark characteristics.";
          section Fig4 "fig4" "Figure 4: speedup over the cins baseline.";
          section Fig5 "fig5" "Figure 5: optimized code size change.";
          section Fig6 "fig6" "Figure 6: AOS component overhead.";
          section Term_stats "term-stats" "Section 4's termination stats.";
          section Summary "summary" "Headline summary over the sweep.";
          section Ablations "ablations" "Ablations and the extended suite.";
          section Serve "serve" "Server, sharded-server and warmup cells.";
          section Trace "trace" "Traced per-component overhead.";
          section Deopt "deopt" "Guards vs guard-free speculation.";
        ])

let mode_term =
  let make sections quick scale_factor shards sessions jobs json json_out cfg =
    (* No section flag: the full reproduction, recorded. *)
    let all = sections = [] in
    {
      sections =
        (if all then
           [ Table1; Fig4; Fig5; Fig6; Term_stats; Summary; Ablations; Serve;
             Trace; Deopt ]
         else sections);
      shards;
      sessions;
      scale_factor =
        (match scale_factor with
        | Some f -> f
        | None -> if quick then 0.25 else 1.0);
      jobs;
      json_path =
        (match json_out with
        | Some _ -> json_out
        | None -> if json || all then Some "BENCH_results.json" else None);
      cfg;
    }
  in
  Term.(
    const make $ sections_arg
    $ Arg.(
        value & flag
        & info [ "quick" ]
            ~doc:"Scale factor 0.25: about 4x smaller workloads.")
    $ Arg.(
        value
        & opt (some Cli.positive_float) None
        & info [ "scale-factor" ] ~docv:"F"
            ~doc:
              "Multiply every workload's default scale by $(docv) (default 1; \
               takes precedence over --quick).")
    $ Arg.(
        value
        & opt shard_counts [ 1; 2; 4 ]
        & info [ "shards" ]
            ~doc:"Comma-separated shard counts of the sharded-server cells.")
    $ Arg.(
        value
        & opt (Cli.at_least 1) 1_000_000
        & info [ "sessions" ]
            ~doc:
              "Open-loop sessions per sharded cell, before the scale factor.")
    $ Cli.jobs_arg ~names:[ "jobs" ]
        ~default:(Parallel.available_cores ())
        "Domains the cells fan out across; the output is the same for every \
         value."
    $ Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Append the run to BENCH_results.json (the default when no \
               section is selected).")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "json-out" ] ~docv:"FILE" ~doc:"Append the run to $(docv).")
    $ Cli.config_term ~policy:(Term.const Policy.Context_insensitive) ())

let () =
  let doc = "regenerate the tables and figures of the paper's evaluation" in
  exit
    (Cmd.eval (Cmd.v (Cmd.info "main.exe" ~doc) Term.(const run $ mode_term)))
