(* Differential tests for the AOS brain overhaul: every indexed organizer
   / oracle kernel is pinned to its pre-index reference spec on generated
   inputs, and the memoization caches are checked to be invisible (same
   results, any --jobs value, cache hits physically shared).

   Floating-point discipline: generated weights are small integers and
   decay factors are negative powers of two, so every aggregate the
   kernels compute is an exactly-representable dyadic rational — sums are
   exact in any association order, and equality comparisons between the
   indexed and reference implementations cannot be tripped by rounding. *)

open Acsi_bytecode
open Acsi_core
module Dcg = Acsi_profile.Dcg
module Trace = Acsi_profile.Trace
module Rules = Acsi_profile.Rules
module Registry = Acsi_aos.Registry
module System = Acsi_aos.System
module Workloads = Acsi_workloads.Workloads
module Gen = QCheck.Gen

let check_bool = Alcotest.(check bool)
let mid = Ids.Method_id.of_int

let trace callee chain =
  Trace.make ~callee:(mid callee)
    ~chain:
      (List.map (fun (c, s) -> { Trace.caller = mid c; callsite = s }) chain)

(* --- generators --- *)

let gen_entry = Gen.(pair (int_range 0 6) (int_range 0 4))
let gen_chain = Gen.(list_size (int_range 1 3) gen_entry)
let gen_trace = Gen.(map2 trace (int_range 0 7) gen_chain)

(* A DCG construction script: add batches of samples, interleaved with
   exact-dyadic decays. *)
type dcg_op = Add of Trace.t * int | Decay of float * float

let gen_dcg_op =
  Gen.(
    frequency
      [
        (6, map2 (fun t n -> Add (t, n)) gen_trace (int_range 1 5));
        ( 1,
          map2
            (fun f p -> Decay (f, p))
            (oneofl [ 0.5; 0.25 ])
            (oneofl [ 0.0; 0.25; 1.0 ]) );
      ])

let gen_dcg_script = Gen.(list_size (int_range 1 40) gen_dcg_op)

let build_dcg script =
  let dcg = Dcg.create () in
  List.iter
    (function
      | Add (t, n) ->
          for _ = 1 to n do
            Dcg.add_sample dcg t
          done
      | Decay (factor, prune_below) -> Dcg.decay dcg ~factor ~prune_below)
    script;
  dcg

let arbitrary_dcg_script = QCheck.make gen_dcg_script

(* --- adaptive-resolution organizer: flag_decisions --- *)

let sort_decisions l =
  List.sort
    (fun ((a : Ids.Method_id.t), s1, r1) (b, s2, r2) ->
      compare ((a :> int), s1, r1) ((b :> int), s2, r2))
    l

let prop_flag_decisions_match =
  QCheck.Test.make ~name:"flag_decisions matches reference spec" ~count:200
    arbitrary_dcg_script (fun script ->
      let dcg = build_dcg script in
      List.for_all
        (fun (skew_threshold, min_context_share) ->
          sort_decisions
            (System.flag_decisions dcg ~skew_threshold ~min_context_share)
          = sort_decisions
              (System.flag_decisions_reference dcg ~skew_threshold
                 ~min_context_share))
        [ (0.8, 0.1); (0.5, 0.5); (1.0, 0.0); (0.0, 1.0) ])

(* --- oracle: Rules.candidates --- *)

let gen_hot_traces =
  Gen.(
    list_size (int_range 0 12)
      (map2 (fun t w -> (t, float_of_int w)) gen_trace (int_range 1 16)))

let gen_site_chain = Gen.(map Array.of_list gen_chain)

let arbitrary_candidates_case =
  QCheck.make
    Gen.(pair gen_hot_traces (list_size (int_range 1 8) gen_site_chain))

let entry_array chain =
  Array.map
    (fun (c, s) -> { Trace.caller = mid c; callsite = s })
    chain

let prop_candidates_match =
  QCheck.Test.make ~name:"Rules.candidates matches reference spec" ~count:200
    arbitrary_candidates_case (fun (hot, queries) ->
      let rules = Rules.of_hot_traces hot in
      List.for_all
        (fun chain ->
          let site_chain = entry_array chain in
          Rules.candidates rules ~site_chain
          = Rules.candidates_reference rules ~site_chain
          && Rules.candidates ~exact:true rules ~site_chain
             = Rules.candidates_reference ~exact:true rules ~site_chain)
        queries)

(* The memo cache returns the cached list itself on a repeat query (same
   rules value, same chain contents in a fresh array), and a rebuilt
   rules value answers from a fresh cache. *)
let test_candidates_memo () =
  let hot =
    [
      (trace 3 [ (1, 0) ], 10.0);
      (trace 4 [ (1, 0) ], 8.0);
      (trace 3 [ (1, 0); (2, 1) ], 6.0);
    ]
  in
  let rules = Rules.of_hot_traces hot in
  let chain () = entry_array [| (1, 0) |] in
  let a = Rules.candidates rules ~site_chain:(chain ()) in
  let b = Rules.candidates rules ~site_chain:(chain ()) in
  check_bool "repeat query returns the cached result" true (a == b);
  check_bool "cached result is right" true
    (a = Rules.candidates_reference rules ~site_chain:(chain ()));
  (* The cache key must not alias the caller's (mutable) array. *)
  let mutated = chain () in
  let c = Rules.candidates rules ~site_chain:mutated in
  mutated.(0) <- { Trace.caller = mid 6; callsite = 4 };
  let d = Rules.candidates rules ~site_chain:(chain ()) in
  check_bool "mutating a queried chain does not poison the cache" true (c == d);
  let rebuilt = Rules.of_hot_traces hot in
  check_bool "rebuilt rules answer identically" true
    (Rules.candidates rebuilt ~site_chain:(chain ()) = a)

(* Rules.empty must not share state across values. *)
let test_empty_unshared () =
  let a = Rules.empty () in
  let b = Rules.empty () in
  ignore (Rules.candidates a ~site_chain:(entry_array [| (1, 0) |]));
  check_bool "separate values" true (a != b);
  check_bool "empty has no rules" true
    (Rules.rule_count a = 0 && Rules.rule_count b = 0)

(* --- registry: roots_containing / recompile_candidates --- *)

let registry_program =
  lazy ((Workloads.find "db").Workloads.build ~scale:1)

let gen_stats method_count =
  Gen.(
    map
      (fun edges ->
        {
          Acsi_jit.Expand.expanded_units = 1;
          inline_count = List.length edges;
          guard_count = 0;
          compile_cycles = 10;
          code_bytes = 64;
          inlined_edges = edges;
        })
      (list_size (int_range 0 6)
         (triple
            (int_range 0 (method_count - 1))
            (int_range 0 9)
            (int_range 0 (method_count - 1)))))

(* A registry construction script: (root, stats, rule_stamp) records,
   with repeats so recompilation (version bumps, index retraction of the
   old edge set) is exercised. *)
let gen_registry_script method_count =
  Gen.(
    list_size (int_range 1 25)
      (triple
         (int_range 0 (method_count - 1))
         (gen_stats method_count)
         (int_range 0 3)))

let arbitrary_registry_case =
  let program = Lazy.force registry_program in
  let n = Program.method_count program in
  QCheck.make
    Gen.(
      triple (gen_registry_script n)
        (list_size (int_range 1 10)
           (quad
              (int_range 0 (n - 1))
              (int_range 0 9)
              (int_range 0 (n - 1))
              (int_range 0 4)))
        (int_range 1 4))

let prop_registry_matches =
  QCheck.Test.make
    ~name:"roots_containing / recompile_candidates match reference specs"
    ~count:100 arbitrary_registry_case (fun (script, queries, max_opt_versions) ->
      let program = Lazy.force registry_program in
      let registry = Registry.create program in
      List.iter
        (fun (root, stats, rule_stamp) ->
          Registry.record registry (mid root) stats ~rule_stamp)
        script;
      Array.for_all
        (fun (m : Meth.t) ->
          Registry.roots_containing registry m.Meth.id
          = Registry.roots_containing_reference registry m.Meth.id)
        (Program.methods program)
      && List.for_all
           (fun (caller, callsite, callee, rules_version) ->
             System.recompile_candidates registry ~caller:(mid caller)
               ~callsite ~callee:(mid callee) ~rules_version ~max_opt_versions
             = System.recompile_candidates_reference registry
                 ~caller:(mid caller) ~callsite ~callee:(mid callee)
                 ~rules_version ~max_opt_versions)
           queries)

(* --- end to end: caches are invisible across --jobs --- *)

(* The adaptive-resolving policy exercises every path this PR indexed
   (flag_decisions, the candidates cache, the missing-edge scan), so a
   sweep including it must stay identical when fanned across domains:
   memoization is per-system state, never shared. *)
(* Every cell's virtual cycles, baselines first, then the points in
   cell order. *)
let sweep_cycles (s : Experiment.sweep) =
  List.map (fun (_, m) -> m.Metrics.total_cycles) s.Experiment.baselines
  @ List.map
      (fun p -> p.Experiment.metrics.Metrics.total_cycles)
      s.Experiment.points

let test_sweep_jobs_resolving () =
  let benches =
    [
      {
        Experiment.name = "db";
        program = (Workloads.find "db").Workloads.build ~scale:1;
      };
    ]
  in
  let policies =
    Acsi_policy.Policy.[ Adaptive_resolving 4; Hybrid_param_large 3 ]
  in
  let cfg = Config.default ~policy:Acsi_policy.Policy.Context_insensitive in
  let s1 = Experiment.run_sweep ~jobs:1 cfg ~benches ~policies in
  let s2 = Experiment.run_sweep ~jobs:2 cfg ~benches ~policies in
  check_bool "points" true (s1.Experiment.points = s2.Experiment.points);
  check_bool "baselines" true
    (s1.Experiment.baselines = s2.Experiment.baselines);
  check_bool "cell cycles" true
    (sweep_cycles s1 = sweep_cycles s2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flag_decisions_match;
    QCheck_alcotest.to_alcotest prop_candidates_match;
    Alcotest.test_case "rules: candidates memoization" `Quick
      test_candidates_memo;
    Alcotest.test_case "rules: empty is unshared" `Quick test_empty_unshared;
    QCheck_alcotest.to_alcotest prop_registry_matches;
    Alcotest.test_case "sweep with resolving policy: jobs 1 = jobs 2" `Slow
      test_sweep_jobs_resolving;
  ]
