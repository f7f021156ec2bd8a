(* Unit tests for the adaptive optimization system: accounting, the AOS
   database, hot-method aggregation, adaptive-resolution flags, the trace
   listener, and end-to-end organizer behaviour on a live VM. *)

open Acsi_bytecode
open Acsi_aos
open Acsi_policy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mid n = Ids.Method_id.of_int n

(* --- accounting --- *)

let test_accounting () =
  let a = Accounting.create () in
  Accounting.charge a Accounting.Listeners 10;
  Accounting.charge a Accounting.Listeners 5;
  Accounting.charge a Accounting.Compilation 100;
  check_int "listeners" 15 (Accounting.get a Accounting.Listeners);
  check_int "compilation" 100 (Accounting.get a Accounting.Compilation);
  check_int "untouched" 0 (Accounting.get a Accounting.Controller);
  check_int "total" 115 (Accounting.total a);
  check_int "component count" 6 (List.length Accounting.all_components)

(* --- db --- *)

let test_db_refusals_and_ttl () =
  let db = Db.create () in
  let args = (mid 1, 3, mid 2) in
  let caller, callsite, callee = args in
  check_bool "empty" false
    (Db.refused db ~caller ~callsite ~callee ~now:0 ~ttl:10);
  Db.record_refusal db ~caller ~callsite ~callee ~stamp:5
    Acsi_jit.Oracle.Too_large;
  check_bool "fresh refusal holds" true
    (Db.refused db ~caller ~callsite ~callee ~now:7 ~ttl:10);
  check_bool "expired refusal releases" false
    (Db.refused db ~caller ~callsite ~callee ~now:20 ~ttl:10);
  check_bool "different callee unaffected" false
    (Db.refused db ~caller ~callsite ~callee:(mid 9) ~now:6 ~ttl:10);
  check_int "count" 1 (Db.refusal_count db)

let test_db_compilation_log_order () =
  let db = Db.create () in
  let ev v =
    {
      Db.ce_method = mid v;
      ce_version = 1;
      ce_units = v;
      ce_bytes = 0;
      ce_cycles = 0;
      ce_inlines = 0;
      ce_guards = 0;
    }
  in
  Db.record_compilation db (ev 1);
  Db.record_compilation db (ev 2);
  match Db.compilations db with
  | [ a; b ] ->
      check_int "oldest first" 1 a.Db.ce_units;
      check_int "then newer" 2 b.Db.ce_units
  | _ -> Alcotest.fail "expected two events"

(* --- hot methods --- *)

let test_hot_methods () =
  let program =
    Acsi_lang.Compile.prog (Acsi_lang.Dsl.prog [] [ Acsi_lang.Dsl.print (Acsi_lang.Dsl.i 0) ])
  in
  let h = Hot_methods.create program in
  let m = Program.main program in
  for _ = 1 to 10 do
    Hot_methods.add_sample h m
  done;
  check_bool "samples" true (Hot_methods.samples h m = 10.0);
  check_bool "total" true (Hot_methods.total h = 10.0);
  (match Hot_methods.hot h ~min_samples:3.0 ~fraction:0.01 with
  | [ (hot_m, w) ] ->
      check_bool "hot" true (Ids.Method_id.equal hot_m m && w = 10.0)
  | _ -> Alcotest.fail "expected one hot method");
  Hot_methods.decay h ~factor:0.1;
  check_bool "decayed" true (Hot_methods.samples h m = 1.0);
  check_bool "below min now" true
    (Hot_methods.hot h ~min_samples:3.0 ~fraction:0.01 = [])

(* --- flags --- *)

let test_flags_lifecycle () =
  let f = Flags.create () in
  let caller = mid 4 and callsite = 7 in
  check_bool "unflagged" false (Flags.flagged f ~caller ~callsite);
  Flags.flag f ~caller ~callsite ~max_attempts:2;
  check_bool "flagged" true (Flags.flagged f ~caller ~callsite);
  Flags.flag f ~caller ~callsite ~max_attempts:2;
  check_bool "still flagged at limit" true (Flags.flagged f ~caller ~callsite);
  Flags.flag f ~caller ~callsite ~max_attempts:2;
  check_bool "gives up past limit" false (Flags.flagged f ~caller ~callsite);
  check_bool "given up state" true
    (Flags.state f ~caller ~callsite = Some Flags.Given_up);
  (* Resolution freezes a flagged site. *)
  let c2 = 9 in
  Flags.flag f ~caller ~callsite:c2 ~max_attempts:5;
  Flags.resolve f ~caller ~callsite:c2;
  check_bool "resolved stops deepening" false (Flags.flagged f ~caller ~callsite:c2);
  Flags.flag f ~caller ~callsite:c2 ~max_attempts:5;
  check_bool "resolved is sticky" true
    (Flags.state f ~caller ~callsite:c2 = Some Flags.Resolved);
  let flagged, resolved, given_up = Flags.counts f in
  check_int "flagged count" 0 flagged;
  check_int "resolved count" 1 resolved;
  check_int "given up count" 1 given_up

(* --- trace listener depth per policy (on a live stack) --- *)

(* A chain of static calls deep enough to walk: main -> d4 -> d3 -> d2 ->
   d1 -> leaf, where every method passes a parameter. *)
let deep_program () =
  let open Acsi_lang.Dsl in
  let level name callee =
    static_meth name [ "x" ] ~returns:true
      [ ret (call "D" callee [ add (v "x") (i 1) ]) ]
  in
  Acsi_lang.Compile.prog
    (prog
       [
         cls "D" ~fields:[]
           [
             static_meth "leaf" [ "x" ] ~returns:true [ ret (v "x") ];
             level "d1" "leaf";
             level "d2" "d1";
             level "d3" "d2";
             level "d4" "d3";
           ];
       ]
       [
         let_ "s" (i 0);
         for_ "k" (i 0) (i 20000)
           [ let_ "s" (add (v "s") (call "D" "d4" [ v "k" ])) ];
         print (v "s");
       ])

let max_collected_depth program policy =
  let vm = Bare_vm.create ~invoke_stride:7 program in
  let listener =
    Trace_listener.create program ~policy ~flags:(Flags.create ())
  in
  let deepest = ref 0 in
  Acsi_vm.Interp.set_on_invoke vm (fun vm _ ->
      match Trace_listener.sample listener vm with
      | Some (t, _) -> deepest := max !deepest (Acsi_profile.Trace.depth t)
      | None -> ());
  Acsi_vm.Interp.run vm;
  !deepest

let test_listener_depth_by_policy () =
  let program = deep_program () in
  check_int "cins collects edges" 1
    (max_collected_depth program Policy.Context_insensitive);
  check_int "fixed 3 collects depth 3" 3
    (max_collected_depth program (Policy.Fixed 3));
  check_int "fixed 5 collects depth 5" 5
    (max_collected_depth program (Policy.Fixed 5));
  (* Every method here has parameters, so Parameterless == Fixed. *)
  check_int "parameterless walks through parameterful chain" 4
    (max_collected_depth program (Policy.Parameterless 4));
  (* All methods are static, so Class_methods == Fixed too. *)
  check_int "class methods walk through statics" 4
    (max_collected_depth program (Policy.Class_methods 4));
  (* Adaptive resolving stays at edges while nothing is flagged. *)
  check_int "resolve stays shallow unflagged" 1
    (max_collected_depth program (Policy.Adaptive_resolving 5))

let test_listener_stats_histogram () =
  let program = deep_program () in
  let vm = Bare_vm.create ~invoke_stride:11 program in
  let listener =
    Trace_listener.create ~collect_termination_stats:true program
      ~policy:(Policy.Fixed 4) ~flags:(Flags.create ())
  in
  Acsi_vm.Interp.set_on_invoke vm (fun vm _ ->
      ignore (Trace_listener.sample listener vm));
  Acsi_vm.Interp.run vm;
  let st = Trace_listener.stats listener in
  check_bool "samples taken" true (st.Trace_listener.samples > 0);
  let histogram_total = Array.fold_left ( + ) 0 st.Trace_listener.depth_histogram in
  check_int "histogram covers every sample" st.Trace_listener.samples
    histogram_total;
  check_bool "frames walked >= samples" true
    (st.Trace_listener.frames_walked >= st.Trace_listener.samples)

(* --- the full system on a live run --- *)

let run_system ?(policy = Policy.Fixed 3) ?(tweak = fun c -> c) program =
  let vm =
    Bare_vm.create ~sample_period:20_000 ~invoke_stride:64 program
  in
  let sys = System.create (tweak (System.default_config policy)) vm in
  Acsi_vm.Interp.run vm;
  (vm, sys)

let test_system_compiles_and_accounts () =
  let program = deep_program () in
  let vm, sys = run_system program in
  check_bool "optimized methods exist" true
    (Registry.opt_method_count (System.registry sys) > 0);
  check_bool "cumulative >= installed" true
    (Registry.cumulative_bytes (System.registry sys)
    >= Registry.installed_bytes (System.registry sys));
  check_bool "AOS cycles accounted" true
    (Accounting.total (System.accounting sys) > 0);
  check_bool "AOS cycles within total" true
    (Accounting.total (System.accounting sys) < Acsi_vm.Interp.cycles vm);
  check_bool "epochs ran" true (System.epochs_run sys > 0);
  check_bool "baseline compilations counted" true
    (System.baseline_compiled_methods sys >= 6)

let test_system_rules_from_traces () =
  let program = deep_program () in
  let _, sys = run_system program in
  check_bool "dcg populated" true (Acsi_profile.Dcg.size (System.dcg sys) > 0);
  check_bool "rules derived" true
    (Acsi_profile.Rules.rule_count (System.rules sys) > 0)

(* A two-phase polymorphic program: the hot [handle] target flips midway,
   so the missing-edge organizer must recompile the dispatch loop for the
   new phase (given decay and refusal expiry). *)
let phased_program () =
  let open Acsi_lang.Dsl in
  Acsi_lang.Compile.prog
    (prog
       [
         cls "H" ~fields:[] [ meth "handle" [ "x" ] ~returns:true [ ret (v "x") ] ];
         cls "H1" ~parent:"H" ~fields:[]
           [ meth "handle" [ "x" ] ~returns:true [ ret (add (v "x") (i 1)) ] ];
         cls "H2" ~parent:"H" ~fields:[]
           [ meth "handle" [ "x" ] ~returns:true [ ret (add (v "x") (i 2)) ] ];
         cls "P" ~fields:[]
           [
             static_meth "drain" [ "h"; "n" ] ~returns:true
               [
                 let_ "acc" (i 0);
                 for_ "k" (i 0) (v "n")
                   [ let_ "acc" (add (v "acc") (inv (v "h") "handle" [ v "k" ])) ];
                 ret (v "acc");
               ];
           ];
       ]
       [
         let_ "h1" (new_ "H1" []);
         let_ "h2" (new_ "H2" []);
         let_ "acc" (i 0);
         for_ "b" (i 0) (i 900)
           [ let_ "acc" (add (v "acc") (call "P" "drain" [ v "h1"; i 40 ])) ];
         for_ "b" (i 0) (i 900)
           [ let_ "acc" (add (v "acc") (call "P" "drain" [ v "h2"; i 40 ])) ];
         print (band (v "acc") (i 1073741823));
       ])

let test_system_missing_edge_recompiles () =
  let program = phased_program () in
  let _, sys =
    run_system
      ~tweak:(fun c ->
        {
          c with
          System.decay_factor = 0.5;
          decay_period = 1;
          ai_period = 2;
          refusal_ttl = 3;
        })
      program
  in
  let max_version = ref 0 in
  Registry.iter (System.registry sys) ~f:(fun _ e ->
      max_version := max !max_version e.Registry.version);
  check_bool "some method recompiled" true (!max_version > 1)

let test_system_trace_on_timer_ablation () =
  let program = deep_program () in
  let _, sys =
    run_system ~tweak:(fun c -> { c with System.trace_on_timer = true }) program
  in
  check_bool "timer-driven traces still flow" true
    (System.trace_samples_taken sys > 0)

(* --- static pre-warm oracle: determinism matrix --- *)

(* static_seed x {run, run_reference} x repetition, on real workloads:
   the production engine must match the naive reference loop
   (byte-identical output and cycles) with seeding on; seeding must
   preserve output while actually compiling something before the first
   sample; a reactive run must seed nothing; and the seeded run must be
   reproducible. With provenance on, every seeded decision carries the
   Static source. *)
let test_static_seed_matrix () =
  let module Config = Acsi_core.Config in
  let module Runtime = Acsi_core.Runtime in
  let run ?(reference = false) ~seeded ~prov program =
    let cfg = Config.default ~policy:(Policy.Fixed 3) in
    let cfg =
      {
        cfg with
        Config.aos =
          {
            cfg.Config.aos with
            System.static_seed = seeded;
            obs = { Acsi_obs.Control.off with Acsi_obs.Control.provenance = prov };
          };
      }
    in
    let r =
      if reference then Runtime.run_reference cfg program
      else Runtime.run cfg program
    in
    ( Acsi_vm.Interp.output r.Runtime.vm,
      r.Runtime.metrics.Acsi_core.Metrics.total_cycles,
      r.Runtime.sys )
  in
  List.iter
    (fun name ->
      let program =
        (Acsi_workloads.Workloads.find name).Acsi_workloads.Workloads.build
          ~scale:1
      in
      let out_on, cyc_on, sys_on = run ~seeded:true ~prov:true program in
      let out_ref, cyc_ref, _ =
        run ~reference:true ~seeded:true ~prov:false program
      in
      let out_again, cyc_again, _ = run ~seeded:true ~prov:false program in
      let out_react, cyc_react, sys_react =
        run ~seeded:false ~prov:false program
      in
      check_bool
        (name ^ ": engine matches the reference with seeding on")
        true
        (out_on = out_ref && cyc_on = cyc_ref);
      check_bool (name ^ ": seeded run reproducible") true
        (out_on = out_again && cyc_on = cyc_again);
      check_bool (name ^ ": seeding preserves output") true (out_on = out_react);
      check_bool (name ^ ": oracle seeded before first sample") true
        (System.static_seeded_methods sys_on > 0);
      check_int (name ^ ": reactive run seeds nothing") 0
        (System.static_seeded_methods sys_react);
      check_bool (name ^ ": seeding changes the cycle count") true
        (cyc_on <> cyc_react);
      match System.provenance sys_on with
      | None -> Alcotest.fail (name ^ ": provenance requested but absent")
      | Some prov ->
          let _, static, _ = Acsi_obs.Provenance.source_counts prov in
          check_bool (name ^ ": static-source decisions recorded") true
            (static > 0))
    [ "db"; "jess" ]

let suite =
  [
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "db refusals + ttl" `Quick test_db_refusals_and_ttl;
    Alcotest.test_case "db compilation log" `Quick test_db_compilation_log_order;
    Alcotest.test_case "hot methods" `Quick test_hot_methods;
    Alcotest.test_case "flags lifecycle" `Quick test_flags_lifecycle;
    Alcotest.test_case "listener depth per policy" `Quick
      test_listener_depth_by_policy;
    Alcotest.test_case "listener statistics" `Quick test_listener_stats_histogram;
    Alcotest.test_case "system compiles and accounts" `Quick
      test_system_compiles_and_accounts;
    Alcotest.test_case "system derives rules" `Quick test_system_rules_from_traces;
    Alcotest.test_case "missing-edge recompiles" `Quick
      test_system_missing_edge_recompiles;
    Alcotest.test_case "trace-on-timer ablation" `Quick
      test_system_trace_on_timer_ablation;
    Alcotest.test_case "static-seed determinism matrix" `Slow
      test_static_seed_matrix;
  ]
