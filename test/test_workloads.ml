(* Workload sanity: every benchmark compiles, verifies, runs at a small
   scale, produces deterministic output, and behaves identically with and
   without the adaptive optimization system. *)

open Acsi_core

let small_scale = 0.12

let programs = lazy (Acsi_workloads.Workloads.build_all ~scale_factor:small_scale ())

let cfg () = Config.default ~policy:Acsi_policy.Policy.Context_insensitive

let test_all_run () =
  List.iter
    (fun (name, program) ->
      let vm = Runtime.run_no_aos (cfg ()) program in
      Alcotest.(check bool)
        (name ^ " produced output") true
        (List.length (Acsi_vm.Interp.output vm) > 0))
    (Lazy.force programs)

let test_deterministic () =
  List.iter
    (fun (name, program) ->
      let out1 = Acsi_vm.Interp.output (Runtime.run_no_aos (cfg ()) program) in
      let out2 = Acsi_vm.Interp.output (Runtime.run_no_aos (cfg ()) program) in
      Alcotest.(check (list int)) (name ^ " deterministic") out1 out2)
    (Lazy.force programs)

let test_aos_preserves_output () =
  List.iter
    (fun (name, program) ->
      let base = Acsi_vm.Interp.output (Runtime.run_no_aos (cfg ()) program) in
      List.iter
        (fun policy ->
          let result = Runtime.run (Config.default ~policy) program in
          Alcotest.(check (list int))
            (Printf.sprintf "%s under %s" name
               (Acsi_policy.Policy.to_string policy))
            base
            (Acsi_vm.Interp.output result.Runtime.vm))
        Acsi_policy.Policy.
          [
            Context_insensitive;
            Fixed 3;
            Parameterless 4;
            Class_methods 4;
            Large_methods 4;
            Hybrid_param_class 5;
            Hybrid_param_large 5;
            Adaptive_resolving 4;
          ])
    (Lazy.force programs)

(* [run_no_aos] runs baseline code on the closure tier; a bare VM driven
   by the naive reference loop must end with the same output, clock and
   instruction count. *)
let test_no_aos_matches_reference () =
  List.iter
    (fun (name, program) ->
      let cfg = cfg () in
      let tier = Runtime.run_no_aos cfg program in
      let reference = Runtime.create_vm cfg program in
      Acsi_vm.Interp.run_reference reference;
      let observe vm =
        Acsi_vm.Interp.
          (output vm, cycles vm, instructions_executed vm, calls_executed vm)
      in
      Alcotest.(check bool)
        (name ^ ": output, cycles, instructions and calls")
        true
        (observe tier = observe reference))
    (Lazy.force programs)

let test_compress_roundtrip () =
  let _, program =
    List.find (fun (n, _) -> String.equal n "compress") (Lazy.force programs)
  in
  let vm = Runtime.run_no_aos (cfg ()) program in
  match Acsi_vm.Interp.output vm with
  | [ _checksum; errors ] ->
      Alcotest.(check int) "compress roundtrip errors" 0 errors
  | other ->
      Alcotest.failf "unexpected compress output arity: %d" (List.length other)

let test_adaptive_system_compiles_methods () =
  (* Needs runs long enough for the sampler to find hot methods. *)
  List.iter
    (fun (name, program) ->
      let result =
        Runtime.run (Config.default ~policy:(Acsi_policy.Policy.Fixed 3)) program
      in
      let m = result.Runtime.metrics in
      Alcotest.(check bool)
        (name ^ " opt-compiled some methods")
        true
        (m.Metrics.opt_methods > 0);
      Alcotest.(check bool)
        (name ^ " took method samples")
        true
        (m.Metrics.method_samples > 0);
      Alcotest.(check bool)
        (name ^ " took trace samples")
        true (m.Metrics.trace_samples > 0))
    (Acsi_workloads.Workloads.build_all ~scale_factor:0.3 ())

let suite =
  [
    Alcotest.test_case "all benchmarks run" `Quick test_all_run;
    Alcotest.test_case "deterministic output" `Quick test_deterministic;
    Alcotest.test_case "AOS preserves observable behaviour" `Slow
      test_aos_preserves_output;
    Alcotest.test_case "no-AOS run matches the reference loop" `Quick
      test_no_aos_matches_reference;
    Alcotest.test_case "compress roundtrip is lossless" `Quick
      test_compress_roundtrip;
    Alcotest.test_case "adaptive system compiles hot methods" `Quick
      test_adaptive_system_compiles_methods;
  ]
