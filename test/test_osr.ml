(* Tests for on-stack replacement: the extension that lets a long-running
   method benefit from its own recompilation without returning first. *)

open Acsi_bytecode
open Acsi_core
open Acsi_policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A single monolithic main whose hot loop never returns until the end —
   exactly the shape that cannot benefit from recompilation without OSR. *)
let monolithic_program () =
  let open Acsi_lang.Dsl in
  Acsi_lang.Compile.prog
    (prog
       [
         cls "M" ~fields:[]
           [
             static_meth "work" [ "x" ] ~returns:true
               [ ret (band (add (mul (v "x") (i 17)) (i 3)) (i 65535)) ];
           ];
       ]
       [
         let_ "s" (i 0);
         for_ "k" (i 0) (i 400000)
           [ let_ "s" (call "M" "work" [ add (v "s") (v "k") ]) ];
         print (v "s");
       ])

let run ~osr program =
  let cfg = Config.default ~policy:(Policy.Fixed 2) in
  let cfg =
    { cfg with Config.aos = { cfg.Config.aos with Acsi_aos.System.enable_osr = osr } }
  in
  Runtime.run cfg program

let test_osr_fires_on_monolithic_main () =
  let program = monolithic_program () in
  let with_osr = run ~osr:true program in
  let without = run ~osr:false program in
  check_bool "OSR replaced at least one frame" true
    (Acsi_vm.Interp.osr_count with_osr.Runtime.vm > 0);
  check_int "no OSR without the flag" 0
    (Acsi_vm.Interp.osr_count without.Runtime.vm);
  Alcotest.(check (list int))
    "same output"
    (Acsi_vm.Interp.output without.Runtime.vm)
    (Acsi_vm.Interp.output with_osr.Runtime.vm);
  check_bool "OSR makes the monolithic main faster" true
    (with_osr.Runtime.metrics.Metrics.total_cycles
    < without.Runtime.metrics.Metrics.total_cycles)

let test_osr_preserves_workload_outputs () =
  List.iter
    (fun (name, program) ->
      let base = run ~osr:false program in
      let osr = run ~osr:true program in
      Alcotest.(check (list int))
        (name ^ " output under OSR")
        (Acsi_vm.Interp.output base.Runtime.vm)
        (Acsi_vm.Interp.output osr.Runtime.vm))
    (Acsi_workloads.Workloads.build_all ~scale_factor:0.15 ())

(* Direct mechanism test: install optimized code while a method is on
   stack and OSR it from a hook. *)
let test_osr_mechanism_direct () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let vm = Bare_vm.create ~sample_period:50_000 program in
  let fired = ref 0 in
  Acsi_vm.Interp.set_on_timer_sample vm (fun vm ->
      if !fired = 0 then begin
        let oracle = Acsi_jit.Oracle.create program in
        let code, _ =
          Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
            ~root:(Program.meth program main_id)
        in
        Acsi_vm.Interp.install_code vm main_id code;
        if Acsi_vm.Interp.osr vm main_id then incr fired
      end);
  Acsi_vm.Interp.run vm;
  check_int "direct OSR succeeded" 1 !fired;
  check_int "counted" 1 (Acsi_vm.Interp.osr_count vm)

let suite =
  [
    Alcotest.test_case "OSR fires on a monolithic main" `Quick
      test_osr_fires_on_monolithic_main;
    Alcotest.test_case "OSR preserves workload outputs" `Slow
      test_osr_preserves_workload_outputs;
    Alcotest.test_case "OSR mechanism, direct" `Quick test_osr_mechanism_direct;
  ]
