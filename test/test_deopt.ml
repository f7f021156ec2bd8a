(* Tests for the deoptimization subsystem: deopt tables, bidirectional
   on-stack transfer, pre-existence analysis, and guard-free speculative
   inlining end to end (guard storms, class-load invalidation, and the
   semantic-transparency contract on both execution tiers). *)

open Acsi_bytecode
open Acsi_core
open Acsi_policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixtures --- *)

(* The monolithic shape from test_osr: one long loop over an inlinable
   static call, so the optimized main has both root-level pcs and an
   inline region. *)
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

(* The dispatch workload's handler hierarchy with a tunable hot-loop
   length and flip point: the [apply] site is loaded-CHA-monomorphic
   with a pre-existing receiver until [UrgentHandler] is first allocated
   at iteration [flip] — inside the hot activation. [flip] past [iters]
   (or negative) never fires. The two short tail phases re-enter the hot
   method after compilation has landed, so the speculation-off system
   actually executes its guarded code (OSR is off by default: compiled
   code activates on the next invocation). *)
let dispatch_like ~iters ~flip =
  let open Acsi_lang.Dsl in
  Acsi_lang.Compile.prog
    (prog
       ~globals:Acsi_workloads.Javalib.globals
       (Acsi_workloads.Javalib.classes @ Acsi_workloads.Dispatch.classes)
       [
         let_ "p" (new_ "Pipeline" []);
         let_ "n" (new_ "NormalHandler" [ i 7 ]);
         let_ "a1" (inv (v "p") "run" [ v "n"; i iters; i flip ]);
         let_ "u" (new_ "UrgentHandler" [ i 11 ]);
         let_ "a2" (inv (v "p") "run" [ v "u"; i (iters / 4); i (-1) ]);
         let_ "a3" (inv (v "p") "run" [ v "n"; i (iters / 4); i (-1) ]);
         print
           (band (add (v "a1") (add (v "a2") (v "a3"))) (i 1073741823));
       ])

let config ?(speculate = false) () =
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  {
    cfg with
    Config.aos =
      {
        cfg.Config.aos with
        Acsi_aos.System.speculate;
        enable_osr = speculate || cfg.Config.aos.Acsi_aos.System.enable_osr;
      };
  }

(* --- deopt tables --- *)

let test_table_units () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let root = Program.meth program main_id in
  let oracle = Acsi_jit.Oracle.create program in
  let code, stats =
    Acsi_jit.Expand.compile program Acsi_vm.Cost.default oracle ~root
  in
  check_bool "fixture inlines something" true
    (stats.Acsi_jit.Expand.inline_count > 0);
  let table = Acsi_deopt.Deopt.table_of_code program code in
  check_bool "table belongs to the method" true
    (Acsi_deopt.Deopt.meth table = main_id);
  check_bool "optimized code has deopt points" true
    (Acsi_deopt.Deopt.point_count table > 0);
  let n = Array.length code.Acsi_vm.Code.instrs in
  let seen = ref 0 in
  for pc = 0 to n - 1 do
    match Acsi_deopt.Deopt.point_at table ~pc with
    | None ->
        check_bool "covered agrees with point_at" false
          (Acsi_deopt.Deopt.covered table ~pc)
    | Some plans ->
        incr seen;
        check_bool "covered agrees with point_at" true
          (Acsi_deopt.Deopt.covered table ~pc);
        check_bool "plans are non-empty" true (Array.length plans > 0);
        check_bool "outermost plan is the root" true
          (plans.(0).Acsi_vm.Interp.dp_meth = main_id);
        (* Root frame's locals start at the frame base; inner regions
           live strictly above it. *)
        check_int "root local base" 0 plans.(0).Acsi_vm.Interp.dp_base;
        Array.iteri
          (fun i p ->
            if i > 0 then
              check_bool "region locals above the root's" true
                (p.Acsi_vm.Interp.dp_base > 0))
          plans
  done;
  check_int "point_count counts mapped pcs" (Acsi_deopt.Deopt.point_count table)
    !seen;
  (* Baseline code is its own source: nothing to map. *)
  let vm = Bare_vm.create program in
  let baseline = Acsi_vm.Interp.baseline_code_of vm main_id in
  check_int "baseline table is empty" 0
    (Acsi_deopt.Deopt.point_count
       (Acsi_deopt.Deopt.table_of_code program baseline))

(* --- the deopt mechanism, driven directly from a timer hook --- *)

let test_deopt_mechanism_direct () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let plain = Bare_vm.create program in
  Acsi_vm.Interp.run plain;
  let vm = Bare_vm.create ~sample_period:50_000 program in
  let stage = ref `Compile in
  let installed = ref None in
  Acsi_vm.Interp.set_on_timer_sample vm (fun vm ->
      match !stage with
      | `Compile ->
          let oracle = Acsi_jit.Oracle.create program in
          let code, _ =
            Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
              ~root:(Program.meth program main_id)
          in
          Acsi_vm.Interp.install_code vm main_id code;
          if Acsi_vm.Interp.osr vm main_id then begin
            installed :=
              Some (code, Acsi_deopt.Deopt.table_of_code program code);
            stage := `Deopt
          end
      | `Deopt -> (
          match !installed with
          | None -> ()
          | Some (code, table) ->
              let f =
                vm.Acsi_vm.Interp.frames.(vm.Acsi_vm.Interp.depth - 1)
              in
              if f.Acsi_vm.Interp.f_code == code then (
                match
                  Acsi_deopt.Deopt.point_at table ~pc:f.Acsi_vm.Interp.f_pc
                with
                | Some plans ->
                    Acsi_vm.Interp.deopt_top_frame vm ~plans
                      ~reason:Acsi_vm.Interp.Guard_storm;
                    stage := `Done
                | None -> ()))
      | `Done -> ());
  Acsi_vm.Interp.run vm;
  check_bool "transfer happened" true (!stage = `Done);
  check_int "one up" 1 (Acsi_vm.Interp.osr_up vm);
  check_int "one down" 1 (Acsi_vm.Interp.osr_down vm);
  check_int "reason recorded" 1 (Acsi_vm.Interp.deopt_guard_count vm);
  check_int "no invalidations" 0 (Acsi_vm.Interp.deopt_invalidate_count vm);
  Alcotest.(check (list int))
    "round trip is byte-identical"
    (Acsi_vm.Interp.output plain)
    (Acsi_vm.Interp.output vm)

(* The same round trip with every baseline body on the closure tier:
   the frames [deopt_top_frame] rebuilds run on the baseline closures,
   not on the interpreter, and the run stays cycle-identical to the
   naive reference loop driving the same hook. *)
let test_deopt_frames_carry_closures () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let exec run =
    let vm = Bare_vm.create ~sample_period:50_000 program in
    Array.iter
      (fun (m : Meth.t) ->
        Acsi_vm.Tier.install vm m.Meth.id
          (Acsi_vm.Interp.code_of vm m.Meth.id))
      (Program.methods program);
    let rebuilt = ref [] in
    let stage = ref `Compile in
    Acsi_vm.Interp.set_on_timer_sample vm (fun vm ->
        match !stage with
        | `Compile ->
            let oracle = Acsi_jit.Oracle.create program in
            let code, _ =
              Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
                ~root:(Program.meth program main_id)
            in
            Acsi_vm.Interp.install_code vm main_id code;
            if Acsi_vm.Interp.osr vm main_id then
              stage := `Deopt (code, Acsi_deopt.Deopt.table_of_code program code)
        | `Deopt (code, table) -> (
            let depth = vm.Acsi_vm.Interp.depth in
            let f = vm.Acsi_vm.Interp.frames.(depth - 1) in
            if f.Acsi_vm.Interp.f_code == code then
              match
                Acsi_deopt.Deopt.point_at table ~pc:f.Acsi_vm.Interp.f_pc
              with
              | Some plans ->
                  Acsi_vm.Interp.deopt_top_frame vm ~plans
                    ~reason:Acsi_vm.Interp.Guard_storm;
                  let n = Array.length plans in
                  rebuilt :=
                    List.init n (fun i ->
                        Array.length
                          vm.Acsi_vm.Interp.frames.(depth - 1 + i)
                            .Acsi_vm.Interp.f_ncode);
                  stage := `Done
              | None -> ())
        | `Done -> ());
    run vm;
    ( !rebuilt,
      Acsi_vm.Interp.output vm,
      Acsi_vm.Interp.cycles vm,
      Acsi_vm.Interp.instructions_executed vm )
  in
  let rebuilt, out, cycles, instrs = exec (fun vm -> Acsi_vm.Interp.run vm) in
  let _, out_ref, cycles_ref, instrs_ref =
    exec (fun vm -> Acsi_vm.Interp.run_reference vm)
  in
  check_bool "frames were rebuilt" true (rebuilt <> []);
  check_bool "every rebuilt frame carries closures" true
    (List.for_all (fun n -> n > 0) rebuilt);
  Alcotest.(check (list int)) "output as the reference" out_ref out;
  check_int "cycles as the reference" cycles_ref cycles;
  check_int "instructions as the reference" instrs_ref instrs

(* --- pre-existence analysis --- *)

let test_preexistence () =
  let open Acsi_lang.Dsl in
  let program =
    Acsi_lang.Compile.prog
      (prog
         [
           cls "A" ~fields:[]
             [ meth "id" [ "x" ] ~returns:true [ ret (v "x") ] ];
           cls "B" ~parent:"A" ~fields:[]
             [ meth "id" [ "x" ] ~returns:true [ ret (add (v "x") (i 1)) ] ];
           cls "T" ~fields:[]
             [
               (* Receiver is an unmodified, non-escaping argument. *)
               static_meth "viaArg" [ "h" ] ~returns:true
                 [ ret (inv (v "h") "id" [ i 1 ]) ];
               (* Receiver is freshly allocated inside the activation. *)
               static_meth "viaFresh" [] ~returns:true
                 [ ret (inv (new_ "A" []) "id" [ i 2 ]) ];
               (* Receiver argument was overwritten before the call. *)
               static_meth "viaClobbered" [ "h" ] ~returns:true
                 [
                   let_ "h" (new_ "B" []);
                   ret (inv (v "h") "id" [ i 3 ]);
                 ];
             ];
         ]
         [
           print (call "T" "viaArg" [ new_ "A" [] ]);
           print (call "T" "viaFresh" []);
           print (call "T" "viaClobbered" [ new_ "A" [] ]);
         ])
  in
  let table = Acsi_analysis.Summary.analyze program in
  let flags name =
    let m = Program.find_method program ~cls:"T" ~name in
    Acsi_analysis.Preexist.receiver_preexists program table m
  in
  let any a = Array.exists (fun b -> b) a in
  check_bool "argument receiver pre-exists" true (any (flags "viaArg"));
  check_bool "fresh receiver does not" false (any (flags "viaFresh"));
  check_bool "clobbered receiver does not" false (any (flags "viaClobbered"))

(* --- speculation end to end --- *)

let run_with cfg program =
  let r = Runtime.run cfg program in
  (r.Runtime.metrics, Acsi_vm.Interp.output r.Runtime.vm, r.Runtime.sys)

let test_speculation_dispatch () =
  let program = dispatch_like ~iters:40_000 ~flip:24_000 in
  let off, off_out, _ = run_with (config ()) program in
  let on_, on_out, sys = run_with (config ~speculate:true ()) program in
  Alcotest.(check (list int)) "identical output" off_out on_out;
  check_bool "guard checks eliminated" true
    (on_.Metrics.guard_hits + on_.Metrics.guard_misses
    < off.Metrics.guard_hits + off.Metrics.guard_misses);
  check_bool "speculative code was installed" true
    (Acsi_aos.System.speculative_installs sys > 0);
  check_bool "class load invalidated the speculation" true
    (on_.Metrics.deopt_invalidate >= 1);
  check_bool "a live frame was deoptimized" true (on_.Metrics.osr_down >= 1);
  check_bool "generalized OSR moved frames up" true (on_.Metrics.osr_up >= 1)

(* Speculation off must be inert: with [speculate] disabled no deopt
   machinery engages, guard storms included, although this program's
   guards miss after the flip. *)
let test_speculation_off_is_inert () =
  let program = dispatch_like ~iters:40_000 ~flip:24_000 in
  let m, _, sys = run_with (Config.default ~policy:(Policy.Fixed 3)) program in
  check_bool "inline guards missed" true (m.Metrics.guard_misses > 0);
  check_int "no deopt tables retired" 0 (Acsi_aos.System.pending_deopts sys);
  check_int "no speculative installs" 0
    (Acsi_aos.System.speculative_installs sys);
  check_int "no frames deoptimized" 0 m.Metrics.osr_down;
  check_int "no invalidation deopts" 0 m.Metrics.deopt_invalidate;
  check_int "no guard-storm deopts" 0 m.Metrics.deopt_guard

(* The production engine must agree bit for bit with the naive
   reference loop under speculation: same output, same cycle counts,
   same guard and deopt counters. *)
let test_speculation_both_tiers () =
  let program = dispatch_like ~iters:40_000 ~flip:24_000 in
  let key (m : Metrics.t) =
    ( m.Metrics.total_cycles,
      m.Metrics.guard_hits,
      m.Metrics.guard_misses,
      m.Metrics.osr_up,
      m.Metrics.osr_down,
      m.Metrics.deopt_guard,
      m.Metrics.deopt_invalidate,
      m.Metrics.output_checksum )
  in
  let cfg = config ~speculate:true () in
  let closure, c_out, _ = run_with cfg program in
  let reference = Runtime.run_reference cfg program in
  Alcotest.(check (list int))
    "identical output" c_out
    (Acsi_vm.Interp.output reference.Runtime.vm);
  check_bool "identical metrics across tiers" true
    (key closure = key reference.Runtime.metrics)

(* Class-loading invalidation corpus: workloads that demonstrably load
   classes late must keep byte-identical output under speculation, and
   the AOS-free interpreter is the semantic referee. *)
let test_invalidation_corpus () =
  List.iter
    (fun name ->
      let spec = Acsi_workloads.Workloads.find name in
      let program =
        spec.Acsi_workloads.Workloads.build
          ~scale:spec.Acsi_workloads.Workloads.default_scale
      in
      let referee = Runtime.run_no_aos (config ()) program in
      let m, out, _ = run_with (config ~speculate:true ()) program in
      Alcotest.(check (list int))
        (name ^ " output matches the AOS-free referee")
        (Acsi_vm.Interp.output referee)
        out;
      if String.equal name "dispatch" then begin
        check_bool "dispatch invalidates at least once" true
          (m.Metrics.deopt_invalidate >= 1);
        check_int "dispatch runs guard-free" 0
          (m.Metrics.guard_hits + m.Metrics.guard_misses)
      end;
      if String.equal name "jbb" then
        check_bool "jbb hits the guard-storm path" true
          (m.Metrics.deopt_guard >= 1))
    [ "dispatch"; "javac"; "jbb" ]

(* --- QCheck: the interp -> optimized -> deopt -> interp round trip --- *)

(* Random hot-loop lengths and flip points (including flips that never
   fire and flips before the compile lands): whatever the adaptive
   system speculates, reverts or deoptimizes, the printed output must
   equal the AOS-free interpreter's. *)
let qcheck_roundtrip =
  QCheck.Test.make ~count:6 ~name:"speculative round trip is identity"
    QCheck.(pair (int_range 5_000 45_000) (int_range 0 11))
    (fun (iters, flip_pct) ->
      let flip = iters * flip_pct / 10 in
      (* flip_pct = 11 puts the flip past the loop: never fires *)
      let program = dispatch_like ~iters ~flip in
      let referee = Runtime.run_no_aos (config ()) program in
      let _, out, _ = run_with (config ~speculate:true ()) program in
      Acsi_vm.Interp.output referee = out)

let suite =
  [
    Alcotest.test_case "deopt table units" `Quick test_table_units;
    Alcotest.test_case "deopt mechanism, direct" `Quick
      test_deopt_mechanism_direct;
    Alcotest.test_case "deoptimized frames run on closures" `Quick
      test_deopt_frames_carry_closures;
    Alcotest.test_case "pre-existence analysis" `Quick test_preexistence;
    Alcotest.test_case "speculation on dispatch shape" `Quick
      test_speculation_dispatch;
    Alcotest.test_case "speculation off is inert" `Quick
      test_speculation_off_is_inert;
    Alcotest.test_case "both tiers bit-identical" `Quick
      test_speculation_both_tiers;
    Alcotest.test_case "class-loading invalidation corpus" `Slow
      test_invalidation_corpus;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
  ]
