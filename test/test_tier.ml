(* The closure ("native") execution tier is required to be an exact
   host-speed re-encoding of the interpreter: the tests here run a
   program on the production engine and on the naive [run_reference]
   loop and demand byte-identical observable state — output, cycle
   counts, every metric — plus the negative half of the contract: code
   the install check refuses is never installed, code the tier cannot
   compile stays on the interpreter, and preemption boundaries land
   identically no matter which tier a frame runs on. The per-cell check over the whole bench sweep lives in
   test/reference_sweep. *)

open Acsi_lang
module Interp = Acsi_vm.Interp
module Tier = Acsi_vm.Tier
module Code = Acsi_vm.Code
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Runtime = Acsi_core.Runtime
module Metrics = Acsi_core.Metrics
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Provenance = Acsi_obs.Provenance

let small_scale = 0.12

let programs = lazy (Workloads.build_all ~scale_factor:small_scale ())

(* Aggressive sampling so even small runs go through the full adaptive
   pipeline (optimizing compiles, hence tier installs). *)
let aggressive (cfg : Config.t) =
  { cfg with Config.sample_period = 5_000; invoke_stride = 16 }

(* --- satellite: differential over the random-program corpus --- *)

(* Random programs, each with every operator over register, constant
   and field operands (see [Test_props.gen_operator_block]). Under the
   adaptive system hot code soon runs optimized, reshaped by inlining
   and the peephole pass, so the baseline closures alone ([run_no_aos])
   must print the same too. *)
let prop_tier_differential =
  QCheck.Test.make ~name:"closure tier preserves output and cycles"
    ~count:20 Test_props.arbitrary_operator_program (fun ast ->
      let program = Compile.prog ast in
      let cfg =
        aggressive (Config.default ~policy:(Policy.Hybrid_param_large 5))
      in
      let on = Runtime.run cfg program in
      let reference = Runtime.run_reference cfg program in
      let expected = Interp.output reference.Runtime.vm in
      Interp.output on.Runtime.vm = expected
      && on.Runtime.metrics = reference.Runtime.metrics
      && Interp.output (Runtime.run_no_aos cfg program) = expected)

(* --- satellite: the install gate rejects malformed code --- *)

let counter_prog =
  Dsl.(
    prog
      [
        cls "W" ~fields:[ "acc" ]
          [
            meth "init" [ "start" ] ~returns:false
              [ set_thisf "acc" (v "start") ];
            meth "bump" [ "x" ] ~returns:true
              [
                set_thisf "acc" (add (thisf "acc") (v "x"));
                ret (thisf "acc");
              ];
          ];
      ]
      [
        let_ "w" (new_ "W" [ i 0 ]);
        let_ "s" (i 0);
        for_ "i" (i 0) (i 2000)
          [ let_ "s" (add (v "s") (inv (v "w") "bump" [ i 1 ])) ];
        print (v "s");
      ])

let test_malformed_code_rejected () =
  let program = Compile.prog counter_prog in
  let vm = Interp.create program in
  let main = Acsi_bytecode.Program.main program in
  let good = Interp.code_of vm main in
  (* An operand-stack underflow: pops from the empty entry stack. The
     source map marks both instructions as JIT-synthesized — [Jit_check]
     trusts unmapped (baseline) code, so the map is what routes this
     through full re-verification, exactly as for real optimized code. *)
  let bad =
    {
      good with
      Code.tier = Code.Optimized;
      Code.instrs = [| Acsi_bytecode.Instr.Pop; Acsi_bytecode.Instr.Return_void |];
      Code.src =
        Some
          (Array.make 2
             { Code.src_meth = main; Code.src_pc = -1; Code.parents = [] });
    }
  in
  Alcotest.(check bool)
    "Jit_check rejects the code" true
    (Acsi_analysis.Jit_check.check program bad <> []);
  (* The tier compiler's own verification pass refuses it as well (the
     fall-back the AOS relies on for code [Jit_check] trusts, such as
     baseline bodies without a source map)... *)
  (match Tier.install vm main bad with
  | () -> Alcotest.fail "tier compiled stack-underflowing code"
  | exception _ -> ());
  (* ...and the method stays on the interpreter tier. *)
  Alcotest.(check bool)
    "no closure code installed" false
    (Interp.native_installed vm main)

(* A counter-program VM whose system traces and records provenance, and
   [main]'s code with its body replaced by a stack underflow under the
   given source map. *)
let observed_system () =
  let program = Compile.prog counter_prog in
  let vm = Interp.create program in
  let aos =
    {
      (System.default_config (Policy.Fixed 3)) with
      System.obs =
        {
          Acsi_obs.Control.off with
          Acsi_obs.Control.provenance = true;
          trace = true;
        };
    }
  in
  let sys = System.create aos vm in
  let main = Acsi_bytecode.Program.main program in
  let underflow src =
    {
      (Interp.code_of vm main) with
      Code.tier = Code.Optimized;
      Code.instrs = [| Acsi_bytecode.Instr.Pop; Acsi_bytecode.Instr.Return_void |];
      Code.src = src;
    }
  in
  (vm, sys, main, underflow)

let adopt_stats =
  {
    Acsi_jit.Expand.expanded_units = 2;
    inline_count = 0;
    guard_count = 0;
    compile_cycles = 0;
    code_bytes = 0;
    inlined_edges = [];
  }

(* The tracer's instants: (track, name, args), oldest first. *)
let instants sys =
  let acc = ref [] in
  Acsi_obs.Tracer.iter (System.tracer sys) ~f:(function
    | Acsi_obs.Tracer.Instant { track; name; args; _ } ->
        acc := (track, name, args) :: !acc
    | _ -> ());
  List.rev !acc

let the_decision sys =
  match System.provenance sys with
  | None -> Alcotest.fail "provenance store missing"
  | Some prov -> (
      match Provenance.tier_all prov with
      | [ d ] -> d
      | _ -> Alcotest.fail "expected exactly one install decision")

(* A tier compile that raises is never swallowed: the adopting system
   keeps the method on the interpreter tier, records why and marks it on
   the timeline. The code carries no source map, so the install check
   trusts it and only the tier compiler's own verification pass sees the
   underflow. *)
let test_tier_failure_visible () =
  let vm, sys, main, underflow = observed_system () in
  System.adopt_compiled sys main (underflow None) adopt_stats ~rule_stamp:0
    ~native:None;
  Alcotest.(check bool)
    "no closure code installed" false
    (Interp.native_installed vm main);
  (match the_decision sys with
  | { Provenance.td_outcome = Provenance.Tier_fell_back why; td_meth; _ } ->
      Alcotest.(check int) "recorded for main" (main :> int) (td_meth :> int);
      Alcotest.(check bool)
        "reason names the verifier error" true
        (Test_bytecode.contains why "stack underflow")
  | _ -> Alcotest.fail "expected a fell-back decision");
  match instants sys with
  | [ ("CompilationThread", "tier-fell-back", args) ] ->
      Alcotest.(check (option string))
        "instant names the method" (Some "main/0") (List.assoc_opt "method" args)
  | _ -> Alcotest.fail "expected exactly one tier-fell-back instant"

(* A refused install is one instant on the Compilation track, carrying
   the method and the rendered diagnostic, and charges nothing: the
   clock does not move and the current code stays installed. *)
let test_refusal_traced () =
  let vm, sys, main, underflow = observed_system () in
  let before = Interp.code_of vm main and cycles = Interp.cycles vm in
  let bad =
    underflow
      (Some
         (Array.make 2 { Code.src_meth = main; Code.src_pc = -1; Code.parents = [] }))
  in
  let why =
    match Acsi_analysis.Jit_check.check (Interp.program vm) bad with
    | d :: _ -> Acsi_analysis.Diag.to_string d
    | [] -> Alcotest.fail "Jit_check accepts the underflow"
  in
  System.adopt_compiled sys main bad adopt_stats ~rule_stamp:0 ~native:None;
  Alcotest.(check bool) "current code kept" true (Interp.code_of vm main == before);
  Alcotest.(check int) "clock unchanged" cycles (Interp.cycles vm);
  (match the_decision sys with
  | { Provenance.td_outcome = Provenance.Install_refused w; _ } ->
      Alcotest.(check string) "refusal carries the diagnostic" why w
  | _ -> Alcotest.fail "expected a refused decision");
  Alcotest.(check bool)
    "one install-refused instant" true
    (instants sys
    = [
        ( "CompilationThread",
          "install-refused",
          [ ("method", "main/0"); ("reason", why) ] );
      ])

(* --- satellite: tier decisions recorded in provenance --- *)

let test_provenance_records_tier_decisions () =
  let _, program =
    List.find (fun (n, _) -> String.equal n "db") (Lazy.force programs)
  in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let cfg =
    {
      cfg with
      Config.aos =
        {
          cfg.Config.aos with
          System.obs =
            {
              Acsi_obs.Control.off with
              Acsi_obs.Control.provenance = true;
            };
        };
    }
  in
  let result = Runtime.run cfg program in
  match System.provenance result.Runtime.sys with
  | None -> Alcotest.fail "provenance store missing"
  | Some prov ->
      let compiled, refused, fell_back =
        Provenance.tier_outcome_counts prov
      in
      Alcotest.(check bool)
        "tier decisions recorded" true
        (Provenance.tier_count prov > 0);
      Alcotest.(check int)
        "decision total is consistent" (Provenance.tier_count prov)
        (compiled + refused + fell_back);
      Alcotest.(check bool)
        "verified workload code all compiled" true
        (compiled > 0 && refused = 0 && fell_back = 0)

(* --- satellite: preemption across tiers --- *)

(* Virtual threads suspend at cycle-budget window boundaries. On the
   closure tier those boundaries fall inside closure-compiled frames;
   the suspension points (and hence the whole interleaving) must be
   cycle-identical to the interpreter-tier run. [resume] has no
   reference loop, so one AOS run supplies each method's final code,
   and two AOS-free VMs run that same code: one with every method on
   the closure tier, one without. *)
let final_code program =
  let vm = Interp.create ~sample_period:5_000 ~invoke_stride:16 program in
  let _sys = System.create (System.default_config (Policy.Fixed 3)) vm in
  Interp.run vm;
  Array.map
    (fun (m : Acsi_bytecode.Meth.t) ->
      Interp.code_of vm m.Acsi_bytecode.Meth.id)
    (Acsi_bytecode.Program.methods program)

let threaded_run ~tier_on program codes =
  let vm = Interp.create ~sample_period:5_000 ~invoke_stride:16 program in
  Array.iteri
    (fun i code ->
      let mid = Acsi_bytecode.Ids.Method_id.of_int i in
      Interp.install_code vm mid code;
      if tier_on then Tier.install vm mid code)
    codes;
  let th1 = Interp.spawn vm in
  let th2 = Interp.spawn vm in
  let resumes = ref 0 in
  let rec drive () =
    let s1 = Interp.resume vm th1 ~quantum:997 in
    let s2 = Interp.resume vm th2 ~quantum:997 in
    incr resumes;
    if s1 = Interp.Running || s2 = Interp.Running then drive ()
  in
  drive ();
  (Interp.output vm, Interp.cycles vm, !resumes, Interp.native_installed vm
                                                   (Acsi_bytecode.Program.main
                                                      program))

let test_preemption_across_tiers () =
  let program = Compile.prog counter_prog in
  let codes = final_code program in
  Alcotest.(check bool)
    "the AOS run optimized some method" true
    (Array.exists (fun c -> c.Code.tier = Code.Optimized) codes);
  let out_on, cycles_on, resumes_on, tiered =
    threaded_run ~tier_on:true program codes
  in
  let out_off, cycles_off, resumes_off, _ =
    threaded_run ~tier_on:false program codes
  in
  Alcotest.(check bool) "closure tier engaged" true tiered;
  Alcotest.(check bool)
    "suspensions landed mid-run" true (resumes_on > 5);
  Alcotest.(check (list int)) "interleaved output" out_off out_on;
  Alcotest.(check int) "final cycles" cycles_off cycles_on;
  Alcotest.(check int) "resume count" resumes_off resumes_on

(* --- satellite: determinism across concurrent domains --- *)

(* VMs on concurrent domains (the bench's --jobs mode) share the program
   and nothing mutable; concurrent runs must neither interfere nor drift
   from a serial run. *)
let test_cross_domain_determinism () =
  let _, program =
    List.find (fun (n, _) -> String.equal n "jess") (Lazy.force programs)
  in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let run () =
    let r = Runtime.run cfg program in
    (Interp.output r.Runtime.vm, r.Runtime.metrics)
  in
  let serial = run () in
  let d1 = Domain.spawn run in
  let d2 = Domain.spawn run in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 matches serial" true (r1 = serial);
  Alcotest.(check bool) "domain 2 matches serial" true (r2 = serial)

(* Cost neutrality across the corpus: the closure tier on every baseline
   method must match the naive reference loop on the observable output
   and on every virtual cycle — its statements and expression trees
   charge exactly their source instructions' cycles and hooks fire at
   the same counts, so the only difference is host dispatch overhead. *)
let test_fusion_cost_neutral () =
  List.iter
    (fun (name, program) ->
      let run exec =
        let vm = Interp.create program in
        exec vm;
        (Interp.output vm, Interp.cycles vm)
      in
      let tiered vm =
        Array.iter
          (fun (m : Acsi_bytecode.Meth.t) ->
            Tier.install vm m.Acsi_bytecode.Meth.id
              (Interp.code_of vm m.Acsi_bytecode.Meth.id))
          (Acsi_bytecode.Program.methods program);
        Interp.run vm
      in
      let out_on, cyc_on = run tiered in
      let out_off, cyc_off = run (fun vm -> Interp.run_reference vm) in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: output identical" name)
        out_off out_on;
      Alcotest.(check int)
        (Printf.sprintf "%s: cycle total identical" name)
        cyc_off cyc_on)
    (Lazy.force programs)

let suite =
  [
    Alcotest.test_case "fusion is cost-neutral" `Quick
      test_fusion_cost_neutral;
    QCheck_alcotest.to_alcotest prop_tier_differential;
    Alcotest.test_case "install gate rejects malformed code" `Quick
      test_malformed_code_rejected;
    Alcotest.test_case "refused install is one traced event" `Quick
      test_refusal_traced;
    Alcotest.test_case "tier failure is visible" `Quick
      test_tier_failure_visible;
    Alcotest.test_case "tier decisions recorded in provenance" `Quick
      test_provenance_records_tier_decisions;
    Alcotest.test_case "preemption across tiers" `Quick
      test_preemption_across_tiers;
    Alcotest.test_case "cross-domain determinism" `Quick
      test_cross_domain_determinism;
  ]
