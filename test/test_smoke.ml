(* Quick end-to-end pipeline checks: DSL -> compile -> verify -> run,
   then JIT-expand a method and check behaviour is preserved. *)

open Acsi_bytecode
open Acsi_lang
open Acsi_vm
open Acsi_jit
open Acsi_profile

let sample_prog =
  Dsl.(
    prog
      [
        cls "A" ~fields:[]
          [ meth "foo" [] ~returns:true [ ret (i 1) ] ];
        cls "B" ~parent:"A" ~fields:[]
          [ meth "foo" [] ~returns:true [ ret (i 2) ] ];
        cls "Calc" ~fields:[ "acc" ]
          [
            meth "init" [ "start" ] ~returns:false
              [ set_thisf "acc" (v "start") ];
            meth "step" [ "x" ] ~returns:true
              [
                set_thisf "acc" (add (thisf "acc") (mul (v "x") (i 2)));
                ret (thisf "acc");
              ];
          ];
      ]
      [
        let_ "a" (new_ "A" []);
        let_ "b" (new_ "B" []);
        let_ "s" (i 0);
        for_ "i" (i 0) (i 11)
          [ let_ "s" (add (v "s") (add (inv (v "a") "foo" []) (inv (v "b") "foo" []))) ];
        print (v "s");
        let_ "c" (new_ "Calc" [ i 5 ]);
        expr (inv (v "c") "step" [ i 3 ]);
        print (inv (v "c") "step" [ i 1 ]);
      ])

let run_program program =
  let vm = Bare_vm.create program in
  Interp.run vm;
  (vm, Interp.output vm)

let test_compile_run () =
  let program = Compile.prog sample_prog in
  let _, out = run_program program in
  (* 11 iterations of (1 + 2) = 33; Calc: 5 + 6 = 11, then 11 + 2 = 13 *)
  Alcotest.(check (list int)) "output" [ 33; 13 ] out

let test_opt_preserves_semantics () =
  let program = Compile.prog sample_prog in
  let _, base_out = run_program program in
  (* Optimize every method with an empty rule set (static heuristics only),
     then with a fully-seeded profile; output must not change. *)
  let check_with rules label =
    let vm = Bare_vm.create program in
    let oracle = Oracle.create program in
    Oracle.set_rules oracle rules;
    Array.iter
      (fun m ->
        let code, _ = Expand.compile program (Interp.cost vm) oracle ~root:m in
        Interp.install_code vm m.Meth.id code)
      (Program.methods program);
    Interp.run vm;
    Alcotest.(check (list int)) label base_out (Interp.output vm)
  in
  check_with (Rules.empty ()) "static-only inlining preserves output";
  (* Seed a profile that recommends both A.foo and B.foo at every site. *)
  let foo_a = Program.find_method program ~cls:"A" ~name:"foo" in
  let foo_b = Program.find_method program ~cls:"B" ~name:"foo" in
  let main = Program.meth program (Program.main program) in
  let hot =
    List.concat_map
      (fun (callee : Meth.t) ->
        Array.to_list main.Meth.body
        |> List.mapi (fun pc instr -> (pc, instr))
        |> List.filter_map (fun (pc, instr) ->
               match instr with
               | Instr.Call_virtual (_, _) ->
                   Some
                     ( Trace.make ~callee:callee.Meth.id
                         ~chain:
                           [ { Trace.caller = main.Meth.id; callsite = pc } ],
                       100.0 )
               | _ -> None))
      [ foo_a; foo_b ]
  in
  check_with (Rules.of_hot_traces hot) "profile-guided inlining preserves output"

let test_expand_inlines_tiny () =
  let program = Compile.prog sample_prog in
  let oracle = Oracle.create program in
  let step = Program.find_method program ~cls:"Calc" ~name:"step" in
  ignore step;
  let main = Program.meth program (Program.main program) in
  let code, stats =
    Expand.compile program Cost.default oracle ~root:main
  in
  Alcotest.(check bool) "some inlining happened" true (stats.Expand.inline_count > 0);
  Alcotest.(check bool)
    "opt code is larger than baseline body" true
    (Array.length code.Code.instrs >= Array.length main.Meth.body)

let suite =
  [
    Alcotest.test_case "compile and run" `Quick test_compile_run;
    Alcotest.test_case "optimization preserves semantics" `Quick
      test_opt_preserves_semantics;
    Alcotest.test_case "expander inlines tiny methods" `Quick
      test_expand_inlines_tiny;
  ]
