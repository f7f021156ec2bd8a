(* Edge-case tests for the inline expander: void callees, calls inside
   guarded inline bodies, operand stacks pending across inlined regions,
   and nested guard chains. *)

open Acsi_bytecode
open Acsi_jit
open Acsi_profile
open Acsi_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_program program =
  let vm = Bare_vm.create program in
  Acsi_vm.Interp.run vm;
  (vm, Acsi_vm.Interp.output vm)

(* Compile [root] with rules that mark every call edge in the whole
   program hot for every CHA-possible target, then compare outputs. *)
let force_optimize ?(roots = None) program =
  let hot = ref [] in
  Array.iter
    (fun (m : Meth.t) ->
      Array.iteri
        (fun pc instr ->
          let add callee =
            hot :=
              ( Trace.make ~callee
                  ~chain:[ { Trace.caller = m.Meth.id; callsite = pc } ],
                50.0 )
              :: !hot
          in
          match instr with
          | Instr.Call_static mid | Instr.Call_direct mid -> add mid
          | Instr.Call_virtual (sel, _) ->
              List.iter add (Program.implementations program sel)
          | _ -> ())
        m.Meth.body)
    (Program.methods program);
  let oracle = Oracle.create program in
  Oracle.set_rules oracle (Rules.of_hot_traces !hot);
  let _, expected = run_program program in
  let vm = Bare_vm.create program in
  let compiled =
    match roots with
    | Some names ->
        List.map (fun (cls, name) -> Program.find_method program ~cls ~name) names
    | None -> Array.to_list (Program.methods program)
  in
  List.iter
    (fun (m : Meth.t) ->
      let code, _ =
        Expand.compile program (Acsi_vm.Interp.cost vm) oracle ~root:m
      in
      Acsi_vm.Interp.install_code vm m.Meth.id code)
    compiled;
  Acsi_vm.Interp.run vm;
  Alcotest.(check (list int)) "output preserved" expected (Acsi_vm.Interp.output vm);
  vm

let test_void_callee_inlined () =
  let open Dsl in
  let program =
    Compile.prog
      (prog ~globals:[ "log" ]
         [
           cls "V" ~fields:[]
             [
               static_meth "bump" [ "x" ] ~returns:false
                 [ setg "log" (add (g "log") (v "x")) ];
               static_meth "work" [] ~returns:true
                 [
                   expr (call "V" "bump" [ i 3 ]);
                   expr (call "V" "bump" [ i 4 ]);
                   ret (g "log");
                 ];
             ];
         ]
         [ print (call "V" "work" []) ])
  in
  let vm = force_optimize program in
  (* the void callee really was inlined: no dynamic calls to it *)
  let bump = Program.find_method program ~cls:"V" ~name:"bump" in
  check_int "bump never invoked dynamically" 0
    (Acsi_vm.Interp.invocation_count vm bump.Meth.id)

let test_call_with_pending_operands () =
  let open Dsl in
  (* the callee result is consumed mid-expression, with operands already
     on the caller's stack when the inlined body runs *)
  let program =
    Compile.prog
      (prog
         [
           cls "P" ~fields:[]
             [
               static_meth "three" [] ~returns:true [ ret (i 3) ];
               static_meth "calc" [ "x" ] ~returns:true
                 [
                   ret
                     (add
                        (mul (v "x") (call "P" "three" []))
                        (sub (call "P" "three" []) (v "x")));
                 ];
             ];
         ]
         [ print (call "P" "calc" [ i 10 ]) ])
  in
  ignore (force_optimize program)

let test_call_inside_guarded_body () =
  let open Dsl in
  (* A virtual callee that itself calls a static helper: inlining the
     guarded target must recursively consider the inner call. *)
  let program =
    Compile.prog
      (prog
         [
           cls "H" ~fields:[]
             [ meth "go" [ "x" ] ~returns:true [ ret (v "x") ] ];
           cls "H1" ~parent:"H" ~fields:[]
             [
               meth "go" [ "x" ] ~returns:true
                 [ ret (call "S" "helper" [ v "x" ]) ];
             ];
           cls "H2" ~parent:"H" ~fields:[]
             [ meth "go" [ "x" ] ~returns:true [ ret (neg (v "x")) ] ];
           cls "S" ~fields:[]
             [
               static_meth "helper" [ "x" ] ~returns:true
                 [ ret (add (mul (v "x") (i 2)) (i 1)) ];
               static_meth "drive" [ "h"; "x" ] ~returns:true
                 [ ret (inv (v "h") "go" [ v "x" ]) ];
             ];
         ]
         [
           print (call "S" "drive" [ new_ "H1" []; i 5 ]);
           print (call "S" "drive" [ new_ "H2" []; i 5 ]);
           print (call "S" "drive" [ new_ "H" []; i 5 ]);
         ])
  in
  let vm = force_optimize ~roots:(Some [ ("S", "drive") ]) program in
  (* two guarded targets at most (the oracle's max_guarded_targets):
     the third receiver class must fall back through the guards *)
  check_bool "guard misses cover the unguarded class" true
    (Acsi_vm.Interp.guard_misses vm > 0);
  (* helper was inlined inside H1's guarded body: never invoked *)
  let helper = Program.find_method program ~cls:"S" ~name:"helper" in
  check_int "helper inlined transitively" 0
    (Acsi_vm.Interp.invocation_count vm helper.Meth.id)

let test_inline_depth_is_bounded () =
  let open Dsl in
  (* A 10-deep static chain: expansion must stop at the depth limit, not
     flatten the whole chain. *)
  let level k =
    static_meth
      (Printf.sprintf "f%d" k)
      [ "x" ] ~returns:true
      [ ret (call "C" (Printf.sprintf "f%d" (k - 1)) [ add (v "x") (i 1) ]) ]
  in
  let program =
    Compile.prog
      (prog
         [
           cls "C" ~fields:[]
             (static_meth "f0" [ "x" ] ~returns:true [ ret (v "x") ]
             :: List.init 10 (fun k -> level (k + 1)));
         ]
         [ print (call "C" "f10" [ i 0 ]) ])
  in
  let vm = force_optimize program in
  (* With a depth limit well below 10, some intermediate link must remain
     a real call rather than the chain flattening entirely. *)
  let residual_calls =
    List.init 10 (fun k ->
        let m =
          Program.find_method program ~cls:"C" ~name:(Printf.sprintf "f%d" k)
        in
        Acsi_vm.Interp.invocation_count vm m.Meth.id)
    |> List.fold_left ( + ) 0
  in
  check_bool "chain not fully flattened" true (residual_calls > 0)

let test_recursive_callee_not_inlined () =
  let open Dsl in
  let program =
    Compile.prog
      (prog
         [
           cls "R" ~fields:[]
             [
               static_meth "count" [ "n" ] ~returns:true
                 [
                   if_ (le (v "n") (i 0)) [ ret (i 0) ] [];
                   ret (add (i 1) (call "R" "count" [ sub (v "n") (i 1) ]));
                 ];
             ];
         ]
         [ print (call "R" "count" [ i 6 ]) ])
  in
  let vm = force_optimize program in
  let count = Program.find_method program ~cls:"R" ~name:"count" in
  check_bool "recursion still calls itself" true
    (Acsi_vm.Interp.invocation_count vm count.Meth.id > 0)

let suite =
  [
    Alcotest.test_case "void callee inlined" `Quick test_void_callee_inlined;
    Alcotest.test_case "pending operands across inline" `Quick
      test_call_with_pending_operands;
    Alcotest.test_case "call inside guarded body" `Quick
      test_call_inside_guarded_body;
    Alcotest.test_case "inline depth bounded" `Quick
      test_inline_depth_is_bounded;
    Alcotest.test_case "recursive callee kept as call" `Quick
      test_recursive_callee_not_inlined;
  ]
