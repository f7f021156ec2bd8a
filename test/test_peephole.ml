(* Unit tests for the peephole optimizer: each rewrite in isolation, and
   semantic preservation over the mini-language constructs. *)

open Acsi_bytecode
open Acsi_jit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let opt = Peephole.optimize_instrs

let count_instrs pred instrs =
  Array.to_list instrs |> List.filter pred |> List.length

let is_const = function Instr.Const _ -> true | _ -> false

let test_const_fold_binop () =
  let out =
    opt [| Instr.Const 3; Instr.Const 4; Instr.Binop Instr.Add; Instr.Return |]
  in
  check_int "folded to two instrs" 2 (Array.length out);
  (match out.(0) with
  | Instr.Const 7 -> ()
  | other -> Alcotest.failf "expected const 7, got %s" (Instr.to_string other))

let test_const_fold_nested () =
  (* (2*3) + 4 folds completely across passes *)
  let out =
    opt
      [|
        Instr.Const 2; Instr.Const 3; Instr.Binop Instr.Mul; Instr.Const 4;
        Instr.Binop Instr.Add; Instr.Return;
      |]
  in
  check_int "fully folded" 2 (Array.length out);
  match out.(0) with
  | Instr.Const 10 -> ()
  | other -> Alcotest.failf "expected const 10, got %s" (Instr.to_string other)

let test_no_fold_div_by_zero () =
  let out =
    opt [| Instr.Const 3; Instr.Const 0; Instr.Binop Instr.Div; Instr.Return |]
  in
  (* must keep the runtime error *)
  check_int "division preserved" 4 (Array.length out)

let test_const_fold_cmp_and_unary () =
  let out =
    opt [| Instr.Const 3; Instr.Const 4; Instr.Cmp Instr.Lt; Instr.Return |]
  in
  (match out.(0) with
  | Instr.Const 1 -> ()
  | other -> Alcotest.failf "cmp folded wrong: %s" (Instr.to_string other));
  let out = opt [| Instr.Const 5; Instr.Neg; Instr.Return |] in
  (match out.(0) with
  | Instr.Const -5 -> ()
  | other -> Alcotest.failf "neg folded wrong: %s" (Instr.to_string other));
  let out = opt [| Instr.Const 0; Instr.Not; Instr.Return |] in
  match out.(0) with
  | Instr.Const 1 -> ()
  | other -> Alcotest.failf "not folded wrong: %s" (Instr.to_string other)

let test_push_pop_elimination () =
  let out =
    opt [| Instr.Const 9; Instr.Pop; Instr.Const 1; Instr.Return |]
  in
  check_int "pair removed" 2 (Array.length out);
  let out = opt [| Instr.Load 0; Instr.Dup; Instr.Pop; Instr.Return |] in
  check_int "dup/pop removed" 2 (Array.length out)

let test_not_jump_fusion () =
  let out =
    opt
      [|
        Instr.Load 0; Instr.Not; Instr.Jump_ifnot 4; Instr.Nop;
        Instr.Const 1; Instr.Return;
      |]
  in
  check_bool "fused into jump_if" true
    (Array.exists (function Instr.Jump_if _ -> true | _ -> false) out);
  check_bool "not eliminated" true
    (not (Array.exists (function Instr.Not -> true | _ -> false) out))

let test_constant_branch_resolution () =
  (* const 1; jump_ifnot dead-branch: the branch never fires; the dead
     branch's code must disappear entirely. *)
  let out =
    opt
      [|
        Instr.Const 1; Instr.Jump_ifnot 4; Instr.Const 7; Instr.Return;
        Instr.Const 8; Instr.Return;
      |]
  in
  check_bool "dead branch removed" true
    (not (Array.exists (function Instr.Const 8 -> true | _ -> false) out));
  check_int "only live code kept" 2 (Array.length out)

let test_jump_threading () =
  let out =
    opt
      [|
        Instr.Load 0; Instr.Jump_if 3; Instr.Return_void; Instr.Jump 5;
        Instr.Nop; Instr.Return_void;
      |]
  in
  (* the conditional jump should point directly at 5's new position *)
  let threaded =
    Array.exists
      (function
        | Instr.Jump_if t -> (
            match out.(t) with Instr.Return_void -> true | _ -> false)
        | _ -> false)
      out
  in
  check_bool "threaded through the jump chain" true threaded

let test_unreachable_elimination () =
  let out =
    opt [| Instr.Jump 3; Instr.Const 1; Instr.Pop; Instr.Return_void |]
  in
  check_int "dead instructions dropped" 1 (Array.length out);
  match out.(0) with
  | Instr.Return_void -> ()
  | other -> Alcotest.failf "expected return_void, got %s" (Instr.to_string other)

let test_no_rewrite_across_leaders () =
  (* The Const at 0 flows to a join at 2; the Binop at 2 must NOT fold
     with it because 2 is a jump target (depths would diverge). *)
  let body =
    [|
      Instr.Const 1;  (* 0 *)
      Instr.Const 2;  (* 1 *)
      Instr.Binop Instr.Add;  (* 2: jump target *)
      Instr.Jump_if 2;  (* 4 -> loops back *)
      Instr.Return_void;
    |]
  in
  (* target 2 is a leader: fold of (0,1,2) would break the loop's stack *)
  let out = opt body in
  check_bool "binop survives at the join" true
    (Array.exists (function Instr.Binop _ -> true | _ -> false) out)

(* Semantic preservation: optimize every method of a real program and
   compare outputs. *)
let test_preserves_semantics_on_program () =
  let open Acsi_lang.Dsl in
  let program =
    Acsi_lang.Compile.prog
      (prog
         [
           cls "P" ~fields:[]
             [
               static_meth "poly" [ "x" ] ~returns:true
                 [
                   (* constant-heavy code the folder will chew on *)
                   let_ "a" (add (i 3) (mul (i 4) (i 5)));
                   let_ "b" (cond (lt (i 2) (i 1)) (i 100) (v "x"));
                   ret (add (v "a") (sub (v "b") (neg (i 7))));
                 ];
             ];
         ]
         [
           let_ "s" (i 0);
           for_ "k" (i 0) (i 50) [ let_ "s" (call "P" "poly" [ v "s" ]) ];
           print (v "s");
         ])
  in
  let baseline = Bare_vm.create program in
  Acsi_vm.Interp.run baseline;
  let vm = Bare_vm.create program in
  Array.iter
    (fun (m : Meth.t) ->
      let optimized = Peephole.optimize_instrs m.Meth.body in
      let wrapper = { m with Meth.body = optimized; max_stack = 0 } in
      Verify.meth program wrapper;
      Acsi_vm.Interp.install_code vm m.Meth.id
        {
          Acsi_vm.Code.meth = m.Meth.id;
          tier = Acsi_vm.Code.Optimized;
          instrs = optimized;
          max_locals = m.Meth.max_locals;
          max_stack = wrapper.Meth.max_stack;
          src = None;
          code_bytes = 0;
          assumptions = [];
        })
    (Program.methods program);
  Acsi_vm.Interp.run vm;
  Alcotest.(check (list int))
    "output preserved"
    (Acsi_vm.Interp.output baseline)
    (Acsi_vm.Interp.output vm);
  check_bool "optimizer actually shrank something" true
    (Acsi_vm.Interp.instructions_executed vm
    < Acsi_vm.Interp.instructions_executed baseline)

let test_shrinks_expanded_code () =
  (* With peephole on, inlined constant arguments fold: the expanded code
     must be no larger than without it. *)
  let open Acsi_lang.Dsl in
  let program =
    Acsi_lang.Compile.prog
      (prog
         [
           cls "Q" ~fields:[]
             [
               static_meth "scale" [ "x"; "f" ] ~returns:true
                 [ ret (mul (v "x") (add (v "f") (i 1))) ];
               static_meth "use" [ "x" ] ~returns:true
                 [ ret (call "Q" "scale" [ v "x"; i 9 ]) ];
             ];
         ]
         [ print (call "Q" "use" [ i 4 ]) ])
  in
  let use = Program.find_method program ~cls:"Q" ~name:"use" in
  let compile ~peephole =
    let config = { Oracle.default_config with Oracle.peephole } in
    let oracle = Oracle.create ~config program in
    let _, stats = Expand.compile program Acsi_vm.Cost.default oracle ~root:use in
    stats.Expand.expanded_units
  in
  check_bool "peephole shrinks expanded code" true
    (compile ~peephole:true < compile ~peephole:false)

let suite =
  [
    Alcotest.test_case "const fold binop" `Quick test_const_fold_binop;
    Alcotest.test_case "const fold nested" `Quick test_const_fold_nested;
    Alcotest.test_case "no fold of division by zero" `Quick
      test_no_fold_div_by_zero;
    Alcotest.test_case "const fold cmp/neg/not" `Quick
      test_const_fold_cmp_and_unary;
    Alcotest.test_case "push/pop elimination" `Quick test_push_pop_elimination;
    Alcotest.test_case "not/jump fusion" `Quick test_not_jump_fusion;
    Alcotest.test_case "constant branch resolution" `Quick
      test_constant_branch_resolution;
    Alcotest.test_case "jump threading" `Quick test_jump_threading;
    Alcotest.test_case "unreachable elimination" `Quick
      test_unreachable_elimination;
    Alcotest.test_case "no rewrite across leaders" `Quick
      test_no_rewrite_across_leaders;
    Alcotest.test_case "preserves program semantics" `Quick
      test_preserves_semantics_on_program;
    Alcotest.test_case "shrinks expanded code" `Quick test_shrinks_expanded_code;
  ]
