(* Unit tests for the mini-language compiler: construct semantics through
   execution, and diagnostics for every resolution error class. *)

open Acsi_lang

let check_int = Alcotest.(check int)
let check_out = Alcotest.(check (list int))

(* Compile a main body (plus optional classes/globals) and return the
   program's output. *)
let run ?(classes = []) ?(globals = []) main =
  let program = Compile.prog (Dsl.prog ~globals classes main) in
  let vm = Bare_vm.create program in
  Acsi_vm.Interp.run vm;
  Acsi_vm.Interp.output vm

let expect_error ?(classes = []) ?(globals = []) main fragment =
  match run ~classes ~globals main with
  | _ -> Alcotest.failf "expected a compile error mentioning %S" fragment
  | exception Compile.Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true (contains msg fragment)

(* --- expression semantics --- *)

let test_arithmetic () =
  let open Dsl in
  check_out "arith"
    [ 7; -1; 12; 2; 1; 6; 14; 5; 16; 1 ]
    (run
       [
         print (add (i 3) (i 4));
         print (sub (i 3) (i 4));
         print (mul (i 3) (i 4));
         print (div (i 11) (i 4));
         print (rem (i 9) (i 4));
         print (band (i 7) (i 14));
         print (bor (i 6) (i 12));
         print (bxor (i 3) (i 6));
         print (shl (i 1) (i 4));
         print (shr (i 3) (i 1));
       ])

let test_neg_not () =
  let open Dsl in
  check_out "neg/not" [ -5; 0; 1 ]
    (run [ print (neg (i 5)); print (not_ (i 3)); print (not_ (i 0)) ])

let test_comparisons () =
  let open Dsl in
  check_out "cmp" [ 1; 0; 1; 1; 0; 1 ]
    (run
       [
         print (eq (i 3) (i 3));
         print (ne (i 3) (i 3));
         print (lt (i 2) (i 3));
         print (le (i 3) (i 3));
         print (gt (i 2) (i 3));
         print (ge (i 3) (i 3));
       ])

(* Short-circuit evaluation must skip the second operand's side effects. *)
let test_short_circuit () =
  let open Dsl in
  let bump_and_return ret_v =
    [
      Dsl.static_meth "bump" [ "r" ] ~returns:true
        [ setg "hits" (add (g "hits") (i 1)); ret (i ret_v) ];
    ]
  in
  let classes = [ Dsl.cls "E" ~fields:[] (bump_and_return 1) ] in
  check_out "and skips rhs" [ 0; 0 ]
    (run ~classes ~globals:[ "hits" ]
       [
         print (and_ (i 0) (call "E" "bump" [ i 0 ]));
         print (g "hits");
       ]);
  check_out "or skips rhs" [ 1; 0 ]
    (run ~classes ~globals:[ "hits" ]
       [
         print (or_ (i 1) (call "E" "bump" [ i 0 ]));
         print (g "hits");
       ]);
  check_out "and evaluates rhs when needed" [ 1; 1 ]
    (run ~classes ~globals:[ "hits" ]
       [
         print (and_ (i 1) (call "E" "bump" [ i 0 ]));
         print (g "hits");
       ])

let test_cond_expression () =
  let open Dsl in
  check_out "cond" [ 10; 20 ]
    (run
       [
         print (cond (i 1) (i 10) (i 20));
         print (cond (i 0) (i 10) (i 20));
       ])

let test_control_flow () =
  let open Dsl in
  check_out "while" [ 10 ]
    (run
       [
         let_ "s" (i 0);
         let_ "k" (i 0);
         while_ (lt (v "k") (i 5))
           [ let_ "s" (add (v "s") (v "k")); let_ "k" (add (v "k") (i 1)) ];
         print (v "s");
       ]);
  check_out "for" [ 45 ]
    (run
       [
         let_ "s" (i 0);
         for_ "k" (i 0) (i 10) [ let_ "s" (add (v "s") (v "k")) ];
         print (v "s");
       ]);
  check_out "nested if" [ 2 ]
    (run
       [
         let_ "x" (i 7);
         if_ (gt (v "x") (i 10))
           [ print (i 1) ]
           [ if_ (gt (v "x") (i 5)) [ print (i 2) ] [ print (i 3) ] ];
       ])

let test_arrays () =
  let open Dsl in
  check_out "arrays" [ 5; 42; 0 ]
    (run
       [
         let_ "a" (arr_new (i 5));
         print (arr_len (v "a"));
         arr_set (v "a") (i 2) (i 42);
         print (arr_get (v "a") (i 2));
         print (arr_get (v "a") (i 3));
       ])

let test_objects_fields_inheritance () =
  let open Dsl in
  let classes =
    [
      cls "P" ~fields:[ "a" ]
        [
          meth "init" [ "a" ] ~returns:false [ set_thisf "a" (v "a") ];
          meth "describe" [] ~returns:true [ ret (thisf "a") ];
        ];
      cls "C" ~parent:"P" ~fields:[ "b" ]
        [
          meth "init2" [ "a"; "b" ] ~returns:false
            [ set_thisf "a" (v "a"); set_thisf "b" (v "b") ];
          meth "describe" [] ~returns:true
            [ ret (add (thisf "a") (thisf "b")) ];
        ];
    ]
  in
  check_out "override + inherited field" [ 5; 30; 1; 0; 1 ]
    (run ~classes
       [
         let_ "p" (new_ "P" [ i 5 ]);
         let_ "c" (new_ "C" []);
         expr (dcall (v "c") "C" "init2" [ i 10; i 20 ]);
         print (inv (v "p") "describe" []);
         print (inv (v "c") "describe" []);
         print (instof (v "c") "P");
         print (instof (v "p") "C");
         print (instof (v "c") "C");
       ])

let test_constructor_lookup_walks_up () =
  let open Dsl in
  let classes =
    [
      cls "P" ~fields:[ "x" ]
        [ meth "init" [ "x" ] ~returns:false [ set_thisf "x" (v "x") ] ];
      cls "C" ~parent:"P" ~fields:[] [];
    ]
  in
  check_out "inherited constructor" [ 9 ]
    (run ~classes
       [
         let_ "c" (new_ "C" [ i 9 ]);
         print (fld "P" (v "c") "x");
       ])

let test_arity_overloading () =
  let open Dsl in
  let classes =
    [
      cls "O" ~fields:[]
        [
          meth "f" [] ~returns:true [ ret (i 1) ];
          meth "f" [ "x" ] ~returns:true [ ret (add (v "x") (i 10)) ];
          meth "f" [ "x"; "y" ] ~returns:true [ ret (mul (v "x") (v "y")) ];
        ];
    ]
  in
  check_out "overloads dispatch by arity" [ 1; 15; 42 ]
    (run ~classes
       [
         let_ "o" (new_ "O" []);
         print (inv (v "o") "f" []);
         print (inv (v "o") "f" [ i 5 ]);
         print (inv (v "o") "f" [ i 6; i 7 ]);
       ])

let test_globals () =
  let open Dsl in
  check_out "globals" [ 0; 12 ]
    (run ~globals:[ "g1" ]
       [
         print (g "g1");
         setg "g1" (i 12);
         print (g "g1");
       ])

let test_recursion () =
  let open Dsl in
  let classes =
    [
      cls "R" ~fields:[]
        [
          static_meth "fib" [ "n" ] ~returns:true
            [
              if_ (lt (v "n") (i 2)) [ ret (v "n") ] [];
              ret
                (add
                   (call "R" "fib" [ sub (v "n") (i 1) ])
                   (call "R" "fib" [ sub (v "n") (i 2) ]));
            ];
        ];
    ]
  in
  check_out "fib" [ 55 ] (run ~classes [ print (call "R" "fib" [ i 10 ]) ])

(* --- diagnostics --- *)

let test_error_unknown_class () =
  Dsl.(expect_error [ let_ "x" (new_ "Nope" []) ] "unknown class")

let test_error_unknown_local () =
  Dsl.(expect_error [ print (v "nope") ] "unbound local")

let test_error_unknown_global () =
  Dsl.(expect_error [ print (g "nope") ] "unknown global")

let test_error_this_in_static () =
  Dsl.(expect_error [ print (Acsi_lang.Ast.This) ] "this outside")

let test_error_void_as_value () =
  let classes =
    Dsl.[ cls "E" ~fields:[] [ static_meth "v" [] ~returns:false [ retv ] ] ]
  in
  Dsl.(expect_error ~classes [ print (call "E" "v" []) ] "used as a value")

let test_error_arity_mismatch () =
  let classes =
    Dsl.
      [
        cls "E" ~fields:[]
          [ static_meth "f" [ "x" ] ~returns:true [ ret (v "x") ] ];
      ]
  in
  Dsl.(expect_error ~classes [ print (call "E" "f" []) ] "no static method")

let test_error_selector_conflict () =
  (* Same selector name/arity with conflicting result kinds. *)
  let classes =
    Dsl.
      [
        cls "A" ~fields:[] [ meth "f" [] ~returns:true [ ret (i 1) ] ];
        cls "B" ~fields:[] [ meth "f" [] ~returns:false [ retv ] ];
      ]
  in
  Dsl.(expect_error ~classes [ print (i 0) ] "disagrees")

let test_error_inheritance_cycle () =
  let classes =
    Dsl.
      [
        cls "A" ~parent:"B" ~fields:[] [];
        cls "B" ~parent:"A" ~fields:[] [];
      ]
  in
  Dsl.(expect_error ~classes [ print (i 0) ] "cycle")

let test_error_missing_field () =
  let classes = Dsl.[ cls "A" ~fields:[ "x" ] [] ] in
  Dsl.(
    expect_error ~classes
      [ let_ "a" (new_ "A" []); print (fld "A" (v "a") "y") ]
      "no field")

let test_error_value_return_in_void () =
  let classes =
    Dsl.[ cls "E" ~fields:[] [ static_meth "f" [] ~returns:false [ ret (i 1) ] ] ]
  in
  Dsl.(expect_error ~classes [ expr (call "E" "f" []) ] "returning a value")

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "neg and not" `Quick test_neg_not;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "short-circuit and/or" `Quick test_short_circuit;
    Alcotest.test_case "conditional expression" `Quick test_cond_expression;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "objects, fields, inheritance" `Quick
      test_objects_fields_inheritance;
    Alcotest.test_case "constructor lookup walks up" `Quick
      test_constructor_lookup_walks_up;
    Alcotest.test_case "arity overloading" `Quick test_arity_overloading;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "error: unknown class" `Quick test_error_unknown_class;
    Alcotest.test_case "error: unknown local" `Quick test_error_unknown_local;
    Alcotest.test_case "error: unknown global" `Quick test_error_unknown_global;
    Alcotest.test_case "error: this in static" `Quick test_error_this_in_static;
    Alcotest.test_case "error: void as value" `Quick test_error_void_as_value;
    Alcotest.test_case "error: arity mismatch" `Quick test_error_arity_mismatch;
    Alcotest.test_case "error: selector conflict" `Quick
      test_error_selector_conflict;
    Alcotest.test_case "error: inheritance cycle" `Quick
      test_error_inheritance_cycle;
    Alcotest.test_case "error: missing field" `Quick test_error_missing_field;
    Alcotest.test_case "error: value return in void" `Quick
      test_error_value_return_in_void;
  ]
