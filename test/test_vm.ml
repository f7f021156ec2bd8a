(* Unit tests for the VM: values, cost accounting, runtime errors, guard
   semantics, hooks, code installation, and source-level stack walking. *)

open Acsi_bytecode
open Acsi_vm
open Acsi_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile ?(classes = []) ?(globals = []) main =
  Compile.prog (Dsl.prog ~globals classes main)

(* --- one program, every engine --- *)

(* Every path a program can run on: the naive [run_reference] loop;
   [Interpreter], [Interp.run] with nothing installed, so every frame
   is closure-less and the driver's windows run one instruction at a
   time ([Interp.exec_until]); and the closure tier with every method
   installed before the run. The closure tier also runs as the
   [Boundary] engine, with a 1-cycle sample period: every window then
   admits a single instruction, so no entry can prepay a run of two or
   more instructions, and each such run goes to the window tail on
   [Interp.exec_one]; the tail's other use, the rest of a run entered
   mid-block, is covered by test_speed's 37-cycle property. The tails
   and the reference share [exec_one]'s instruction semantics, so the
   check independent of both is the closure tier's own statements: each
   case below runs on all four and must end identically. *)
type outcome = Printed of int list | Failed of string
type engine = Reference | Interpreter | Boundary | Closure_tier

let engines = [ Reference; Interpreter; Boundary; Closure_tier ]

let engine_name = function
  | Reference -> "reference"
  | Interpreter -> "interpreter"
  | Boundary -> "window-boundary closure tier"
  | Closure_tier -> "closure tier"

let pp_outcome fmt = function
  | Printed out ->
      Format.fprintf fmt "printed [%s]"
        (String.concat "; " (List.map string_of_int out))
  | Failed msg -> Format.fprintf fmt "failed %S" msg

let outcome = Alcotest.testable pp_outcome ( = )

(* [prepare] runs on the fresh VM before the engine installs anything:
   hand-assembled code goes in there. Every run reports its guard
   outcomes; runs that finish also report cycles and instructions. *)
type run = {
  got : outcome;
  printed : int list;  (* output so far, also when the run trapped *)
  guards : int * int;  (* hits, misses *)
  clock : (int * int) option;  (* cycles, instructions *)
}

let run_engine ?(prepare = ignore) engine program =
  let vm =
    if engine = Boundary then Bare_vm.create ~sample_period:1 program
    else Bare_vm.create program
  in
  prepare vm;
  if engine = Closure_tier || engine = Boundary then
    Array.iter
      (fun (m : Meth.t) ->
        Tier.install vm m.Meth.id (Interp.code_of vm m.Meth.id))
      (Program.methods program);
  let got =
    match
      if engine = Reference then Interp.run_reference vm else Interp.run vm
    with
    | () -> Printed (Interp.output vm)
    | exception Interp.Runtime_error msg -> Failed msg
  in
  {
    got;
    printed = Interp.output vm;
    guards = (Interp.guard_hits vm, Interp.guard_misses vm);
    clock =
      (match got with
      | Printed _ -> Some (Interp.cycles vm, Interp.instructions_executed vm)
      | Failed _ -> None);
  }

(* Runs [program] on every engine, checks each outcome against
   [expected] and each engine's counters against the reference's, and
   returns the reference run. *)
let expect_on_all_engines ?prepare label program expected =
  match List.map (fun e -> (e, run_engine ?prepare e program)) engines with
  | [] -> assert false
  | (_, reference) :: _ as runs ->
      List.iter
        (fun (engine, r) ->
          let what = Printf.sprintf "%s on the %s" label (engine_name engine) in
          Alcotest.check outcome what expected r.got;
          Alcotest.(check (list int))
            (what ^ ": output before the end") reference.printed r.printed;
          check_bool (what ^ ": guard counters") true
            (r.guards = reference.guards);
          check_bool (what ^ ": cycles and instructions") true
            (r.clock = reference.clock))
        runs;
      reference

let expect_runtime_error program msg =
  ignore (expect_on_all_engines msg program (Failed msg))

(* --- values --- *)

let test_value_equal_cmp () =
  let o1 = Value.alloc 0 (Ids.Class_id.of_int 0) in
  let o2 = Value.alloc 0 (Ids.Class_id.of_int 0) in
  check_bool "ints" true (Value.equal_cmp (Value.of_int 3) (Value.of_int 3));
  check_bool "nulls" true (Value.equal_cmp Value.null Value.null);
  check_bool "same obj" true (Value.equal_cmp o1 o1);
  check_bool "distinct objs" false (Value.equal_cmp o1 o2);
  check_bool "mixed" false (Value.equal_cmp (Value.of_int 0) Value.null)

let test_value_truthy () =
  check_bool "zero" false (Value.truthy (Value.of_int 0));
  check_bool "null" false (Value.truthy Value.null);
  check_bool "nonzero" true (Value.truthy (Value.of_int (-2)));
  check_bool "array" true (Value.truthy (Value.make_array 0))

(* --- runtime errors --- *)

let test_division_by_zero () =
  Dsl.(
    expect_runtime_error
      (compile [ print (div (i 1) (i 0)) ])
      "division by zero")

let test_null_dereference () =
  let classes = Dsl.[ cls "A" ~fields:[ "x" ] [] ] in
  Dsl.(
    expect_runtime_error
      (compile ~classes [ let_ "a" Ast.Null; print (fld "A" (v "a") "x") ])
      "null dereference")

let test_array_bounds () =
  Dsl.(
    expect_runtime_error
      (compile [ let_ "a" (arr_new (i 2)); print (arr_get (v "a") (i 5)) ])
      "array index 5 out of bounds (length 2)")

let test_negative_array_size () =
  Dsl.(
    expect_runtime_error
      (compile [ let_ "a" (arr_new (i (-3))); print (arr_len (v "a")) ])
      "negative array size -3")

(* A field index checked against the receiver's own class: the type
   checker bounds only receivers of a known class, and an array element
   has none. Index [k] of a [k]-field object and every index of a
   0-field one trap with one message, on reads and writes, in every
   tree shape the closure tier compiles a field access to; index 0 of a
   1-field object is its own field, not its class id. *)
let test_field_bounds () =
  let classes =
    Dsl.
      [
        cls "A" ~fields:[ "x"; "y" ] [];
        cls "B" ~fields:[ "z" ] [];
        cls "E" ~fields:[] [];
      ]
  in
  let open Dsl in
  let boxed cls =
    [ let_ "a" (arr_new (i 1)); arr_set (v "a") (i 0) (new_ cls []) ]
  in
  let o = arr_get (v "a") (i 0) in
  let err cls n =
    Failed
      (Printf.sprintf "field %d out of bounds on an object of class %s" n cls)
  in
  List.iter
    (fun (label, main, expected) ->
      ignore (expect_on_all_engines label (compile ~classes main) expected))
    [
      ( "read past the last field",
        boxed "B" @ [ let_ "o" o; print (fld "A" (v "o") "y") ],
        err "B" 1 );
      ( "read of a 0-field object",
        boxed "E" @ [ let_ "o" o; print (fld "A" (v "o") "x") ],
        err "E" 0 );
      ( "read into a local",
        boxed "E"
        @ [ let_ "o" o; let_ "w" (fld "A" (v "o") "x"); print (v "w") ],
        err "E" 0 );
      ( "read of an expression",
        boxed "B" @ [ print (add (fld "A" o "y") (i 1)) ],
        err "B" 1 );
      ( "write past the last field",
        boxed "B" @ [ let_ "o" o; setf "A" (v "o") "y" (i 5) ],
        err "B" 1 );
      ( "write into a 0-field object",
        boxed "E" @ [ setf "A" o "x" (new_ "E" []) ],
        err "E" 0 );
      ( "field 0 of a 1-field object",
        boxed "B"
        @ [
            let_ "o" o;
            setf "B" (v "o") "z" (i 9);
            print (fld "A" (v "o") "x");
            setf "A" (v "o") "x" (i 4);
            print (fld "B" (v "o") "z");
          ],
        Printed [ 9; 4 ] );
    ]

(* Every allocation is a value of its own: empty arrays and 0-field
   objects included, compared directly and through a branch. *)
let test_allocation_identity () =
  let classes = Dsl.[ cls "E" ~fields:[] [] ] in
  let open Dsl in
  let program =
    compile ~classes
      [
        print (eq (arr_new (i 0)) (arr_new (i 0)));
        print (ne (arr_new (i 0)) (arr_new (i 0)));
        print (eq (arr_new (i 1)) (arr_new (i 1)));
        print (eq (new_ "E" []) (new_ "E" []));
        let_ "e" (arr_new (i 0));
        let_ "f" (arr_new (i 0));
        print (eq (v "e") (v "e"));
        print (eq (v "e") (v "f"));
        if_ (eq (v "e") (v "f")) [ print (i 1) ] [ print (i 2) ];
        print (arr_len (v "e"));
      ]
  in
  ignore
    (expect_on_all_engines "allocation identity" program
       (Printed [ 0; 1; 0; 0; 1; 0; 2; 0 ]))

let test_int_receiver () =
  let classes =
    Dsl.[ cls "A" ~fields:[] [ meth "f" [] ~returns:true [ ret (i 1) ] ] ]
  in
  Dsl.(
    expect_runtime_error
      (compile ~classes [ let_ "x" (i 5); print (inv (v "x") "f" []) ])
      "expected an object, got 5")

(* --- kind mismatches on every engine --- *)

(* Every check here depends on telling an immediate integer from a block
   before looking inside it: integers where arrays or objects are
   expected and the other way round, null where an array is expected,
   receiver tests on integers and null, and equality across kinds and
   by reference. Fused and unfused forms both appear (locals feed the
   superinstructions, expressions the plain ops). *)
let kind_classes = Dsl.[ cls "A" ~fields:[ "x" ] []; cls "B" ~fields:[] [] ]

let kind_cases =
  let open Dsl in
  let arr = "[|0; 0|]" in
  let err m = Failed m in
  [
    ( "int as array",
      [ let_ "x" (i 3); print (arr_get (v "x") (i 0)) ],
      err "expected an array, got 3" );
    ( "int as array, fused",
      [ let_ "x" (i 3); let_ "k" (i 0); print (arr_get (v "x") (v "k")) ],
      err "expected an array, got 3" );
    ( "length of an int",
      [ print (arr_len (i 7)) ],
      err "expected an array, got 7" );
    ( "store into an int",
      [ let_ "x" (i (-1)); arr_set (v "x") (i 0) (i 1) ],
      err "expected an array, got -1" );
    ( "object as array",
      [ print (arr_len (new_ "A" [])) ],
      err "expected an array, got obj<#0>" );
    ( "object as int",
      [ let_ "o" (new_ "A" []); print (add (v "o") (i 1)) ],
      err "expected an integer, got obj<#0>" );
    ( "object as int, fused",
      [ let_ "o" (new_ "A" []); let_ "k" (i 1); print (add (v "k") (v "o")) ],
      err "expected an integer, got obj<#0>" );
    ( "array as int",
      [ let_ "a" (arr_new (i 2)); print (v "a") ],
      err ("expected an integer, got " ^ arr) );
    ( "array as index",
      [ let_ "a" (arr_new (i 2)); print (arr_get (v "a") (v "a")) ],
      err ("expected an integer, got " ^ arr) );
    ( "array as size",
      [ let_ "a" (arr_new (i 2)); print (arr_len (arr_new (v "a"))) ],
      err ("expected an integer, got " ^ arr) );
    ( "array in an ordering",
      [ let_ "a" (arr_new (i 2)); print (lt (v "a") (i 1)) ],
      err ("expected an integer, got " ^ arr) );
    ( "null as int",
      [ print (mul null (i 2)) ],
      err "expected an integer, got null" );
    ( "null in an ordering, fused",
      [ let_ "n" null; if_ (lt (v "n") (i 0)) [ print (i 1) ] [] ],
      err "expected an integer, got null" );
    ( "length of null",
      [ print (arr_len null) ],
      err "null array dereference" );
    ( "element of null",
      [ let_ "n" null; print (arr_get (v "n") (i 0)) ],
      err "null array dereference" );
    ( "int as object",
      [ print (fld "A" (i 4) "x") ],
      err "expected an object, got 4" );
    ( "array as object",
      [ let_ "a" (arr_new (i 2)); setf "A" (v "a") "x" (i 1) ],
      err ("expected an object, got " ^ arr) );
    ( "instanceof on int and null",
      [
        print (instof (i 3) "A");
        print (instof null "A");
        print (instof (arr_new (i 1)) "A");
        print (instof (new_ "A" []) "A");
        print (instof (new_ "B" []) "A");
      ],
      Printed [ 0; 0; 0; 1; 0 ] );
    ( "0 against null",
      [
        print (eq (i 0) null);
        print (ne (i 0) null);
        print (eq null null);
        print (not_ null);
        let_ "z" (i 0);
        let_ "n" null;
        print (eq (v "z") (v "n"));
        print (eq (v "n") (i 0));
        if_ (eq (v "n") (i 0)) [ print (i 10) ] [ print (i 11) ];
        if_ (v "n") [ print (i 12) ] [ print (i 13) ];
        if_ (v "z") [ print (i 14) ] [ print (i 15) ];
      ],
      Printed [ 0; 1; 1; 1; 0; 0; 11; 13; 15 ] );
    ( "reference identity",
      [
        let_ "a" (arr_new (i 2));
        let_ "b" (arr_new (i 2));
        let_ "o" (new_ "A" []);
        let_ "p" (new_ "A" []);
        print (eq (v "a") (v "a"));
        print (eq (v "a") (v "b"));
        print (ne (v "a") (v "b"));
        print (eq (v "o") (v "o"));
        print (eq (v "o") (v "p"));
        arr_set (v "a") (i 0) (v "o");
        print (eq (arr_get (v "a") (i 0)) (v "o"));
        print (eq (arr_get (v "a") (i 0)) (v "p"));
        print (eq (arr_get (v "b") (i 0)) (i 0));
        setf "A" (v "p") "x" (v "a");
        print (eq (fld "A" (v "p") "x") (v "a"));
        print (eq (fld "A" (v "o") "x") (i 0));
        print (eq (v "o") (v "a"));
      ],
      Printed [ 1; 0; 1; 1; 0; 1; 0; 1; 1; 1; 0 ] );
  ]

let test_kind_matrix () =
  List.iter
    (fun (label, main, expected) ->
      ignore
        (expect_on_all_engines label
           (compile ~classes:kind_classes main)
           expected))
    kind_cases

(* --- expression trees on every engine, compiled source --- *)

(* Code dense in expression trees (locals and constants feeding
   arithmetic, compares, branches, stores, field and array reads), with
   operands chosen so that swapping or dropping one changes what is
   printed. The [Closure_tier] engine runs them as statement closures;
   the [Boundary] engine hands each of their runs to the window tail on
   [Interp.exec_one]. *)
let test_superinstruction_fallbacks () =
  let classes = Dsl.[ cls "P" ~fields:[ "x"; "y" ] [] ] in
  let program =
    compile ~classes
      Dsl.
        [
          let_ "a" (i 7);
          let_ "b" (i 3);
          let_ "c" (sub (v "a") (v "b"));
          print (sub (v "a") (v "b"));
          print (sub (v "a") (i 2));
          let_ "d" (sub (v "b") (i 10));
          let_ "e" (v "a");
          print (sub (mul (v "c") (v "d")) (v "e"));
          if_ (lt (v "a") (v "b")) [ print (i 1) ] [ print (i 2) ];
          if_ (lt (v "b") (i 5)) [ print (i 3) ] [ print (i 4) ];
          let_ "p" (new_ "P" []);
          setf "P" (v "p") "x" (v "a");
          setf "P" (v "p") "y" (v "b");
          let_ "f" (fld "P" (v "p") "y");
          print (sub (fld "P" (v "p") "x") (v "f"));
          let_ "arr" (arr_new (i 3));
          arr_set (v "arr") (i 0) (v "b");
          arr_set (v "arr") (i 1) (v "a");
          let_ "s" (i 0);
          for_ "k" (i 0) (i 3)
            [
              let_ "s"
                (sub (mul (v "s") (i 10)) (arr_get (v "arr") (v "k")));
            ];
          print (v "s");
        ]
  in
  ignore
    (expect_on_all_engines "superinstruction fallbacks" program
       (Printed [ 4; 5; -35; 2; 3; 4; -370 ]))

(* --- expression-tree hazards, hand-assembled --- *)

(* The closure tier evaluates each block into expression trees and
   writes to the operand stack only what it must (see [Tier]). The
   bodies below, installed as [main], are places where running a
   pending tree too late, too early, twice, or with its operands checked
   in another order would change what is printed or which trap ends the
   run. Every body starts with [hazard_prologue]: locals 0-2 hold 7, 3
   and 2, local 3 an [A] whose field is 5, local 4 the array
   [|11; 22; 33|]. Jump targets in a body are relative to its start. *)
let hazard_program =
  lazy
    (compile ~classes:Dsl.[ cls "A" ~fields:[ "x" ] [] ] ~globals:[ "g" ] [])

let hazard_prologue ~local1 =
  let a = (Program.find_class (Lazy.force hazard_program) "A").Clazz.id in
  Instr.
    [
      Const 7; Store 0; local1; Store 1; Const 2; Store 2;
      New a; Store 3; Load 3; Const 5; Put_field 0;
      Const 3; Array_new; Store 4;
      Load 4; Const 0; Const 11; Array_set;
      Load 4; Const 1; Const 22; Array_set;
      Load 4; Const 2; Const 33; Array_set;
    ]

let install_main ?(local1 = Instr.Const 3) body vm =
  let program = Lazy.force hazard_program in
  let prologue = hazard_prologue ~local1 in
  let start = List.length prologue in
  let body =
    List.map (Instr.with_jump_targets ~f:(fun t -> t + start)) body
  in
  let main = Program.main program in
  Interp.install_code vm main
    {
      Code.meth = main;
      tier = Code.Optimized;
      instrs = Array.of_list (prologue @ body);
      max_locals = 5;
      max_stack = 8;
      src = None;
      code_bytes = 0;
      assumptions = [];
    }

let hazard_cases =
  let open Instr in
  let null = Failed "null dereference" in
  [
    ( "a store over its own pending load",
      [ Load 0; Const 9; Store 0; Print_int; Load 0; Print_int; Return_void ],
      Printed [ 7; 9 ] );
    ( "a store over a pending load under a pending node",
      [
        Load 0; Load 1; Load 0; Const 1; Binop Add; Store 1; Binop Sub;
        Print_int; Load 1; Print_int; Return_void;
      ],
      Printed [ 4; 8 ] );
    ( "a field write over a pending read of the field",
      [
        Load 3; Get_field 0; Load 3; Const 6; Put_field 0; Print_int;
        Load 3; Get_field 0; Print_int; Return_void;
      ],
      Printed [ 5; 6 ] );
    ( "a global write over a pending read of the global",
      [
        Const 4; Put_global 0; Get_global 0; Const 8; Put_global 0;
        Print_int; Get_global 0; Print_int; Return_void;
      ],
      Printed [ 4; 8 ] );
    ( "an element write over a pending read of the element",
      [
        Load 4; Const 1; Array_get; Load 4; Const 1; Const 99; Array_set;
        Print_int; Load 4; Const 1; Array_get; Print_int; Return_void;
      ],
      Printed [ 22; 99 ] );
    ( "dup of a node",
      [ Load 0; Load 1; Binop Mul; Dup; Binop Add; Print_int; Return_void ],
      Printed [ 42 ] );
    ( "dup of a field read, then a write of the field",
      [
        Load 3; Get_field 0; Dup; Load 3; Const 1; Put_field 0; Binop Add;
        Print_int; Load 3; Get_field 0; Print_int; Return_void;
      ],
      Printed [ 10; 1 ] );
    ( "swap of nodes",
      [
        Load 0; Load 2; Binop Mul; Load 1; Const 1; Binop Add; Swap;
        Binop Sub; Print_int; Return_void;
      ],
      Printed [ -10 ] );
    ( "swap of loads, stored back crosswise",
      [
        Load 0; Load 1; Swap; Store 1; Store 0; Load 0; Print_int; Load 1;
        Print_int; Return_void;
      ],
      Printed [ 3; 7 ] );
    ( "a print under a pending trap",
      [ Const_null; Get_field 0; Const 1; Print_int; Pop; Return_void ],
      null );
    ( "a print, then a trap",
      [
        Const 1; Print_int; Load 0; Const 0; Binop Div; Print_int;
        Return_void;
      ],
      Failed "division by zero" );
    ( "a binop whose operands trap differently",
      [
        Const_null; Get_field 0; Const_null; Neg; Binop Add; Print_int;
        Return_void;
      ],
      null );
    ( "a binop checks its right operand first",
      [ Const_null; Load 3; Binop Add; Print_int; Return_void ],
      Failed "expected an integer, got obj<#0>" );
    ( "an element read checks its index first",
      [ Const_null; Const_null; Array_get; Print_int; Return_void ],
      Failed "expected an integer, got null" );
    ( "a block end spills bottom to top",
      [ Const_null; Get_field 0; Const_null; Neg; Jump 5; Pop; Pop; Return_void ],
      null );
  ]

let test_tree_hazards () =
  let program = Lazy.force hazard_program in
  List.iter
    (fun (label, body, expected) ->
      ignore
        (expect_on_all_engines ~prepare:(install_main body) label program
           expected))
    hazard_cases

(* The 27 instruction sequences the closure tier once fused into
   superinstructions, kept as inputs. Each runs after the prologue; a
   branch's taken side ([-1]) and its fall-through print different
   markers, then the stack left by the row and locals 0-3 are printed.
   Each row also runs with local 1 holding null, so the trap paths of
   the specialized closures are compared too. *)
let former_superinstructions =
  let open Instr in
  [
    [ Load 0; Load 1 ];
    [ Load 0; Load 1; Binop Sub ];
    [ Load 0; Load 1; Binop Sub; Store 2 ];
    [ Load 0; Load 1; Cmp Lt; Jump_ifnot (-1) ];
    [ Load 0; Const 3; Binop Sub ];
    [ Load 0; Const 3; Binop Sub; Store 1 ];
    [ Load 0; Const 3; Cmp Lt; Jump_ifnot (-1) ];
    [ Load 0; Store 1 ];
    [ Load 3; Get_field 0 ];
    [ Load 3; Get_field 0; Store 1 ];
    [ Load 1; Jump_ifnot (-1) ];
    [ Const 10; Load 1; Binop Sub ];
    [ Const 10; Load 1; Cmp Lt ];
    [ Load 4; Load 2; Array_get ];
    [ Const 9; Store 0; Load 1 ];
    [ Const 8; Const 9; Store 0; Store 1 ];
    [ Load 1; Store 0; Jump (-1) ];
    [ Load 3; Get_field 0; Load 1 ];
    [ Const 3; Store 0 ];
    [ Load 1; Const 3; Binop Sub ];
    [ Load 1; Const 3; Cmp Eq ];
    [ Load 0; Load 1; Cmp Le; Jump_ifnot (-1) ];
    [ Load 1; Load 0; Cmp Lt; Jump_if (-1) ];
    [ Load 1; Load 0; Binop Mul; Store 2 ];
    [ Load 0; Load 1; Binop Add; Const 3 ];
    [ Load 2; Load 0; Load 1; Binop Sub; Binop Sub ];
    [ Load 4; Load 1; Array_get; Store 0 ];
  ]

let depth_after row =
  List.fold_left
    (fun d (ins : Instr.t) ->
      match ins with
      | Instr.Load _ | Instr.Const _ -> d + 1
      | Instr.Store _ | Instr.Binop _ | Instr.Cmp _ | Instr.Array_get
      | Instr.Jump_if _ | Instr.Jump_ifnot _ ->
          d - 1
      | _ -> d)
    0 row

let test_former_superinstructions () =
  let program = Lazy.force hazard_program in
  check_int "27 rows" 27 (List.length former_superinstructions);
  List.iteri
    (fun n row ->
      let len = List.length row in
      let taken = len + 3 in
      let row =
        List.map
          (Instr.with_jump_targets ~f:(fun t -> if t < 0 then taken else t))
          row
      in
      let body =
        Instr.(
          row
          @ [ Const 200; Print_int; Jump (taken + 2); Const 100; Print_int ]
          @ List.concat (List.init (depth_after row) (fun _ -> [ Print_int ]))
          @ [
              Load 0; Print_int; Load 1; Print_int; Load 2; Print_int;
              Load 3; Get_field 0; Print_int; Return_void;
            ])
      in
      List.iter
        (fun local1 ->
          let prepare = install_main ~local1 body in
          let label =
            Printf.sprintf "former superinstruction %d, local 1 = %s" n
              (Instr.to_string local1)
          in
          let reference = run_engine ~prepare Reference program in
          ignore (expect_on_all_engines ~prepare label program reference.got))
        Instr.[ Const 3; Const_null ])
    former_superinstructions

(* --- closures specialized on operator and operand shape --- *)

(* The closure tier gives each hot (operator, operand shape) pair of a
   node, an assign and a branch its own closure (see [Tier]). The cases
   below reach each of them, with generic neighbours, in all three
   places: printed (a node), stored (an assign) and branched on. Each
   runs with integer operands (the right one -3, equal to the left one,
   one above it, and 65, a shift count past the mask), then with a
   non-integer on the left, on the right and on both sides. The left
   one is an object and the right one null, so a trap names the operand
   checked first. A division or remainder also runs with a zero
   divisor, alone and under a non-integer left operand. *)
type shape = R | I | F | N (* register, constant, field of a register, node *)
type place = Node | Assign | Branch

type operands =
  | Minus_three | Same | Above | Wide | Zero
  | Bad_left | Bad_right | Bad_both | Bad_left_zero

(* Left operands read 7000 (register [a]), -45000000 (field [x]) or 11
   (element 1); a right operand reads [right] from register [s], field
   [w], element 3 or a constant. *)
let spec_program ~right body =
  compile
    ~classes:Dsl.[ cls "A" ~fields:[ "x"; "y"; "z"; "w" ] [] ]
    Dsl.(
      [
        let_ "a" (i 7000); let_ "s" (i right); let_ "n" null;
        let_ "o" (new_ "A" []);
        setf "A" (v "o") "x" (i (-45_000_000));
        setf "A" (v "o") "y" (v "o");
        setf "A" (v "o") "z" null;
        setf "A" (v "o") "w" (i right);
        let_ "arr" (arr_new (i 4));
        arr_set (v "arr") (i 0) (v "o");
        arr_set (v "arr") (i 1) (i 11);
        arr_set (v "arr") (i 2) null;
        arr_set (v "arr") (i 3) (i right);
      ]
      @ body)

let spec_left shape ~bad =
  let open Dsl in
  match (shape, bad) with
  | R, false -> (v "a", 7000)
  | R, true -> (v "o", 0)
  | I, false -> (i 7, 7)
  | I, true -> (null, 0)
  | F, false -> (fld "A" (v "o") "x", -45_000_000)
  | F, true -> (fld "A" (v "o") "y", 0)
  | N, false -> (arr_get (v "arr") (i 1), 11)
  | N, true -> (arr_get (v "arr") (i 0), 0)

let spec_right shape ~bad ~right =
  let open Dsl in
  match (shape, bad) with
  | R, false -> v "s"
  | R, true -> v "n"
  | I, false -> i right
  | I, true -> null
  | F, false -> fld "A" (v "o") "w"
  | F, true -> fld "A" (v "o") "z"
  | N, false -> arr_get (v "arr") (i 3)
  | N, true -> arr_get (v "arr") (i 2)

let spec_binop (op : Instr.binop) a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> a / b
  | Instr.Rem -> a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)

let spec_cmp (c : Instr.cmp) a b =
  match c with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let spec_place place e =
  let open Dsl in
  match place with
  | Node -> [ print e ]
  | Assign -> [ let_ "r" e; print (v "r") ]
  | Branch -> [ if_ e [ print (i 1) ] [ print (i 0) ] ]

(* [op] is [`Bin] or [`Cmp]; [`Shr_mul] is the nested node
   [(l * r) asr 2]. *)
let spec_case place op (sl, sr) operands =
  let bad_l = List.mem operands [ Bad_left; Bad_both; Bad_left_zero ]
  and bad_r = List.mem operands [ Bad_right; Bad_both ] in
  let l, a = spec_left sl ~bad:bad_l in
  let b =
    match operands with
    | Same -> a
    | Above -> a + 1
    | Wide -> 65
    | Zero | Bad_left_zero -> 0
    | Minus_three | Bad_left | Bad_right | Bad_both -> -3
  in
  let r = spec_right sr ~bad:bad_r ~right:b in
  let trap =
    if bad_r then Some "expected an integer, got null"
    else if bad_l then Some "expected an integer, got obj<#0>"
    else None
  in
  let e, expected =
    match op with
    | `Bin op ->
        let zero_msg =
          match op with
          | Instr.Div -> Some "division by zero"
          | Instr.Rem -> Some "remainder by zero"
          | _ -> None
        in
        ( Ast.Binop (op, l, r),
          match (trap, zero_msg) with
          | Some m, _ -> Failed m
          | None, Some m when b = 0 -> Failed m
          | None, _ -> Printed [ spec_binop op a b ] )
    | `Cmp ((Instr.Eq | Instr.Ne) as c) ->
        (* Total on every kind: a non-integer equals no integer, and
           the object is not null. *)
        let equal = (not (bad_l || bad_r)) && a = b in
        ( Ast.Cmp (c, l, r),
          Printed [ Bool.to_int (if c = Instr.Eq then equal else not equal) ] )
    | `Cmp c ->
        ( Ast.Cmp (c, l, r),
          match trap with
          | Some m -> Failed m
          | None -> Printed [ Bool.to_int (spec_cmp c a b) ] )
    | `Shr_mul ->
        ( Dsl.(shr (mul l r) (i 2)),
          match trap with
          | Some m -> Failed m
          | None -> Printed [ (a * b) asr 2 ] )
  in
  (spec_program ~right:b (spec_place place e), expected)

let spec_cases =
  let open Instr in
  let bin ops = List.map (fun (op, s) -> (`Bin op, s)) ops
  and cmp cs = List.map (fun (c, s) -> (`Cmp c, s)) cs in
  [
    ( Node,
      (`Shr_mul, (R, R))
      :: bin
           [
             (Add, (R, R)); (Sub, (R, R)); (Mul, (R, R)); (Div, (R, R));
             (Mul, (R, I)); (And, (R, I)); (Shl, (R, I)); (Add, (F, I));
             (Add, (N, I)); (Mul, (F, I)); (And, (N, I)); (Or, (F, I));
             (Add, (N, F)); (Sub, (F, R)); (Rem, (R, N));
           ]
      @ cmp [ (Lt, (R, R)); (Eq, (F, I)) ] );
    ( Assign,
      bin
        [
          (Add, (R, I)); (Sub, (R, I)); (Mul, (R, I)); (Add, (R, R));
          (Xor, (R, R)); (And, (N, I)); (Shr, (F, I)); (Div, (F, I));
          (Sub, (F, R)); (Rem, (N, R)); (Or, (F, R)); (Add, (R, N));
          (Sub, (R, F)); (Mul, (R, N)); (Add, (N, F)); (Sub, (F, N));
          (Shr, (F, F));
        ]
      @ cmp [ (Eq, (F, F)); (Eq, (R, I)); (Gt, (F, R)); (Lt, (F, I)) ] );
    ( Branch,
      cmp
        [
          (Lt, (R, R)); (Le, (R, R)); (Gt, (R, R)); (Ge, (R, R));
          (Eq, (R, R)); (Lt, (R, I)); (Le, (R, I)); (Gt, (R, I));
          (Ge, (R, I)); (Eq, (R, I)); (Ne, (R, I)); (Lt, (F, I));
          (Ge, (N, I)); (Eq, (F, I)); (Ne, (N, I)); (Le, (F, I));
          (Lt, (F, N)); (Ge, (R, F)); (Eq, (F, R)); (Ne, (N, F));
          (Le, (F, F));
        ] );
  ]

let test_specialized_closures () =
  let place_name = function
    | Node -> "node"
    | Assign -> "assign"
    | Branch -> "branch"
  and shape_name = function R -> "R" | I -> "I" | F -> "F" | N -> "N"
  and operands_name = function
    | Minus_three -> "right -3"
    | Same -> "equal integers"
    | Above -> "right above left"
    | Wide -> "right 65"
    | Bad_left -> "non-integer left"
    | Bad_right -> "non-integer right"
    | Bad_both -> "non-integers on both sides"
    | Zero -> "zero divisor"
    | Bad_left_zero -> "non-integer left, zero divisor"
  in
  List.iter
    (fun (place, cases) ->
      List.iter
        (fun (op, ((sl, sr) as shape)) ->
          let divides =
            match op with `Bin (Instr.Div | Instr.Rem) -> true | _ -> false
          in
          List.iter
            (fun operands ->
              let program, expected = spec_case place op shape operands in
              let label =
                Printf.sprintf "%s %s(%s,%s), %s" (place_name place)
                  (match op with
                  | `Bin op -> Instr.to_string (Instr.Binop op)
                  | `Cmp c -> Instr.to_string (Instr.Cmp c)
                  | `Shr_mul -> "shr(mul)")
                  (shape_name sl) (shape_name sr) (operands_name operands)
              in
              ignore (expect_on_all_engines label program expected))
            ([ Minus_three; Same; Above; Wide; Bad_left; Bad_right; Bad_both ]
            @ if divides then [ Zero; Bad_left_zero ] else []))
        cases)
    spec_cases;
  (* A register as a branch condition, and null against null. *)
  ignore
    (expect_on_all_engines "register conditions and null compares"
       (spec_program ~right:0
          Dsl.
            [
              if_ (v "a") [ print (i 1) ] [ print (i 0) ];
              if_ (v "s") [ print (i 1) ] [ print (i 0) ];
              if_ (v "n") [ print (i 1) ] [ print (i 0) ];
              if_ (v "o") [ print (i 1) ] [ print (i 0) ];
              if_ (eq (v "n") null) [ print (i 1) ] [ print (i 0) ];
              if_
                (ne (fld "A" (v "o") "z") null)
                [ print (i 1) ] [ print (i 0) ];
              if_ (eq (v "a") null) [ print (i 1) ] [ print (i 0) ];
              if_ (ne (v "o") null) [ print (i 1) ] [ print (i 0) ];
              let_ "r" (eq (arr_get (v "arr") (i 2)) null);
              print (v "r");
            ])
       (Printed [ 1; 0; 0; 1; 1; 0; 0; 1; 1 ]));
  (* Runs of leaf moves: the two- and three-move closures, chains of
     them, and moves that read what an earlier one wrote. *)
  ignore
    (expect_on_all_engines "runs of moves"
       (spec_program ~right:3
          Dsl.
            [
              print (i 0);
              let_ "p" (v "a"); let_ "q" (v "s");
              print (sub (v "p") (v "q"));
              let_ "p" (v "s"); let_ "q" (v "a"); let_ "t" (v "a");
              print (sub (sub (v "p") (v "q")) (v "t"));
              let_ "p" (i 4); let_ "q" (v "s"); let_ "t" (v "a");
              print (sub (sub (v "p") (v "q")) (v "t"));
              let_ "p" (v "a"); let_ "q" (v "p"); let_ "t" (v "s");
              let_ "u" (v "q"); let_ "w" (v "t");
              print (sub (sub (v "p") (v "q")) (sub (v "u") (v "w")));
              let_ "p" (i 9); let_ "q" (v "s"); let_ "t" (v "a");
              let_ "u" (i 2); let_ "w" (v "q");
              print (sub (sub (v "p") (v "q")) (sub (v "u") (v "w")));
              let_ "p" (v "q"); let_ "q" (v "p");
              print (sub (v "p") (v "q"));
              let_ "p" (v "n"); let_ "q" (v "a");
              print (v "q");
            ])
       (Printed [ 0; 6997; -13997; -6999; -6997; 7; 0; 7000 ]))

(* --- the value representation against its specification --- *)

(* The boxed representation values had before integers became
   immediates and objects and arrays single blocks, kept as the
   specification: [of_int]/[as_int], [as_obj]/[as_arr], [equal_cmp],
   [truthy] and [pp] on the real values must agree with it. Objects and
   arrays have an identity of their own ([id]), so reference equality is
   part of what is compared, and their class ids, fields and elements
   must round-trip through the real layout. *)
module Spec = struct
  type t =
    | Int of int
    | Null
    | Obj of { id : int; cls : int; fields : t array }
    | Arr of { id : int; elts : t array }

  let equal_cmp a b =
    match (a, b) with
    | Int x, Int y -> x = y
    | Null, Null -> true
    | Obj x, Obj y -> x.id = y.id
    | Arr x, Arr y -> x.id = y.id
    | (Int _ | Null | Obj _ | Arr _), _ -> false

  let truthy = function Int 0 | Null -> false | Int _ | Obj _ | Arr _ -> true

  let rec pp fmt = function
    | Int n -> Format.fprintf fmt "%d" n
    | Null -> Format.fprintf fmt "null"
    | Obj o ->
        Format.fprintf fmt "obj<%a>" Ids.Class_id.pp (Ids.Class_id.of_int o.cls)
    | Arr a ->
        Format.fprintf fmt "[|";
        Array.iteri
          (fun i v ->
            if i > 0 then Format.fprintf fmt "; ";
            if i < 8 then pp fmt v else if i = 8 then Format.fprintf fmt "...")
          a.elts;
        Format.fprintf fmt "|]"
end

let edge_ints = [ min_int; max_int; -129; -128; -1; 0; 1; 1023; 1024 ]

(* Objects and arrays, each paired once with its real value, built on
   the real layout from members built before it. Two objects of one
   class and two arrays of equal contents, the empty ones included,
   differ only by identity. Objects of 0, 1 and 8 fields are literal
   blocks and the 9-field one goes through [Array.make]; the long
   array exercises [pp]'s elision. *)
let pool =
  let members = ref [] in
  let real s =
    match s with
    | Spec.Int n -> Value.of_int n
    | Spec.Null -> Value.null
    | Spec.Obj _ | Spec.Arr _ -> List.assq s !members
  in
  let add s v contents =
    Array.iteri (fun i c -> (Value.slots v).(i + 1) <- real c) contents;
    members := !members @ [ (s, v) ];
    s
  in
  let next = ref 0 in
  let obj cls fields =
    incr next;
    add (Spec.Obj { id = !next; cls; fields })
      (Value.alloc (Array.length fields) (Ids.Class_id.of_int cls))
      fields
  in
  let arr elts =
    incr next;
    add
      (Spec.Arr { id = !next; elts })
      (Value.make_array (Array.length elts))
      elts
  in
  let o1 = obj 0 [||] in
  let o2 = obj 0 [||] in
  let o3 = obj 1 [| Spec.Int 7 |] in
  let e1 = arr [||] in
  ignore (arr [||]);
  ignore (arr Spec.[| Int 1; Int 2; Int 3 |]);
  ignore (arr Spec.[| Int 1; Int 2; Int 3 |]);
  ignore (arr Spec.[| Null; o1; Int min_int |]);
  let long = arr (Array.init 10 (fun k -> Spec.Int (k - 5))) in
  ignore
    (obj 2
       Spec.[| Int 1; Null; o3; e1; Int max_int; Int (-1); o2; long |]);
  ignore (obj 3 (Array.init 9 (fun k -> if k = 4 then o3 else Spec.Int k)));
  !members

let of_spec s =
  match s with
  | Spec.Int n -> Value.of_int n
  | Spec.Null -> Value.null
  | Spec.Obj _ | Spec.Arr _ -> List.assq s pool

let show v = Format.asprintf "%a" Value.pp v
let show_spec s = Format.asprintf "%a" Spec.pp s

let result f v =
  match f v with r -> Ok r | exception Interp.Runtime_error m -> Error m

(* Whether the slots past slot 0 hold [contents]' real values. *)
let round_trips (slots : Value.t array) contents =
  Array.length slots = Array.length contents + 1
  && Array.for_all2
       (fun v c -> Value.equal_cmp v (of_spec c))
       (Array.sub slots 1 (Array.length contents))
       contents

(* One value against the model: representation, [as_int] and the other
   kind checks, the class id and fields of an object and the elements of
   an array, [truthy], [pp]. *)
let agrees_one s =
  let v = of_spec s in
  let text = show_spec s in
  let kind_error what = function
    | Ok _ -> false
    | Error m -> m = Printf.sprintf "expected %s, got %s" what text
  in
  let as_int_ok =
    match s with
    | Spec.Int n ->
        result Interp.as_int v = Ok n && Value.is_int v && Value.to_int v = n
    | Spec.Null | Spec.Obj _ | Spec.Arr _ ->
        (not (Value.is_int v)) && kind_error "an integer" (result Interp.as_int v)
  in
  let as_obj_ok =
    match (s, result Interp.as_obj v) with
    | Spec.Obj o, Ok slots ->
        slots == Value.slots v
        && Value.to_int slots.(0) = o.cls
        && (match v with
           | Value.Obj_c { cls } -> (cls :> int) = o.cls
           | Value.Null_c _ | Value.Arr_c _ -> false)
        && round_trips slots o.fields
    | Spec.Null, Error m -> m = "null dereference"
    | (Spec.Int _ | Spec.Arr _), r -> kind_error "an object" r
    | _ -> false
  in
  let as_arr_ok =
    match (s, result Interp.as_arr v) with
    | Spec.Arr a, Ok slots ->
        slots == Value.slots v && round_trips slots a.elts
    | Spec.Null, Error m -> m = "null array dereference"
    | (Spec.Int _ | Spec.Obj _), r -> kind_error "an array" r
    | _ -> false
  in
  as_int_ok && as_obj_ok && as_arr_ok
  && Value.truthy v = Spec.truthy s
  && show v = text

let agrees_pair a b =
  let va = of_spec a and vb = of_spec b in
  let eq = Spec.equal_cmp a b in
  Value.equal_cmp va vb = eq
  && Interp.eval_cmp Instr.Eq va vb = Bool.to_int eq
  && Interp.eval_cmp Instr.Ne va vb = Bool.to_int (not eq)

let all_specs =
  List.map (fun n -> Spec.Int n) edge_ints @ (Spec.Null :: List.map fst pool)

let test_value_model_edges () =
  List.iter
    (fun a ->
      check_bool (show_spec a ^ " agrees with the model") true (agrees_one a);
      List.iter
        (fun b ->
          check_bool
            (Printf.sprintf "%s = %s agrees with the model" (show_spec a)
               (show_spec b))
            true (agrees_pair a b))
        all_specs)
    all_specs

let arbitrary_spec =
  let open QCheck.Gen in
  let gen =
    frequency
      [
        (4, map (fun n -> Spec.Int n) int);
        (2, map (fun n -> Spec.Int n) (oneofl edge_ints));
        (2, map (fun n -> Spec.Int n) (int_range (-2000) 2000));
        (1, return Spec.Null);
        (3, map fst (oneofl pool));
      ]
  in
  QCheck.make ~print:show_spec gen

let prop_value_model =
  QCheck.Test.make ~name:"immediate values agree with the boxed model"
    ~count:500
    (QCheck.pair arbitrary_spec arbitrary_spec)
    (fun (a, b) ->
      agrees_one a && agrees_one b && agrees_pair a b && agrees_pair b a)

(* --- determinism and accounting --- *)

let simple_program () =
  Dsl.(
    compile
      ~classes:
        [
          cls "A" ~fields:[]
            [ static_meth "twice" [ "x" ] ~returns:true [ ret (mul (v "x") (i 2)) ] ];
        ]
      [
        let_ "s" (i 0);
        for_ "k" (i 0) (i 100) [ let_ "s" (add (v "s") (call "A" "twice" [ v "k" ])) ];
        print (v "s");
      ])

let test_cycle_determinism () =
  let run () =
    let vm = Bare_vm.create (simple_program ()) in
    Interp.run vm;
    (Interp.cycles vm, Interp.instructions_executed vm, Interp.calls_executed vm)
  in
  check_bool "two runs agree" true (run () = run ())

let test_costs_move_the_clock () =
  let vm = Bare_vm.create (simple_program ()) in
  Interp.run vm;
  check_bool "cycles exceed instructions x baseline cost" true
    (Interp.cycles vm
    >= Interp.instructions_executed vm * Cost.default.Cost.baseline_instr)

let test_charge_advances_clock () =
  let vm = Bare_vm.create (simple_program ()) in
  Interp.charge vm 12345;
  check_int "charged" 12345 (Interp.cycles vm)

let test_cycle_limit () =
  let program =
    Dsl.(
      compile
        [
          let_ "k" (i 0);
          while_ (ge (v "k") (i 0)) [ let_ "k" (add (v "k") (i 1)) ];
        ])
  in
  let vm = Bare_vm.create program in
  match Interp.run ~cycle_limit:500_000 vm with
  | () -> Alcotest.fail "expected cycle limit"
  | exception Interp.Cycle_limit_exceeded -> ()

(* --- hooks --- *)

let test_first_execution_hook () =
  let program = simple_program () in
  let vm = Bare_vm.create program in
  let firsts = ref 0 in
  Interp.set_on_first_execution vm (fun _ -> incr firsts);
  Interp.run vm;
  (* main + A.twice *)
  check_int "two methods ran" 2 !firsts;
  check_bool "was_executed" true
    (Interp.was_executed vm
       (Program.find_method program ~cls:"A" ~name:"twice").Meth.id)

let test_invoke_stride_hook () =
  let program = simple_program () in
  let vm = Bare_vm.create ~invoke_stride:10 program in
  let hits = ref 0 in
  Interp.set_on_invoke vm (fun _ _ -> incr hits);
  Interp.run vm;
  (* 101 invocations (100 calls + main), stride 10 *)
  check_int "stride samples" 10 !hits

let test_timer_hook () =
  let program = simple_program () in
  let vm = Bare_vm.create ~sample_period:1_000 program in
  let samples = ref 0 in
  Interp.set_on_timer_sample vm (fun _ -> incr samples);
  Interp.run vm;
  check_bool "samples proportional to cycles" true
    (abs ((Interp.cycles vm / 1_000) - !samples) <= 1)

(* --- guards (hand-assembled code) --- *)

(* Two classes implementing [pick]: A.pick = 10, B.pick = 20. A hand-built
   optimized body for a static method guards on A's implementation with a
   fallback virtual call, so we can exercise both guard outcomes. *)
let guard_program ?(recvs = Dsl.[ new_ "A" []; new_ "B" [] ]) () =
  let open Dsl in
  let classes =
    [
      cls "A" ~fields:[] [ meth "pick" [] ~returns:true [ ret (i 10) ] ];
      cls "B" ~parent:"A" ~fields:[] [ meth "pick" [] ~returns:true [ ret (i 20) ] ];
      cls "D" ~fields:[]
        [
          static_meth "dispatch" [ "o" ] ~returns:true
            [ ret (inv (v "o") "pick" []) ];
        ];
    ]
  in
  compile ~classes (List.map (fun r -> print (call "D" "dispatch" [ r ])) recvs)

(* Optimized dispatch body: guard for A.pick, inline [Const 10], fall
   back to the virtual call. Receiver arrives in local 0. *)
let install_guarded_dispatch program vm =
  let dispatch = Program.find_method program ~cls:"D" ~name:"dispatch" in
  let pick_a = Program.find_method program ~cls:"A" ~name:"pick" in
  let sel = pick_a.Meth.selector in
  let instrs =
    [|
      Instr.Load 0;
      Instr.Guard_method { Instr.expected = pick_a.Meth.id; sel; argc = 0; fail = 5 };
      Instr.Pop;  (* discard the receiver the guard peeked at *)
      Instr.Const 10;
      Instr.Return;
      Instr.Call_virtual (sel, 0);
      Instr.Return;
    |]
  in
  let code =
    {
      Code.meth = dispatch.Meth.id;
      tier = Code.Optimized;
      instrs;
      max_locals = 1;
      max_stack = 2;
      src = None;
      code_bytes = 0;
      assumptions = [];
    }
  in
  Interp.install_code vm dispatch.Meth.id code

let test_guard_hit_and_miss () =
  let program = guard_program () in
  let r =
    expect_on_all_engines ~prepare:(install_guarded_dispatch program)
      "behaviour preserved" program (Printed [ 10; 20 ])
  in
  check_int "one hit" 1 (fst r.guards);
  check_int "one miss" 1 (snd r.guards)

(* A guard whose receiver is not an object misses, on every engine, and
   the fallback virtual call then reports the receiver's kind. *)
let test_guard_on_non_objects () =
  List.iter
    (fun (label, recv, msg) ->
      let program = guard_program ~recvs:[ recv ] () in
      let r =
        expect_on_all_engines ~prepare:(install_guarded_dispatch program) label
          program (Failed msg)
      in
      check_bool (label ^ ": the guard missed") true (r.guards = (0, 1)))
    Dsl.
      [
        ("guard on an int", i 5, "expected an object, got 5");
        ("guard on null", null, "null dereference");
        ("guard on an array", arr_new (i 1), "expected an object, got [|0|]");
      ]

let test_install_code_affects_next_invocation () =
  let program = guard_program () in
  let vm = Bare_vm.create program in
  let tier_seen = ref [] in
  let dispatch = Program.find_method program ~cls:"D" ~name:"dispatch" in
  Interp.set_on_invoke vm (fun vm mid ->
      if Ids.Method_id.equal mid dispatch.Meth.id then
        tier_seen := (Interp.code_of vm mid).Code.tier :: !tier_seen);
  Interp.run vm;
  check_bool "baseline code by default" true
    ((Interp.code_of vm dispatch.Meth.id).Code.tier = Code.Baseline)

(* --- source stack walking --- *)

let test_walk_source_stack_baseline () =
  let open Dsl in
  let classes =
    [
      cls "W" ~fields:[]
        [
          static_meth "inner" [] ~returns:true [ ret (i 1) ];
          static_meth "outer" [] ~returns:true [ ret (call "W" "inner" []) ];
        ];
    ]
  in
  let program = compile ~classes [ print (call "W" "outer" []) ] in
  let inner = Program.find_method program ~cls:"W" ~name:"inner" in
  let vm = Bare_vm.create ~invoke_stride:1 program in
  let seen = ref [] in
  Interp.set_on_invoke vm (fun vm mid ->
      if Ids.Method_id.equal mid inner.Meth.id then begin
        let frames = ref [] in
        Interp.walk_source_stack vm ~f:(fun m _pc ->
            frames := (Program.meth program m).Meth.name :: !frames;
            true);
        seen := List.rev !frames
      end);
  Interp.run vm;
  Alcotest.(check (list string))
    "stack is inner, outer, main"
    [ "inner/0"; "outer/0"; "main/0" ]
    !seen

let suite =
  [
    Alcotest.test_case "value equal_cmp" `Quick test_value_equal_cmp;
    Alcotest.test_case "value truthy" `Quick test_value_truthy;
    Alcotest.test_case "value model at the edges" `Quick test_value_model_edges;
    QCheck_alcotest.to_alcotest prop_value_model;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "null dereference" `Quick test_null_dereference;
    Alcotest.test_case "array bounds" `Quick test_array_bounds;
    Alcotest.test_case "negative array size" `Quick test_negative_array_size;
    Alcotest.test_case "dispatch on integer" `Quick test_int_receiver;
    Alcotest.test_case "field bounds on every engine" `Quick test_field_bounds;
    Alcotest.test_case "allocation identity on every engine" `Quick
      test_allocation_identity;
    Alcotest.test_case "kind mismatches on every engine" `Quick test_kind_matrix;
    Alcotest.test_case "superinstruction fallbacks on every engine" `Quick
      test_superinstruction_fallbacks;
    Alcotest.test_case "expression-tree hazards on every engine" `Quick
      test_tree_hazards;
    Alcotest.test_case "former superinstructions on every engine" `Quick
      test_former_superinstructions;
    Alcotest.test_case "specialized closures on every engine" `Quick
      test_specialized_closures;
    Alcotest.test_case "deterministic cycles" `Quick test_cycle_determinism;
    Alcotest.test_case "costs move the clock" `Quick test_costs_move_the_clock;
    Alcotest.test_case "charge advances clock" `Quick test_charge_advances_clock;
    Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
    Alcotest.test_case "first-execution hook" `Quick test_first_execution_hook;
    Alcotest.test_case "invoke stride hook" `Quick test_invoke_stride_hook;
    Alcotest.test_case "timer hook" `Quick test_timer_hook;
    Alcotest.test_case "guard hit and miss" `Quick test_guard_hit_and_miss;
    Alcotest.test_case "guard on non-objects" `Quick test_guard_on_non_objects;
    Alcotest.test_case "installed code tier" `Quick
      test_install_code_affects_next_invocation;
    Alcotest.test_case "source stack walk" `Quick test_walk_source_stack_baseline;
  ]
