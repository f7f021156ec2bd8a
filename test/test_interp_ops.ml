(* Instruction-level interpreter tests: every opcode's semantics checked
   against hand-assembled bytecode. *)

open Acsi_bytecode
open Acsi_vm

let check_out = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a program whose main is exactly [body]; run it; return output. *)
let run_body ?(max_locals = 4) body =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"T" ~parent:None ~fields:[] in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals (Array.of_list body);
  let p = Program.Builder.seal b ~main in
  Verify.program p;
  let vm = Bare_vm.create p in
  Interp.run vm;
  Interp.output vm

let print_top = [ Instr.Print_int; Instr.Return_void ]

let test_const_and_print () =
  check_out "const" [ 42 ] (run_body ([ Instr.Const 42 ] @ print_top))

let test_locals () =
  check_out "store/load" [ 7 ]
    (run_body
       ([ Instr.Const 7; Instr.Store 2; Instr.Load 2 ] @ print_top))

let test_stack_ops () =
  check_out "dup" [ 5; 5 ]
    (run_body
       [
         Instr.Const 5; Instr.Dup; Instr.Print_int; Instr.Print_int;
         Instr.Return_void;
       ]);
  check_out "swap" [ 1; 2 ]
    (run_body
       [
         Instr.Const 1; Instr.Const 2; Instr.Swap; Instr.Print_int;
         Instr.Print_int; Instr.Return_void;
       ]);
  check_out "pop" [ 3 ]
    (run_body
       ([ Instr.Const 3; Instr.Const 9; Instr.Pop ] @ print_top))

let binop_cases =
  [
    (Instr.Add, 7, 3, 10);
    (Instr.Sub, 7, 3, 4);
    (Instr.Mul, 7, 3, 21);
    (Instr.Div, 7, 3, 2);
    (Instr.Div, -7, 3, -2);  (* truncation toward zero, as in Java *)
    (Instr.Rem, 7, 3, 1);
    (Instr.Rem, -7, 3, -1);
    (Instr.And, 12, 10, 8);
    (Instr.Or, 12, 10, 14);
    (Instr.Xor, 12, 10, 6);
    (Instr.Shl, 3, 2, 12);
    (Instr.Shr, -8, 1, -4);  (* arithmetic shift *)
  ]

let test_binops () =
  List.iter
    (fun (op, a, b, expected) ->
      check_out
        (Printf.sprintf "%d op %d" a b)
        [ expected ]
        (run_body
           ([ Instr.Const a; Instr.Const b; Instr.Binop op ] @ print_top)))
    binop_cases

let cmp_cases =
  [
    (Instr.Eq, 3, 3, 1); (Instr.Eq, 3, 4, 0);
    (Instr.Ne, 3, 4, 1); (Instr.Lt, 3, 4, 1); (Instr.Lt, 4, 3, 0);
    (Instr.Le, 3, 3, 1); (Instr.Gt, 4, 3, 1); (Instr.Ge, 3, 4, 0);
  ]

let test_cmps () =
  List.iter
    (fun (c, a, b, expected) ->
      check_out "cmp" [ expected ]
        (run_body ([ Instr.Const a; Instr.Const b; Instr.Cmp c ] @ print_top)))
    cmp_cases

let test_unary () =
  check_out "neg" [ -9 ] (run_body ([ Instr.Const 9; Instr.Neg ] @ print_top));
  check_out "not zero" [ 1 ] (run_body ([ Instr.Const 0; Instr.Not ] @ print_top));
  check_out "not nonzero" [ 0 ]
    (run_body ([ Instr.Const 5; Instr.Not ] @ print_top))

let test_jumps () =
  (* jump over a poison print *)
  check_out "jump" [ 1 ]
    (run_body
       [
         Instr.Jump 3; Instr.Const 99; Instr.Print_int; Instr.Const 1;
         Instr.Print_int; Instr.Return_void;
       ]);
  (* conditional both ways *)
  check_out "jump_if taken" [ 1 ]
    (run_body
       [
         Instr.Const 1; Instr.Jump_if 4; Instr.Const 0; Instr.Jump 5;
         Instr.Const 1; Instr.Print_int; Instr.Return_void;
       ]);
  check_out "jump_ifnot taken" [ 1 ]
    (run_body
       [
         Instr.Const 0; Instr.Jump_ifnot 4; Instr.Const 0; Instr.Jump 5;
         Instr.Const 1; Instr.Print_int; Instr.Return_void;
       ])

let test_null_truthiness_in_branches () =
  check_out "null is false" [ 1 ]
    (run_body
       [
         Instr.Const_null; Instr.Jump_ifnot 4; Instr.Const 0; Instr.Jump 5;
         Instr.Const 1; Instr.Print_int; Instr.Return_void;
       ])

let test_arrays () =
  check_out "array lifecycle" [ 3; 0; 77 ]
    (run_body
       ([
          Instr.Const 3; Instr.Array_new; Instr.Store 0;
          (* length *)
          Instr.Load 0; Instr.Array_len; Instr.Print_int;
          (* default element *)
          Instr.Load 0; Instr.Const 1; Instr.Array_get; Instr.Print_int;
          (* set then get *)
          Instr.Load 0; Instr.Const 2; Instr.Const 77; Instr.Array_set;
          Instr.Load 0; Instr.Const 2; Instr.Array_get;
        ]
       @ print_top))

let test_globals () =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"T" ~parent:None ~fields:[] in
  let slot = Program.Builder.declare_global b "g" in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals:1
    [|
      Instr.Get_global slot; Instr.Print_int;
      Instr.Const 5; Instr.Put_global slot;
      Instr.Get_global slot; Instr.Print_int; Instr.Return_void;
    |];
  let p = Program.Builder.seal b ~main in
  Verify.program p;
  let vm = Bare_vm.create p in
  Interp.run vm;
  check_out "globals default to 0 then update" [ 0; 5 ] (Interp.output vm)

let test_objects_and_fields () =
  let b = Program.Builder.create () in
  let cls =
    Program.Builder.declare_class b ~name:"P" ~parent:None ~fields:[ "x"; "y" ]
  in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals:1
    [|
      Instr.New cls; Instr.Store 0;
      (* default field value *)
      Instr.Load 0; Instr.Get_field 0; Instr.Print_int;
      (* write and read back field 1 *)
      Instr.Load 0; Instr.Const 31; Instr.Put_field 1;
      Instr.Load 0; Instr.Get_field 1; Instr.Print_int;
      Instr.Return_void;
    |];
  let p = Program.Builder.seal b ~main in
  Verify.program p;
  let vm = Bare_vm.create p in
  Interp.run vm;
  check_out "fields" [ 0; 31 ] (Interp.output vm)

let test_instance_of_and_dispatch_depth () =
  (* Dispatch through a 3-deep hierarchy; instance_of at each level. *)
  let b = Program.Builder.create () in
  let base = Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[] in
  let mid = Program.Builder.declare_class b ~name:"B" ~parent:(Some base) ~fields:[] in
  let leaf = Program.Builder.declare_class b ~name:"C" ~parent:(Some mid) ~fields:[] in
  let m_a =
    Program.Builder.declare_method b ~owner:base ~name:"id" ~kind:Meth.Instance
      ~arity:0 ~returns:true
  in
  let m_c =
    Program.Builder.declare_method b ~owner:leaf ~name:"id" ~kind:Meth.Instance
      ~arity:0 ~returns:true
  in
  let main =
    Program.Builder.declare_method b ~owner:base ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b m_a ~max_locals:1 [| Instr.Const 1; Instr.Return |];
  Program.Builder.set_body b m_c ~max_locals:1 [| Instr.Const 3; Instr.Return |];
  let sel = (fun () -> ()) in
  ignore sel;
  let selector = Program.Builder.intern_selector b "id" in
  Program.Builder.set_body b main ~max_locals:1
    [|
      (* B inherits A.id; C overrides *)
      Instr.New mid; Instr.Call_virtual (selector, 0); Instr.Print_int;
      Instr.New leaf; Instr.Call_virtual (selector, 0); Instr.Print_int;
      Instr.New leaf; Instr.Instance_of base; Instr.Print_int;
      Instr.New base; Instr.Instance_of leaf; Instr.Print_int;
      Instr.Return_void;
    |];
  let p = Program.Builder.seal b ~main in
  Verify.program p;
  let vm = Bare_vm.create p in
  Interp.run vm;
  check_out "dispatch + instance_of" [ 1; 3; 1; 0 ] (Interp.output vm)

let test_call_cost_tiers () =
  (* A call into baseline code costs more than into optimized code. *)
  let open Acsi_lang.Dsl in
  let program =
    Acsi_lang.Compile.prog
      (prog
         [
           cls "K" ~fields:[]
             [ static_meth "f" [] ~returns:true [ ret (i 1) ] ];
         ]
         [ print (call "K" "f" []) ])
  in
  let f = Program.find_method program ~cls:"K" ~name:"f" in
  let run_once install =
    let vm = Bare_vm.create program in
    if install then begin
      let oracle = Acsi_jit.Oracle.create program in
      let code, _ = Acsi_jit.Expand.compile program (Interp.cost vm) oracle ~root:f in
      Interp.install_code vm f.Meth.id code
    end;
    Interp.run vm;
    Interp.cycles vm
  in
  check_bool "optimized callee is cheaper" true (run_once true < run_once false)

let test_instruction_counters () =
  let out_cycles =
    let b = Program.Builder.create () in
    let cls = Program.Builder.declare_class b ~name:"T" ~parent:None ~fields:[] in
    let main =
      Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
        ~arity:0 ~returns:false
    in
    Program.Builder.set_body b main ~max_locals:1
      [| Instr.Const 1; Instr.Pop; Instr.Return_void |];
    let p = Program.Builder.seal b ~main in
    Verify.program p;
    let vm = Bare_vm.create p in
    Interp.run vm;
    (Interp.instructions_executed vm, Interp.cycles vm, Interp.calls_executed vm)
  in
  let instrs, cycles, calls = out_cycles in
  check_int "three instructions" 3 instrs;
  check_int "main counts as one call" 1 calls;
  check_int "cycles = instrs x baseline cost"
    (3 * Cost.default.Cost.baseline_instr)
    cycles

let suite =
  [
    Alcotest.test_case "const/print" `Quick test_const_and_print;
    Alcotest.test_case "locals" `Quick test_locals;
    Alcotest.test_case "stack ops" `Quick test_stack_ops;
    Alcotest.test_case "binops" `Quick test_binops;
    Alcotest.test_case "comparisons" `Quick test_cmps;
    Alcotest.test_case "unary ops" `Quick test_unary;
    Alcotest.test_case "jumps" `Quick test_jumps;
    Alcotest.test_case "null truthiness" `Quick test_null_truthiness_in_branches;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "objects and fields" `Quick test_objects_and_fields;
    Alcotest.test_case "dispatch and instance_of" `Quick
      test_instance_of_and_dispatch_depth;
    Alcotest.test_case "call cost tiers" `Quick test_call_cost_tiers;
    Alcotest.test_case "instruction counters" `Quick test_instruction_counters;
  ]
