(* Unit tests for the bytecode substrate: ids, instructions, the code
   buffer, program building/sealing, dispatch, CHA, and the verifier. *)

open Acsi_bytecode

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Ids --- *)

let test_ids_basic () =
  let a = Ids.Method_id.of_int 3 in
  let b = Ids.Method_id.of_int 3 in
  let c = Ids.Method_id.of_int 4 in
  check_bool "equal" true (Ids.Method_id.equal a b);
  check_bool "not equal" false (Ids.Method_id.equal a c);
  check_int "to_int" 3 (Ids.Method_id.to_int a);
  check_int "coerce" 4 (c :> int);
  check_bool "compare" true (Ids.Method_id.compare a c < 0)

let test_ids_negative_rejected () =
  Alcotest.check_raises "negative id" (Invalid_argument "Ids.of_int: negative id")
    (fun () -> ignore (Ids.Class_id.of_int (-1)))

(* --- Instr --- *)

let test_instr_jump_targets () =
  check (Alcotest.list Alcotest.int) "jump" [ 7 ] (Instr.jump_targets (Instr.Jump 7));
  check (Alcotest.list Alcotest.int) "jump_if" [ 2 ]
    (Instr.jump_targets (Instr.Jump_if 2));
  check (Alcotest.list Alcotest.int) "guard fail" [ 9 ]
    (Instr.jump_targets
       (Instr.Guard_method
          {
            Instr.expected = Ids.Method_id.of_int 0;
            sel = Ids.Selector.of_int 0;
            argc = 1;
            fail = 9;
          }));
  check (Alcotest.list Alcotest.int) "non-branch" []
    (Instr.jump_targets (Instr.Const 3))

let test_instr_with_jump_targets () =
  let shifted = Instr.with_jump_targets (Instr.Jump 3) ~f:(fun t -> t + 10) in
  (match shifted with
  | Instr.Jump 13 -> ()
  | _ -> Alcotest.fail "expected Jump 13");
  match Instr.with_jump_targets (Instr.Pop) ~f:(fun t -> t + 10) with
  | Instr.Pop -> ()
  | _ -> Alcotest.fail "non-branch must be unchanged"

let test_instr_is_call () =
  check_bool "static" true (Instr.is_call (Instr.Call_static (Ids.Method_id.of_int 0)));
  check_bool "virtual" true
    (Instr.is_call (Instr.Call_virtual (Ids.Selector.of_int 0, 2)));
  check_bool "direct" true (Instr.is_call (Instr.Call_direct (Ids.Method_id.of_int 0)));
  check_bool "const" false (Instr.is_call (Instr.Const 1))

let test_instr_pp_stable () =
  check Alcotest.string "const" "const 5" (Instr.to_string (Instr.Const 5));
  check Alcotest.string "binop" "add" (Instr.to_string (Instr.Binop Instr.Add));
  check Alcotest.string "cmp" "cmp.lt" (Instr.to_string (Instr.Cmp Instr.Lt))

(* --- Codebuf --- *)

let test_codebuf_linear () =
  let buf = Codebuf.create ~dummy:() in
  Codebuf.emit buf (Instr.Const 1) ();
  Codebuf.emit buf Instr.Pop ();
  let instrs, notes = Codebuf.finish buf in
  check_int "length" 2 (Array.length instrs);
  check_int "notes length" 2 (Array.length notes)

let test_codebuf_label_patching () =
  let buf = Codebuf.create ~dummy:() in
  let l = Codebuf.new_label buf in
  Codebuf.emit_branch buf (Instr.Jump 0) () l;
  Codebuf.emit buf Instr.Nop ();
  Codebuf.bind_label buf l;
  Codebuf.emit buf Instr.Return_void ();
  let instrs, _ = Codebuf.finish buf in
  match instrs.(0) with
  | Instr.Jump 2 -> ()
  | other -> Alcotest.failf "expected Jump 2, got %s" (Instr.to_string other)

let test_codebuf_backward_label () =
  let buf = Codebuf.create ~dummy:() in
  let l = Codebuf.new_label buf in
  Codebuf.bind_label buf l;
  Codebuf.emit buf Instr.Nop ();
  Codebuf.emit_branch buf (Instr.Jump 0) () l;
  let instrs, _ = Codebuf.finish buf in
  match instrs.(1) with
  | Instr.Jump 0 -> ()
  | other -> Alcotest.failf "expected Jump 0, got %s" (Instr.to_string other)

let test_codebuf_unbound_label () =
  let buf = Codebuf.create ~dummy:() in
  let l = Codebuf.new_label buf in
  Codebuf.emit_branch buf (Instr.Jump 0) () l;
  Alcotest.check_raises "unbound" (Invalid_argument "Codebuf: unbound label")
    (fun () -> ignore (Codebuf.finish buf))

let test_codebuf_double_bind () =
  let buf = Codebuf.create ~dummy:() in
  let l = Codebuf.new_label buf in
  Codebuf.bind_label buf l;
  Alcotest.check_raises "double bind"
    (Invalid_argument "Codebuf: label bound twice") (fun () ->
      Codebuf.bind_label buf l)

let test_codebuf_growth () =
  let buf = Codebuf.create ~dummy:0 in
  for k = 0 to 999 do
    Codebuf.emit buf (Instr.Const k) k
  done;
  let instrs, notes = Codebuf.finish buf in
  check_int "length" 1000 (Array.length instrs);
  check_int "note preserved" 777 notes.(777)

(* --- Program building --- *)

(* A small hierarchy: Base <- Mid <- Leaf, with an overridden method. *)
let build_hierarchy () =
  let b = Program.Builder.create () in
  let base = Program.Builder.declare_class b ~name:"Base" ~parent:None ~fields:[ "x" ] in
  let mid =
    Program.Builder.declare_class b ~name:"Mid" ~parent:(Some base)
      ~fields:[ "y" ]
  in
  let leaf =
    Program.Builder.declare_class b ~name:"Leaf" ~parent:(Some mid) ~fields:[]
  in
  let m_base =
    Program.Builder.declare_method b ~owner:base ~name:"value" ~kind:Meth.Instance
      ~arity:0 ~returns:true
  in
  let m_leaf =
    Program.Builder.declare_method b ~owner:leaf ~name:"value" ~kind:Meth.Instance
      ~arity:0 ~returns:true
  in
  let main =
    Program.Builder.declare_method b ~owner:base ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b m_base ~max_locals:1
    [| Instr.Const 1; Instr.Return |];
  Program.Builder.set_body b m_leaf ~max_locals:1
    [| Instr.Const 2; Instr.Return |];
  Program.Builder.set_body b main ~max_locals:1 [| Instr.Return_void |];
  let p = Program.Builder.seal b ~main in
  (p, base, mid, leaf, m_base, m_leaf)

let test_dispatch_override () =
  let p, base, mid, leaf, m_base, m_leaf = build_hierarchy () in
  let sel = (Program.meth p m_base).Meth.selector in
  let target cid = Program.dispatch p cid sel in
  check_bool "base gets base" true
    (target base = Some m_base);
  check_bool "mid inherits base" true (target mid = Some m_base);
  check_bool "leaf overrides" true (target leaf = Some m_leaf)

let test_field_layout_inheritance () =
  let p, _, mid, leaf, _, _ = build_hierarchy () in
  let mid_c = Program.clazz p mid in
  check_int "mid fields" 2 (Clazz.field_count mid_c);
  check_int "inherited x slot" 0 (Clazz.field_slot mid_c "x");
  check_int "own y slot" 1 (Clazz.field_slot mid_c "y");
  let leaf_c = Program.clazz p leaf in
  check_int "leaf inherits layout" 2 (Clazz.field_count leaf_c)

let test_cha () =
  let p, _, _, _, m_base, m_leaf = build_hierarchy () in
  let sel = (Program.meth p m_base).Meth.selector in
  let impls = Program.implementations p sel in
  check_int "two implementations" 2 (List.length impls);
  check_bool "both found" true
    (List.mem m_base impls && List.mem m_leaf impls);
  check_bool "not monomorphic" true
    (Program.monomorphic_target p sel = None)

(* The hierarchy facts sealing precomputes equal their definitions:
   implementations are the distinct dispatch targets over all classes,
   in ascending id order; a cone is every subclass, in class order. *)
let test_sealed_hierarchy_facts () =
  List.iter
    (fun (name, p) ->
      let classes = Array.to_list (Program.classes p) in
      for s = 0 to Program.selector_count p - 1 do
        let sel = Ids.Selector.of_int s in
        let targets =
          List.filter_map (fun (c : Clazz.t) -> Program.dispatch p c.id sel) classes
          |> List.sort_uniq Ids.Method_id.compare
        in
        check_bool
          (Printf.sprintf "%s: implementations of %s" name
             (Program.selector_name p sel))
          true
          (List.equal Ids.Method_id.equal targets (Program.implementations p sel))
      done;
      List.iter
        (fun (c : Clazz.t) ->
          let expected =
            List.filter
              (fun (k : Clazz.t) -> Program.is_subclass p ~sub:k.id ~super:c.id)
              classes
          in
          check_bool
            (Printf.sprintf "%s: cone of %s" name c.name)
            true
            (List.equal ( == ) expected (Array.to_list (Program.cone p c.id))))
        classes)
    (Acsi_workloads.Workloads.build_all ~scale_factor:0.05 ())

let test_is_subclass () =
  let p, base, mid, leaf, _, _ = build_hierarchy () in
  check_bool "leaf <= base" true (Program.is_subclass p ~sub:leaf ~super:base);
  check_bool "leaf <= mid" true (Program.is_subclass p ~sub:leaf ~super:mid);
  check_bool "base </= leaf" false (Program.is_subclass p ~sub:base ~super:leaf);
  check_bool "reflexive" true (Program.is_subclass p ~sub:mid ~super:mid)

let test_find_class_and_method () =
  let p, _, _, _, m_base, _ = build_hierarchy () in
  check Alcotest.string "find_class" "Mid" (Program.find_class p "Mid").Clazz.name;
  Alcotest.check_raises "missing class" Not_found (fun () ->
      ignore (Program.find_class p "Nope"));
  let found = Program.find_method p ~cls:"Base" ~name:"value" in
  check_bool "find_method" true (Ids.Method_id.equal found.Meth.id m_base)

let test_duplicate_class_rejected () =
  let b = Program.Builder.create () in
  ignore (Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder: duplicate class A") (fun () ->
      ignore (Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[]))

let test_seal_requires_bodies () =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[] in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Alcotest.check_raises "no body"
    (Invalid_argument "Builder.seal: method main has no body") (fun () ->
      ignore (Program.Builder.seal b ~main))

let test_seal_checks_main_signature () =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[] in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:1 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals:1 [| Instr.Return_void |];
  Alcotest.check_raises "bad main"
    (Invalid_argument "Builder.seal: main must be a parameterless static method")
    (fun () -> ignore (Program.Builder.seal b ~main))

let test_selector_interning () =
  let b = Program.Builder.create () in
  let s1 = Program.Builder.intern_selector b "foo" in
  let s2 = Program.Builder.intern_selector b "foo" in
  let s3 = Program.Builder.intern_selector b "bar" in
  check_bool "same name same id" true (Ids.Selector.equal s1 s2);
  check_bool "distinct names distinct ids" false (Ids.Selector.equal s1 s3)

(* --- Verifier --- *)

(* Build a one-method program with the given body and run the verifier. *)
let verify_body ?(arity = 0) ?(returns = false) ?(max_locals = 2) body =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"T" ~parent:None ~fields:[] in
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals:1 [| Instr.Return_void |];
  let m =
    Program.Builder.declare_method b ~owner:cls ~name:"m" ~kind:Meth.Static
      ~arity ~returns
  in
  Program.Builder.set_body b m ~max_locals body;
  let p = Program.Builder.seal b ~main in
  let meth = Program.meth p m in
  Verify.meth p meth;
  meth

let expect_verify_error body check_msg =
  match verify_body body with
  | _ -> Alcotest.fail "expected a verification error"
  | exception Verify.Error msg ->
      check_bool (Printf.sprintf "message %S mentions" msg) true (check_msg msg)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_verify_ok_and_max_stack () =
  let m =
    verify_body
      [|
        Instr.Const 1; Instr.Const 2; Instr.Const 3; Instr.Binop Instr.Add;
        Instr.Binop Instr.Mul; Instr.Pop; Instr.Return_void;
      |]
  in
  check_int "max stack" 3 m.Meth.max_stack

let test_verify_underflow () =
  expect_verify_error [| Instr.Pop; Instr.Return_void |] (fun m ->
      contains m "underflow")

let test_verify_jump_range () =
  expect_verify_error [| Instr.Jump 99; Instr.Return_void |] (fun m ->
      contains m "target")

let test_verify_unreachable_jump_range () =
  (* Out-of-range targets must be rejected even in unreachable code. *)
  expect_verify_error
    [| Instr.Return_void; Instr.Jump 99 |]
    (fun m -> contains m "target")

let test_verify_falls_off_end () =
  expect_verify_error [| Instr.Const 1; Instr.Pop |] (fun m ->
      contains m "falls off")

let test_verify_inconsistent_join () =
  (* One path pushes before the join, the other does not. *)
  expect_verify_error
    [|
      Instr.Const 0;
      Instr.Jump_if 3;
      Instr.Const 7;
      (* join: depth 1 from fall-through, 0 from branch *)
      Instr.Nop;
      Instr.Return_void;
    |]
    (fun m -> contains m "inconsistent")

let test_verify_return_depth () =
  expect_verify_error
    [| Instr.Const 1; Instr.Const 2; Instr.Return_void |]
    (fun m -> contains m "return_void with stack depth")

let test_verify_void_mismatch () =
  match
    verify_body ~returns:true [| Instr.Return_void |]
  with
  | _ -> Alcotest.fail "expected error"
  | exception Verify.Error m ->
      check_bool "void mismatch" true (contains m "value-returning")

let test_verify_local_bounds () =
  expect_verify_error [| Instr.Load 5; Instr.Pop; Instr.Return_void |]
    (fun m -> contains m "outside max_locals")

let suite =
  [
    Alcotest.test_case "ids basics" `Quick test_ids_basic;
    Alcotest.test_case "ids reject negatives" `Quick test_ids_negative_rejected;
    Alcotest.test_case "instr jump targets" `Quick test_instr_jump_targets;
    Alcotest.test_case "instr target rewriting" `Quick test_instr_with_jump_targets;
    Alcotest.test_case "instr is_call" `Quick test_instr_is_call;
    Alcotest.test_case "instr printing" `Quick test_instr_pp_stable;
    Alcotest.test_case "codebuf linear emit" `Quick test_codebuf_linear;
    Alcotest.test_case "codebuf forward label" `Quick test_codebuf_label_patching;
    Alcotest.test_case "codebuf backward label" `Quick test_codebuf_backward_label;
    Alcotest.test_case "codebuf unbound label" `Quick test_codebuf_unbound_label;
    Alcotest.test_case "codebuf double bind" `Quick test_codebuf_double_bind;
    Alcotest.test_case "codebuf growth" `Quick test_codebuf_growth;
    Alcotest.test_case "dispatch override" `Quick test_dispatch_override;
    Alcotest.test_case "field layout inheritance" `Quick test_field_layout_inheritance;
    Alcotest.test_case "class hierarchy analysis" `Quick test_cha;
    Alcotest.test_case "sealed hierarchy facts" `Quick
      test_sealed_hierarchy_facts;
    Alcotest.test_case "subclass relation" `Quick test_is_subclass;
    Alcotest.test_case "find class and method" `Quick test_find_class_and_method;
    Alcotest.test_case "duplicate class rejected" `Quick test_duplicate_class_rejected;
    Alcotest.test_case "seal requires bodies" `Quick test_seal_requires_bodies;
    Alcotest.test_case "seal checks main" `Quick test_seal_checks_main_signature;
    Alcotest.test_case "selector interning" `Quick test_selector_interning;
    Alcotest.test_case "verify computes max stack" `Quick test_verify_ok_and_max_stack;
    Alcotest.test_case "verify underflow" `Quick test_verify_underflow;
    Alcotest.test_case "verify jump range" `Quick test_verify_jump_range;
    Alcotest.test_case "verify unreachable jump range" `Quick
      test_verify_unreachable_jump_range;
    Alcotest.test_case "verify falls off end" `Quick test_verify_falls_off_end;
    Alcotest.test_case "verify inconsistent join" `Quick test_verify_inconsistent_join;
    Alcotest.test_case "verify return depth" `Quick test_verify_return_depth;
    Alcotest.test_case "verify void mismatch" `Quick test_verify_void_mismatch;
    Alcotest.test_case "verify local bounds" `Quick test_verify_local_bounds;
  ]
