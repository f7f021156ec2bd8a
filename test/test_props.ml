(* Property tests over randomly generated programs: the front end always
   produces verifiable bytecode, and neither forced inline expansion nor
   the full adaptive system may change a program's observable output. *)

open Acsi_bytecode
open Acsi_lang
open Acsi_core
module Gen = QCheck.Gen

(* --- a generator of random mini-language programs ---

   Fixed harness: classes A and B (B extends A) with a polymorphic [m],
   and a static [apply] dispatching on its argument; generated statements
   mix arithmetic, control flow, locals, and calls through the harness, so
   optimized runs exercise static, direct, and guarded-virtual inlining. *)

let harness_classes =
  let open Dsl in
  [
    cls "A" ~fields:[ "bias" ]
      [
        meth "init" [ "b" ] ~returns:false [ set_thisf "bias" (v "b") ];
        meth "m" [ "x" ] ~returns:true [ ret (add (v "x") (thisf "bias")) ];
      ];
    cls "B" ~parent:"A" ~fields:[]
      [
        meth "m" [ "x" ] ~returns:true
          [ ret (mul (add (v "x") (thisf "bias")) (i 2)) ];
      ];
    cls "Harness" ~fields:[]
      [
        static_meth "apply" [ "o"; "x" ] ~returns:true
          [ ret (inv (v "o") "m" [ v "x" ]) ];
        static_meth "clampdiv" [ "a"; "b" ] ~returns:true
          [ ret (div (v "a") (bor (v "b") (i 1))) ];
      ];
  ]

let ( let* ) g f = Gen.( >>= ) g f

(* Random expressions over integer locals currently in scope. *)
let rec gen_expr env depth =
  let leaf =
    Gen.oneof
      (Gen.map (fun n -> Ast.Int (n - 50)) (Gen.int_bound 100)
      ::
      (match env with
      | [] -> []
      | _ :: _ -> [ Gen.map (fun name -> Ast.Local name) (Gen.oneofl env) ]))
  in
  if depth <= 0 then leaf
  else
    Gen.frequency
      [
        (2, leaf);
        ( 2,
          Gen.map2
            (fun a b -> Ast.Binop (Acsi_bytecode.Instr.Add, a, b))
            (gen_expr env (depth - 1))
            (gen_expr env (depth - 1)) );
        ( 1,
          Gen.map2
            (fun a b -> Ast.Binop (Acsi_bytecode.Instr.Sub, a, b))
            (gen_expr env (depth - 1))
            (gen_expr env (depth - 1)) );
        ( 1,
          Gen.map2
            (fun a b ->
              Ast.Binop
                ( Acsi_bytecode.Instr.And,
                  Ast.Binop (Acsi_bytecode.Instr.Mul, a, b),
                  Ast.Int 65535 ))
            (gen_expr env (depth - 1))
            (gen_expr env (depth - 1)) );
        ( 1,
          Gen.map2
            (fun a b -> Ast.Static_call ("Harness", "clampdiv", [ a; b ]))
            (gen_expr env (depth - 1))
            (gen_expr env (depth - 1)) );
        ( 1,
          let* c = gen_expr env (depth - 1) in
          let* a = gen_expr env (depth - 1) in
          let* b = gen_expr env (depth - 1) in
          Gen.return (Ast.Cond (Ast.Cmp (Acsi_bytecode.Instr.Lt, c, Ast.Int 0), a, b))
        );
        ( 2,
          let* recv = Gen.oneofl [ "oa"; "ob" ] in
          let* x = gen_expr env (depth - 1) in
          Gen.return (Ast.Static_call ("Harness", "apply", [ Ast.Local recv; x ]))
        );
      ]

let rec gen_stmts env fuel ~lvl =
  if fuel <= 0 then Gen.return []
  else
    let* choice = Gen.int_bound 5 in
    match choice with
    | 0 ->
        (* declare or update a local *)
        let* name = Gen.oneofl [ "x"; "y"; "z" ] in
        let* e = gen_expr env 2 in
        let env = if List.mem name env then env else name :: env in
        let* rest = gen_stmts env (fuel - 1) ~lvl in
        Gen.return (Ast.Let (name, e) :: rest)
    | 1 ->
        let* e = gen_expr env 2 in
        let* rest = gen_stmts env (fuel - 1) ~lvl in
        Gen.return (Ast.Print (Ast.Binop (Acsi_bytecode.Instr.And, e, Ast.Int 1048575)) :: rest)
    | 2 ->
        let* c = gen_expr env 1 in
        let* t = gen_stmts env (fuel / 2) ~lvl in
        let* f = gen_stmts env (fuel / 2) ~lvl in
        let* rest = gen_stmts env (fuel - 1) ~lvl in
        Gen.return
          (Ast.If (Ast.Cmp (Acsi_bytecode.Instr.Ge, c, Ast.Int 0), t, f) :: rest)
    | 3 ->
        (* Loop variables are unique per nesting level; reusing one slot
           across nested loops would let the inner loop reset the outer
           counter below its bound — an infinite loop. *)
        let* n = Gen.int_range 1 20 in
        let name = Printf.sprintf "k%d" lvl in
        let* body = gen_stmts (name :: env) (fuel / 2) ~lvl:(lvl + 1) in
        let* rest = gen_stmts env (fuel - 1) ~lvl in
        Gen.return (Ast.For (name, Ast.Int 0, Ast.Int n, body) :: rest)
    | _ ->
        let* e = gen_expr env 2 in
        let* rest = gen_stmts env (fuel - 1) ~lvl in
        Gen.return (Ast.Expr e :: rest)

let gen_program_then extra =
  let* body = gen_stmts [] 12 ~lvl:0 in
  let* extra = extra in
  let open Dsl in
  Gen.return
    (prog harness_classes
       ([
          let_ "oa" (new_ "A" [ i 3 ]);
          let_ "ob" (new_ "B" [ i 5 ]);
          (* ensure some virtual traffic regardless of the random body *)
          for_ "w" (i 0) (i 50)
            [
              print
                (band
                   (add
                      (call "Harness" "apply" [ v "oa"; v "w" ])
                      (call "Harness" "apply" [ v "ob"; v "w" ]))
                   (i 1048575));
            ];
        ]
       @ body @ extra
       @ [ print (i 424242) ]))

(* Every binary operator and compare with register, constant and field
   operands on each side, each printed, stored or branched on at random:
   the shapes the closure tier builds its specialized closures for. The
   branches also keep each straight-line run short enough to fit a
   sample window, so it runs on closures. A divisor is never zero: [w1]
   is odd, a divisor constant is 1-9 and the harness objects' bias
   fields are 3 and 5. The block runs three times with [u1] moving, so
   branches go both ways. *)
let gen_operator_block =
  let open Acsi_bytecode.Instr in
  let kinds = [ `Reg; `Imm; `Field ] in
  let operand ~divisor kind =
    match kind with
    | `Reg ->
        if divisor then Gen.return (Ast.Local "w1")
        else Gen.map (fun n -> Ast.Local n) (Gen.oneofl [ "u1"; "w1" ])
    | `Imm ->
        if divisor then Gen.map (fun n -> Ast.Int (n + 1)) (Gen.int_bound 8)
        else Gen.map (fun n -> Ast.Int (n - 50)) (Gen.int_bound 100)
    | `Field ->
        Gen.map
          (fun o -> Ast.Field ("A", Ast.Local o, "bias"))
          (Gen.oneofl [ "oa"; "ob" ])
  in
  let place e =
    let* k = Gen.int_bound 2 in
    Gen.return
      (match k with
      | 0 -> [ Ast.Print e ]
      | 1 -> [ Ast.Let ("r1", e); Ast.Print (Ast.Local "r1") ]
      | _ ->
          [ Ast.If (e, [ Ast.Print (Ast.Int 1) ], [ Ast.Print (Ast.Int 0) ]) ])
  in
  let every_shape mk ~divisor =
    List.concat_map
      (fun ka ->
        List.map
          (fun kb ->
            let* a = operand ~divisor:false ka in
            let* b = operand ~divisor kb in
            place (mk a b))
          kinds)
      kinds
  in
  let stmts =
    List.concat_map
      (fun op ->
        every_shape
          (fun a b -> Ast.Binop (op, a, b))
          ~divisor:(op = Div || op = Rem))
      [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
    @ List.concat_map
        (fun c -> every_shape (fun a b -> Ast.Cmp (c, a, b)) ~divisor:false)
        [ Eq; Ne; Lt; Le; Gt; Ge ]
  in
  let* body = Gen.flatten_l stmts in
  let* u = Gen.int_bound 2000 in
  let* w = Gen.int_bound 1000 in
  Gen.return
    [
      Ast.Let ("u1", Ast.Int (u - 1000));
      Ast.Let ("w1", Ast.Int ((2 * w) + 1));
      Ast.For
        ( "kk", Ast.Int 0, Ast.Int 3,
          List.concat body
          @ [ Ast.Let ("u1", Ast.Binop (Add, Ast.Local "u1", Ast.Int 37)) ] );
    ]

let gen_program = gen_program_then (Gen.return [])

let arbitrary_program = QCheck.make gen_program

let arbitrary_operator_program =
  QCheck.make (gen_program_then gen_operator_block)

let baseline_output program =
  let vm = Bare_vm.create program in
  Acsi_vm.Interp.run vm;
  Acsi_vm.Interp.output vm

(* 1. The front end always yields verifiable code (Compile.prog runs the
   verifier internally; surviving it is the property). *)
let prop_compiles_and_verifies =
  QCheck.Test.make ~name:"generated programs compile and verify" ~count:60
    arbitrary_program (fun ast ->
      let program = Compile.prog ast in
      Program.method_count program > 0)

(* 2. Forced inline expansion of every method, under rules that recommend
   both polymorphic targets everywhere, preserves output. *)
let prop_expansion_preserves_output =
  QCheck.Test.make ~name:"forced expansion preserves output" ~count:40
    arbitrary_program (fun ast ->
      let program = Compile.prog ast in
      let expected = baseline_output program in
      let a_m = Program.find_method program ~cls:"A" ~name:"m" in
      let b_m = Program.find_method program ~cls:"B" ~name:"m" in
      (* Hot rules at every call site of every method, for both targets. *)
      let hot = ref [] in
      Array.iter
        (fun (m : Meth.t) ->
          Array.iteri
            (fun pc instr ->
              if Instr.is_call instr then
                List.iter
                  (fun (callee : Meth.t) ->
                    hot :=
                      ( Acsi_profile.Trace.make ~callee:callee.Meth.id
                          ~chain:
                            [
                              { Acsi_profile.Trace.caller = m.Meth.id; callsite = pc };
                            ],
                        50.0 )
                      :: !hot)
                  [ a_m; b_m ])
            m.Meth.body)
        (Program.methods program);
      let oracle = Acsi_jit.Oracle.create program in
      Acsi_jit.Oracle.set_rules oracle (Acsi_profile.Rules.of_hot_traces !hot);
      let vm = Bare_vm.create program in
      Array.iter
        (fun (m : Meth.t) ->
          let code, _ =
            Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
              ~root:m
          in
          Acsi_vm.Interp.install_code vm m.Meth.id code)
        (Program.methods program);
      Acsi_vm.Interp.run vm;
      Acsi_vm.Interp.output vm = expected)

(* 3. The full adaptive system, under an aggressive configuration and
   several policies, preserves output. *)
let prop_adaptive_system_preserves_output =
  QCheck.Test.make ~name:"adaptive system preserves output" ~count:25
    arbitrary_program (fun ast ->
      let program = Compile.prog ast in
      let expected = baseline_output program in
      List.for_all
        (fun policy ->
          let cfg = Config.default ~policy in
          let cfg =
            { cfg with Config.sample_period = 5_000; invoke_stride = 16 }
          in
          let result = Runtime.run cfg program in
          Acsi_vm.Interp.output result.Runtime.vm = expected)
        Acsi_policy.Policy.
          [ Context_insensitive; Fixed 3; Hybrid_param_large 5 ])

(* 4. Metric identities hold on random programs. *)
let prop_metric_identities =
  QCheck.Test.make ~name:"metric identities" ~count:25 arbitrary_program
    (fun ast ->
      let program = Compile.prog ast in
      let cfg = Config.default ~policy:(Acsi_policy.Policy.Fixed 2) in
      let cfg = { cfg with Config.sample_period = 5_000; invoke_stride = 16 } in
      let m = (Runtime.run cfg program).Runtime.metrics in
      m.Metrics.total_cycles = m.Metrics.app_cycles + m.Metrics.aos_cycles
      && m.Metrics.guard_hits >= 0
      && m.Metrics.opt_code_bytes >= m.Metrics.installed_opt_bytes)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiles_and_verifies;
      prop_expansion_preserves_output;
      prop_adaptive_system_preserves_output;
      prop_metric_identities;
    ]
