(* Unit tests for the JIT: size classes, the oracle's decision logic, and
   the inline expander's transformation (exercised by executing the code
   it produces). *)

open Acsi_bytecode
open Acsi_vm
open Acsi_jit
open Acsi_profile
open Acsi_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Size --- *)

let test_size_classes () =
  let classify u = Size.classify ~units:u in
  check_bool "tiny" true (classify 7 = Size.Tiny);
  check_bool "small lower" true (classify 8 = Size.Small);
  check_bool "small upper" true (classify 19 = Size.Small);
  check_bool "medium lower" true (classify 20 = Size.Medium);
  check_bool "medium upper" true (classify 99 = Size.Medium);
  check_bool "large" true (classify 100 = Size.Large)

let test_size_estimate_const_discount () =
  let m =
    {
      Meth.id = Ids.Method_id.of_int 0;
      owner = Ids.Class_id.of_int 0;
      name = "m";
      selector = Ids.Selector.of_int 0;
      kind = Meth.Static;
      arity = 2;
      returns = true;
      body = Array.make 24 Instr.Nop;
      max_locals = 2;
      max_stack = 0;
    }
  in
  let base = Size.estimate m ~const_args:0 in
  let with_consts = Size.estimate m ~const_args:2 in
  check_int "no discount" 24 base;
  check_bool "discounted" true (with_consts < base);
  check_bool "never below 1" true (Size.estimate m ~const_args:100 >= 1)

let test_const_args_at () =
  let sel = Ids.Selector.of_int 0 in
  let body =
    [|
      Instr.Load 0;
      Instr.Const 1;
      Instr.Const 2;
      Instr.Call_virtual (sel, 2);
      Instr.Return_void;
    |]
  in
  check_int "two consts" 2 (Size.const_args_at body ~pc:3);
  let body2 =
    [| Instr.Load 0; Instr.Load 1; Instr.Call_virtual (sel, 1); Instr.Return_void |]
  in
  check_int "no consts" 0 (Size.const_args_at body2 ~pc:2)

(* --- shared fixture: a program with tiny/medium/large callees and a
   polymorphic hierarchy --- *)

let fixture () =
  let open Dsl in
  let filler n =
    (* [n] statements that survive as ~3 instructions each *)
    List.init n (fun k -> let_ "t" (add (i k) (i 1)))
  in
  let classes =
    [
      cls "A" ~fields:[] [ meth "poly" [] ~returns:true [ ret (i 1) ] ];
      cls "B" ~parent:"A" ~fields:[] [ meth "poly" [] ~returns:true [ ret (i 2) ] ];
      cls "C" ~parent:"A" ~fields:[] [ meth "poly" [] ~returns:true [ ret (i 3) ] ];
      cls "T" ~fields:[]
        [
          static_meth "tiny" [ "x" ] ~returns:true [ ret (add (v "x") (i 1)) ];
          static_meth "medium" [ "x" ] ~returns:true
            (filler 12 @ [ ret (mul (v "x") (i 3)) ]);
          static_meth "large" [ "x" ] ~returns:true
            (filler 40 @ [ ret (v "x") ]);
          static_meth "recur" [ "x" ] ~returns:true
            [
              if_ (le (v "x") (i 0)) [ ret (i 0) ] [];
              ret (call "T" "recur" [ sub (v "x") (i 1) ]);
            ];
          static_meth "caller" [ "o"; "x" ] ~returns:true
            [
              let_ "a" (call "T" "tiny" [ v "x" ]);
              let_ "b" (call "T" "medium" [ v "x" ]);
              let_ "c" (call "T" "large" [ v "x" ]);
              let_ "d" (inv (v "o") "poly" []);
              ret (add (add (v "a") (v "b")) (add (v "c") (v "d")));
            ];
        ];
    ]
  in
  Compile.prog
    (prog classes
       [
         print (call "T" "caller" [ new_ "A" []; i 5 ]);
         print (call "T" "caller" [ new_ "B" []; i 5 ]);
         print (call "T" "recur" [ i 3 ]);
       ])

let find program name = Program.find_method program ~cls:"T" ~name

let compile_with ?rules program root =
  let rules = match rules with Some r -> r | None -> Rules.empty () in
  let oracle = Oracle.create program in
  Oracle.set_rules oracle rules;
  Expand.compile program Cost.default oracle ~root

(* Run the program with [code] installed for [root] and compare output to
   the baseline. *)
let preserves_output program root code =
  let base_vm = Bare_vm.create program in
  Interp.run base_vm;
  let vm = Bare_vm.create program in
  Interp.install_code vm root.Meth.id code;
  Interp.run vm;
  Alcotest.(check (list int))
    "behaviour preserved" (Interp.output base_vm) (Interp.output vm)

(* --- oracle --- *)

let decide ?rules ?(site = 0) ?(depth = 0)
    ?(expanded_units = 0) program root call =
  let rules = match rules with Some r -> r | None -> Rules.empty () in
  let oracle = Oracle.create program in
  Oracle.set_rules oracle rules;
  Oracle.decide oracle ~root
    ~site_chain:[| { Trace.caller = root.Meth.id; callsite = site } |]
    ~chain_methods:[ root.Meth.id ] ~depth ~expanded_units ~call ~const_args:0

let test_oracle_tiny_always () =
  let program = fixture () in
  let caller = find program "caller" in
  let tiny = find program "tiny" in
  match decide program caller (Instr.Call_static tiny.Meth.id) with
  | Oracle.Inline [ { Oracle.target; guarded = false; _ } ] ->
      check_bool "tiny inlined" true (Ids.Method_id.equal target tiny.Meth.id)
  | Oracle.Inline _ | Oracle.No_inline -> Alcotest.fail "tiny must inline"

let test_oracle_large_never () =
  let program = fixture () in
  let caller = find program "caller" in
  let large = find program "large" in
  check_bool "large refused" true
    (decide program caller (Instr.Call_static large.Meth.id) = Oracle.No_inline)

let test_oracle_medium_needs_profile () =
  let program = fixture () in
  let caller = find program "caller" in
  let medium = find program "medium" in
  let call = Instr.Call_static medium.Meth.id in
  check_bool "cold medium refused" true
    (decide program caller call = Oracle.No_inline);
  let rules =
    Rules.of_hot_traces
      [
        ( Trace.make ~callee:medium.Meth.id
            ~chain:[ { Trace.caller = caller.Meth.id; callsite = 4 } ],
          100.0 );
      ]
  in
  match decide ~rules ~site:4 program caller call with
  | Oracle.Inline [ { Oracle.guarded = false; _ } ] -> ()
  | Oracle.Inline _ | Oracle.No_inline ->
      Alcotest.fail "hot medium must inline"

let test_oracle_recursion_refused () =
  let program = fixture () in
  let recur = find program "recur" in
  check_bool "self call refused" true
    (decide program recur (Instr.Call_static recur.Meth.id) = Oracle.No_inline)

let test_oracle_depth_limit () =
  let program = fixture () in
  let caller = find program "caller" in
  let tiny = find program "tiny" in
  check_bool "too deep" true
    (decide ~depth:99 program caller (Instr.Call_static tiny.Meth.id)
    = Oracle.No_inline)

let test_oracle_budget_limit () =
  let program = fixture () in
  let caller = find program "caller" in
  let tiny = find program "tiny" in
  check_bool "budget exhausted" true
    (decide ~expanded_units:100_000 program caller
       (Instr.Call_static tiny.Meth.id)
    = Oracle.No_inline)

let test_oracle_polymorphic_guarded () =
  let program = fixture () in
  let caller = find program "caller" in
  let a_poly = Program.find_method program ~cls:"A" ~name:"poly" in
  let b_poly = Program.find_method program ~cls:"B" ~name:"poly" in
  let sel = a_poly.Meth.selector in
  let site = 17 in
  let mk callee w =
    ( Trace.make ~callee
        ~chain:[ { Trace.caller = caller.Meth.id; callsite = site } ],
      w )
  in
  let rules =
    Rules.of_hot_traces [ mk a_poly.Meth.id 60.0; mk b_poly.Meth.id 40.0 ]
  in
  match decide ~rules ~site program caller (Instr.Call_virtual (sel, 0)) with
  | Oracle.Inline targets ->
      check_int "two guarded targets" 2 (List.length targets);
      check_bool "all guarded" true
        (List.for_all (fun t -> t.Oracle.guarded) targets);
      (match targets with
      | { Oracle.target; _ } :: _ ->
          check_bool "dominant first" true
            (Ids.Method_id.equal target a_poly.Meth.id)
      | [] -> Alcotest.fail "unreachable")
  | Oracle.No_inline -> Alcotest.fail "hot polymorphic site must inline"

let test_oracle_cold_polymorphic_refused () =
  let program = fixture () in
  let caller = find program "caller" in
  let a_poly = Program.find_method program ~cls:"A" ~name:"poly" in
  check_bool "no profile, no guarded inlining" true
    (decide program caller (Instr.Call_virtual (a_poly.Meth.selector, 0))
    = Oracle.No_inline)

let test_oracle_refusal_reported () =
  let program = fixture () in
  let caller = find program "caller" in
  let large = find program "large" in
  let oracle = Oracle.create program in
  let site = 9 in
  Oracle.set_rules oracle
    (Rules.of_hot_traces
       [
         ( Trace.make ~callee:large.Meth.id
             ~chain:[ { Trace.caller = caller.Meth.id; callsite = site } ],
           50.0 );
       ]);
  let reported = ref None in
  Oracle.set_on_refusal oracle (fun ~site:_ ~callee reason ->
      reported := Some (callee, reason));
  ignore
    (Oracle.decide oracle ~root:caller
       ~site_chain:[| { Trace.caller = caller.Meth.id; callsite = site } |]
       ~chain_methods:[ caller.Meth.id ] ~depth:0 ~expanded_units:0
       ~call:(Instr.Call_static large.Meth.id) ~const_args:0);
  match !reported with
  | Some (callee, Oracle.Too_large) ->
      check_bool "refused callee" true (Ids.Method_id.equal callee large.Meth.id)
  | Some (_, other) ->
      Alcotest.failf "unexpected reason %s" (Oracle.refusal_reason_to_string other)
  | None -> Alcotest.fail "expected a refusal report"

(* --- expander --- *)

let test_expand_static_inline_runs () =
  let program = fixture () in
  let caller = find program "caller" in
  let code, stats = compile_with program caller in
  check_bool "inlined something" true (stats.Expand.inline_count > 0);
  preserves_output program caller code

let test_expand_guarded_inline_runs () =
  let program = fixture () in
  let caller = find program "caller" in
  let a_poly = Program.find_method program ~cls:"A" ~name:"poly" in
  let b_poly = Program.find_method program ~cls:"B" ~name:"poly" in
  (* Find the polymorphic call site in caller's body. *)
  let site = ref (-1) in
  Array.iteri
    (fun pc instr ->
      match instr with Instr.Call_virtual _ -> site := pc | _ -> ())
    caller.Meth.body;
  check_bool "found site" true (!site >= 0);
  let mk callee w =
    ( Trace.make ~callee
        ~chain:[ { Trace.caller = caller.Meth.id; callsite = !site } ],
      w )
  in
  let rules =
    Rules.of_hot_traces [ mk a_poly.Meth.id 60.0; mk b_poly.Meth.id 40.0 ]
  in
  let code, stats = compile_with ~rules program caller in
  check_int "two guards" 2 stats.Expand.guard_count;
  (* Execution covers a guard hit (A receiver) and a chained guard (B), and
     class C — absent from the rules — would take the fallback. *)
  preserves_output program caller code

let test_expand_fallback_path () =
  (* A receiver class that no guard expects must reach the fallback
     virtual call. *)
  let program = fixture () in
  let caller = find program "caller" in
  let a_poly = Program.find_method program ~cls:"A" ~name:"poly" in
  let site = ref (-1) in
  Array.iteri
    (fun pc instr ->
      match instr with Instr.Call_virtual _ -> site := pc | _ -> ())
    caller.Meth.body;
  let rules =
    Rules.of_hot_traces
      [
        ( Trace.make ~callee:a_poly.Meth.id
            ~chain:[ { Trace.caller = caller.Meth.id; callsite = !site } ],
          60.0 );
      ]
  in
  let code, _ = compile_with ~rules program caller in
  let vm = Bare_vm.create program in
  Interp.install_code vm caller.Meth.id code;
  Interp.run vm;
  (* The B receiver misses A's guard. *)
  check_bool "guard misses happened" true (Interp.guard_misses vm > 0);
  let base = Bare_vm.create program in
  Interp.run base;
  Alcotest.(check (list int)) "output" (Interp.output base) (Interp.output vm)

let test_expand_source_map () =
  let program = fixture () in
  let caller = find program "caller" in
  let tiny = find program "tiny" in
  let code, _ = compile_with program caller in
  (* Every pc must map to a source method; at least one instruction must
     come from the inlined tiny body with caller as its parent. *)
  match code.Code.src with
  | None -> Alcotest.fail "optimized code must carry a source map"
  | Some entries ->
      check_int "map covers code" (Array.length code.Code.instrs)
        (Array.length entries);
      let from_tiny =
        Array.exists
          (fun e ->
            Ids.Method_id.equal e.Code.src_meth tiny.Meth.id
            && (match e.Code.parents with
               | (parent, _) :: _ -> Ids.Method_id.equal parent caller.Meth.id
               | [] -> false))
          entries
      in
      check_bool "tiny body attributed with parent" true from_tiny

let test_expand_verifies () =
  (* The expander re-verifies its output; a successful compile implies the
     bytecode invariants held. Check max_stack grew sensibly. *)
  let program = fixture () in
  let caller = find program "caller" in
  let code, _ = compile_with program caller in
  check_bool "max stack positive" true (code.Code.max_stack > 0);
  check_bool "locals grew for inlinee frames" true
    (code.Code.max_locals >= caller.Meth.max_locals)

let test_expand_stats_accounting () =
  let program = fixture () in
  let caller = find program "caller" in
  let _, stats = compile_with program caller in
  check_int "bytes = units x opt bytes" stats.Expand.code_bytes
    (stats.Expand.expanded_units * Cost.default.Cost.opt_bytes_per_unit);
  check_int "cycles = fixed + units x unit"
    stats.Expand.compile_cycles
    (Cost.default.Cost.opt_compile_fixed
    + (stats.Expand.expanded_units * Cost.default.Cost.opt_compile_unit))

let test_expand_no_rules_no_guards () =
  let program = fixture () in
  let caller = find program "caller" in
  let _, stats = compile_with program caller in
  check_int "no guards without profile" 0 stats.Expand.guard_count

let suite =
  [
    Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "size estimate discount" `Quick
      test_size_estimate_const_discount;
    Alcotest.test_case "const args scan" `Quick test_const_args_at;
    Alcotest.test_case "oracle: tiny always" `Quick test_oracle_tiny_always;
    Alcotest.test_case "oracle: large never" `Quick test_oracle_large_never;
    Alcotest.test_case "oracle: medium needs profile" `Quick
      test_oracle_medium_needs_profile;
    Alcotest.test_case "oracle: recursion refused" `Quick
      test_oracle_recursion_refused;
    Alcotest.test_case "oracle: depth limit" `Quick test_oracle_depth_limit;
    Alcotest.test_case "oracle: budget limit" `Quick test_oracle_budget_limit;
    Alcotest.test_case "oracle: polymorphic guarded" `Quick
      test_oracle_polymorphic_guarded;
    Alcotest.test_case "oracle: cold polymorphic refused" `Quick
      test_oracle_cold_polymorphic_refused;
    Alcotest.test_case "oracle: refusal reported" `Quick
      test_oracle_refusal_reported;
    Alcotest.test_case "expand: static inline" `Quick
      test_expand_static_inline_runs;
    Alcotest.test_case "expand: guarded inline" `Quick
      test_expand_guarded_inline_runs;
    Alcotest.test_case "expand: fallback path" `Quick test_expand_fallback_path;
    Alcotest.test_case "expand: source map" `Quick test_expand_source_map;
    Alcotest.test_case "expand: verified output" `Quick test_expand_verifies;
    Alcotest.test_case "expand: stats accounting" `Quick
      test_expand_stats_accounting;
    Alcotest.test_case "expand: no rules, no guards" `Quick
      test_expand_no_rules_no_guards;
  ]
