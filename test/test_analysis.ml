(* The static-analysis library: a malformed-bytecode corpus with one
   body per error class, asserting the exact diagnostic each checker
   emits, plus a property that everything the JIT actually installs
   during adaptive runs re-verifies clean. *)

open Acsi_bytecode
open Acsi_analysis
open Acsi_core
module Policy = Acsi_policy.Policy
module Micro = Acsi_workloads.Micro

let check_diags = Alcotest.(check (list string))
let diag_strings ds = List.map Diag.to_string ds

(* A program with one class [T] and one static method [m] whose body
   [mk_body] builds (given the class id), plus a trivial main. The body
   is deliberately NOT verified here — each test drives the checker
   under test itself. *)
let prog_of ?(arity = 0) ?(returns = false) ?(max_locals = 2) mk_body =
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
  Program.Builder.set_body b m ~max_locals (mk_body cls);
  let p = Program.Builder.seal b ~main in
  (p, Program.meth p m)

(* --- Typed verification ------------------------------------------- *)

(* Int on one path, a fresh object on the other, joined into the same
   local and then consumed by an int operation: the one definite error
   the Conflict element exists to catch. *)
let test_type_clash_at_join () =
  let p, m =
    prog_of (fun cls ->
        [|
          Instr.Const 0;
          Instr.Jump_if 5;
          Instr.Const 7;
          Instr.Store 1;
          Instr.Jump 7;
          Instr.New cls;
          Instr.Store 1;
          Instr.Load 1;
          Instr.Neg;
          Instr.Pop;
          Instr.Return_void;
        |])
  in
  check_diags "diagnostics"
    [ "m:8: neg expects an int but got a type clash at join (int vs reference)" ]
    (diag_strings (Typecheck.meth_diags p m))

(* --- Lint: unreachable code --------------------------------------- *)

let test_unreachable_block () =
  let p, m =
    prog_of ~max_locals:1 (fun _ ->
        [| Instr.Jump 2; Instr.Nop; Instr.Return_void |])
  in
  check_diags "single unreachable pc" [ "m:1: unreachable code" ]
    (diag_strings (Lint.meth p m))

let test_unreachable_range_and_epilogue () =
  let p, m =
    prog_of ~max_locals:1 (fun _ ->
        [| Instr.Return_void; Instr.Const 1; Instr.Pop; Instr.Return_void |])
  in
  check_diags "trailing non-return range is reported"
    [ "m:1: unreachable code (pcs 1-3)" ]
    (diag_strings (Lint.meth p m));
  (* ... but the front end's stranded all-returns epilogue is not. *)
  let p, m =
    prog_of ~max_locals:1 (fun _ -> [| Instr.Return_void; Instr.Return_void |])
  in
  check_diags "epilogue exempt" [] (diag_strings (Lint.meth p m))

(* --- Structural verification: the parameter-slots bugfix ---------- *)

let test_param_slots_exceed_locals () =
  let p, m =
    prog_of ~arity:3 ~max_locals:2 (fun _ ->
        [| Instr.Pop; Instr.Return_void |])
  in
  match Verify.meth p m with
  | () -> Alcotest.fail "expected Verify.Error"
  | exception Verify.Error msg ->
      Alcotest.(check string)
        "diagnostic" "m:0: 3 parameter slots do not fit in max_locals 2" msg

(* --- JIT-output invariants ---------------------------------------- *)

(* Classes A and B <: A, both answering [tick] (so CHA cannot bind the
   selector), and a static [root] whose body is supplied per test. *)
let jit_fixture root_body =
  let b = Program.Builder.create () in
  let a = Program.Builder.declare_class b ~name:"A" ~parent:None ~fields:[] in
  let bb =
    Program.Builder.declare_class b ~name:"B" ~parent:(Some a) ~fields:[]
  in
  let sel = Program.Builder.intern_selector b "tick" in
  let a_tick =
    Program.Builder.declare_method b ~owner:a ~name:"tick" ~kind:Meth.Instance
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b a_tick ~max_locals:1 [| Instr.Return_void |];
  let b_tick =
    Program.Builder.declare_method b ~owner:bb ~name:"tick" ~kind:Meth.Instance
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b b_tick ~max_locals:1 [| Instr.Return_void |];
  let root =
    Program.Builder.declare_method b ~owner:a ~name:"root" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b root ~max_locals:1 (root_body a sel a_tick);
  let p = Program.Builder.seal b ~main:root in
  (p, a, sel, a_tick, Program.meth p root)

let entry ?(parents = []) src_meth src_pc =
  { Acsi_vm.Code.src_meth; src_pc; parents }

let mk_code mid instrs srcs =
  {
    Acsi_vm.Code.meth = mid;
    tier = Acsi_vm.Code.Optimized;
    instrs;
    max_locals = 2;
    max_stack = 4;
    src = Some srcs;
    code_bytes = 0;
    assumptions = [];
  }

(* A devirtualized inline body reachable along a path that bypasses its
   method guard: the region is flagged pc by pc. *)
let test_guard_not_dominating () =
  let p, a, sel, a_tick, root =
    jit_fixture (fun a sel _ ->
        [| Instr.New a; Instr.Call_virtual (sel, 0); Instr.Return_void |])
  in
  let rid = root.Meth.id in
  let code =
    mk_code rid
      [|
        Instr.New a;
        Instr.Const 1;
        Instr.Jump_if 5;
        Instr.Guard_method { Instr.expected = a_tick; sel; argc = 0; fail = 7 };
        Instr.Nop;
        Instr.Store 1;
        Instr.Jump 8;
        Instr.Call_virtual (sel, 0);
        Instr.Return_void;
      |]
      [|
        entry rid 0;
        entry rid (-1);
        entry rid (-1);
        entry rid 1;
        entry rid (-1);
        entry ~parents:[ (rid, 1) ] a_tick (-1);
        entry ~parents:[ (rid, 1) ] a_tick 0;
        entry rid 1;
        entry rid 2;
      |]
  in
  check_diags "diagnostics"
    [
      "root$opt:5: inline body for tick not dominated by its method guard";
      "root$opt:6: inline body for tick not dominated by its method guard";
    ]
    (diag_strings (Jit_check.check p code))

(* An inline-map entry pointing past the end of its source method. *)
let test_stale_inline_map_pc () =
  let p, _, _, _, root =
    jit_fixture (fun a sel _ ->
        [| Instr.New a; Instr.Call_virtual (sel, 0); Instr.Return_void |])
  in
  let rid = root.Meth.id in
  let code =
    mk_code rid
      [| Instr.Nop; Instr.Return_void |]
      [| entry rid 99; entry rid 2 |]
  in
  check_diags "diagnostics"
    [ "root$opt:0: stale inline map: source pc 99 outside root (3 instrs)" ]
    (diag_strings (Jit_check.check p code))

(* A rewritten return whose jump lands back inside its own region. *)
let test_return_into_own_region () =
  let p, a, _, a_tick, root =
    jit_fixture (fun a _ a_tick ->
        [| Instr.New a; Instr.Call_direct a_tick; Instr.Return_void |])
  in
  let rid = root.Meth.id and tid = a_tick in
  let code =
    mk_code rid
      [|
        Instr.New a;
        Instr.Store 1;
        Instr.Nop;
        Instr.Jump 2;
        Instr.Return_void;
      |]
      [|
        entry rid 0;
        entry ~parents:[ (rid, 1) ] tid (-1);
        entry ~parents:[ (rid, 1) ] tid 0;
        entry ~parents:[ (rid, 1) ] tid 0;
        entry rid 2;
      |]
  in
  check_diags "diagnostics"
    [
      "root$opt:3: rewritten return of tick jumps into its own or a nested \
       inline region";
    ]
    (diag_strings (Jit_check.check p code))

(* An OSR-eligible entry (root-level, equal stack depth) whose carried
   stack slot changed kind between source and optimized code. *)
let test_osr_incompatible_stack () =
  let p, _, _, _, root =
    jit_fixture (fun a _ _ ->
        [| Instr.New a; Instr.Pop; Instr.Return_void |])
  in
  let rid = root.Meth.id in
  let code =
    mk_code rid
      [| Instr.Const 3; Instr.Pop; Instr.Return_void |]
      [| entry rid 0; entry rid 1; entry rid 2 |]
  in
  check_diags "diagnostics"
    [
      "root$opt:1: OSR entry for source pc 1: stack slot 0 is int in \
       optimized code but A at source";
    ]
    (diag_strings (Jit_check.check p code))

(* --- Property: installed code re-verifies ------------------------- *)

(* Whatever the adaptive system installs during a real run — inline
   expansion, peephole rewriting, guards, source maps — must satisfy
   every Jit_check invariant. Runs a random micro workload under a
   random policy and re-checks each Optimized method post hoc. *)
let prop_installed_code_reverifies =
  let policies =
    [ Policy.Fixed 2; Policy.Fixed 3; Policy.Adaptive_resolving 4 ]
  in
  QCheck.Test.make ~name:"every JIT-installed method re-verifies clean"
    ~count:8
    QCheck.(
      pair
        (int_bound (List.length Micro.all - 1))
        (int_bound (List.length policies - 1)))
    (fun (wi, pi) ->
      let name, build = List.nth Micro.all wi in
      let policy = List.nth policies pi in
      let program = build ~scale:30 in
      let result = Runtime.run (Config.default ~policy) program in
      Array.for_all
        (fun (m : Meth.t) ->
          let code = Acsi_vm.Interp.code_of result.Runtime.vm m.Meth.id in
          match code.Acsi_vm.Code.tier with
          | Acsi_vm.Code.Baseline -> true
          | Acsi_vm.Code.Optimized -> (
              match Jit_check.check program code with
              | [] -> true
              | d :: _ ->
                  QCheck.Test.fail_reportf "%s under %s: %s" name
                    (Policy.to_string policy) (Diag.to_string d)))
        (Program.methods program))

(* --- Property: summaries never contradict execution ---------------- *)

module Interp = Acsi_vm.Interp

(* Dynamic effect observation: drive a single virtual thread a quantum
   of one cycle at a time (instruction fusion off) and, before each
   slice, peek at the innermost frame's next source instruction. A
   write/allocation/print is attributed to EVERY method on the physical
   stack — the same transitive semantics the summary claims — and a
   return is attributed to the innermost method alone. Peeking can only
   under-observe (a slice may retire more than one instruction), which
   keeps the property one-sided: every observed fact must be claimed,
   never the converse. *)
let observed_facts program =
  let n = Array.length (Program.methods program) in
  let wr = Array.make n false
  and al = Array.make n false
  and io = Array.make n false
  and ret = Array.make n false in
  let vm = Bare_vm.create program in
  let th = Interp.spawn vm in
  let mark arr =
    for i = 0 to vm.Interp.depth - 1 do
      let fr = vm.Interp.frames.(i) in
      arr.((fr.Interp.f_code.Acsi_vm.Code.meth :> int)) <- true
    done
  in
  let status = ref Interp.Running in
  while !status = Interp.Running do
    (if vm.Interp.depth > 0 then
       let fr = vm.Interp.frames.(vm.Interp.depth - 1) in
       let mid = fr.Interp.f_code.Acsi_vm.Code.meth in
       let body = (Program.meth program mid).Meth.body in
       if fr.Interp.f_pc >= 0 && fr.Interp.f_pc < Array.length body then
         match body.(fr.Interp.f_pc) with
         | Instr.Put_field _ | Instr.Put_global _ | Instr.Array_set -> mark wr
         | Instr.New _ | Instr.Array_new -> mark al
         | Instr.Print_int -> mark io
         | Instr.Return | Instr.Return_void -> ret.((mid :> int)) <- true
         | _ -> ());
    status := Interp.resume vm th ~quantum:1
  done;
  (wr, al, io, ret)

let prop_summaries_sound_dynamically =
  QCheck.Test.make ~name:"summaries never contradict execution" ~count:15
    Test_props.arbitrary_program (fun ast ->
      let program = Acsi_lang.Compile.prog ast in
      let tbl = Summary.analyze program in
      let wr, al, io, ret = observed_facts program in
      (* Vacuity guard: generated programs always print from [main], so
         a working peek loop must observe [main] doing output. *)
      if not io.((Program.main program :> int)) then
        QCheck.Test.fail_reportf "dynamic harness observed no output in main";
      Array.for_all
        (fun (m : Meth.t) ->
          let s = Summary.get tbl m.Meth.id in
          let i = (m.Meth.id :> int) in
          let claimed what claim obs =
            if obs && not claim then
              QCheck.Test.fail_reportf
                "%s: summary claims no %s but execution observed one"
                m.Meth.name what
            else true
          in
          claimed "heap write" s.Summary.effects.Summary.writes_heap wr.(i)
          && claimed "allocation" s.Summary.effects.Summary.allocates al.(i)
          && claimed "output" s.Summary.effects.Summary.io io.(i)
          && (if s.Summary.pure && (wr.(i) || al.(i) || io.(i)) then
                QCheck.Test.fail_reportf
                  "%s: summary says pure but execution had effects"
                  m.Meth.name
              else true)
          &&
          if s.Summary.always_throws && ret.(i) then
            QCheck.Test.fail_reportf
              "%s: summary says always-throws but execution saw it return"
              m.Meth.name
          else true)
        (Program.methods program))

(* Monomorphic-dispatch proofs against the dynamic call graph: every
   receiver the profile actually observed at a CHA-proven site must be
   the proven target. *)
let prop_mono_proofs_match_dcg =
  QCheck.Test.make ~name:"CHA mono proofs match observed receivers" ~count:10
    Test_props.arbitrary_program (fun ast ->
      let program = Acsi_lang.Compile.prog ast in
      let tbl = Summary.analyze program in
      let cfg = Config.default ~policy:(Policy.Fixed 3) in
      let cfg = { cfg with Config.sample_period = 5_000; invoke_stride = 4 } in
      let result = Runtime.run cfg program in
      let dcg = Acsi_aos.System.dcg result.Runtime.sys in
      Array.for_all
        (fun (m : Meth.t) ->
          let s = Summary.get tbl m.Meth.id in
          List.for_all
            (fun (pc, target) ->
              List.for_all
                (fun (callee, w) ->
                  if w > 0.0 && callee <> target then
                    QCheck.Test.fail_reportf
                      "%s:%d proven monomorphic to %s but DCG observed %s"
                      m.Meth.name pc
                      (Program.meth program target).Meth.name
                      (Program.meth program callee).Meth.name
                  else true)
                (Acsi_profile.Dcg.site_distribution dcg ~caller:m.Meth.id
                   ~callsite:pc))
            s.Summary.mono_sites)
        (Program.methods program))

(* --- Summary corpus: always-throws, dynamically -------------------- *)

(* Static [boom] divides by zero; [main] calls it. Sealed, not
   verified. *)
let thrower_program () =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"T" ~parent:None ~fields:[] in
  let thrower =
    Program.Builder.declare_method b ~owner:cls ~name:"boom" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b thrower ~max_locals:1
    [| Instr.Const 1; Instr.Const 0; Instr.Binop Instr.Div; Instr.Pop;
       Instr.Return_void |];
  let main =
    Program.Builder.declare_method b ~owner:cls ~name:"main" ~kind:Meth.Static
      ~arity:0 ~returns:false
  in
  Program.Builder.set_body b main ~max_locals:1
    [| Instr.Call_static thrower; Instr.Return_void |];
  (Program.Builder.seal b ~main, thrower)

(* A division by a constant zero: the summary must prove always-throws,
   and actually running the method must trap, not return. *)
let test_always_throws_traps () =
  let p, m =
    prog_of ~max_locals:1 (fun _ ->
        [| Instr.Const 1; Instr.Const 0; Instr.Binop Instr.Div; Instr.Pop;
           Instr.Return_void |])
  in
  let tbl = Summary.analyze p in
  let s = Summary.get tbl m.Meth.id in
  Alcotest.(check bool) "summary proves always-throws" true s.Summary.always_throws;
  (* Seal a twin program whose main calls m, and watch it trap. *)
  let p2, thrower = thrower_program () in
  let tbl2 = Summary.analyze p2 in
  Alcotest.(check bool) "caller inherits always-throws" true
    (Summary.get tbl2 thrower).Summary.always_throws;
  (* The VM runs verified code only: the verifier sizes the operand
     stack ([max_stack]) the frames are allocated with. *)
  Verify.program p2;
  let vm = Bare_vm.create p2 in
  Alcotest.(check bool) "execution traps, never returns" true
    (try
       Interp.run vm;
       false
     with Interp.Runtime_error _ -> true)

(* The VM refuses a program the verifier has not sized, instead of
   running frames with one operand slot until a push overflows it. *)
let test_unverified_program_refused () =
  let p, _ = thrower_program () in
  Alcotest.check_raises "create refuses" (Interp.Unverified "boom") (fun () ->
      ignore (Bare_vm.create p))

(* --- Determinism: the analyze table is independent of --jobs ------- *)

let test_summary_render_jobs_invariant () =
  let render name =
    let spec = Acsi_workloads.Workloads.find name in
    let program = spec.Acsi_workloads.Workloads.build ~scale:1 in
    Format.asprintf "%a"
      (fun fmt tbl -> Summary.print fmt program tbl)
      (Summary.analyze program)
  in
  let benches = [ "db"; "jess"; "mtrt" ] in
  let serial = Parallel.map ~jobs:1 render benches in
  let pooled = Parallel.map ~jobs:3 render benches in
  Alcotest.(check (list string)) "tables independent of --jobs" serial pooled

(* --- Summary against its specification ----------------------------- *)

(* [Summary_spec] is the bottom-up pass as it stood before the
   single-pass rewrite; every row must match it field by field. *)
let spec_row (r : Summary_spec.meth_summary) : Summary.meth_summary =
  let e = r.Summary_spec.effects in
  {
    Summary.meth = r.Summary_spec.meth;
    units = r.Summary_spec.units;
    size_est = r.Summary_spec.size_est;
    effects =
      {
        Summary.reads_heap = e.Summary_spec.reads_heap;
        writes_heap = e.Summary_spec.writes_heap;
        allocates = e.Summary_spec.allocates;
        io = e.Summary_spec.io;
      };
    pure = r.Summary_spec.pure;
    escapes = r.Summary_spec.escapes;
    returns_param = r.Summary_spec.returns_param;
    return_const = r.Summary_spec.return_const;
    always_throws = r.Summary_spec.always_throws;
    mono_sites = r.Summary_spec.mono_sites;
    virtual_sites = r.Summary_spec.virtual_sites;
    seed_sites = r.Summary_spec.seed_sites;
  }

let row_to_string (r : Summary.meth_summary) =
  let bits a =
    String.concat ""
      (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  let e = r.Summary.effects in
  let flag b c = if b then c else '-' in
  Printf.sprintf
    "{units %d est %d eff %c%c%c%c pure %b esc %s retp %s const %s throws %b \
     mono [%s] virt %d seed %d}"
    r.Summary.units r.Summary.size_est
    (flag e.Summary.reads_heap 'r')
    (flag e.Summary.writes_heap 'w')
    (flag e.Summary.allocates 'a')
    (flag e.Summary.io 'o') r.Summary.pure (bits r.Summary.escapes)
    (bits r.Summary.returns_param)
    (match r.Summary.return_const with Some k -> string_of_int k | None -> "-")
    r.Summary.always_throws
    (String.concat ";"
       (List.map
          (fun (pc, (t : Ids.Method_id.t)) ->
            Printf.sprintf "%d:%d" pc (t :> int))
          r.Summary.mono_sites))
    r.Summary.virtual_sites r.Summary.seed_sites

(* The first method whose row differs from the specification's. *)
let spec_mismatch program =
  let spec = Summary_spec.analyze program and t = Summary.analyze program in
  Array.fold_left
    (fun found (m : Meth.t) ->
      match found with
      | Some _ -> found
      | None ->
          let want = spec_row (Summary_spec.get spec m.Meth.id) in
          let got = Summary.get t m.Meth.id in
          if want = got then None
          else
            Some
              (Printf.sprintf "%s: spec %s, got %s" m.Meth.name
                 (row_to_string want) (row_to_string got)))
    None (Program.methods program)

let check_against_spec label program =
  match spec_mismatch program with
  | None -> ()
  | Some msg -> Alcotest.failf "%s %s" label msg

let test_summary_spec_programs () =
  List.iter
    (fun (w : Acsi_workloads.Workloads.spec) ->
      check_against_spec w.Acsi_workloads.Workloads.name
        (w.Acsi_workloads.Workloads.build
           ~scale:w.Acsi_workloads.Workloads.default_scale))
    Acsi_workloads.Workloads.(all @ extended);
  List.iter
    (fun name ->
      let path = "../examples/programs/" ^ name in
      check_against_spec name
        (Acsi_lang.Parser.compile
           (In_channel.with_open_bin path In_channel.input_all)))
    [ "collatz.acsi"; "shapes.acsi" ]

let prop_summary_matches_spec =
  QCheck.Test.make ~name:"summary rows equal the specification's" ~count:60
    Test_props.arbitrary_program (fun ast ->
      match spec_mismatch (Acsi_lang.Compile.prog ast) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Shapes the generators never produce: a self-recursive method; a
   three-method cycle whose escape and returns-param facts reach [a]
   only in a third round; an always-throwing callee reached from inside
   a cycle ([p] <-> [q]); a method with 64 parameter slots, past the
   taint bitset, and its caller. Verified like any program the VM
   runs. *)
let summary_corpus () =
  let b = Program.Builder.create () in
  let cls = Program.Builder.declare_class b ~name:"C" ~parent:None ~fields:[] in
  let g = Program.Builder.declare_global b "g" in
  let decl name arity returns =
    Program.Builder.declare_method b ~owner:cls ~name ~kind:Meth.Static ~arity
      ~returns
  in
  let main = decl "main" 0 false and fact = decl "fact" 1 true in
  let a = decl "a" 1 true and bb = decl "b" 1 true and c = decl "c" 1 true in
  let boom = decl "boom" 0 false in
  let p = decl "p" 1 true and q = decl "q" 1 true in
  let wide = decl "wide" 64 true and wide_caller = decl "wide_caller" 1 true in
  let body m ~max_locals instrs =
    Program.Builder.set_body b m ~max_locals instrs
  in
  Instr.(
    body fact ~max_locals:1
      [| Load 0; Const 0; Cmp Eq; Jump_ifnot 6; Const 1; Return; Load 0;
         Load 0; Const 1; Binop Sub; Call_static fact; Binop Mul; Return |];
    body a ~max_locals:1 [| Load 0; Call_static bb; Return |];
    body bb ~max_locals:1 [| Load 0; Call_static c; Return |];
    body c ~max_locals:1
      [| Load 0; Put_global g; Load 0; Const 0; Cmp Gt; Jump_ifnot 9;
         Load 0; Call_static a; Return; Load 0; Return |];
    body boom ~max_locals:1
      [| Const 1; Const 0; Binop Div; Pop; Return_void |];
    body p ~max_locals:1
      [| Load 0; Jump_ifnot 5; Call_static boom; Const 1; Return; Load 0;
         Call_static q; Pop; Const 2; Return |];
    body q ~max_locals:1 [| Call_static boom; Load 0; Call_static p; Return |];
    body wide ~max_locals:64 [| Load 63; Put_global g; Load 62; Return |];
    body wide_caller ~max_locals:1
      (Array.concat
         [
           [| Load 0 |];
           Array.make 63 (Const 0);
           [| Call_static wide; Return |];
         ]);
    body main ~max_locals:1
      [| Const 5; Call_static fact; Print_int; Const 3; Call_static a; Pop;
         Const 0; Call_static p; Pop; Const 1; Call_static wide_caller; Pop;
         Return_void |]);
  let program = Program.Builder.seal b ~main in
  Verify.program program;
  (program, a, p, q, wide)

let test_summary_spec_corpus () =
  let program, a, p, q, wide = summary_corpus () in
  check_against_spec "corpus" program;
  (* The corpus reaches what it is for. *)
  let t = Summary.analyze program in
  let row mid = Summary.get t mid in
  Alcotest.(check (array bool)) "a's argument escapes through c" [| true |]
    (row a).Summary.escapes;
  Alcotest.(check (array bool)) "a may return its argument" [| true |]
    (row a).Summary.returns_param;
  Alcotest.(check bool) "q always throws" true (row q).Summary.always_throws;
  Alcotest.(check (option int)) "p's only live return" (Some 2)
    (row p).Summary.return_const;
  Alcotest.(check (pair bool bool)) "wide's row is conservative" (true, true)
    ((row wide).Summary.returns_param.(0), (row wide).Summary.escapes.(0))

(* A sealed, unverified body the analysis cannot run gets the
   conservative row, like the specification's, and nothing escapes
   [analyze]. *)
let test_summary_malformed_conservative () =
  List.iter
    (fun (name, max_locals, instrs) ->
      let p, m = prog_of ~arity:1 ~returns:true ~max_locals (fun _ -> instrs) in
      check_against_spec name p;
      let r = Summary.get (Summary.analyze p) m.Meth.id in
      Alcotest.(check string)
        name
        (row_to_string
           {
             r with
             Summary.size_est = Meth.size_units m;
             effects =
               {
                 Summary.reads_heap = true;
                 writes_heap = true;
                 allocates = true;
                 io = true;
               };
             pure = false;
             escapes = [| true |];
             returns_param = [| true |];
             return_const = None;
             always_throws = false;
             mono_sites = [];
             seed_sites = 0;
           })
        (row_to_string r))
    Instr.
      [
        ("operand-stack underflow", 2, [| Pop; Pop; Const 1; Return |]);
        ("local out of range", 2, [| Load 5; Return |]);
      ]

(* --- Exact diagnostics over a mutation corpus ---------------------- *)

(* Real installs: every optimized code left installed after a
   speculative, OSR-enabled run of a corpus program, in method order. *)
let installed_codes name ~scale ~policy =
  let spec = Acsi_workloads.Workloads.find name in
  let program = spec.Acsi_workloads.Workloads.build ~scale in
  let cfg = Config.default ~policy in
  let aos =
    { cfg.Config.aos with Acsi_aos.System.speculate = true; enable_osr = true }
  in
  let result = Runtime.run { cfg with Config.aos } program in
  let codes =
    Array.to_list (Program.methods program)
    |> List.filter_map (fun (m : Meth.t) ->
           let code = Acsi_vm.Interp.code_of result.Runtime.vm m.Meth.id in
           match code.Acsi_vm.Code.tier with
           | Acsi_vm.Code.Optimized -> Some code
           | Acsi_vm.Code.Baseline -> None)
  in
  (program, codes)

let first_pc arr f =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if f i arr.(i) then Some i else go (i + 1) in
  go 0

(* Each mutation rewrites one copy of an installed code at the first pc
   it applies to, or returns [None] when the code has no such pc. *)
let mutations p : (string * (Acsi_vm.Code.t -> Acsi_vm.Code.t option)) list =
  let module C = Acsi_vm.Code in
  let srcs (c : C.t) = Option.get c.C.src in
  let with_instr (c : C.t) pc i =
    let instrs = Array.copy c.C.instrs in
    instrs.(pc) <- i;
    { c with C.instrs }
  in
  let with_srcs (c : C.t) f =
    { c with C.src = Some (Array.mapi f (srcs c)) }
  in
  let root_level (e : C.src_entry) = e.C.parents = [] && e.C.src_pc >= 0 in
  let first_guard (c : C.t) =
    first_pc c.C.instrs (fun _ i ->
        match i with Instr.Guard_method _ -> true | _ -> false)
  in
  let speculate_unguarded c =
    Option.map
      (fun pc ->
        match c.C.instrs.(pc) with
        | Instr.Guard_method g ->
            {
              (with_instr c pc Instr.Nop) with
              C.assumptions = (g.Instr.sel, g.Instr.expected) :: c.C.assumptions;
            }
        | _ -> assert false)
      (first_guard c)
  in
  [
    ( "drop-guard",
      fun c -> Option.map (fun pc -> with_instr c pc Instr.Nop) (first_guard c) );
    ("speculate-unguarded", speculate_unguarded);
    ( "speculate-unmapped",
      (* ... and with every root-level entry synthetic, no deopt point is
         left to dominate the speculative region. *)
      fun c ->
        Option.map
          (fun c ->
            with_srcs c (fun _ (e : C.src_entry) ->
                if e.C.parents = [] then { e with C.src_pc = -1 } else e))
          (speculate_unguarded c) );
    ( "retarget-jump",
      (* A jump inside an inline region sent back to the region's first
         pc: rewritten returns must never land in their own region. *)
      fun c ->
        let s = srcs c in
        Option.map
          (fun pc ->
            let region = s.(pc).C.parents and m = s.(pc).C.src_meth in
            let start =
              Option.get
                (first_pc s (fun _ (e : C.src_entry) ->
                     e.C.parents = region && Ids.Method_id.equal e.C.src_meth m))
            in
            with_instr c pc (Instr.Jump start))
          (first_pc c.C.instrs (fun pc i ->
               match i with
               | Instr.Jump _ -> s.(pc).C.parents <> []
               | _ -> false)) );
    ( "local-out-of-range",
      fun c ->
        Option.map
          (fun pc -> with_instr c pc (Instr.Load c.C.max_locals))
          (first_pc c.C.instrs (fun _ i ->
               match i with Instr.Load _ -> true | _ -> false)) );
    ( "field-out-of-range",
      fun c ->
        Option.map
          (fun pc ->
            match c.C.instrs.(pc) with
            | Instr.Get_field k -> with_instr c pc (Instr.Get_field (k + 50))
            | Instr.Put_field k -> with_instr c pc (Instr.Put_field (k + 50))
            | _ -> assert false)
          (first_pc c.C.instrs (fun _ i ->
               match i with
               | Instr.Get_field _ | Instr.Put_field _ -> true
               | _ -> false)) );
    ( "foreign-selector",
      (* A virtual call re-aimed at the first other selector with the same
         shape, so only the typed cone check can object. *)
      fun c ->
        let shape_ok sel argc returns =
          match Program.implementations p sel with
          | [] -> false
          | impls ->
              List.for_all
                (fun mid ->
                  let m = Program.meth p mid in
                  m.Meth.kind = Meth.Instance && m.Meth.arity = argc
                  && Bool.equal m.Meth.returns returns)
                impls
        in
        Option.bind
          (first_pc c.C.instrs (fun _ i ->
               match i with Instr.Call_virtual _ -> true | _ -> false))
          (fun pc ->
            match c.C.instrs.(pc) with
            | Instr.Call_virtual (sel, argc) ->
                let returns =
                  (Program.meth p (List.hd (Program.implementations p sel)))
                    .Meth.returns
                in
                let rec pick k =
                  if k >= Program.selector_count p then None
                  else
                    let s = Ids.Selector.of_int k in
                    if (not (Ids.Selector.equal s sel)) && shape_ok s argc returns
                    then Some (with_instr c pc (Instr.Call_virtual (s, argc)))
                    else pick (k + 1)
                in
                pick 0
            | _ -> assert false) );
    ( "swap-parent",
      (* Every entry of the first inline region takes the parent chain of
         the next distinct region. *)
      fun c ->
        let s = srcs c in
        Option.bind
          (first_pc s (fun _ (e : C.src_entry) -> e.C.parents <> []))
          (fun i ->
            let first = s.(i).C.parents in
            Option.map
              (fun j ->
                let other = s.(j).C.parents in
                with_srcs c (fun _ (e : C.src_entry) ->
                    if e.C.parents = first then { e with C.parents = other }
                    else e))
              (first_pc s (fun _ (e : C.src_entry) ->
                   e.C.parents <> [] && e.C.parents <> first))) );
    ( "parent-not-a-call",
      fun c ->
        let s = srcs c in
        Option.map
          (fun i ->
            with_srcs c (fun pc (e : C.src_entry) ->
                if pc = i then
                  match e.C.parents with
                  | (m, _) :: rest -> { e with C.parents = (m, 0) :: rest }
                  | [] -> e
                else e))
          (first_pc s (fun _ (e : C.src_entry) ->
               match e.C.parents with
               | (m, cs) :: _ ->
                   cs <> 0 && not (Instr.is_call (Program.meth p m).Meth.body.(0))
               | [] -> false)) );
    ( "stale-source-pc",
      fun c ->
        let s = srcs c in
        Option.map
          (fun i ->
            with_srcs c (fun pc (e : C.src_entry) ->
                if pc = i then { e with C.src_pc = e.C.src_pc + 10_000 } else e))
          (first_pc s (fun _ e -> root_level e)) );
    ( "foreign-root-entry",
      fun c ->
        let s = srcs c in
        let other =
          Ids.Method_id.of_int
            (((c.C.meth :> int) + 1) mod Program.method_count p)
        in
        Option.map
          (fun i ->
            with_srcs c (fun pc (e : C.src_entry) ->
                if pc = i then { e with C.src_meth = other; src_pc = -1 } else e))
          (first_pc s (fun _ e -> root_level e)) );
    ( "carried-slot-kind",
      (* An int constant a root-level entry carries becomes null. *)
      fun c ->
        let s = srcs c in
        Option.map
          (fun pc -> with_instr c pc Instr.Const_null)
          (first_pc c.C.instrs (fun pc i ->
               match i with
               | Instr.Const _ -> root_level s.(pc)
               | _ -> false)) );
  ]

let mutant_corpus =
  [
    ("dispatch", 4, Policy.Adaptive_resolving 3);
    ("richards", 1, Policy.Fixed 3);
    ("javac", 30, Policy.Hybrid_param_class 4);
    ("db", 22, Policy.Context_insensitive);
  ]

(* The rendered report: for each corpus program and installed code, the
   unmutated findings then each applicable mutation's findings. *)
let render_mutant_report () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, scale, policy) ->
      let p, codes = installed_codes name ~scale ~policy in
      Printf.bprintf buf "== %s scale %d %s: %d installed codes\n" name scale
        (Policy.to_string policy) (List.length codes);
      List.iter
        (fun (code : Acsi_vm.Code.t) ->
          let label = (Program.meth p code.Acsi_vm.Code.meth).Meth.name in
          let emit what c =
            let ds = Jit_check.check p c in
            Printf.bprintf buf "%s/%s: %d\n" label what (List.length ds);
            List.iter
              (fun d -> Printf.bprintf buf "  %s\n" (Diag.to_string d))
              ds
          in
          emit "original" code;
          List.iter
            (fun (what, mutate) ->
              match mutate code with Some c -> emit what c | None -> ())
            (mutations p))
        codes)
    mutant_corpus;
  Buffer.contents buf

let golden_mutants = "golden_jit_check_mutants.txt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Pins every diagnostic's exact text: findings render lazily, so a
   drifting message (or a lost or extra finding) shows up as a diff. On
   mismatch the actual report is written next to the golden. *)
let test_mutant_diagnostics_golden () =
  let actual = render_mutant_report () in
  let expected = read_file golden_mutants in
  if not (String.equal actual expected) then begin
    Out_channel.with_open_bin (golden_mutants ^ ".actual") (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "Jit_check diagnostics differ from %s (actual report in %s.actual)"
      golden_mutants golden_mutants
  end

(* Install checks share nothing mutable: checking installed and mutated
   codes on two domains at once must give exactly the serial findings.
   The work alternates between two programs, so a cache shared across
   calls would also be shared across programs. *)
let test_jit_check_domain_safe () =
  let variants name ~scale ~policy =
    let p, codes = installed_codes name ~scale ~policy in
    List.concat_map
      (fun code ->
        (p, code)
        :: List.filter_map
             (fun (_, mutate) -> Option.map (fun c -> (p, c)) (mutate code))
             (mutations p))
      codes
  in
  let rec interleave a b =
    match (a, b) with
    | x :: a, y :: b -> x :: y :: interleave a b
    | rest, [] | [], rest -> rest
  in
  let variants =
    interleave
      (variants "javac" ~scale:30 ~policy:(Policy.Hybrid_param_class 4))
      (variants "richards" ~scale:1 ~policy:(Policy.Fixed 3))
  in
  let work = List.concat [ variants; variants; variants ] in
  let render (p, code) = diag_strings (Jit_check.check p code) in
  let serial = Parallel.map ~jobs:1 render work in
  Alcotest.(check bool) "corpus has findings" true
    (List.exists (fun ds -> ds <> []) serial);
  Alcotest.(check (list (list string)))
    "2 domains = serial" serial
    (Parallel.map ~jobs:2 render work)

(* A [Jit_check] finding on install is a recorded refusal, never an
   exception: every rejected mutant of the corpus, adopted into a fresh
   system before the run, installs nothing on either engine, is recorded
   once with its first diagnostic, bars later adoptions of the method,
   and the run completes with the AOS-free output. *)
let test_refused_mutants_install_nothing () =
  let module Interp = Acsi_vm.Interp in
  let module System = Acsi_aos.System in
  let module Provenance = Acsi_obs.Provenance in
  let stats =
    {
      Acsi_jit.Expand.expanded_units = 1;
      inline_count = 0;
      guard_count = 0;
      compile_cycles = 0;
      code_bytes = 0;
      inlined_edges = [];
    }
  in
  let refusals sys =
    match System.provenance sys with
    | None -> Alcotest.fail "provenance store missing"
    | Some prov ->
        List.filter_map
          (fun (d : Provenance.tier_decision) ->
            match d.Provenance.td_outcome with
            | Provenance.Install_refused why -> Some why
            | Provenance.Tier_compiled | Provenance.Tier_fell_back _ -> None)
          (Provenance.tier_all prov)
  in
  let adopted = ref 0 in
  List.iter
    (fun (name, scale, policy) ->
      let p, codes = installed_codes name ~scale ~policy in
      let cfg = Config.default ~policy in
      let aos =
        {
          cfg.Config.aos with
          Acsi_aos.System.obs =
            { Acsi_obs.Control.off with Acsi_obs.Control.provenance = true };
        }
      in
      let expected = Interp.output (Runtime.run_no_aos cfg p) in
      List.iter
        (fun (code : Acsi_vm.Code.t) ->
          let mid = code.Acsi_vm.Code.meth in
          List.iter
            (fun (what, mutate) ->
              (* Adoption takes no speculative code (its CHA proofs are
                 the publisher's), so the speculative mutants go in
                 without their assumptions. Dropping them only removes
                 excuses for missing guards: they stay rejected. *)
              let adoptable (c : Acsi_vm.Code.t) =
                { c with Acsi_vm.Code.assumptions = [] }
              in
              match
                Option.map
                  (fun c -> (adoptable c, Jit_check.check p c))
                  (mutate code)
              with
              | None | Some (_, []) -> ()
              | Some (bad, _ :: _) ->
                  incr adopted;
                  let d = List.hd (Jit_check.check p bad) in
                  let label =
                    Printf.sprintf "%s %s/%s" name
                      (Program.meth p mid).Meth.name what
                  in
                  let vm = Bare_vm.create p in
                  let sys = System.create aos vm in
                  let before = Interp.code_of vm mid in
                  let adopt () =
                    System.adopt_compiled sys mid bad stats ~rule_stamp:0
                      ~native:None
                  in
                  adopt ();
                  Alcotest.(check bool)
                    (label ^ ": code unchanged") true
                    (Interp.code_of vm mid == before);
                  Alcotest.(check bool)
                    (label ^ ": no closures") false
                    (Interp.native_installed vm mid);
                  Alcotest.(check (list string))
                    (label ^ ": one refusal, first finding")
                    [ Diag.to_string d ] (refusals sys);
                  Interp.run ~cycle_limit:cfg.Config.cycle_limit vm;
                  Alcotest.(check (list int))
                    (label ^ ": output of the AOS-free run") expected
                    (Interp.output vm);
                  Alcotest.(check bool)
                    (label ^ ": never installed later") false
                    (Interp.code_of vm mid == bad);
                  adopt ();
                  Alcotest.(check int)
                    (label ^ ": second attempt records nothing") 1
                    (List.length (refusals sys));
                  Alcotest.(check int)
                    (label ^ ": no adoption counted") 0
                    (System.adopted_installs sys))
            (mutations p))
        codes)
    mutant_corpus;
  (* Every rejected mutant the golden report lists (175). *)
  Alcotest.(check int) "rejected mutants adopted" 175 !adopted

let suite =
  [
    Alcotest.test_case "type clash at join" `Quick test_type_clash_at_join;
    Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
    Alcotest.test_case "unreachable range + epilogue" `Quick
      test_unreachable_range_and_epilogue;
    Alcotest.test_case "param slots exceed locals" `Quick
      test_param_slots_exceed_locals;
    Alcotest.test_case "guard not dominating inline body" `Quick
      test_guard_not_dominating;
    Alcotest.test_case "stale inline-map pc" `Quick test_stale_inline_map_pc;
    Alcotest.test_case "return into own region" `Quick
      test_return_into_own_region;
    Alcotest.test_case "OSR-incompatible stack slot" `Quick
      test_osr_incompatible_stack;
    Alcotest.test_case "always-throws summary traps dynamically" `Quick
      test_always_throws_traps;
    Alcotest.test_case "unverified program refused" `Quick
      test_unverified_program_refused;
    Alcotest.test_case "summary table invariant under --jobs" `Quick
      test_summary_render_jobs_invariant;
    Alcotest.test_case "summary rows equal the spec on every program" `Quick
      test_summary_spec_programs;
    Alcotest.test_case "summary rows equal the spec on the corpus" `Quick
      test_summary_spec_corpus;
    Alcotest.test_case "unanalyzable bodies get conservative rows" `Quick
      test_summary_malformed_conservative;
    Alcotest.test_case "mutant diagnostics match golden" `Quick
      test_mutant_diagnostics_golden;
    Alcotest.test_case "install checks are domain-safe" `Quick
      test_jit_check_domain_safe;
    Alcotest.test_case "refused mutant installs change nothing" `Quick
      test_refused_mutants_install_nothing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_installed_code_reverifies;
        prop_summaries_sound_dynamically;
        prop_mono_proofs_match_dcg;
        prop_summary_matches_spec;
      ]
