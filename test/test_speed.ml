(* Tests for the simulator speed overhaul: the driver's windows and the
   closure tier against the naive reference loop (bit-identical clocks,
   counters, output, and hook firing points), sweep determinism across
   domain counts, and the DCG per-site index. *)

open Acsi_bytecode
open Acsi_core
module Interp = Acsi_vm.Interp
module Tier = Acsi_vm.Tier
module Dcg = Acsi_profile.Dcg
module Trace = Acsi_profile.Trace
module Workloads = Acsi_workloads.Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let mid = Ids.Method_id.of_int

let trace callee chain =
  Trace.make ~callee:(mid callee)
    ~chain:
      (List.map (fun (c, s) -> { Trace.caller = mid c; callsite = s }) chain)

(* --- determinism regressions --- *)

(* The same workload run twice produces identical metrics, output, and
   profile mass: nothing in the VM or AOS depends on wall-clock, address
   hashing, or other ambient state. *)
let test_run_twice () =
  let program = (Workloads.find "db").Workloads.build ~scale:1 in
  let run () =
    Runtime.run (Config.default ~policy:(Acsi_policy.Policy.Fixed 3)) program
  in
  let a = run () in
  let b = run () in
  check_bool "metrics identical" true (a.Runtime.metrics = b.Runtime.metrics);
  check_bool "output identical" true
    (Interp.output a.Runtime.vm = Interp.output b.Runtime.vm);
  check_bool "profile mass identical" true
    (Dcg.total_weight (Acsi_aos.System.dcg a.Runtime.sys)
    = Dcg.total_weight (Acsi_aos.System.dcg b.Runtime.sys))

(* A sweep fanned across 4 domains is the same sweep as the serial one —
   the cells are independent and collected by index. *)
(* Every cell's virtual cycles, baselines first, then the points in
   cell order. *)
let sweep_cycles (s : Experiment.sweep) =
  List.map (fun (_, m) -> m.Metrics.total_cycles) s.Experiment.baselines
  @ List.map
      (fun p -> p.Experiment.metrics.Metrics.total_cycles)
      s.Experiment.points

let test_sweep_jobs () =
  let benches =
    List.map
      (fun name ->
        {
          Experiment.name;
          program = (Workloads.find name).Workloads.build ~scale:1;
        })
      [ "db"; "jess" ]
  in
  let policies =
    Acsi_policy.Policy.[ Fixed 2; Parameterless 3 ]
  in
  let cfg = Config.default ~policy:Acsi_policy.Policy.Context_insensitive in
  let s1 = Experiment.run_sweep ~jobs:1 cfg ~benches ~policies in
  let s4 = Experiment.run_sweep ~jobs:4 cfg ~benches ~policies in
  check_bool "bench names" true
    (s1.Experiment.bench_names = s4.Experiment.bench_names);
  check_bool "baselines" true
    (s1.Experiment.baselines = s4.Experiment.baselines);
  check_bool "points" true (s1.Experiment.points = s4.Experiment.points);
  check_bool "cell cycles" true
    (sweep_cycles s1 = sweep_cycles s4)

(* --- DCG site index --- *)

let test_site_index () =
  let dcg = Dcg.create () in
  let t1 = trace 10 [ (1, 2) ] in
  let t2 = trace 11 [ (1, 2) ] in
  let t3 = trace 10 [ (1, 2); (3, 4) ] in
  let t4 = trace 12 [ (5, 6) ] in
  for _ = 1 to 4 do
    Dcg.add_sample dcg t1
  done;
  Dcg.add_sample dcg t2;
  Dcg.add_sample dcg t3;
  Dcg.add_sample dcg t3;
  Dcg.add_sample dcg t4;
  check_int "two live sites" 2 (Dcg.site_count dcg);
  check_int "three traces at (1,2)" 3
    (Dcg.site_entry_count dcg ~caller:(mid 1) ~callsite:2);
  check_bool "edge weight sums depths" true
    (Dcg.edge_weight dcg ~caller:(mid 1) ~callsite:2 ~callee:(mid 10) = 6.0);
  (match Dcg.site_distribution dcg ~caller:(mid 1) ~callsite:2 with
  | [ (c10, 6.0); (c11, 1.0) ] ->
      check_bool "distribution callees" true
        (Ids.Method_id.equal c10 (mid 10) && Ids.Method_id.equal c11 (mid 11))
  | other ->
      Alcotest.failf "unexpected distribution (%d entries)" (List.length other));
  (* Decay prunes t2 (1.0 -> 0.5) and t4; the index must follow: the
     (5,6) site empties out and is dropped, (1,2) keeps two traces. *)
  Dcg.decay dcg ~factor:0.5 ~prune_below:0.6;
  check_int "pruned trace leaves site" 2
    (Dcg.site_entry_count dcg ~caller:(mid 1) ~callsite:2);
  check_int "empty site dropped" 0
    (Dcg.site_entry_count dcg ~caller:(mid 5) ~callsite:6);
  check_int "one live site" 1 (Dcg.site_count dcg);
  check_bool "post-decay edge weight" true
    (Dcg.edge_weight dcg ~caller:(mid 1) ~callsite:2 ~callee:(mid 10) = 3.0);
  check_bool "post-decay total" true (Dcg.total_weight dcg = 3.0);
  (* Prune everything. *)
  Dcg.decay dcg ~factor:0.1 ~prune_below:1.0;
  check_int "all sites dropped" 0 (Dcg.site_count dcg);
  check_int "table empty" 0 (Dcg.size dcg);
  check_bool "total ~ 0" true (Float.abs (Dcg.total_weight dcg) < 1e-9)

(* The cached trace hash is the documented structural formula, and stays
   consistent through [edge] (which rebuilds the chain). *)
let test_trace_hash () =
  let manual callee chain =
    let h = ref (Ids.Method_id.hash (mid callee)) in
    List.iter
      (fun (c, s) ->
        h := (!h * 31) + Ids.Method_id.hash (mid c);
        h := (!h * 31) + s)
      chain;
    !h land max_int
  in
  let t = trace 7 [ (1, 2); (3, 4) ] in
  check_int "hash is the structural formula" (manual 7 [ (1, 2); (3, 4) ])
    (Trace.hash t);
  check_int "edge recomputes the cache" (manual 7 [ (1, 2) ])
    (Trace.hash (Trace.edge t));
  check_int "edge hash equals a fresh depth-1 trace"
    (Trace.hash (trace 7 [ (1, 2) ]))
    (Trace.hash (Trace.edge t))

(* --- the closure-less driver and the closure tier --- *)

type engine = Reference | Interpreter | Closure_tier

(* Everything a run exposes: clock, counters, per-method invocations,
   output, and every hook firing in order, with the cycle count it fired
   at. *)
type event = First of int | Invoked of int * int | Timer of int

let observe ?(invoke_stride = 16) ~sample_period engine program =
  let vm = Bare_vm.create ~sample_period ~invoke_stride program in
  let events = ref [] in
  let note e = events := e :: !events in
  Interp.set_on_timer_sample vm (fun vm -> note (Timer (Interp.cycles vm)));
  Interp.set_on_invoke vm (fun vm m ->
      note (Invoked (Interp.cycles vm, (m :> int))));
  Interp.set_on_first_execution vm (fun m -> note (First (m :> int)));
  if engine = Closure_tier then
    Array.iter
      (fun (m : Meth.t) ->
        Tier.install vm m.Meth.id (Interp.code_of vm m.Meth.id))
      (Program.methods program);
  let failure =
    match
      if engine = Reference then Interp.run_reference vm else Interp.run vm
    with
    | () -> None
    | exception Interp.Runtime_error msg -> Some msg
  in
  ( failure,
    ( Interp.cycles vm,
      Interp.instructions_executed vm,
      Interp.calls_executed vm,
      Interp.guard_hits vm,
      Interp.guard_misses vm ),
    Array.map
      (fun (m : Meth.t) -> Interp.invocation_count vm m.Meth.id)
      (Program.methods program),
    Interp.output vm,
    List.rev !events )

(* Differential property: on random programs, [Interp.run]'s driver with
   nothing installed in the closure tier is indistinguishable from the
   naive reference loop — cycles, instruction/call/guard counters,
   output, and the exact cycle count at every timer and invoke hook
   firing. Both execute instructions on [Interp.exec_one]; what this
   checks is the driver's window limit: where a closure-less window
   stops, and the unclipped restart after an allocation or a guard. The
   sample period is chosen co-prime to the instruction costs so windows
   end both on event boundaries and mid-instruction. A second pair runs
   both loops at a 1-cycle period, where every window admits exactly one
   instruction. *)
let prop_driver_window_matches_reference =
  QCheck.Test.make ~name:"closure-less driver windows match naive reference"
    ~count:40 Test_props.arbitrary_program (fun ast ->
      let program = Acsi_lang.Compile.prog ast in
      let same sample_period =
        observe ~sample_period Reference program
        = observe ~sample_period Interpreter program
      in
      same 997 && same 1)

(* The closure tier on every method against the naive reference loop,
   at a 37-cycle sample period: co-prime to both per-instruction costs
   and shorter than most straight-line runs, so windows keep ending in
   the middle of runs and the next window re-enters the tier at a pc
   that starts no block, running the rest of that run on
   [Interp.exec_until] before the tier takes over again. *)
let prop_tier_small_period =
  QCheck.Test.make
    ~name:"closure tier matches naive reference at a 37-cycle period"
    ~count:40 Test_props.arbitrary_program (fun ast ->
      let program = Acsi_lang.Compile.prog ast in
      observe ~sample_period:37 Reference program
      = observe ~sample_period:37 Closure_tier program)

(* Same property through the whole adaptive system: driving the AOS (code
   installation, OSR, decay, recompilation) from the reference loop ends
   in the same metrics and profile as the production loop. *)
let prop_aos_matches_reference =
  QCheck.Test.make ~name:"adaptive system agrees across interpreter loops"
    ~count:15 Test_props.arbitrary_program (fun ast ->
      let program = Acsi_lang.Compile.prog ast in
      let cfg = Config.default ~policy:(Acsi_policy.Policy.Fixed 3) in
      let cfg = { cfg with Config.sample_period = 5_000; invoke_stride = 16 } in
      let exec ~reference =
        let vm = Runtime.create_vm cfg program in
        let sys = Acsi_aos.System.create cfg.Config.aos vm in
        (if reference then
           Interp.run_reference ~cycle_limit:cfg.Config.cycle_limit vm
         else Interp.run ~cycle_limit:cfg.Config.cycle_limit vm);
        ( Metrics.of_run vm sys,
          Interp.output vm,
          Dcg.total_weight (Acsi_aos.System.dcg sys) )
      in
      exec ~reference:true = exec ~reference:false)

(* The same comparison on one fixed program at every sample period
   from 2 to 64 cycles, so every remainder of the budget meets every
   run length: an entry or branch that prepays a run one instruction
   too eagerly moves a timer sample. The program has loops, both arms
   of an if, calls, and field and array traffic. *)
let period_program =
  lazy
    Acsi_lang.(
      Compile.prog
        Dsl.(
          prog
            [
              cls "P" ~fields:[ "x" ]
                [
                  static_meth "f" [ "a" ] ~returns:true
                    [
                      if_ (lt (v "a") (i 5))
                        [ ret (add (v "a") (i 1)) ]
                        [ ret (sub (v "a") (i 2)) ];
                    ];
                ];
            ]
            [
              let_ "p" (new_ "P" []);
              let_ "s" (i 0);
              let_ "arr" (arr_new (i 8));
              for_ "k" (i 0) (i 300)
                [
                  if_ (lt (band (v "k") (i 3)) (i 2))
                    [ let_ "s" (add (v "s") (call "P" "f" [ band (v "k") (i 7) ])) ]
                    [ setf "P" (v "p") "x" (add (fld "P" (v "p") "x") (v "k")) ];
                  arr_set (v "arr") (band (v "k") (i 7)) (v "s");
                ];
              print (v "s");
              print (fld "P" (v "p") "x");
              print (arr_get (v "arr") (i 3));
            ]))

let test_tier_every_period () =
  let program = Lazy.force period_program in
  for sample_period = 2 to 64 do
    check_bool
      (Printf.sprintf "period %d" sample_period)
      true
      (observe ~sample_period Reference program
      = observe ~sample_period Closure_tier program)
  done

(* Deep recursion under the closure tier: a static, a virtual (with a
   pointer argument) and a mutually recursive descent, each deeper than
   1024 frames, so the frame stack grows through every capacity doubling
   (8, 16, ..., 1024, 2048) mid-window, then is reused at full capacity.
   Every observable of the run, including the order and clock of every
   first-execution, invoke and timer hook, must equal the naive
   reference at small and large periods and invoke strides. *)
let deep_program =
  lazy
    Acsi_lang.(
      Compile.prog
        Dsl.(
          prog
            [
              cls "R" ~fields:[ "d" ]
                [
                  static_meth "down" [ "n" ] ~returns:true
                    [
                      if_ (eq (v "n") (i 0)) [ ret (i 0) ]
                        [ ret (add (call "R" "down" [ sub (v "n") (i 1) ]) (i 1)) ];
                    ];
                  static_meth "even" [ "n" ] ~returns:true
                    [
                      if_ (eq (v "n") (i 0)) [ ret (i 1) ]
                        [ ret (call "R" "odd" [ sub (v "n") (i 1) ]) ];
                    ];
                  static_meth "odd" [ "n" ] ~returns:true
                    [
                      if_ (eq (v "n") (i 0)) [ ret (i 0) ]
                        [ ret (call "R" "even" [ sub (v "n") (i 1) ]) ];
                    ];
                  meth "vdown" [ "o"; "n" ] ~returns:true
                    [
                      if_ (eq (v "n") (i 0)) [ ret (fld "R" (v "o") "d") ]
                        [
                          ret
                            (add
                               (inv this "vdown" [ v "o"; sub (v "n") (i 1) ])
                               (i 2));
                        ];
                    ];
                ];
            ]
            [
              let_ "r" (new_ "R" []);
              setf "R" (v "r") "d" (i 7);
              print (call "R" "down" [ i 1100 ]);
              print (inv (v "r") "vdown" [ v "r"; i 1500 ]);
              print (call "R" "even" [ i 2049 ]);
              print (call "R" "down" [ i 1030 ]);
            ]))

let test_frame_growth () =
  let program = Lazy.force deep_program in
  List.iter
    (fun (sample_period, invoke_stride) ->
      let reference =
        observe ~invoke_stride ~sample_period Reference program
      in
      let name = Printf.sprintf "period %d, stride %d" sample_period invoke_stride in
      check_bool name true
        (reference = observe ~invoke_stride ~sample_period Closure_tier program);
      check_bool (name ^ " (interpreter)") true
        (reference = observe ~invoke_stride ~sample_period Interpreter program))
    [ (1, 1); (37, 3); (211, 16); (4099, 1); (100_000, 2048) ];
  let _, _, _, output, _ =
    observe ~sample_period:100_000 Closure_tier program
  in
  Alcotest.(check (list int)) "output" [ 1100; 3007; 0; 1030 ] output;
  (* The same descents under the adaptive system, which inlines and
     recompiles them mid-recursion. *)
  List.iter
    (fun (sample_period, invoke_stride) ->
      let cfg = Config.default ~policy:(Acsi_policy.Policy.Fixed 3) in
      let cfg = { cfg with Config.sample_period; invoke_stride } in
      let run = Runtime.run cfg program
      and reference = Runtime.run_reference cfg program in
      check_bool
        (Printf.sprintf "Runtime.run, period %d, stride %d" sample_period
           invoke_stride)
        true
        (Interp.output run.Runtime.vm = Interp.output reference.Runtime.vm
        && run.Runtime.metrics = reference.Runtime.metrics))
    [ (997, 1); (5_000, 16) ]

(* Unbounded recursion fills the frame stack to its cap, every engine
   reporting the same overflow at the same clock and counts. *)
let test_stack_overflow () =
  let program =
    Acsi_lang.(
      Compile.prog
        Dsl.(
          prog
            [
              cls "R" ~fields:[]
                [
                  static_meth "f" [ "n" ] ~returns:true
                    [ ret (call "R" "f" [ add (v "n") (i 1) ]) ];
                ];
            ]
            [ print (call "R" "f" [ i 0 ]) ]))
  in
  let ((failure, _, _, _, _) as reference) =
    observe ~invoke_stride:4096 ~sample_period:1_000_003 Reference program
  in
  Alcotest.(check (option string)) "failure" (Some "call stack overflow")
    failure;
  List.iter
    (fun engine ->
      check_bool "same as the reference" true
        (reference
        = observe ~invoke_stride:4096 ~sample_period:1_000_003 engine program))
    [ Interpreter; Closure_tier ]

(* Allocation per warm closure-tier call, exactly. A call allocates its
   frame record and its register array, nothing else: the record is a
   header plus 8 fields ([f_vm], [f_code], [f_ncode], [f_pc], [f_regs],
   [f_sp], [f_rem], [f_nin]) = 9 words, and the registers a header plus
   [max_locals + max 1 max_stack] slots. Each callee here returns
   [x + 1] (stack depth 2): the static one has 1 local (4 words of
   registers, 13 per call), the virtual one [this] and [x], the
   pointer-argument one [o] and [x] (5 words, 14 per call). The loops
   allocate nothing else, so the difference between [2n] and [n]
   iterations, over [n], is the per-call figure; a closure, tuple or
   option on the call or return path shows up here as a non-integer or
   larger count. *)
let alloc_program callee n =
  Acsi_lang.(
    Compile.prog
      Dsl.(
        prog
          [
            cls "K" ~fields:[]
              [
                static_meth "f" [ "x" ] ~returns:true [ ret (add (v "x") (i 1)) ];
                static_meth "g" [ "o"; "x" ] ~returns:true
                  [ ret (add (v "x") (i 1)) ];
              ];
            cls "A" ~fields:[]
              [ meth "f" [ "x" ] ~returns:true [ ret (add (v "x") (i 1)) ] ];
          ]
          [
            let_ "o" (new_ "A" []);
            let_ "s" (i 0);
            for_ "k" (i 0) (i n) [ let_ "s" (add (v "s") (callee (v "o") (v "k"))) ];
            print (v "s");
          ]))

let minor_words_of_run program =
  let vm =
    Bare_vm.create ~sample_period:max_int ~invoke_stride:max_int program
  in
  Array.iter
    (fun (m : Meth.t) -> Tier.install vm m.Meth.id (Interp.code_of vm m.Meth.id))
    (Program.methods program);
  let before = Gc.minor_words () in
  Interp.run vm;
  Gc.minor_words () -. before

let test_alloc_per_call () =
  let n = 1000 in
  List.iter
    (fun (name, callee, words) ->
      let run k = minor_words_of_run (alloc_program callee k) in
      let per_call = (run (2 * n) -. run n) /. float_of_int n in
      Alcotest.(check (float 0.)) name words per_call)
    Acsi_lang.Dsl.
      [
        ("static call", (fun _ k -> call "K" "f" [ k ]), 13.);
        ("virtual call", (fun o k -> inv o "f" [ k ]), 14.);
        ("pointer argument", (fun o k -> call "K" "g" [ o; k ]), 14.);
      ]

(* The heap layout, as allocation on the closure tier: a [New] of a
   [k]-field object is one block of [k + 2] words (header, class id,
   fields) and an array of length [n] one block of [n + 2] (header, pad,
   elements). A box around either, or fields kept in an array of their
   own, would add words. *)
let test_alloc_per_new () =
  let classes =
    List.map
      (fun k ->
        Acsi_lang.Dsl.cls (Printf.sprintf "K%d" k)
          ~fields:(List.init k (Printf.sprintf "f%d"))
          [])
      [ 0; 1; 8; 9 ]
  in
  let run alloc n =
    minor_words_of_run
      Acsi_lang.(
        Compile.prog
          Dsl.(prog classes [ for_ "k" (i 0) (i n) [ let_ "o" alloc ] ]))
  in
  let n = 1000 in
  List.iter
    (fun (name, alloc, words) ->
      let per_new = (run alloc (2 * n) -. run alloc n) /. float_of_int n in
      Alcotest.(check (float 0.)) name words per_new)
    Acsi_lang.Dsl.
      [
        ("0-field object", new_ "K0" [], 2.);
        ("1-field object", new_ "K1" [], 3.);
        ("8-field object", new_ "K8" [], 10.);
        ("9-field object", new_ "K9" [], 11.);
        ("empty array", arr_new (i 0), 2.);
        ("1-element array", arr_new (i 1), 3.);
        ("100-element array", arr_new (i 100), 102.);
      ]

(* A cell's allocation depends only on the cell: nothing in [lib/] keeps
   state from one run to the next (a process-global baseline-code cache
   once made a program's first run allocate more than its later ones,
   and its move-to-front made the count depend on what ran before).
   Four programs run under Fixed 3 at default scale twice each, in two
   orders, so db and compress each follow different cells the second
   time. *)
let test_alloc_per_cell () =
  let cfg = Config.default ~policy:(Acsi_policy.Policy.Fixed 3) in
  let build name =
    let w = Workloads.find name in
    (name, w.Workloads.build ~scale:w.Workloads.default_scale)
  in
  let db = build "db" and compress = build "compress" in
  let jess = build "jess" and javac = build "javac" in
  let words (name, program) =
    let before = Gc.minor_words () in
    ignore (Runtime.run cfg program);
    (name, truncate (Gc.minor_words () -. before))
  in
  let first = List.map words [ db; jess; compress; javac ] in
  let second = List.map words [ compress; javac; db; jess ] in
  List.iter
    (fun (name, w) ->
      check_int name w (List.assoc name second))
    first

let suite =
  [
    Alcotest.test_case "same run twice is identical" `Quick test_run_twice;
    Alcotest.test_case "sweep: jobs 1 = jobs 4" `Slow test_sweep_jobs;
    Alcotest.test_case "dcg: site index tracks decay/pruning" `Quick
      test_site_index;
    Alcotest.test_case "trace: cached hash" `Quick test_trace_hash;
    QCheck_alcotest.to_alcotest prop_driver_window_matches_reference;
    QCheck_alcotest.to_alcotest prop_tier_small_period;
    Alcotest.test_case "closure tier matches naive reference at every period"
      `Quick test_tier_every_period;
    Alcotest.test_case "frame-stack growth matches naive reference" `Quick
      test_frame_growth;
    Alcotest.test_case "words allocated per closure-tier call" `Quick
      test_alloc_per_call;
    Alcotest.test_case "words allocated per New and array" `Quick
      test_alloc_per_new;
    Alcotest.test_case "words allocated per cell, in any order" `Quick
      test_alloc_per_cell;
    Alcotest.test_case "call stack overflow on every engine" `Quick
      test_stack_overflow;
    QCheck_alcotest.to_alcotest prop_aos_matches_reference;
  ]
