(* Server mode: virtual threads over one shared VM, the round-robin
   scheduler, background compilation, and the deterministic load
   generator. Also the PR's reentrancy regression: two threads
   interleaving inside the *same* method must not corrupt each other
   (frames are per-invocation; window exits flush pc/sp, which is what
   makes suspension at a quantum boundary safe). *)

open Acsi_lang
module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Metrics = Acsi_core.Metrics
module Policy = Acsi_policy.Policy
module Sched = Acsi_server.Sched
module Ring = Acsi_server.Ring
module Load = Acsi_server.Load
module Server = Acsi_server.Server
module Shards = Acsi_server.Shards
module Workloads = Acsi_workloads.Workloads

(* A self-contained program: every value it touches is a frame local or
   an object it allocated itself, so N interleaved executions must each
   print exactly 5050 no matter how they are scheduled. *)
let counter_prog =
  Dsl.(
    prog
      [
        cls "W" ~fields:[ "acc" ]
          [
            meth "init" [ "start" ] ~returns:false
              [ set_thisf "acc" (v "start") ];
            meth "bump" [ "x" ] ~returns:true
              [
                set_thisf "acc" (add (thisf "acc") (v "x"));
                ret (thisf "acc");
              ];
          ];
      ]
      [
        let_ "w" (new_ "W" [ i 0 ]);
        let_ "s" (i 0);
        for_ "i" (i 0) (i 100)
          [ let_ "s" (add (v "s") (inv (v "w") "bump" [ i 1 ])) ];
        print (v "s");
      ])

let counter_program () = Compile.prog counter_prog

(* Drains the scheduler, collecting what it does not keep itself, from
   [run_slice]'s results: the completion order, and a function giving
   how many slices each thread was resumed for. *)
let drain_counting sched =
  let resumes = Hashtbl.create 8 and completed_rev = ref [] in
  let count tid = Option.value ~default:0 (Hashtbl.find_opt resumes tid) in
  let rec go () =
    match Sched.run_slice sched with
    | Some (tid, status) ->
        Hashtbl.replace resumes tid (count tid + 1);
        if status = Interp.Done then completed_rev := tid :: !completed_rev;
        go ()
    | None -> ()
  in
  go ();
  (List.rev !completed_rev, count)

(* --- satellite 1: interleaving two threads in the same method --- *)

let test_interleaved_reentrancy () =
  let program = counter_program () in
  (* Reference: one plain (non-threaded) run. *)
  let ref_vm = Bare_vm.create program in
  Interp.run ref_vm;
  let expected = Interp.output ref_vm in
  Alcotest.(check (list int)) "reference output" [ 5050 ] expected;
  (* Two threads of the same program over one VM, with a quantum small
     enough that both are routinely suspended mid-[bump]/mid-loop. *)
  let vm = Bare_vm.create program in
  let sched = Sched.create ~quantum:97 ~switch_cost:3 vm in
  let t1 = Sched.spawn sched in
  let t2 = Sched.spawn sched in
  let completed, resumes = drain_counting sched in
  Alcotest.(check int) "both threads finished" 0 (Sched.live sched);
  Alcotest.(check (list int))
    "completion order is the spawn order" [ t1; t2 ] completed;
  (* Interleaving actually happened: each thread needed many slices. *)
  Alcotest.(check bool)
    "threads interleaved" true
    (resumes t1 > 5 && resumes t2 > 5);
  Alcotest.(check (list int))
    "each interleaved execution computed 5050" [ 5050; 5050 ]
    (Interp.output vm)

let test_resume_rejects_bad_quantum () =
  let program = counter_program () in
  let vm = Bare_vm.create program in
  let th = Interp.spawn vm in
  Alcotest.check_raises "quantum must be positive"
    (Invalid_argument "Interp.resume: quantum must be positive") (fun () ->
      ignore (Interp.resume vm th ~quantum:0))

(* --- satellite 3: fairness under round-robin --- *)

let test_fairness_no_starvation () =
  let program = counter_program () in
  let vm = Bare_vm.create program in
  let sched = Sched.create ~quantum:199 ~switch_cost:5 vm in
  let tids = List.init 5 (fun _ -> Sched.spawn sched) in
  let completed, resumes = drain_counting sched in
  Alcotest.(check int) "all five threads completed" 5 (List.length completed);
  Alcotest.(check int) "max live" 5 (Sched.max_live sched);
  (* Round-robin bound: between two resumes of one thread, at most every
     other live thread runs once — nobody waits longer than the peak
     number of live threads. *)
  Alcotest.(check bool)
    (Printf.sprintf "no starvation (max gap %d <= %d)"
       (Sched.max_resume_gap sched) (Sched.max_live sched))
    true
    (Sched.max_resume_gap sched <= Sched.max_live sched);
  (* Identical threads must get near-identical service. *)
  let resumes = List.map resumes tids in
  let mn = List.fold_left min max_int resumes in
  let mx = List.fold_left max 0 resumes in
  Alcotest.(check bool)
    (Printf.sprintf "balanced service (resumes %d..%d)" mn mx)
    true
    (mx - mn <= 2)

(* The scheduler keeps no per-thread history: once every thread has
   completed, its reachable heap is the same after 100 threads as after
   10 000. The program prints nothing, so the VM's output does not grow
   either. *)
let test_sched_retains_no_history () =
  let program =
    Compile.prog
      Dsl.(
        prog []
          [
            let_ "s" (i 0);
            for_ "i" (i 0) (i 20) [ let_ "s" (add (v "s") (v "i")) ];
          ])
  in
  let words_after n =
    let vm = Bare_vm.create program in
    let sched = Sched.create ~quantum:40 ~switch_cost:3 vm in
    for _ = 1 to n do
      ignore (Sched.spawn sched);
      ignore (Sched.run_slice sched)
    done;
    while Sched.run_slice sched <> None do
      ()
    done;
    Alcotest.(check int) (Printf.sprintf "%d threads completed" n) 0
      (Sched.live sched);
    Obj.reachable_words (Obj.repr sched)
  in
  Alcotest.(check int)
    "reachable words after 10 000 threads = after 100" (words_after 100)
    (words_after 10_000)

(* The ready ring against the queue it replaced: a [Stdlib.Queue] of
   thread ids driven by the same operations. [run_slice] must resume the
   model's head, and a thread still running goes back to the tail. *)
let slice_loop_program =
  lazy
    (Compile.prog
       Dsl.(
         prog []
           [
             let_ "s" (i 0);
             for_ "i" (i 0) (i 20) [ let_ "s" (add (v "s") (v "i")) ];
           ]))

(* Applies [ops] (true = spawn, false = one slice) and returns the first
   divergence from the model, if any. *)
let sched_against_queue ~quantum ops =
  let vm = Bare_vm.create (Lazy.force slice_loop_program) in
  let sched = Sched.create ~quantum ~switch_cost:3 vm in
  let model = Queue.create () in
  let step spawn =
    if spawn then begin
      Queue.add (Sched.spawn sched) model;
      None
    end
    else
      match (Sched.run_slice sched, Queue.take_opt model) with
      | None, None -> None
      | Some (tid, status), Some expected when tid = expected ->
          if status = Interp.Running then Queue.add tid model;
          None
      | Some (tid, _), expected ->
          Some
            (Printf.sprintf "resumed %d, queue head %s" tid
               (Option.fold ~none:"none" ~some:string_of_int expected))
      | None, Some expected ->
          Some (Printf.sprintf "ring empty, queue head %d" expected)
  in
  let rec go = function
    | [] ->
        if Sched.live sched <> Queue.length model then
          Some "live count differs from the queue"
        else None
    | op :: rest -> ( match step op with None -> go rest | err -> err)
  in
  (go ops, sched)

let prop_ring_pops_like_queue =
  QCheck.Test.make ~name:"ready ring pops in Stdlib.Queue order" ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat "" (List.map (fun b -> if b then "s" else ".") ops))
       QCheck.Gen.(
         list_size (int_range 0 400) (frequencyl [ (2, true); (3, false) ])))
    (fun ops ->
      match fst (sched_against_queue ~quantum:40 ops) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The ring itself on ints, the shards' stolen-session storage: any
   sequence of pushes and pops reads like a [Stdlib.Queue]. A free slot
   reads as 0, so a lost element shows as a wrong value, not a crash. *)
let prop_int_ring_is_a_queue =
  QCheck.Test.make ~name:"Ring equals Stdlib.Queue on ints" ~count:300
    QCheck.(list (option (int_range 1 1_000_000)))
    (fun ops ->
      let ring = Ring.create () and model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Ring.push ring x;
              Queue.add x model;
              true
          | None -> Queue.is_empty model || Ring.pop ring = Queue.take model)
          && Ring.length ring = Queue.length model
          && (Queue.is_empty model || Ring.peek ring = Queue.peek model))
        ops)

(* Thousands of threads live at once: the ring doubles well past its
   initial 16 slots and wraps many times while half the spawns arrive
   between slices. *)
let test_ring_grows_and_wraps () =
  let ops =
    List.init 3000 (fun _ -> true)
    @ List.concat
        (List.init 6000 (fun k ->
             if k mod 2 = 0 then [ false; true ] else [ false ]))
    @ List.init 60_000 (fun _ -> false)
  in
  (* About 7 slices per thread at this quantum. *)
  let err, sched = sched_against_queue ~quantum:400 ops in
  Alcotest.(check (option string)) "same order as the queue" None err;
  Alcotest.(check bool) "thousands live at once" true
    (Sched.max_live sched >= 3000);
  Alcotest.(check int) "every thread completed" 0 (Sched.live sched)

(* --- satellite 2: metrics snapshot / diff --- *)

let test_snapshot_diff () =
  let program = counter_program () in
  let vm = Bare_vm.create program in
  let sys = System.create (System.default_config (Policy.Fixed 3)) vm in
  let s0 = Metrics.snapshot vm sys in
  Interp.charge vm 123;
  let s1 = Metrics.snapshot vm sys in
  let d = Metrics.diff ~before:s0 ~after:s1 in
  Alcotest.(check int) "cycles delta" 123 d.Metrics.s_cycles;
  Alcotest.(check int) "no instructions" 0 d.Metrics.s_instructions;
  Alcotest.(check int) "no calls" 0 d.Metrics.s_calls;
  Alcotest.(check int) "no compilations" 0 d.Metrics.s_opt_compilations;
  Alcotest.(check int) "no output" 0 d.Metrics.s_output_len

(* --- the load generator --- *)

let test_open_loop_arrivals () =
  let a = Load.open_loop_arrivals ~seed:42 ~period:1000 ~n:200 in
  let b = Load.open_loop_arrivals ~seed:42 ~period:1000 ~n:200 in
  Alcotest.(check (array int)) "deterministic" a b;
  let c = Load.open_loop_arrivals ~seed:43 ~period:1000 ~n:200 in
  Alcotest.(check bool) "seed-sensitive" true (a <> c);
  let prev = ref 0 in
  Array.iter
    (fun at ->
      let gap = at - !prev in
      Alcotest.(check bool)
        (Printf.sprintf "gap %d within [501, 1500]" gap)
        true
        (gap >= 501 && gap <= 1500);
      prev := at)
    a

let test_percentiles () =
  let xs = Array.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50" 50 (Load.percentile xs 50.0);
  Alcotest.(check int) "p95" 95 (Load.percentile xs 95.0);
  Alcotest.(check int) "p99" 99 (Load.percentile xs 99.0);
  Alcotest.(check int) "p100" 100 (Load.percentile xs 100.0);
  Alcotest.(check int) "empty" 0 (Load.percentile [||] 50.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Load.mean xs)

(* The one-rank definition [Load.percentiles] replaced, kept as its
   spec: copy, [Array.sort Int.compare], read the nearest rank. *)
let spec_percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0
  else begin
    let sorted = Array.copy xs in
    Array.sort Int.compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))
  end

let prop_percentiles_match_spec =
  let samples =
    QCheck.Gen.(
      oneof
        [
          array_size (int_range 0 300) (int_range (-1_000_000) 1_000_000);
          array_size (int_range 0 3000) int;
          (* heavy duplicates *)
          array_size (int_range 0 3000) (int_range 0 3);
          (* all equal *)
          map2 Array.make (int_range 0 500) int;
          (* already sorted / reversed *)
          map (fun n -> Array.init n Fun.id) (int_range 0 3000);
          map (fun n -> Array.init n (fun i -> -i)) (int_range 0 3000);
        ])
  in
  QCheck.Test.make ~name:"Load.percentiles equals the one-rank spec"
    ~count:500
    (QCheck.make
       ~print:(fun xs ->
         Printf.sprintf "[|%s|]"
           (String.concat "; " (Array.to_list (Array.map string_of_int xs))))
       samples)
    (fun xs ->
      let before = Array.copy xs in
      let ps = [| 0.0; 50.0; 95.0; 99.0; 100.0 |] in
      Load.percentiles xs ps = Array.map (spec_percentile xs) ps
      && xs = before)

(* --- the server harness itself --- *)

let serve_db ?(cfg = Config.default ~policy:(Policy.Fixed 3)) () =
  let program = (Workloads.find "db").Workloads.build ~scale:2 in
  Server.run
    ~mode:
      (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
    ~name:"db" cfg program

(* Background compilation overlaps mutator progress — requests retire
   instructions while compiles are in flight, and the finished code is
   installed at yield points. [Config.default] leaves [async_compile]
   off, so this also pins that [Server.run] always compiles in the
   background. *)
let test_async_compilation_overlaps () =
  let r = serve_db () in
  let s = r.Server.summary in
  Alcotest.(check int) "all requests served" 4 s.Server.sv_requests;
  Alcotest.(check bool)
    "background compiles were installed" true
    (s.Server.sv_async_installs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mutator advanced %d instructions during compiles"
       s.Server.sv_overlap_instructions)
    true
    (s.Server.sv_overlap_instructions > 0);
  (* The warmup-curve windows tile the run exactly. *)
  let total = List.fold_left (fun a w -> a + w.Server.w_count) 0 r.Server.windows in
  Alcotest.(check int) "windows tile the requests" s.Server.sv_requests total;
  let installs =
    List.fold_left
      (fun a w -> a + w.Server.w_activity.Metrics.s_async_installs)
      0 r.Server.windows
  in
  Alcotest.(check int)
    "window install counts telescope to the total"
    s.Server.sv_async_installs installs

(* --- both serving engines sample on the configuration they are given --- *)

(* Each engine builds its VMs from the [Config.t] it is given
   ([Runtime.create_vm]), so a tenth of the default timer period must
   take several times the method samples, and a sixteenth of the
   default invocation stride several times the trace samples; an engine
   that built its VMs from defaults would count the same under both
   configurations. The ratios stay below the knobs' because the denser
   run compiles sooner and finishes in fewer cycles, and an idle shard
   takes no sample. No run may take more than one method sample per
   period of its clock. Each helper returns (method samples, trace
   samples, cycles) summed over the engine's VMs. *)
let served_samples cfg =
  let r = serve_db ~cfg () in
  let sum f =
    List.fold_left (fun a w -> a + f w.Server.w_activity) 0 r.Server.windows
  in
  ( sum (fun s -> s.Metrics.s_method_samples),
    sum (fun s -> s.Metrics.s_trace_samples),
    r.Server.summary.Server.sv_total_cycles )

let sharded_samples cfg =
  let program = (Workloads.find "session").Workloads.build ~scale:1 in
  let r =
    Shards.run ~seed:3 ~pool:1 ~pool_policy:System.Fifo ~shards:2
      ~sessions:300 ~period:600 ~name:"session" cfg program
  in
  let sum f = List.fold_left (fun a sys -> a + f sys) 0 r.Shards.systems in
  ( sum System.method_samples_taken,
    sum System.trace_samples_taken,
    r.Shards.summary.Shards.sh_sum_cycles )

let test_engines_sample_on_config () =
  let base = Config.default ~policy:(Policy.Fixed 3) in
  let dense =
    {
      base with
      Config.sample_period = base.Config.sample_period / 10;
      invoke_stride = base.Config.invoke_stride / 16;
    }
  in
  List.iter
    (fun (engine, samples) ->
      let m0, t0, c0 = samples base and m1, t1, c1 = samples dense in
      let check what ok =
        Alcotest.(check bool) (engine ^ ": " ^ what) true ok
      in
      check "default run samples" (m0 > 0 && t0 > 0);
      check "a tenth of the period, over 3x the method samples" (m1 > 3 * m0);
      check "a sixteenth of the stride, over 4x the trace samples"
        (t1 > 4 * t0);
      check "one method sample per period at most"
        (m0 <= c0 / base.Config.sample_period
        && m1 <= c1 / dense.Config.sample_period))
    [ ("server", served_samples); ("shards", sharded_samples) ]

(* Verify-on-install stays off the virtual clock. An async serve
   installs background-compiled code through the one install path; and
   since adoption charges no compile cycles, an adopted install — valid
   or refused by [Jit_check] — that moved the clock or any [Accounting]
   component could only have paid for its verification. *)
let test_async_verify_outside_clock () =
  let program = (Workloads.find "db").Workloads.build ~scale:2 in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let served =
    (Server.run
       ~mode:
         (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
       ~name:"db" cfg program)
      .Server.summary
  in
  Alcotest.(check bool) "async installs were verified" true
    (served.Server.sv_async_installs > 0);
  (* Optimized code a plain run left installed, with its stats. *)
  let donor = Acsi_core.Runtime.run cfg program in
  let compiled =
    List.filter_map
      (fun (m : Acsi_bytecode.Meth.t) ->
        let mid = m.Acsi_bytecode.Meth.id in
        let code = Interp.code_of donor.Acsi_core.Runtime.vm mid in
        match
          ( code.Acsi_vm.Code.tier,
            Acsi_aos.Registry.entry
              (System.registry donor.Acsi_core.Runtime.sys)
              mid )
        with
        | Acsi_vm.Code.Optimized, Some e ->
            Some (code, e.Acsi_aos.Registry.stats)
        | _ -> None)
      (Array.to_list (Acsi_bytecode.Program.methods program))
  in
  Alcotest.(check bool) "donor compiled methods" true (compiled <> []);
  let vm = Bare_vm.create program in
  let sys = System.create cfg.Config.aos vm in
  let clock () =
    ( Interp.cycles vm,
      List.map
        (Acsi_aos.Accounting.get (System.accounting sys))
        Acsi_aos.Accounting.all_components )
  in
  let adopt (code : Acsi_vm.Code.t) stats =
    let before = clock () in
    System.adopt_compiled sys code.Acsi_vm.Code.meth code stats ~rule_stamp:0
      ~native:None;
    Alcotest.(check bool) "install charged nothing" true (clock () = before)
  in
  List.iter (fun (code, stats) -> adopt code stats) compiled;
  Alcotest.(check int) "valid code installed" (List.length compiled)
    (System.adopted_installs sys);
  (* A source map naming a pc past the end of its method: refused. *)
  let code, stats = List.hd compiled in
  let bad =
    {
      code with
      Acsi_vm.Code.src =
        Option.map
          (Array.map (fun (e : Acsi_vm.Code.src_entry) ->
               { e with Acsi_vm.Code.src_pc = 10_000 }))
          code.Acsi_vm.Code.src;
    }
  in
  adopt bad stats;
  Alcotest.(check bool) "refused code not installed" true
    (Interp.code_of vm code.Acsi_vm.Code.meth == code)

(* --- satellite 3: determinism of full server runs --- *)

let test_serve_deterministic () =
  let a = serve_db () and b = serve_db () in
  Alcotest.(check bool) "summaries identical" true (a.Server.summary = b.Server.summary);
  Alcotest.(check bool) "per-request records identical" true
    (a.Server.requests = b.Server.requests)

let test_serve_jobs_invariant () =
  let serve_one name =
    let program = (Workloads.find name).Workloads.build ~scale:2 in
    (Server.run
       ~mode:
         (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
       ~name
       (Config.default ~policy:(Policy.Fixed 3))
       program)
      .Server.summary
  in
  let benches = [ "db"; "jess" ] in
  let serial = Acsi_core.Parallel.map ~jobs:1 serve_one benches in
  let parallel = Acsi_core.Parallel.map ~jobs:3 serve_one benches in
  Alcotest.(check bool) "summaries independent of --jobs" true
    (serial = parallel)

(* --- static pre-warm oracle: warmup-reduction regression --- *)

(* The EXPERIMENTS.md warmup-ablation claim, pinned as a test: under the
   bench panel's exact configuration (scale 1, closed loop 4 clients x
   16 requests, Fixed 3), seeding from summaries must bring at least
   three serve workloads to steady state in fewer requests while leaving
   the merged output checksum byte-identical. *)
let test_static_seed_warmup_reduction () =
  let serve ~seeded name =
    let program = (Workloads.find name).Workloads.build ~scale:1 in
    let cfg = Config.default ~policy:(Policy.Fixed 3) in
    let cfg =
      {
        cfg with
        Config.aos = { cfg.Config.aos with System.static_seed = seeded };
      }
    in
    (Server.run
       ~mode:
         (Server.Closed { clients = 4; requests_per_client = 16; think = 50_000 })
       ~name cfg program)
      .Server.summary
  in
  let reduced =
    List.filter
      (fun name ->
        let off = serve ~seeded:false name in
        let on_ = serve ~seeded:true name in
        Alcotest.(check int)
          (name ^ ": same request count")
          off.Server.sv_requests on_.Server.sv_requests;
        on_.Server.sv_output_checksum = off.Server.sv_output_checksum
        && on_.Server.sv_warmup_requests < off.Server.sv_warmup_requests)
      [ "db"; "compress"; "jack"; "javac" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "at least 3 of 4 workloads reach steady state earlier (got %d: %s)"
       (List.length reduced) (String.concat ", " reduced))
    true
    (List.length reduced >= 3)

(* --- OSR of a parked thread between slices --- *)

(* With speculation and OSR on, a background install polled at a thread
   switch can OSR the top frames of the thread that just ran, merging
   them into one optimized frame while the thread is parked. [resume]
   must write that stack back into the thread before swapping the next
   one in; otherwise the thread later re-runs the popped callee, which
   returns into the merged frame (this jess serve raised "expected an
   array"). Every transfer must also keep the program's output. *)
let serve_speculative ~speculate name =
  let program = (Workloads.find name).Workloads.build ~scale:5 in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let cfg =
    {
      cfg with
      Config.aos =
        { cfg.Config.aos with System.speculate; enable_osr = speculate };
    }
  in
  (Server.run
     ~mode:
       (Server.Closed { clients = 4; requests_per_client = 1; think = 50_000 })
     ~name cfg program)
    .Server.summary

let test_osr_between_slices () =
  let jess = serve_speculative ~speculate:true "jess" in
  Alcotest.(check int) "jess: all requests served" 4 jess.Server.sv_requests;
  Alcotest.(check bool) "jess: OSR transfers happened" true
    (jess.Server.sv_osr > 0);
  List.iter
    (fun name ->
      let off = serve_speculative ~speculate:false name in
      let on_ = serve_speculative ~speculate:true name in
      Alcotest.(check int)
        (name ^ ": output checksum unchanged by speculation + OSR")
        off.Server.sv_output_checksum on_.Server.sv_output_checksum)
    [ "db"; "compress"; "javac"; "jack" ]

let suite =
  [
    Alcotest.test_case "interleaved reentrancy (same method)" `Quick
      test_interleaved_reentrancy;
    Alcotest.test_case "resume rejects non-positive quantum" `Quick
      test_resume_rejects_bad_quantum;
    Alcotest.test_case "round-robin fairness" `Quick test_fairness_no_starvation;
    Alcotest.test_case "metrics snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "open-loop arrivals" `Quick test_open_loop_arrivals;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    QCheck_alcotest.to_alcotest prop_percentiles_match_spec;
    Alcotest.test_case "scheduler retains no per-thread history" `Quick
      test_sched_retains_no_history;
    QCheck_alcotest.to_alcotest prop_ring_pops_like_queue;
    QCheck_alcotest.to_alcotest prop_int_ring_is_a_queue;
    Alcotest.test_case "ready ring grows and wraps" `Quick
      test_ring_grows_and_wraps;
    Alcotest.test_case "async compilation overlaps mutator" `Slow
      test_async_compilation_overlaps;
    Alcotest.test_case "serving engines sample on their config" `Slow
      test_engines_sample_on_config;
    Alcotest.test_case "async verify-on-install off the clock" `Slow
      test_async_verify_outside_clock;
    Alcotest.test_case "server runs are deterministic" `Slow
      test_serve_deterministic;
    Alcotest.test_case "server summaries invariant under --jobs" `Slow
      test_serve_jobs_invariant;
    Alcotest.test_case "static seeding cuts warmup, output identical" `Slow
      test_static_seed_warmup_reduction;
    Alcotest.test_case "OSR of a parked thread between slices" `Slow
      test_osr_between_slices;
  ]
