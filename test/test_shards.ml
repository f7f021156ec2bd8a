(* The sharded multi-processor server (Acsi_server.Shards): determinism
   across the host-parallelism axis, work-stealing conservation and
   fairness, the publish-once shared code cache, DCG merging into the
   organizer's global view, and the compiler-pool queue policies.

   Loads are kept small (a few thousand sessions) — every property here
   is scale-free; the bench's @shard-smoke golden and the shards section
   of BENCH_results.json pin the big-run numbers. *)

module System = Acsi_aos.System
module Config = Acsi_core.Config
module Policy = Acsi_policy.Policy
module Shards = Acsi_server.Shards
module Workloads = Acsi_workloads.Workloads
module Dcg = Acsi_profile.Dcg
module Trace = Acsi_profile.Trace

let program = lazy ((Workloads.find "session").Workloads.build ~scale:1)

let run ?(seed = 11) ?(jobs = 1) ?(pool = 1) ?(pool_policy = System.Fifo)
    ?(sessions = 3000) ?(period = 600) ~shards () =
  Shards.run ~seed ~jobs ~pool ~pool_policy ~barrier:100_000 ~shards ~sessions
    ~period ~name:"session"
    (Config.default ~policy:(Policy.Fixed 3))
    (Lazy.force program)

(* --- determinism: the jobs x shards matrix --- *)

(* The whole point of the bulk-synchronous design: host parallelism is
   confined to disjoint shards between barriers, so every figure the run
   produces — makespan, percentiles, steal count, per-shard stats, the
   output checksum — is a pure function of (seed, shards, load), however
   many domains executed it, and however many times. *)
let test_jobs_determinism () =
  List.iter
    (fun shards ->
      let a = run ~shards ~jobs:1 () in
      let b = run ~shards ~jobs:2 () in
      let c = run ~shards ~jobs:4 () in
      let again = run ~shards ~jobs:1 () in
      List.iter
        (fun (label, (other : Shards.result)) ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d summary identical (%s)" shards label)
            true
            (a.Shards.summary = other.Shards.summary);
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d per-shard stats identical (%s)" shards
               label)
            true
            (a.Shards.shard_stats = other.Shards.shard_stats);
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d publication log identical (%s)" shards
               label)
            true
            (a.Shards.publications = other.Shards.publications))
        [ ("jobs 2", b); ("jobs 4", c); ("repeat", again) ])
    [ 1; 2; 3; 4 ]

(* Different seeds must actually produce different schedules — otherwise
   the determinism checks above are vacuous. *)
let test_seed_sensitivity () =
  let a = run ~shards:2 ~seed:11 () in
  let b = run ~shards:2 ~seed:12 () in
  Alcotest.(check bool)
    "different seeds, different runs" false
    (a.Shards.summary = b.Shards.summary)

(* --- work stealing: conservation, fairness, scaling --- *)

let test_steal_conservation_and_fairness () =
  let r = run ~shards:4 ~sessions:4000 () in
  let s = r.Shards.summary in
  let stats = r.Shards.shard_stats in
  (* Every admitted session completes: served sums to the offered load. *)
  Alcotest.(check int) "all sessions served" s.Shards.sh_sessions
    (List.fold_left (fun acc h -> acc + h.Shards.h_served) 0 stats);
  (* Steals are a permutation of work, not a source or sink of it. *)
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 stats in
  Alcotest.(check int)
    "steals in = steals out"
    (sum (fun h -> h.Shards.h_steals_out))
    (sum (fun h -> h.Shards.h_steals_in));
  Alcotest.(check int)
    "summary counts each moved session once" s.Shards.sh_steals
    (sum (fun h -> h.Shards.h_steals_in));
  Alcotest.(check bool) "stealing happened" true (s.Shards.sh_steals > 0);
  (* The home-shard hash over-weights shard 0 by 2x; stealing must keep
     the served split well inside that skew. (Only *due* sessions move,
     so perfect balance is not expected under overload.) *)
  Alcotest.(check bool)
    (Printf.sprintf "served fairness %.3f within bound" s.Shards.sh_fairness)
    true
    (s.Shards.sh_fairness < 2.0);
  (* Per-shard scheduler fairness carries over from the server tier: no
     runnable thread inside a shard waits longer than one full rotation
     of its run queue. *)
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d resume gap %d <= max-live %d" h.Shards.h_id
           h.Shards.h_max_resume_gap h.Shards.h_max_live)
        true
        (h.Shards.h_max_resume_gap <= h.Shards.h_max_live))
    stats

(* Under a saturating load, more virtual processors must serve it in
   proportionally less virtual time. The bench pins the big-run ratio
   (>= 2.5x at 4 shards); here a generous floor guards the mechanism. *)
let test_throughput_scales () =
  let t shards =
    (run ~shards ~sessions:4000 ()).Shards.summary.Shards.sh_throughput_spmc
  in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 shards scale throughput (%.1f -> %.1f)" t1 t4)
    true
    (t4 > 2.0 *. t1)

(* --- the publish-once shared code cache --- *)

let test_publish_once_and_adoption () =
  let r = run ~shards:4 ~sessions:4000 () in
  let s = r.Shards.summary in
  let mids = List.map fst r.Shards.publications in
  let distinct = List.sort_uniq compare mids in
  (* First publication wins forever: a method appears at most once in
     the publication log, whatever later recompilations shards do. *)
  Alcotest.(check int)
    "no method published twice"
    (List.length distinct) (List.length mids);
  Alcotest.(check int)
    "summary counts the log" (List.length mids) s.Shards.sh_published;
  Alcotest.(check bool) "methods were published" true (s.Shards.sh_published > 0);
  (* Cross-shard reuse actually happened, and the summary count is the
     sum of what each shard's AOS adopted. *)
  Alcotest.(check bool) "code was adopted" true (s.Shards.sh_adopted > 0);
  Alcotest.(check int)
    "adoption count is the sum over shards" s.Shards.sh_adopted
    (List.fold_left
       (fun acc sys -> acc + System.adopted_installs sys)
       0 r.Shards.systems);
  (* An adopting shard paid no compile cycles for adopted methods: the
     origin shard is recorded, and it is never the adopter itself (a
     shard cannot adopt its own publication). *)
  List.iter
    (fun (_, origin) ->
      Alcotest.(check bool) "origin shard is valid" true
        (origin >= 0 && origin < s.Shards.sh_shards))
    r.Shards.publications

(* Speculative code is shard-local: its CHA assumptions hold against
   the publisher's loaded universe, and [System.adopt_compiled] refuses
   it. The hot [Pipeline.run] of the dispatch workload compiles with a
   guard-free inline of [apply] while only [NormalHandler] is loaded.
   Sparse arrivals make shard 1 first execute [run] after shard 0
   compiled it, so a published speculative version would be adopted —
   and abort the run — at the next barrier. With [flip] inside the loop
   the class load invalidates the speculation, and the recompiled,
   non-speculative version must still be published. *)
let spec_program ~flip =
  let open Acsi_lang.Dsl in
  Acsi_lang.Compile.prog
    (prog ~globals:Acsi_workloads.Javalib.globals
       (Acsi_workloads.Javalib.classes @ Acsi_workloads.Dispatch.classes)
       [
         let_ "p" (new_ "Pipeline" []);
         let_ "n" (new_ "NormalHandler" [ i 7 ]);
         print (inv (v "p") "run" [ v "n"; i 5000; i flip ]);
       ])

let test_speculative_code_not_published () =
  let run_spec ~flip =
    let program = spec_program ~flip in
    let cfg = Config.default ~policy:(Policy.Fixed 3) in
    let cfg =
      {
        cfg with
        Config.aos =
          { cfg.Config.aos with System.speculate = true; enable_osr = true };
      }
    in
    let r =
      Shards.run ~seed:1 ~barrier:30_000 ~pool:1 ~pool_policy:System.Fifo
        ~shards:2 ~sessions:8
        ~period:2_000_000 ~name:"spec" cfg program
    in
    let run_mid =
      (Acsi_bytecode.Program.find_method program ~cls:"Pipeline" ~name:"run")
        .Acsi_bytecode.Meth.id
    in
    (r, List.mem_assoc run_mid r.Shards.publications)
  in
  let r, published = run_spec ~flip:(-1) in
  Alcotest.(check int) "all sessions served" 8
    (List.fold_left (fun acc h -> acc + h.Shards.h_served) 0
       r.Shards.shard_stats);
  Alcotest.(check bool) "a shard installed speculative code" true
    (List.exists (fun sys -> System.speculative_installs sys > 0)
       r.Shards.systems);
  Alcotest.(check bool) "speculative run is not published" false published;
  let r, published = run_spec ~flip:3000 in
  Alcotest.(check bool) "speculative code was installed" true
    (List.exists (fun sys -> System.speculative_installs sys > 0)
       r.Shards.systems);
  Alcotest.(check bool) "the non-speculative recompile is published" true
    published

(* --- DCG merge: the organizer's global view --- *)

let test_merged_dcg_preserves_weight () =
  let r = run ~shards:3 ~sessions:3000 () in
  let shard_total =
    List.fold_left
      (fun acc sys -> acc +. Dcg.total_weight (System.dcg sys))
      0.0 r.Shards.systems
  in
  let merged = Dcg.total_weight r.Shards.merged_dcg in
  Alcotest.(check bool)
    (Printf.sprintf "merged total %.6f = sum of shard totals %.6f" merged
       shard_total)
    true
    (Float.abs (merged -. shard_total) < 1e-6);
  (* The global view covers every trace any shard saw. *)
  let covers = ref true in
  List.iter
    (fun sys ->
      Dcg.iter (System.dcg sys) ~f:(fun trace _ ->
          if Dcg.weight r.Shards.merged_dcg trace = 0.0 then covers := false))
    r.Shards.systems;
  Alcotest.(check bool) "every shard trace is in the merged view" true !covers

(* Unit-level: merge adds weights trace by trace and totals are
   additive, including on overlap. *)
let test_dcg_merge_unit () =
  let p = Lazy.force program in
  let mid =
    (Acsi_bytecode.Program.find_method p ~cls:"ReadEndpoint" ~name:"handle")
      .Acsi_bytecode.Meth.id
  in
  let mid2 =
    (Acsi_bytecode.Program.find_method p ~cls:"WriteEndpoint" ~name:"handle")
      .Acsi_bytecode.Meth.id
  in
  let entry = { Trace.caller = mid; callsite = 1 } in
  let t_shared = Trace.make ~callee:mid ~chain:[ entry ] in
  let t_only_a = Trace.make ~callee:mid2 ~chain:[ entry ] in
  let t_only_b = Trace.make ~callee:mid2 ~chain:[ entry; entry ] in
  let a = Dcg.create () and b = Dcg.create () in
  Dcg.add_weight a t_shared 2.0;
  Dcg.add_weight a t_only_a 1.5;
  Dcg.add_weight b t_shared 3.0;
  Dcg.add_weight b t_only_b 0.5;
  Dcg.merge ~into:a b;
  Alcotest.(check (float 1e-9)) "overlap adds" 5.0 (Dcg.weight a t_shared);
  Alcotest.(check (float 1e-9)) "a-only kept" 1.5 (Dcg.weight a t_only_a);
  Alcotest.(check (float 1e-9)) "b-only inserted" 0.5 (Dcg.weight a t_only_b);
  Alcotest.(check (float 1e-9)) "total additive" 7.0 (Dcg.total_weight a);
  Alcotest.(check int) "size" 3 (Dcg.size a);
  (* The source is read-only under merge. *)
  Alcotest.(check (float 1e-9)) "source untouched" 3.5 (Dcg.total_weight b)

(* --- compiler pool queue policies --- *)

(* Each policy is itself deterministic, serves the full load, and the
   policies genuinely reorder compilation (hot-first differs from FIFO
   on a pool that queues). A pool of 1 under FIFO is the serial
   background-compiler model exactly — pinned by the serve-smoke golden
   staying byte-identical. *)
let test_pool_policies () =
  let once policy = run ~shards:2 ~sessions:4000 ~pool:2 ~pool_policy:policy () in
  List.iter
    (fun policy ->
      let a = once policy and b = once policy in
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministic" (System.queue_policy_name policy))
        true
        (a.Shards.summary = b.Shards.summary);
      Alcotest.(check int)
        (Printf.sprintf "%s serves everything"
           (System.queue_policy_name policy))
        4000
        a.Shards.summary.Shards.sh_sessions)
    [ System.Fifo; System.Hot_first ];
  Alcotest.(check bool)
    "policy axis round-trips through names" true
    (List.for_all
       (fun p -> System.queue_policy_of_string (System.queue_policy_name p) = Some p)
       [ System.Fifo; System.Hot_first ])

(* --- fleet telemetry: flow conservation and aggregate identities --- *)

(* The conservation witness, plus the cross-checks that tie the flow log
   and the time-series back to the counters the summary already pins:
   telemetry is a second bookkeeping of the same events, so every
   aggregate must agree exactly. *)
let test_flow_conservation_and_aggregates () =
  let r = run ~shards:4 ~sessions:4000 () in
  let s = r.Shards.summary in
  let tel = r.Shards.telemetry in
  Alcotest.(check bool) "flows conserved" true (Shards.flows_conserved tel);
  Alcotest.(check int) "steal arrows = summary steals" s.Shards.sh_steals
    (Shards.flow_pairs tel Shards.Steal);
  Alcotest.(check int) "adopt arrows = summary adoptions" s.Shards.sh_adopted
    (Shards.flow_pairs tel Shards.Adopt);
  (* Per-shard flow halves agree with each shard's steal counters. *)
  let flow_count dir shard =
    List.length
      (List.filter
         (fun (f : Shards.flow) ->
           f.Shards.f_kind = Shards.Steal
           && f.Shards.f_dir = dir && f.Shards.f_shard = shard)
         tel.Shards.tel_flows)
  in
  List.iter
    (fun (h : Shards.shard_stat) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d steal-out flows" h.Shards.h_id)
        h.Shards.h_steals_out
        (flow_count Acsi_obs.Tracer.Out h.Shards.h_id);
      Alcotest.(check int)
        (Printf.sprintf "shard %d steal-in flows" h.Shards.h_id)
        h.Shards.h_steals_in
        (flow_count Acsi_obs.Tracer.In h.Shards.h_id))
    r.Shards.shard_stats;
  (* The time-series' final cumulative rows are the same counters. *)
  List.iter
    (fun (h : Shards.shard_stat) ->
      let series = tel.Shards.tel_series.(h.Shards.h_id) in
      Alcotest.(check int)
        (Printf.sprintf "shard %d series served" h.Shards.h_id)
        h.Shards.h_served
        (Acsi_obs.Timeseries.last series "served");
      Alcotest.(check int)
        (Printf.sprintf "shard %d series steals_in" h.Shards.h_id)
        h.Shards.h_steals_in
        (Acsi_obs.Timeseries.last series "steals_in");
      Alcotest.(check int)
        (Printf.sprintf "shard %d series steals_out" h.Shards.h_id)
        h.Shards.h_steals_out
        (Acsi_obs.Timeseries.last series "steals_out");
      Alcotest.(check int)
        (Printf.sprintf "shard %d series adopted" h.Shards.h_id)
        h.Shards.h_adopted
        (Acsi_obs.Timeseries.last series "adopted"))
    r.Shards.shard_stats;
  (* The latency histograms re-aggregate the summary's percentiles'
     source data: exact count matches, merged = per-shard sum. *)
  Alcotest.(check int) "latency histogram counts every session"
    s.Shards.sh_sessions
    (Acsi_obs.Hist.count tel.Shards.tel_latency_all);
  Alcotest.(check int) "merged latency = sum of per-shard counts"
    (Acsi_obs.Hist.count tel.Shards.tel_latency_all)
    (Array.fold_left
       (fun acc h -> acc + Acsi_obs.Hist.count h)
       0 tel.Shards.tel_latency);
  Alcotest.(check int) "steal-distance histogram counts every steal"
    s.Shards.sh_steals
    (Acsi_obs.Hist.count tel.Shards.tel_steal_distance)

(* Telemetry rides the virtual clock only, and flows are emitted in the
   serial barrier section: everything it contains is byte-identical
   across the host-parallelism axis, like the summary itself. *)
let test_telemetry_jobs_determinism () =
  let a = run ~shards:3 ~jobs:1 () in
  let b = run ~shards:3 ~jobs:4 () in
  let ta = a.Shards.telemetry and tb = b.Shards.telemetry in
  Alcotest.(check bool) "flow logs identical" true
    (ta.Shards.tel_flows = tb.Shards.tel_flows);
  Array.iteri
    (fun i sa ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d series checksum" i)
        (Acsi_obs.Timeseries.checksum sa)
        (Acsi_obs.Timeseries.checksum tb.Shards.tel_series.(i)))
    ta.Shards.tel_series;
  List.iter
    (fun (label, ha, hb) ->
      Alcotest.(check int)
        (label ^ " histogram checksum")
        (Acsi_obs.Hist.checksum ha) (Acsi_obs.Hist.checksum hb))
    [
      ("latency", ta.Shards.tel_latency_all, tb.Shards.tel_latency_all);
      ("steal-distance", ta.Shards.tel_steal_distance,
       tb.Shards.tel_steal_distance);
      ("compile-wait", ta.Shards.tel_compile_wait, tb.Shards.tel_compile_wait);
      ("deopt-gap", ta.Shards.tel_deopt_gap, tb.Shards.tel_deopt_gap);
    ]

(* The Perfetto materialization: every flow becomes an "s"/"f" arrow
   pair sharing its id, the tracer never drops, and the chrome document
   carries both halves. *)
let test_telemetry_tracer_export () =
  let r = run ~shards:2 ~sessions:4000 () in
  let tel = r.Shards.telemetry in
  Alcotest.(check bool) "some steals to trace" true
    (Shards.flow_pairs tel Shards.Steal > 0);
  let tracer = Shards.telemetry_tracer tel in
  Alcotest.(check int) "exact-capacity tracer never drops" 0
    (Acsi_obs.Tracer.dropped tracer);
  let flows_out = ref 0 and flows_in = ref 0 in
  Acsi_obs.Tracer.iter tracer ~f:(fun e ->
      match e with
      | Acsi_obs.Tracer.Flow { dir = Acsi_obs.Tracer.Out; _ } ->
          incr flows_out
      | Acsi_obs.Tracer.Flow { dir = Acsi_obs.Tracer.In; _ } -> incr flows_in
      | _ -> ());
  Alcotest.(check int) "every flow half materialized"
    (List.length tel.Shards.tel_flows)
    (!flows_out + !flows_in);
  Alcotest.(check int) "out halves = in halves" !flows_out !flows_in;
  let buf = Buffer.create 4096 in
  Acsi_obs.Export.to_chrome_json buf tracer;
  let chrome = Buffer.contents buf in
  let contains sub =
    let n = String.length chrome and m = String.length sub in
    let rec go i =
      i + m <= n && (String.equal (String.sub chrome i m) sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "chrome export has flow-start arrows" true
    (contains "\"ph\":\"s\",\"cat\":\"flow\"");
  Alcotest.(check bool) "chrome export has binding flow-finish arrows" true
    (contains "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\"");
  Alcotest.(check bool) "steal arrows are named" true (contains "\"steal\"")

(* A fleet promotes only what is live at a minor collection: at most
   [max_live] sessions per shard, each a thread, its ring entry and its
   frames. Dead sessions must stay unreachable from the major heap: a
   run queue that kept a link from a popped element to the next one
   ([Stdlib.Queue]), or a parked stack that kept its popped frames,
   turns every session into promoted words. The fleet cell of the
   repository benchmark at 20k sessions, under a pinned 256k-word minor
   heap (the runtime's default) reads 11.7 promoted words per session
   (about 7 under a 4M-word heap, 20 under 32k words). With the run
   queue back on [Stdlib.Queue] it reads 27.9, with the stacks left
   uncleared 19.5, and with both about 95. *)
let test_promotion_budget () =
  let sessions = 20_000 in
  let program = Lazy.force program in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let minor = (Gc.get ()).Gc.minor_heap_size in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144 };
  let promoted =
    Fun.protect
      ~finally:(fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor })
      (fun () ->
        Gc.full_major ();
        let before = (Gc.quick_stat ()).Gc.promoted_words in
        ignore
          (Shards.run ~seed:7 ~jobs:1 ~pool:2 ~pool_policy:System.Hot_first
             ~shards:4 ~sessions ~period:450 ~name:"session" cfg program);
        (Gc.quick_stat ()).Gc.promoted_words -. before)
  in
  let per_session = promoted /. float sessions in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f promoted words per session <= 16" per_session)
    true (per_session <= 16.0)

let suite =
  [
    Alcotest.test_case "jobs x shards determinism matrix" `Slow
      test_jobs_determinism;
    Alcotest.test_case "seed changes the schedule" `Quick
      test_seed_sensitivity;
    Alcotest.test_case "steal conservation and fairness" `Quick
      test_steal_conservation_and_fairness;
    Alcotest.test_case "throughput scales with shards" `Quick
      test_throughput_scales;
    Alcotest.test_case "publish-once cache and adoption" `Quick
      test_publish_once_and_adoption;
    Alcotest.test_case "speculative code is not published" `Quick
      test_speculative_code_not_published;
    Alcotest.test_case "merged DCG preserves weight" `Quick
      test_merged_dcg_preserves_weight;
    Alcotest.test_case "Dcg.merge unit semantics" `Quick test_dcg_merge_unit;
    Alcotest.test_case "compiler pool queue policies" `Quick test_pool_policies;
    Alcotest.test_case "flow conservation and telemetry aggregates" `Quick
      test_flow_conservation_and_aggregates;
    Alcotest.test_case "telemetry jobs determinism" `Slow
      test_telemetry_jobs_determinism;
    Alcotest.test_case "telemetry tracer chrome export" `Quick
      test_telemetry_tracer_export;
    Alcotest.test_case "fleet promotes only live sessions" `Quick
      test_promotion_budget;
  ]
