(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--trace-out FILE] [--cells FILE]
     main.exe smoke BENCHMARK.json

   A run computes its references, measures set-up, then runs whole
   passes over the workload's cells for about S seconds and prints one
   JSON line: with --trace 0 the end-to-end metrics, with --trace 1 the
   per-layer metrics of one traced pass (see README.md). --trace-out
   writes the traced pass's spans as Perfetto JSON; --cells writes each
   cell's virtual cycles and output checksum. [smoke] runs every
   workload at a tiny size and checks the metric tables against
   BENCHMARK.json. *)

open Acsi_core
module C = Cells

let fi = float_of_int
let now = Layers.now_ns
let sec ns = fi ns *. 1e-9

(* --- metric tables ---------------------------------------------------- *)

let end_to_end =
  [
    ("ops_per_s", "1/s"); ("cell_ms_p50", "ms");
    ("setup_s", "s"); ("peak_rss_mb", "MB"); ("virtual_mcycles", "Mcycles");
    ("aos_pct", "%"); ("opt_compiles", "count"); ("slowdown_p50", "x");
    ("slowdown_p99", "x");
  ]

let per_layer =
  [
    ("lang.build_ms", "ms"); ("lang.bytecodes", "count");
    ("vm.create_ms", "ms"); ("vm.self_s", "s"); ("vm.ns_per_cycle", "ns");
    ("vm.ns_per_instr", "ns"); ("vm.interp_share_pct", "%");
    ("vm.instructions", "count"); ("vm.calls", "count");
    ("vm.tier_cache_hits", "count"); ("vm.tier_cache_misses", "count");
    ("vm.tier_cache_evictions", "count");
    ("aos.create_ms", "ms"); ("aos.timer_s", "s"); ("aos.invoke_s", "s");
    ("aos.first_exec_s", "s"); ("aos.timer_calls", "count");
    ("aos.invoke_calls", "count"); ("aos.first_exec_calls", "count");
    ("aos.us_per_timer", "us"); ("aos.samples", "count");
    ("aos.trace_samples", "count"); ("aos.epochs", "count");
    ("aos.opt_compilations", "count"); ("aos.refusals", "count");
    ("aos.dcg_size", "count"); ("aos.rules", "count");
    ("aos.listeners_mcycles", "Mcycles"); ("aos.compilation_mcycles", "Mcycles");
    ("aos.decay_organizer_mcycles", "Mcycles");
    ("aos.ai_organizer_mcycles", "Mcycles");
    ("aos.method_organizer_mcycles", "Mcycles");
    ("aos.controller_mcycles", "Mcycles"); ("aos.opt_code_kb", "KiB");
    ("aos.compile_mcycles", "Mcycles"); ("aos.hm_speedup_vs_cins_pct", "%");
    ("core.metrics_ms", "ms");
    ("jit.replay_compiles", "count"); ("jit.expand_us_per_compile", "us");
    ("analysis.jit_check_us_per_compile", "us");
    ("tier.compile_us_per_compile", "us"); ("analysis.summary_ms", "ms");
    ("deopt.osr_up", "count"); ("deopt.osr_down", "count");
    ("deopt.guard_storms", "count"); ("deopt.invalidations", "count");
    ("deopt.guard_checks", "count"); ("deopt.speculative_installs", "count");
    ("deopt.class_load_s", "s"); ("deopt.guard_miss_s", "s");
    ("deopt.class_load_calls", "count"); ("deopt.guard_miss_calls", "count");
    ("obs.trace_events", "count"); ("obs.trace_dropped", "count");
    ("obs.provenance_decisions", "count"); ("obs.overhead_pct", "%");
    ("server.run_s", "s"); ("server.us_per_request", "us");
    ("server.slices", "count"); ("server.switches", "count");
    ("server.async_installs", "count"); ("server.max_queue_depth", "count");
    ("server.overlap_instructions", "count");
    ("server.warmup_requests", "count");
    ("shards.run_s", "s"); ("shards.rounds", "count");
    ("shards.ms_per_round", "ms"); ("shards.steals", "count");
    ("shards.published", "count"); ("shards.adopted", "count");
    ("shards.fairness", "ratio"); ("shards.compile_wait_p99", "cycles");
    ("shards.flows_conserved", "bool"); ("parallel.speedup_x", "x");
    ("perf.reference_s", "s"); ("perf.verify_s", "s");
    ("perf.unattributed_s", "s"); ("perf.unattributed_pct", "%");
    ("perf.host_slowdown", "x");
    ("trace.overhead_pct", "%"); ("trace.spans_dropped", "count");
  ]

(* --- statistics --------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the middle ranks, for host times. *)
let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.0 else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

(* Nearest rank, as [Load.percentile]: virtual numbers stay exact. *)
let nearest_rank a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (ceil (p /. 100.0 *. fi n)) - 1)))

(* VmHWM; where there is no /proc, the OCaml heap's high-water mark. *)
let peak_rss_mb () =
  let hwm =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
    with Sys_error _ -> None
  in
  match hwm with
  | Some kb -> fi kb /. 1024.0
  | None -> fi ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0

(* --- host-speed calibration ----------------------------------------------- *)

(* The host's speed drifts with load from outside the benchmark: on a
   shared two-core VM, a fixed loop's duration was seen to range over
   1.0-1.8x within a minute, and whole-minute stretches ran 40% slow.
   So every host time is reported at a reference speed. A probe — an
   allocation-free loop of indirect calls and array traffic that runs
   none of the simulator's code — is timed right before and right after
   each cell (and each set-up sample), and the cell's time is scaled by
   [probe_ref_ns] over the faster of its two probes: contention slows
   cell and probe alike, and the faster probe ignores one preemption
   landing on a probe. [probe_ref_ns] is the probe's median on the
   reference host, an otherwise idle 2.0 GHz Xeon VM. *)
let probe_ref_ns = 270_000.0
let probe_ops = [| (fun x -> x + 1); (fun x -> x - 3); (fun x -> x * 3); (fun x -> x lsr 1) |]

(* Allocated once, so the probe's memory never moves. *)
let probe_regs = Array.make 4096 0

(* The probe runs on the main domain only: timing a second domain's
   probe would mostly time the runtime's domain start and stop. *)
let probe () =
  let t0 = now () in
  for i = 0 to 99_999 do
    let j = (i * 2654435761) land 4095 in
    probe_regs.(j) <-
      (probe_regs.(j) lxor i) + probe_ops.(i land 3) probe_regs.((j + 1) land 4095)
  done;
  now () - t0

(* [f ()] between two probes: its result, its wall ns, and the faster
   probe's ns. *)
let calibrated f =
  let p0 = probe () in
  let t0 = now () in
  let v = f () in
  let wall = now () - t0 in
  (v, wall, min p0 (probe ()))

(* Nanoseconds at reference speed. *)
let at_reference ns ~probe = fi ns *. probe_ref_ns /. fi probe

(* --- passes -------------------------------------------------------------- *)

(* [wall_ns] is raw; [probe_ns] the faster probe around the cell. *)
type run = { cell : C.cell; outcome : C.outcome; wall_ns : int; probe_ns : int }

let quiet = ref false
let log fmt = Printf.ksprintf (fun s -> if not !quiet then prerr_endline s) fmt

let failed_cell c e =
  log "perf: cell %s raised %s" c.C.key (Printexc.to_string e);
  C.failed_outcome ~ops:(C.planned_ops c)

let checked c check =
  let o = try check () with e -> failed_cell c e in
  if o.C.failed > 0 then
    log "perf: cell %s: %d of %d operations failed their output check" c.C.key
      o.C.failed o.C.ops;
  o

let plain_pass refs cells =
  List.map
    (fun c ->
      let r = Hashtbl.find refs (c.C.prog, c.C.scale) in
      (* Each cell starts from a collected heap: garbage from earlier
         cells is not collected on its time. *)
      Gc.full_major ();
      let check, wall_ns, probe_ns =
        calibrated (fun () -> try Ok (C.run_plain r c) with e -> Error e)
      in
      let outcome =
        match check with
        | Ok check -> checked c check
        | Error e -> failed_cell c e
      in
      { cell = c; outcome; wall_ns; probe_ns })
    cells

let cell_s r = at_reference r.wall_ns ~probe:r.probe_ns *. 1e-9
let raw_wall_s runs = sec (List.fold_left (fun a r -> a + r.wall_ns) 0 runs)

(* Cell wall time of a pass at reference speed, and how much slower
   than the reference the host ran during it. *)
let wall_s runs = List.fold_left (fun a r -> a +. cell_s r) 0.0 runs
let pass_slowdown runs = raw_wall_s runs /. wall_s runs
let ops runs = List.fold_left (fun a r -> a + r.outcome.C.ops) 0 runs
let failures runs = List.fold_left (fun a r -> a + r.outcome.C.failed) 0 runs

let fingerprints runs =
  List.sort compare
    (List.map (fun r -> (r.cell.C.key, C.fingerprint r.outcome)) runs)

(* Per-layer counters summed over a pass's cells; queue depth is a
   high-water mark. *)
let merge_stats runs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          let old = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
          Hashtbl.replace tbl k
            (if k = "server.max_queue_depth" then Float.max old v else old +. v))
        r.outcome.C.stats)
    runs;
  tbl

(* --- end-to-end metrics ------------------------------------------------- *)

let end_to_end_values ~setup_s passes =
  let first = List.hd passes in
  let rate runs = fi (ops runs) /. wall_s runs in
  let cell_ms =
    Array.of_list (List.concat_map (List.map (fun r -> cell_s r *. 1e3)) passes)
  in
  let sum f = List.fold_left (fun a r -> a + f r.outcome) 0 first in
  let p50, p99 =
    match
      List.find_map
        (fun r ->
          match r.outcome.C.slow with
          | C.Quantiles (a, b) -> Some (a, b)
          | C.Samples _ -> None)
        first
    with
    | Some q -> q
    | None ->
        let all =
          Array.concat
            (List.map
               (fun r ->
                 match r.outcome.C.slow with C.Samples a -> a | C.Quantiles _ -> [||])
               first)
        in
        (nearest_rank all 50.0, nearest_rank all 99.0)
  in
  [
    ("ops_per_s", median (Array.of_list (List.map rate passes)));
    ("cell_ms_p50", median cell_ms);
    ("setup_s", setup_s);
    ("peak_rss_mb", peak_rss_mb ());
    ("virtual_mcycles", fi (sum (fun o -> o.C.cycles)) /. 1e6);
    ("aos_pct", 100.0 *. fi (sum (fun o -> o.C.aos)) /. fi (max 1 (sum (fun o -> o.C.clock))));
    ("opt_compiles", fi (sum (fun o -> o.C.compiles)));
    ("slowdown_p50", p50);
    ("slowdown_p99", p99);
  ]

(* Figure 4's harmonic-mean speedup over the context-insensitive cell of
   the same program and configuration group, across every other cell. *)
let hm_speedup_vs_cins runs =
  let base = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.cell.C.kind with
      | C.Batch { group; policy = Acsi_policy.Policy.Context_insensitive; _ } ->
          Hashtbl.replace base (r.cell.C.prog, group) r.outcome.C.cycles
      | C.Batch _ | C.Serve _ | C.Fleet _ -> ())
    runs;
  let inv =
    List.filter_map
      (fun r ->
        match r.cell.C.kind with
        | C.Batch { policy = Acsi_policy.Policy.Context_insensitive; _ } -> None
        | C.Batch { group; _ } -> (
            match Hashtbl.find_opt base (r.cell.C.prog, group) with
            | Some b when b > 0 && r.outcome.C.cycles > 0 ->
                Some (fi r.outcome.C.cycles /. fi b)
            | Some _ | None -> None)
        | C.Serve _ | C.Fleet _ -> None)
      runs
  in
  match inv with
  | [] -> 0.0
  | _ ->
      let n = fi (List.length inv) in
      100.0 *. ((n /. List.fold_left ( +. ) 0.0 inv) -. 1.0)

(* --- one benchmark run -------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
}

type options = {
  size : C.size;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  cells_out : string option;
  corrupt : bool;  (** perturb one reference (the smoke's negative check) *)
}

(* The traced pass: every cell through [Cells.run_traced] inside a
   [Layers.op], then each batch cell's compile replay and calibration.
   Returns the runs, the unattributed nanoseconds inside cells, the
   calibration buckets and the number of replayed compiles. *)
let traced_pass refs cells =
  Layers.reset ();
  Metrics.reset_tier_cache_stats ();
  let cal = Hashtbl.create 4 in
  let replays = ref 0 in
  let unattributed = ref 0 in
  let runs =
    List.mapi
      (fun i c ->
        let r = Hashtbl.find refs (c.C.prog, c.C.scale) in
        Gc.full_major ();
        let p0 = probe () in
        let res, wall_ns, u = Layers.op (i + 1) (fun () -> C.run_traced r c) in
        let probe_ns = min p0 (probe ()) in
        unattributed := !unattributed + u;
        let outcome =
          match res with
          | Error e -> failed_cell c e
          | Ok (check, vmsys) ->
              Option.iter
                (fun (vm, sys) ->
                  List.iter
                    (fun (b, cyc, host) ->
                      let c0, h0 =
                        Option.value ~default:(0, 0.0) (Hashtbl.find_opt cal b)
                      in
                      Hashtbl.replace cal b (c0 + cyc, h0 +. host))
                    (Acsi_vm.Interp.calibration vm);
                  replays := !replays + C.replay vm sys)
                vmsys;
              Layers.within Layers.Verify (fun () -> checked c check)
        in
        { cell = c; outcome; wall_ns; probe_ns })
      cells
  in
  (runs, !unattributed, cal, !replays)

(* Raw host seconds, before calibration. *)
let print_layer_table workload cells ~wall ~unattributed =
  log "perf: %s traced pass, %d cells, %.3f s of cell wall time:" workload
    (List.length cells) wall;
  log "  %-20s %10s %12s %8s" "layer" "calls" "self s" "of wall";
  List.iter
    (fun l ->
      if Layers.call_count l > 0 then
        log "  %-20s %10d %12.6f %7.2f%%" (Layers.name l) (Layers.call_count l)
          (Layers.self_s l)
          (100.0 *. Layers.self_s l /. wall))
    Layers.all;
  log "  %-20s %10s %12.6f %7.2f%%" "unattributed" "" (sec unattributed)
    (100.0 *. sec unattributed /. wall)

let run o =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        log "perf: %s: %s" o.workload s;
        ok := false)
      fmt
  in
  let attempted = ref 0 and failed = ref 0 in
  let count runs =
    attempted := !attempted + ops runs;
    failed := !failed + failures runs
  in
  let cells = C.shuffle ~seed:o.seed (C.cells ~size:o.size o.workload) in
  let refs, reference_ns, reference_probe = calibrated (fun () -> C.references cells) in
  let reference_s = at_reference reference_ns ~probe:reference_probe *. 1e-9 in
  (if o.corrupt then
     let c = List.hd (C.cells ~size:o.size o.workload) in
     let r = Hashtbl.find refs (c.C.prog, c.C.scale) in
     Hashtbl.replace refs (c.C.prog, c.C.scale)
       { r with C.r_out = 1 :: r.C.r_out; r_sum = r.C.r_sum + 1 });
  (* Set-up, repeated: the medians of five samples of the whole set-up
     and of its builds. A sample sets up every cell [k] times, each from a
     collected heap, timing only the set-up itself; [k] makes a sample at
     least about 50 ms at full size so the clock and caches do not
     dominate. *)
  let setup_s, build_s =
    let sample k =
      let p0 = probe () in
      let total = ref 0 and build = ref 0 in
      for _ = 1 to k do
        List.iter
          (fun c ->
            Gc.full_major ();
            let t0 = now () in
            build := !build + C.setup c;
            total := !total + (now () - t0))
          cells
      done;
      let probe = min p0 (probe ()) in
      let s ns = at_reference ns ~probe *. 1e-9 /. fi k in
      (s !total, s !build)
    in
    let floor_s = match o.size with C.Full -> 0.05 | C.Smoke -> 0.002 in
    let k = max 1 (int_of_float (ceil (floor_s /. Float.max 1e-6 (fst (sample 1))))) in
    let samples = Array.init 5 (fun _ -> sample k) in
    (median (Array.map fst samples), median (Array.map snd samples))
  in
  (* Whole passes until the next one would overrun the time budget; a
     traced run takes exactly one untraced pass to compare against. *)
  let start = now () in
  let rec passes acc =
    let t0 = now () in
    let p = plain_pass refs cells in
    count p;
    let acc = p :: acc in
    let t1 = now () in
    if (not o.trace) && sec (t1 - start + (t1 - t0)) <= o.seconds then passes acc
    else List.rev acc
  in
  let passes = passes [] in
  log "perf: %s: %d passes, host slower than the reference by %s" o.workload
    (List.length passes)
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "%.3fx" (pass_slowdown p)) passes));
  let first = List.hd passes in
  let reference_prints = fingerprints first in
  let same_virtual what runs =
    if fingerprints runs <> reference_prints then
      fail "virtual results differ between the first pass and %s" what
  in
  List.iteri
    (fun i p -> if i > 0 then same_virtual (Printf.sprintf "pass %d" (i + 1)) p)
    passes;
  if Option.value ~default:0.0 (Hashtbl.find_opt (merge_stats first) "obs.trace_dropped") > 0.0
  then
    fail "the tracer dropped events";
  let e2e = end_to_end_values ~setup_s passes in
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter
        (fun r ->
          let o = r.outcome in
          Printf.fprintf oc "%s\t%d\t%d\t%d\t%.3f\n" r.cell.C.key o.C.cycles
            o.C.checksum o.C.failed (fi r.wall_ns /. 1e6))
        (List.sort (fun a b -> compare a.cell.C.key b.cell.C.key) first);
      close_out oc)
    o.cells_out;
  let layers =
    if not o.trace then []
    else begin
      if o.trace_out <> None then Layers.record_spans ();
      let traced, unattributed, cal, replays = traced_pass refs cells in
      let cache = Metrics.tier_cache_stats () in
      same_virtual "the traced pass" traced;
      count traced;
      let slow = pass_slowdown traced in
      let raw_wall = raw_wall_s traced in
      let unattributed_pct = 100.0 *. sec unattributed /. raw_wall in
      if not !Layers.reconciled then
        fail "layer self times plus unattributed do not sum to cell wall time";
      (match o.workload with
      | ("sweep" | "diagnose") when unattributed_pct > 5.0 ->
          fail "unattributed host time is %.2f%% of cell wall time (limit 5%%)"
            unattributed_pct
      | _ -> ());
      (* Re-runs of the same cells under one changed knob that must not
         move a virtual number; returns the re-run's wall time. *)
      let rerun what cells' =
        let p = plain_pass refs cells' in
        same_virtual what p;
        count p;
        wall_s p
      in
      let obs_overhead_pct =
        if o.workload <> "diagnose" then 0.0
        else
          let off = C.shuffle ~seed:o.seed (C.diagnose ~obs:Acsi_obs.Control.off o.size) in
          100.0 *. ((wall_s first /. rerun "observability off" off) -. 1.0)
      in
      let speedup_x =
        if o.workload <> "fleet" then 0.0
        else
          let sessions = C.planned_ops (List.hd cells) in
          let jobs = C.parallel_jobs () in
          wall_s first /. rerun "more host domains" [ C.fleet_cell ~sessions ~jobs ]
      in
      let tstats = merge_stats traced in
      let g k = Option.value ~default:0.0 (Hashtbl.find_opt tstats k) in
      let cal_s b = match Hashtbl.find_opt cal b with Some (_, h) -> h | None -> 0.0 in
      let per n d = if d > 0.0 then n /. d else 0.0 in
      let self l = Layers.self_s l /. slow and ncalls l = fi (Layers.call_count l) in
      let values =
        Layers.
          [
            ("lang.build_ms", build_s *. 1e3);
            ("vm.create_ms", self Vm_create *. 1e3);
            ("vm.self_s", self Vm);
            ("vm.ns_per_cycle", per (self Vm *. 1e9) (g "vm.app_cycles"));
            ("vm.ns_per_instr", per (self Vm *. 1e9) (g "vm.instructions"));
            ( "vm.interp_share_pct",
              100.0 *. per (cal_s "interp") (cal_s "interp" +. cal_s "closure") );
            ("vm.tier_cache_hits", fi cache.Metrics.hits);
            ("vm.tier_cache_misses", fi cache.Metrics.misses);
            ("vm.tier_cache_evictions", fi cache.Metrics.evictions);
            ("aos.create_ms", self Aos_create *. 1e3);
            ("aos.timer_s", self Aos_timer);
            ("aos.invoke_s", self Aos_invoke);
            ("aos.first_exec_s", self Aos_first_exec);
            ("aos.timer_calls", ncalls Aos_timer);
            ("aos.invoke_calls", ncalls Aos_invoke);
            ("aos.first_exec_calls", ncalls Aos_first_exec);
            ("aos.us_per_timer", per (self Aos_timer *. 1e6) (ncalls Aos_timer));
            ("aos.hm_speedup_vs_cins_pct", hm_speedup_vs_cins traced);
            ("core.metrics_ms", self Core_metrics *. 1e3);
            ("jit.replay_compiles", fi replays);
            ("jit.expand_us_per_compile", per (self Jit_expand *. 1e6) (fi replays));
            ( "analysis.jit_check_us_per_compile",
              per (self Jit_check *. 1e6) (fi replays) );
            ("tier.compile_us_per_compile", per (self Tier_compile *. 1e6) (fi replays));
            ("analysis.summary_ms", self Summary *. 1e3);
            ("deopt.class_load_s", self Deopt_class_load);
            ("deopt.guard_miss_s", self Deopt_guard_miss);
            ("deopt.class_load_calls", ncalls Deopt_class_load);
            ("deopt.guard_miss_calls", ncalls Deopt_guard_miss);
            ("obs.overhead_pct", obs_overhead_pct);
            ("server.run_s", self Server);
            ("server.us_per_request", per (self Server *. 1e6) (g "server.requests"));
            ("shards.run_s", self Shards);
            ("shards.ms_per_round", per (self Shards *. 1e3) (g "shards.rounds"));
            ("parallel.speedup_x", speedup_x);
            ("perf.reference_s", reference_s);
            ("perf.verify_s", self Verify);
            ("perf.unattributed_s", sec unattributed /. slow);
            ("perf.unattributed_pct", unattributed_pct);
            ("perf.host_slowdown", slow);
            ("trace.overhead_pct", 100.0 *. ((wall_s traced /. wall_s first) -. 1.0));
            ("trace.spans_dropped", fi !spans_dropped);
          ]
      in
      Option.iter
        (fun path ->
          let names = Array.of_list (List.map (fun c -> c.C.key) cells) in
          Layers.write_perfetto ~op_name:(fun i -> names.(i - 1)) path)
        o.trace_out;
      print_layer_table o.workload cells ~wall:raw_wall ~unattributed;
      List.map
        (fun (k, _) -> (k, match List.assoc_opt k values with Some v -> v | None -> g k))
        per_layer
    end
  in
  if !failed > 0 then fail "%d of %d operations failed" !failed !attempted;
  { correct = !ok; attempted = !attempted; failed = !failed; e2e; layers }

(* --- output ------------------------------------------------------------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r ~trace =
  let table, values = if trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  List.iter
    (fun (k, u) -> log "  %-36s %18s %s" k (number (List.assoc k values)) u)
    table;
  let fields =
    List.map
      (fun (k, u) ->
        let v = List.assoc k values in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Layers.json_string k)
          (if Float.is_finite v then number v else "0")
          (Layers.json_string u))
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.correct && finite) r.attempted r.failed (String.concat ", " fields);
  r.correct && finite

(* --- smoke ---------------------------------------------------------------- *)

(* Just enough JSON to read BENCHMARK.json. *)
module Json = struct
  type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

  exception Bad of int

  let parse s =
    let n = String.length s and i = ref 0 in
    let peek () = if !i < n then s.[!i] else raise (Bad !i) in
    let rec ws () =
      if !i < n && String.contains " \t\r\n" s.[!i] then begin
        incr i;
        ws ()
      end
    in
    let expect c =
      ws ();
      if peek () = c then incr i else raise (Bad !i)
    in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> incr i
        | '\\' ->
            incr i;
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | ('"' | '\\' | '/') as c -> Buffer.add_char b c
            | _ -> raise (Bad !i));
            incr i;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec value () =
      ws ();
      match peek () with
      | '{' ->
          incr i;
          Obj (items '}' (fun () ->
                   let k = str () in
                   expect ':';
                   (k, value ())))
      | '[' ->
          incr i;
          Arr (items ']' value)
      | '"' -> Str (str ())
      | _ ->
          let j = !i in
          while !i < n && not (String.contains ",]} \t\r\n" s.[!i]) do
            incr i
          done;
          (match String.sub s j (!i - j) with
          | "null" -> Null
          | "true" -> Bool true
          | "false" -> Bool false
          | w -> ( match float_of_string_opt w with Some f -> Num f | None -> raise (Bad j)))
    and items : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      ws ();
      if peek () = close then begin
        incr i;
        []
      end
      else
        let rec go acc =
          let acc = item () :: acc in
          ws ();
          match peek () with
          | ',' ->
              incr i;
              go acc
          | c when c = close ->
              incr i;
              List.rev acc
          | _ -> raise (Bad !i)
        in
        go []
    in
    let v = value () in
    ws ();
    if !i <> n then raise (Bad !i);
    v

  let member k = function Obj l -> List.assoc_opt k l | _ -> None
end

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Runs every workload tiny and traced, then the two negative checks. *)
let smoke path =
  quiet := true;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let spec =
    try Json.parse (read_file path)
    with Json.Bad at -> failwith (Printf.sprintf "%s: malformed JSON at byte %d" path at)
  in
  let pairs key =
    match Json.member key spec with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | Some (Json.Str n), None -> (n, "")
            | _ -> problem "%s: an entry of %s has no name" path key; ("", ""))
          l
    | _ ->
        problem "%s: no %s list" path key;
        []
  in
  if List.map fst (pairs "workloads") <> C.workload_names then
    problem "workloads declared in %s differ from the benchmark's" path;
  if pairs "end_to_end" <> end_to_end then
    problem "end_to_end metrics declared in %s differ from those printed" path;
  if pairs "per_layer" <> per_layer then
    problem "per_layer metrics declared in %s differ from those printed" path;
  let base =
    {
      size = C.Smoke;
      workload = "";
      seed = 1;
      seconds = 0.0;
      trace = true;
      trace_out = None;
      cells_out = None;
      corrupt = false;
    }
  in
  List.iter
    (fun workload ->
      let r = run { base with workload } in
      if not r.correct then problem "%s: run reported incorrect" workload;
      if r.failed > 0 then problem "%s: %d operations failed" workload r.failed;
      if List.map fst r.e2e <> List.map fst end_to_end
         || List.map fst r.layers <> List.map fst per_layer
      then problem "%s: not every metric was printed" workload)
    C.workload_names;
  (* The fleet at one and two host domains, whatever the host has. *)
  let fleet jobs =
    let c = C.fleet_cell ~sessions:4_000 ~jobs in
    let r = Hashtbl.find (C.references [ c ]) (c.C.prog, c.C.scale) in
    C.fingerprint (C.run_plain r c ())
  in
  if fleet 1 <> fleet 2 then problem "fleet: virtual results differ at --jobs 1 and 2";
  let r = run { base with workload = "sweep"; trace = false; corrupt = true } in
  if r.failed = 0 || r.correct then
    problem "sweep: a corrupted reference was not reported as failed operations";
  quiet := false;
  match !problems with
  | [] -> 0
  | ps ->
      List.iter (fun p -> log "perf smoke: FAILED: %s" p) (List.rev ps);
      1

(* --- command line ---------------------------------------------------------- *)

let usage () =
  log
    "usage: main.exe --workload (%s) --seed N --seconds S --trace 0|1 \
     [--trace-out FILE] [--cells FILE]\n\
    \       main.exe smoke BENCHMARK.json"
    (String.concat "|" C.workload_names);
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke"; path ] -> (
      try exit (smoke path)
      with Failure m | Sys_error m ->
        quiet := false;
        log "perf smoke: FAILED: %s" m;
        exit 1)
  | args ->
      let rec pairs = function
        | k :: v :: rest -> (k, v) :: pairs rest
        | [] -> []
        | [ _ ] -> usage ()
      in
      let opts = pairs args in
      let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out"; "--cells" ] in
      if List.exists (fun (k, _) -> not (List.mem k known)) opts then usage ();
      let get k = List.assoc_opt k opts in
      let workload =
        match get "--workload" with
        | Some w when List.mem w C.workload_names -> w
        | _ -> usage ()
      in
      let seed = match Option.bind (get "--seed") int_of_string_opt with Some s -> s | None -> usage () in
      let seconds =
        match Option.bind (get "--seconds") float_of_string_opt with
        | Some s when s >= 0.0 -> s
        | _ -> usage ()
      in
      let trace =
        match get "--trace" with Some "1" -> true | Some "0" -> false | _ -> usage ()
      in
      match
        run
          {
            size = C.Full;
            workload;
            seed;
            seconds;
            trace;
            trace_out = get "--trace-out";
            cells_out = get "--cells";
            corrupt = false;
          }
      with
      | r -> exit (if print_result r ~trace then 0 else 1)
      | exception Sys_error m ->
          log "perf: %s" m;
          exit 2
