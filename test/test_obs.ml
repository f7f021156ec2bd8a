(* Observability (lib/obs): the event tracer's ring and probe-cost
   model, the reconciliation contract between tracer spans and the AOS
   accounting (sync, async and probe-on-clock runs), decision
   provenance completeness against the refusal database and the
   registry, the CCT profile's sample accounting, exporter determinism
   (including across parallel domains), and the zero-perturbation
   guarantee: a fully-instrumented run reports byte-identical metrics
   to an untraced one. *)

open Acsi_core
module Policy = Acsi_policy.Policy
module System = Acsi_aos.System
module Accounting = Acsi_aos.Accounting
module Db = Acsi_aos.Db
module Interp = Acsi_vm.Interp
module Sched = Acsi_server.Sched
module Workloads = Acsi_workloads.Workloads
module Control = Acsi_obs.Control
module Tracer = Acsi_obs.Tracer
module Export = Acsi_obs.Export
module Provenance = Acsi_obs.Provenance
module Cprof = Acsi_obs.Cprof

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let obs_all =
  {
    Control.trace = true;
    provenance = true;
    cprof = true;
    capacity = 1 lsl 20;
    probe_on_clock = false;
  }

let db ~scale = (Workloads.find "db").Workloads.build ~scale

let run_with ?(policy = Policy.Fixed 3) ~obs program =
  let cfg = Config.default ~policy in
  Runtime.run
    { cfg with Config.aos = { cfg.Config.aos with System.obs } }
    program

(* --- the tracer ring --- *)

let test_ring_and_drops () =
  let tr = Tracer.create ~capacity:4 () in
  check_bool "enabled" true (Tracer.enabled tr);
  check_bool "null disabled" false (Tracer.enabled Tracer.null);
  for k = 1 to 6 do
    Tracer.span tr ~track:"t" ~name:(string_of_int k) ~t0:0 ~t1:k
  done;
  check_int "capacity bounds length" 4 (Tracer.length tr);
  check_int "oldest two dropped" 2 (Tracer.dropped tr);
  let names = ref [] in
  Tracer.iter tr ~f:(fun e ->
      match e with
      | Tracer.Span { name; _ } -> names := name :: !names
      | _ -> ());
  Alcotest.(check (list string))
    "oldest-first survivors" [ "3"; "4"; "5"; "6" ]
    (List.rev !names);
  (* Zero-duration spans are skipped entirely. *)
  Tracer.span tr ~track:"t" ~name:"zero" ~t0:7 ~t1:7;
  check_int "zero-duration span skipped" 4 (Tracer.length tr);
  (* The null tracer records nothing and never fails. *)
  Tracer.span Tracer.null ~track:"t" ~name:"x" ~t0:0 ~t1:1;
  check_int "null holds nothing" 0 (Tracer.length Tracer.null)

(* The tracer grows its buffer on demand; a list model of the ring it
   must behave like: append, and once [capacity] events are held, drop
   the oldest. Checked at the growth boundaries (capacity 256 is the
   initial buffer) and around the point where the ring fills. *)
let test_ring_matches_model () =
  List.iter
    (fun cap ->
      List.iter
        (fun n ->
          let label = Printf.sprintf "capacity %d, %d events" cap n in
          let tr = Tracer.create ~capacity:cap () in
          let model = ref [] and model_dropped = ref 0 in
          for k = 1 to n do
            Tracer.counter tr ~track:"t" ~name:"c" ~t:k ~value:k;
            model := !model @ [ k ];
            if List.length !model > cap then begin
              model := List.tl !model;
              incr model_dropped
            end
          done;
          check_int (label ^ ": length") (List.length !model)
            (Tracer.length tr);
          check_int (label ^ ": dropped") !model_dropped (Tracer.dropped tr);
          let held = ref [] in
          Tracer.iter tr ~f:(function
            | Tracer.Counter { value; _ } -> held := value :: !held
            | _ -> held := -1 :: !held);
          Alcotest.(check (list int)) (label ^ ": oldest first") !model
            (List.rev !held))
        [ 0; cap - 1; cap; cap + 1; (2 * cap) + 3 ])
    [ 1; 3; 255; 256; 257; 1000 ]

(* Memory follows the events held, not the capacity: a 2^20-event
   tracer holding 1000 events stays far below its 8 MiB full size. *)
let test_ring_memory_follows_events () =
  let tr = Tracer.create ~capacity:(1 lsl 20) () in
  for k = 1 to 1000 do
    Tracer.counter tr ~track:"t" ~name:"c" ~t:k ~value:k
  done;
  let words = Obj.reachable_words (Obj.repr tr) in
  check_bool
    (Printf.sprintf "%d reachable words < 64k" words)
    true (words < 65536)

let test_probe_charges_clock () =
  let charged = ref 0 in
  let tr =
    Tracer.create ~probe:5 ~charge:(fun c -> charged := !charged + c)
      ~capacity:16 ()
  in
  Tracer.span tr ~track:"t" ~name:"a" ~t0:0 ~t1:1;
  Tracer.counter tr ~track:"t" ~name:"c" ~t:1 ~value:9;
  Tracer.instant tr ~track:"t" ~name:"i" ~t:2 ();
  check_int "5 cycles per recorded event" 15 !charged;
  (* A skipped (zero-duration) span must not charge either. *)
  Tracer.span tr ~track:"t" ~name:"z" ~t0:3 ~t1:3;
  check_int "no probe cost for skipped events" 15 !charged

(* --- zero perturbation: tracing must not move a single cycle --- *)

let test_metrics_unchanged_when_traced () =
  let program = db ~scale:2 in
  let plain = (run_with ~obs:Control.off program).Runtime.metrics in
  let traced = (run_with ~obs:obs_all program).Runtime.metrics in
  check_bool "fully-instrumented run reports identical metrics" true
    (plain = traced)

(* --- reconciliation: span totals = accounting totals, exactly --- *)

let check_reconciled label sys =
  check_int (label ^ ": no ring drops") 0 (Tracer.dropped (System.tracer sys));
  List.iter
    (fun (nm, acct_v, span_v) ->
      check_int (Printf.sprintf "%s: %s spans = accounting" label nm) acct_v
        span_v)
    (System.span_rows sys)

let test_reconciliation_sync () =
  let result = run_with ~obs:obs_all (db ~scale:4) in
  check_reconciled "sync" result.Runtime.sys;
  (* Component tracks together cover the whole AOS overhead. *)
  let totals = Export.track_totals (System.tracer result.Runtime.sys) in
  let component_names = List.map Accounting.component_name Accounting.all_components in
  let component_sum =
    List.fold_left
      (fun acc (nm, v) ->
        if List.mem nm component_names then acc + v else acc)
      0 totals
  in
  check_int "component tracks sum to the AOS total"
    result.Runtime.metrics.Metrics.aos_cycles component_sum

(* A threaded, background-compiling run, instrumented: the async
   compile spans on the CompilationThread track must keep the
   reconciliation exact, and the overlapped share must make the
   accounting identity non-trivial (total <> app + aos). *)
let async_run () =
  let program = db ~scale:2 in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  let vm = Runtime.create_vm cfg program in
  let aos =
    { cfg.Config.aos with System.async_compile = true; obs = obs_all }
  in
  let sys = System.create aos vm in
  let sched =
    Sched.create ~quantum:25_000 ~switch_cost:200
      ~cycle_limit:cfg.Config.cycle_limit
      ~on_switch:(fun () -> System.poll_async_installs sys)
      ~tracer:(System.tracer sys) vm
  in
  let t1 = Sched.spawn sched in
  let t2 = Sched.spawn sched in
  ignore (t1, t2);
  let rec drain () =
    match Sched.run_slice sched with Some _ -> drain () | None -> ()
  in
  drain ();
  System.poll_async_installs sys;
  (vm, sys)

let test_reconciliation_async () =
  let vm, sys = async_run () in
  check_reconciled "async" sys;
  let m = Metrics.of_run vm sys in
  check_bool "background compiles installed" true (m.Metrics.async_installs > 0);
  check_bool "overlapped AOS cycles recorded" true
    (m.Metrics.overlapped_aos_cycles > 0);
  check_bool "overlap bounded by the AOS total" true
    (m.Metrics.overlapped_aos_cycles <= m.Metrics.aos_cycles);
  (* The async-accounting identity (the double-count fix): application
     time deducts only the AOS work the clock actually saw. *)
  check_int "app = total - (aos - overlapped)"
    (m.Metrics.total_cycles
    - (m.Metrics.aos_cycles - m.Metrics.overlapped_aos_cycles))
    m.Metrics.app_cycles;
  check_bool "identity is non-trivial (total <> app + aos)" true
    (m.Metrics.total_cycles <> m.Metrics.app_cycles + m.Metrics.aos_cycles);
  (* Scheduler slices land on per-thread tracks, outside the components. *)
  let totals = Export.track_totals (System.tracer sys) in
  check_bool "vthread tracks present" true
    (List.exists (fun (nm, _) -> nm = "vthread-0") totals)

let test_sync_run_has_no_overlap () =
  let m = (run_with ~obs:Control.off (db ~scale:2)).Runtime.metrics in
  check_int "stalling model: overlapped = 0" 0 m.Metrics.overlapped_aos_cycles;
  check_int "total = app + aos"
    m.Metrics.total_cycles
    (m.Metrics.app_cycles + m.Metrics.aos_cycles)

(* --- the probe-cost model --- *)

let test_probe_on_clock () =
  let program = db ~scale:2 in
  let free = run_with ~obs:obs_all program in
  let paid =
    run_with ~obs:{ obs_all with Control.probe_on_clock = true } program
  in
  check_bool "paid probes slow the run down" true
    (paid.Runtime.metrics.Metrics.total_cycles
    > free.Runtime.metrics.Metrics.total_cycles);
  (* Probe cycles go to the clock only, never to a component, so the
     reconciliation contract survives the perturbed run too. *)
  check_reconciled "probe-on-clock" paid.Runtime.sys

(* --- decision provenance --- *)

let prov_of sys =
  match System.provenance sys with
  | Some prov -> prov
  | None -> Alcotest.fail "provenance store missing"

let test_provenance_completeness () =
  let result = run_with ~obs:obs_all (db ~scale:4) in
  let sys = result.Runtime.sys in
  let prov = prov_of sys in
  let inlined, refused = Provenance.outcome_counts prov in
  check_int "outcomes partition the decisions"
    (Provenance.count prov)
    (inlined + refused);
  check_bool "decisions were recorded" true (Provenance.count prov > 0);
  (* Every inline the registry's installed code carries was decided
     through the oracle, hence recorded (recompiled-away versions only
     add more decisions). *)
  let m = result.Runtime.metrics in
  check_bool "registry inlines all have decisions" true
    (m.Metrics.inline_total > 0 && inlined >= m.Metrics.inline_total);
  (* Every refusal edge the database holds was refused at least once
     with the same taxonomy reason. *)
  let refused_with reason =
    List.length
      (List.filter
         (fun (d : Provenance.decision) ->
           match d.Provenance.d_info.Provenance.i_outcome with
           | Provenance.Refused r -> String.equal r reason
           | Provenance.Inlined _ -> false)
         (Provenance.all prov))
  in
  List.iter
    (fun (reason, n) ->
      let reason = Acsi_jit.Oracle.refusal_reason_to_string reason in
      check_bool
        (Printf.sprintf "db reason %s backed by >= %d decisions" reason n)
        true
        (refused_with reason >= n))
    (Db.refusal_reasons (System.db sys));
  (* Sequence numbers are the emission order, densely. *)
  List.iteri
    (fun i (d : Provenance.decision) -> check_int "dense d_seq" i d.Provenance.d_seq)
    (Provenance.all prov)

let test_provenance_at_query () =
  let result = run_with ~obs:obs_all (db ~scale:4) in
  let prov = prov_of result.Runtime.sys in
  let all = Provenance.all prov in
  let some_caller =
    match all with
    | d :: _ -> d.Provenance.d_info.Provenance.i_context.(0).Acsi_profile.Trace.caller
    | [] -> Alcotest.fail "no decisions"
  in
  let manual ?pc () =
    List.filter
      (fun (d : Provenance.decision) ->
        let e = d.Provenance.d_info.Provenance.i_context.(0) in
        e.Acsi_profile.Trace.caller = some_caller
        && match pc with None -> true | Some pc -> e.Acsi_profile.Trace.callsite = pc)
      all
  in
  let got = Provenance.at prov ~caller:some_caller () in
  check_int "at ~caller matches a manual filter"
    (List.length (manual ())) (List.length got);
  check_bool "at ~caller is non-empty" true (got <> []);
  let pc =
    (List.hd got).Provenance.d_info.Provenance.i_context.(0)
      .Acsi_profile.Trace.callsite
  in
  check_int "at ~caller ~callsite matches too"
    (List.length (manual ~pc ()))
    (List.length (Provenance.at prov ~caller:some_caller ~callsite:pc ()))

(* --- the CCT profile --- *)

let test_cprof_accounting () =
  let result = run_with ~obs:obs_all (db ~scale:4) in
  let cp =
    match System.cprof result.Runtime.sys with
    | Some cp -> cp
    | None -> Alcotest.fail "cprof missing"
  in
  check_bool "samples taken" true (Cprof.samples cp > 0);
  check_int "every sample attributes one period of cycles"
    (Cprof.samples cp * Interp.sample_period result.Runtime.vm)
    (Cprof.total_weight cp);
  check_bool "context nodes exist" true (Cprof.node_count cp > 0);
  let render r =
    Format.asprintf "%a"
      (Cprof.pp_flame
         ~name:(fun mid ->
           (Acsi_bytecode.Program.meth (Interp.program r.Runtime.vm) mid)
             .Acsi_bytecode.Meth.name)
         ?min_pct:None)
      cp
  in
  (* Two renders of the same tree are identical (sorted children, no
     hash-order leak). *)
  Alcotest.(check string) "flamegraph renders deterministically"
    (render result) (render result)

(* --- exporters --- *)

let chrome_of sys =
  let buf = Buffer.create 4096 in
  Export.to_chrome_json buf (System.tracer sys);
  Buffer.contents buf

let test_export_shapes () =
  let result = run_with ~obs:obs_all (db ~scale:2) in
  let tracer = System.tracer result.Runtime.sys in
  let chrome = chrome_of result.Runtime.sys in
  check_bool "chrome document shape" true
    (String.length chrome > 2
    && String.sub chrome 0 16 = "{\"traceEvents\":["
    && String.sub chrome (String.length chrome - 3) 3 = "]}\n");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
    in
    go 0
  in
  check_bool "thread-name metadata present" true
    (contains chrome "\"thread_name\"");
  check_bool "component track named" true (contains chrome "CompilationThread");
  let buf = Buffer.create 4096 in
  Export.to_jsonl buf tracer;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one JSONL line per event" (Tracer.length tracer)
    (List.length lines)

(* Identical traced runs produce byte-identical exports, whether they
   execute serially or fanned out across domains (the --jobs contract,
   extended to the event stream). *)
let test_export_determinism_across_domains () =
  let serial = chrome_of (run_with ~obs:obs_all (db ~scale:2)).Runtime.sys in
  let parallel =
    Parallel.map ~jobs:4
      (fun () -> chrome_of (run_with ~obs:obs_all (db ~scale:2)).Runtime.sys)
      [ (); (); (); () ]
  in
  List.iteri
    (fun i t ->
      Alcotest.(check string)
        (Printf.sprintf "domain %d matches the serial export" i)
        serial t)
    parallel

(* --- log-bucketed histograms (fleet telemetry, generation two) --- *)

module Hist = Acsi_obs.Hist
module Timeseries = Acsi_obs.Timeseries
module Load = Acsi_server.Load

let test_hist_basics () =
  let h = Hist.create () in
  check_int "empty quantile" 0 (Hist.quantile h 99.0);
  List.iter (Hist.record h) [ 5; 5; 7; 100; 100_000 ];
  check_int "exact count" 5 (Hist.count h);
  check_int "exact sum" (5 + 5 + 7 + 100 + 100_000) (Hist.sum h);
  check_int "exact min" 5 (Hist.min_value h);
  check_int "exact max" 100_000 (Hist.max_value h);
  (* Values below 2^sub_bits land in exact unit buckets. *)
  check_int "small values are exact" 5 (Hist.quantile h 20.0);
  check_int "p100 is the exact max" 100_000 (Hist.quantile h 100.0);
  Hist.record h (-3);
  check_int "negatives clamp to 0" 0 (Hist.min_value h);
  (* iter_buckets visits ascending, non-empty only, covering the count. *)
  let total = ref 0 and last_hi = ref (-1) in
  Hist.iter_buckets h ~f:(fun ~lo ~hi ~count ->
      check_bool "ascending buckets" true (lo > !last_hi);
      check_bool "lo <= hi" true (lo <= hi);
      last_hi := hi;
      total := !total + count);
  check_int "buckets cover every recording" (Hist.count h) !total

let test_hist_merge_equals_replay () =
  let xs = List.init 500 (fun i -> (i * 7919) mod 300_000) in
  let one = Hist.create () in
  List.iter (Hist.record one) xs;
  let a = Hist.create () and b = Hist.create () in
  List.iteri
    (fun i v -> Hist.record (if i mod 2 = 0 then a else b) v)
    xs;
  Hist.merge ~into:a b;
  check_int "merged count" (Hist.count one) (Hist.count a);
  check_int "merged sum" (Hist.sum one) (Hist.sum a);
  check_int "merged max" (Hist.max_value one) (Hist.max_value a);
  check_int "merged checksum" (Hist.checksum one) (Hist.checksum a);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "merged p%.0f" p)
        (Hist.quantile one p) (Hist.quantile a p))
    [ 50.0; 90.0; 99.0 ]

(* The accuracy contract, pinned differentially: for any multiset and
   percentile, the histogram quantile brackets the exact nearest-rank
   reference spec Load.percentile within one bucket's relative error. *)
let prop_hist_quantile_brackets_percentile =
  QCheck.Test.make
    ~name:"hist quantiles bracket Load.percentile within a bucket" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 1 300) (int_range 0 5_000_000)))
    (fun (sub_bits, values) ->
      let h = Hist.create ~sub_bits () in
      List.iter (Hist.record h) values;
      let arr = Array.of_list values in
      List.for_all
        (fun p ->
          let exact = Load.percentile arr p in
          let q = Hist.quantile h p in
          exact <= q && q <= exact + (exact asr sub_bits) + 1
          ||
          QCheck.Test.fail_reportf
            "p%.0f of %d values: exact %d, hist %d outside [%d, %d] \
             (sub_bits %d)"
            p (List.length values) exact q exact
            (exact + (exact asr sub_bits) + 1)
            sub_bits)
        [ 1.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ])

(* Merge order is immaterial: a histogram is a pure function of the
   recorded multiset. *)
let prop_hist_merge_commutes =
  QCheck.Test.make ~name:"hist merge is order-insensitive" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 100) (int_range 0 1_000_000))
        (list_of_size Gen.(int_range 0 100) (int_range 0 1_000_000)))
    (fun (xs, ys) ->
      let mk vs =
        let h = Hist.create () in
        List.iter (Hist.record h) vs;
        h
      in
      let ab = mk xs and ba = mk ys in
      Hist.merge ~into:ab (mk ys);
      Hist.merge ~into:ba (mk xs);
      Hist.checksum ab = Hist.checksum ba
      && Hist.count ab = Hist.count ba
      && Hist.sum ab = Hist.sum ba
      && Hist.quantile ab 99.0 = Hist.quantile ba 99.0)

(* --- virtual-clock time-series --- *)

let test_timeseries_basics () =
  let s = Timeseries.create ~columns:[ "gauge"; "total" ] in
  check_int "empty last" 0 (Timeseries.last s "total");
  for i = 1 to 40 do
    Timeseries.sample s ~now:(i * 10) [| i mod 4; i |]
  done;
  check_int "rows" 40 (Timeseries.length s);
  check_int "last of cumulative column" 40 (Timeseries.last s "total");
  let t, vs = Timeseries.row s 0 in
  check_int "first row time" 10 t;
  check_int "first row gauge" 1 vs.(0);
  check_int "column extraction" 40
    (Array.length (Timeseries.column s "gauge"));
  (* The checksum is order-sensitive: swapping two samples changes it. *)
  let s2 = Timeseries.create ~columns:[ "gauge"; "total" ] in
  for i = 40 downto 1 do
    Timeseries.sample s2 ~now:(i * 10) [| i mod 4; i |]
  done;
  check_bool "checksum sees row order" true
    (Timeseries.checksum s <> Timeseries.checksum s2);
  Alcotest.check_raises "arity is enforced"
    (Invalid_argument "Timeseries.sample: wrong arity") (fun () ->
      Timeseries.sample s ~now:500 [| 1 |])

let test_sparkline () =
  Alcotest.(check string)
    "max maps to the full block, zero to the baseline"
    "\xe2\x96\x81\xe2\x96\x84\xe2\x96\x88"
    (Timeseries.spark [| 0; 7; 14 |]);
  Alcotest.(check string)
    "all-zero input flatlines" "\xe2\x96\x81\xe2\x96\x81"
    (Timeseries.spark [| 0; 0 |]);
  Alcotest.(check string) "empty input renders empty" ""
    (Timeseries.spark [||])

(* --- telemetry text renderers --- *)

let test_telemetry_renderers () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
    in
    go 0
  in
  let s = Timeseries.create ~columns:[ "depth" ] in
  Timeseries.sample s ~now:5 [| 3 |];
  Timeseries.sample s ~now:10 [| 4 |];
  let h = Hist.create () in
  List.iter (Hist.record h) [ 1; 2; 2; 900 ];
  let buf = Buffer.create 256 in
  Export.series_openmetrics buf ~prefix:"acsi_"
    ~labels:[ ("shard", "0") ] s;
  Export.hist_openmetrics buf ~name:"acsi_lat" ~labels:[ ("shard", "0") ] h;
  let om = Buffer.contents buf in
  check_bool "openmetrics TYPE line" true
    (contains om "# TYPE acsi_depth gauge");
  check_bool "openmetrics labeled sample" true
    (contains om "acsi_depth{shard=\"0\"} 3 5\n");
  check_bool "openmetrics +Inf bucket carries the count" true
    (contains om "acsi_lat_bucket{shard=\"0\",le=\"+Inf\"} 4");
  check_bool "openmetrics exact sum" true
    (contains om "acsi_lat_sum{shard=\"0\"} 905");
  Buffer.clear buf;
  Export.series_jsonl buf ~name:"shard" ~labels:[ ("shard", "0") ] s;
  Export.hist_jsonl buf ~name:"lat" h;
  let jl = Buffer.contents buf in
  check_bool "jsonl sample line" true
    (contains jl "{\"ev\":\"sample\",\"series\":\"shard\",\"shard\":\"0\",\"t\":5,\"depth\":3}");
  check_bool "jsonl hist line carries count and sum" true
    (contains jl "\"count\":4,\"sum\":905")

let suite =
  [
    Alcotest.test_case "ring capacity and drops" `Quick test_ring_and_drops;
    Alcotest.test_case "growable ring matches the ring model" `Quick
      test_ring_matches_model;
    Alcotest.test_case "ring memory follows events held" `Quick
      test_ring_memory_follows_events;
    Alcotest.test_case "probe charges the clock" `Quick
      test_probe_charges_clock;
    Alcotest.test_case "tracing does not perturb metrics" `Quick
      test_metrics_unchanged_when_traced;
    Alcotest.test_case "reconciliation (sync)" `Quick
      test_reconciliation_sync;
    Alcotest.test_case "reconciliation (async server)" `Quick
      test_reconciliation_async;
    Alcotest.test_case "sync runs have no overlap" `Quick
      test_sync_run_has_no_overlap;
    Alcotest.test_case "probe-on-clock cost model" `Quick test_probe_on_clock;
    Alcotest.test_case "provenance completeness" `Quick
      test_provenance_completeness;
    Alcotest.test_case "provenance queries" `Quick test_provenance_at_query;
    Alcotest.test_case "cprof sample accounting" `Quick test_cprof_accounting;
    Alcotest.test_case "export shapes" `Quick test_export_shapes;
    Alcotest.test_case "export determinism across domains" `Quick
      test_export_determinism_across_domains;
    Alcotest.test_case "hist basics" `Quick test_hist_basics;
    Alcotest.test_case "hist merge equals replay" `Quick
      test_hist_merge_equals_replay;
    QCheck_alcotest.to_alcotest prop_hist_quantile_brackets_percentile;
    QCheck_alcotest.to_alcotest prop_hist_merge_commutes;
    Alcotest.test_case "timeseries basics" `Quick test_timeseries_basics;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "telemetry text renderers" `Quick
      test_telemetry_renderers;
  ]
