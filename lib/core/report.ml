open Acsi_policy

let panel_policies =
  [
    ("Non-Adaptive Context Sensitivity", fun n -> Policy.Fixed n);
    ("Parameterless Methods", fun n -> Policy.Parameterless n);
    ("Class Methods", fun n -> Policy.Class_methods n);
    ("Large Methods", fun n -> Policy.Large_methods n);
    ("Hybrid 1 - Parameterless Class Methods", fun n -> Policy.Hybrid_param_class n);
    ("Hybrid 2 - Parameterless Large Methods", fun n -> Policy.Hybrid_param_large n);
  ]

let maxes = [ 2; 3; 4; 5 ]

let table1 fmt (sweep : Experiment.sweep) =
  Format.fprintf fmt
    "@[<v>Table 1: benchmark characteristics (this reproduction's synthetic \
     workloads)@,%-14s %8s %8s %10s@,"
    "Benchmark" "Classes" "Methods" "Bytecodes";
  List.iter
    (fun bench ->
      let m = Experiment.baseline sweep ~bench in
      Format.fprintf fmt "%-14s %8d %8d %10d@," bench m.Metrics.classes_loaded
        m.Metrics.methods_compiled m.Metrics.bytecodes_compiled)
    sweep.Experiment.bench_names;
  Format.fprintf fmt "@]"

let render_panel fmt sweep ~title ~make ~value ~unit_label =
  Format.fprintf fmt "@[<v>%s (%s vs cins)@,%-14s" title unit_label "Benchmark";
  List.iter (fun n -> Format.fprintf fmt " %8s" (Printf.sprintf "max=%d" n)) maxes;
  Format.fprintf fmt "@,";
  List.iter
    (fun bench ->
      Format.fprintf fmt "%-14s" bench;
      List.iter
        (fun n ->
          Format.fprintf fmt " %8.2f" (value sweep ~bench ~policy:(make n)))
        maxes;
      Format.fprintf fmt "@,")
    sweep.Experiment.bench_names;
  Format.fprintf fmt "%-14s" "harMean";
  List.iter
    (fun n ->
      let hm =
        Experiment.harmonic_mean_pct
          (fun bench -> value sweep ~bench ~policy:(make n))
          sweep.Experiment.bench_names
      in
      Format.fprintf fmt " %8.2f" hm)
    maxes;
  Format.fprintf fmt "@,@,@]"

let figure4 fmt sweep =
  Format.fprintf fmt
    "@[<v>Figure 4: wall-clock speedup over context-insensitive inlining \
     (%%; positive = faster)@,@,@]";
  List.iteri
    (fun i (title, make) ->
      render_panel fmt sweep
        ~title:(Printf.sprintf "(%c) %s" (Char.chr (Char.code 'a' + i)) title)
        ~make ~value:Experiment.speedup_pct ~unit_label:"speedup %")
    panel_policies

let figure5 fmt sweep =
  Format.fprintf fmt
    "@[<v>Figure 5: optimized code size change (%%; negative = smaller)@,@,@]";
  List.iteri
    (fun i (title, make) ->
      render_panel fmt sweep
        ~title:(Printf.sprintf "(%c) %s" (Char.chr (Char.code 'a' + i)) title)
        ~make ~value:Experiment.code_size_pct ~unit_label:"code size %")
    panel_policies

let mean_component_pct sweep ~policy c =
  let benches = sweep.Experiment.bench_names in
  let values =
    List.filter_map
      (fun bench ->
        match policy with
        | None ->
            Some (Metrics.component_pct (Experiment.baseline sweep ~bench) c)
        | Some policy ->
            Option.map
              (fun m -> Metrics.component_pct m c)
              (Experiment.find sweep ~bench ~policy))
      benches
  in
  match values with
  | [] -> 0.0
  | _ :: _ ->
      List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let figure6 fmt sweep =
  let open Acsi_aos in
  let columns =
    (None, "cins", 0)
    :: List.concat_map
         (fun (_, make) ->
           List.map
             (fun n ->
               let p = make n in
               (Some p, Policy.name p, n))
             maxes)
         panel_policies
  in
  Format.fprintf fmt
    "@[<v>Figure 6: %% of execution time in each AOS component (mean over \
     benchmarks)@,%-24s" "Component";
  List.iter
    (fun (_, name, n) ->
      Format.fprintf fmt " %12s"
        (if n = 0 then name else Printf.sprintf "%s/%d" name n))
    columns;
  Format.fprintf fmt "@,";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-24s" (Accounting.component_name c);
      List.iter
        (fun (policy, _, _) ->
          Format.fprintf fmt " %12.4f" (mean_component_pct sweep ~policy c))
        columns;
      Format.fprintf fmt "@,")
    Accounting.all_components;
  Format.fprintf fmt "@]"

let summary fmt sweep =
  let s = Experiment.summarize sweep in
  Format.fprintf fmt
    "@[<v>Headline summary (paper: abstract / section 5)@,\
     %-44s %10s %10s@,\
     %-44s %10s %10.2f@,\
     %-44s %10s %10.2f@,\
     %-44s %10s %10.2f@,\
     %-44s %10s %10.2f@,\
     %-44s %10s %10.2f@,\
     %-44s %10s %10.2f@,@]"
    "Metric" "paper" "measured"
    "mean speedup, % (paper: within +/-1)" "+/-1" s.Experiment.mean_speedup_pct
    "per-benchmark speedup min, %" "-4.2" s.Experiment.min_speedup_pct
    "per-benchmark speedup max, %" "5.3" s.Experiment.max_speedup_pct
    "mean code-space change, % (paper: ~-10)" "-10" s.Experiment.mean_code_pct
    "best code-space reduction, %" "-56.7" s.Experiment.best_code_reduction_pct
    "best compile-time reduction, %" "-33.0" s.Experiment.best_compile_reduction_pct
