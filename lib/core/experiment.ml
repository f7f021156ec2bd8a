open Acsi_policy

type bench = { name : string; program : Acsi_bytecode.Program.t }

type point = { bench : string; policy : Policy.t; metrics : Metrics.t }

type sweep = {
  bench_names : string list;
  baselines : (string * Metrics.t) list;
  points : point list;
}

(* One cell per (benchmark, policy) pair, baselines included; all cells
   are independent (a run shares no mutable state with any other), so
   they fan out across domains. Results are collected by cell index, so
   [baselines] and [points] come back in exactly the order the serial
   driver produced them. *)
type cell = Base of bench | Cell of bench * Policy.t

let run_sweep ?(progress = fun _ -> ()) ?(jobs = 1)
    ?(cell_hook = fun ~bench:_ ~policy:_ _ -> ()) cfg ~benches ~policies =
  let cells =
    List.map (fun b -> Base b) benches
    @ List.concat_map
        (fun policy -> List.map (fun b -> Cell (b, policy)) benches)
        policies
  in
  let progress_mutex = Mutex.create () in
  let run_cell cell =
    let b, policy, label =
      match cell with
      | Base b -> (b, Policy.Context_insensitive, "cins")
      | Cell (b, policy) -> (b, policy, Policy.to_string policy)
    in
    Mutex.lock progress_mutex;
    progress (Printf.sprintf "%s under %s" b.name label);
    Mutex.unlock progress_mutex;
    let cfg = Config.with_policy cfg policy in
    let result = Runtime.run cfg b.program in
    cell_hook ~bench:b.name ~policy result;
    result.Runtime.metrics
  in
  let results = Parallel.map ~jobs run_cell cells in
  let baselines, points =
    List.fold_left2
      (fun (baselines, points) cell metrics ->
        match cell with
        | Base b -> ((b.name, metrics) :: baselines, points)
        | Cell (b, policy) ->
            (baselines, { bench = b.name; policy; metrics } :: points))
      ([], []) cells results
  in
  {
    bench_names = List.map (fun b -> b.name) benches;
    baselines = List.rev baselines;
    points = List.rev points;
  }

(* The paper's Figure 4-6 sweep, defined once for every driver that runs
   it. Termination statistics only increment counters on the trace
   listener (no virtual-time or decision effect), so every figure is the
   same with them on, and the fixed(max=5) cells double as the
   termination-statistics runs. *)
let paper_config (cfg : Config.t) =
  {
    cfg with
    Config.aos =
      {
        cfg.Config.aos with
        Acsi_aos.System.collect_termination_stats = true;
      };
  }

let paper_benches ~scale_factor =
  List.map
    (fun (name, program) -> { name; program })
    (Acsi_workloads.Workloads.build_all ~scale_factor ())

let paper_policies = Policy.Context_insensitive :: Policy.paper_sweep

let paper_sweep ?progress ?jobs ?cell_hook cfg ~scale_factor =
  run_sweep ?progress ?jobs ?cell_hook (paper_config cfg)
    ~benches:(paper_benches ~scale_factor) ~policies:Policy.paper_sweep

let find sweep ~bench ~policy =
  List.find_opt
    (fun p -> String.equal p.bench bench && p.policy = policy)
    sweep.points
  |> Option.map (fun p -> p.metrics)

let baseline sweep ~bench = List.assoc bench sweep.baselines

let with_point sweep ~bench ~policy ~f =
  match find sweep ~bench ~policy with
  | None -> 0.0
  | Some m -> f ~baseline:(baseline sweep ~bench) m

let speedup_pct sweep ~bench ~policy =
  with_point sweep ~bench ~policy ~f:Metrics.speedup_pct

let code_size_pct sweep ~bench ~policy =
  with_point sweep ~bench ~policy ~f:Metrics.code_size_change_pct

let compile_time_pct sweep ~bench ~policy =
  with_point sweep ~bench ~policy ~f:Metrics.compile_time_change_pct

(* The paper's harMean bars aggregate ratios, not percentages: convert each
   percent change to a ratio, take the harmonic mean, convert back. *)
let harmonic_mean_pct value benches =
  match benches with
  | [] -> 0.0
  | _ :: _ ->
      let ratios =
        List.map (fun b -> 1.0 +. (value b /. 100.0)) benches
      in
      let n = float_of_int (List.length ratios) in
      let denom = List.fold_left (fun acc r -> acc +. (1.0 /. r)) 0.0 ratios in
      100.0 *. ((n /. denom) -. 1.0)

type summary = {
  mean_speedup_pct : float;
  min_speedup_pct : float;
  max_speedup_pct : float;
  mean_code_pct : float;
  best_code_reduction_pct : float;
  mean_compile_pct : float;
  best_compile_reduction_pct : float;
}

let summarize sweep =
  let speedups =
    List.map
      (fun p -> speedup_pct sweep ~bench:p.bench ~policy:p.policy)
      sweep.points
  in
  let codes =
    List.map
      (fun p -> code_size_pct sweep ~bench:p.bench ~policy:p.policy)
      sweep.points
  in
  let compiles =
    List.map
      (fun p -> compile_time_pct sweep ~bench:p.bench ~policy:p.policy)
      sweep.points
  in
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ :: _ ->
        let ratios = List.map (fun x -> 1.0 +. (x /. 100.0)) xs in
        let n = float_of_int (List.length ratios) in
        100.0
        *. ((n /. List.fold_left (fun a r -> a +. (1.0 /. r)) 0.0 ratios) -. 1.0)
  in
  let min_l = List.fold_left Float.min infinity in
  let max_l = List.fold_left Float.max neg_infinity in
  {
    mean_speedup_pct = mean speedups;
    min_speedup_pct = min_l speedups;
    max_speedup_pct = max_l speedups;
    mean_code_pct = mean codes;
    best_code_reduction_pct = min_l codes;
    mean_compile_pct = mean compiles;
    best_compile_reduction_pct = min_l compiles;
  }
