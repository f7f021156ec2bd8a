(** Policy sweeps over benchmark suites: the machinery behind every table
    and figure of the paper's evaluation (see DESIGN.md's per-experiment
    index). *)

open Acsi_policy

type bench = { name : string; program : Acsi_bytecode.Program.t }

type point = { bench : string; policy : Policy.t; metrics : Metrics.t }

type sweep = {
  bench_names : string list;
  baselines : (string * Metrics.t) list;
      (** context-insensitive metrics per benchmark *)
  points : point list;  (** policy-major: every benchmark per policy *)
}

val run_sweep :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?cell_hook:(bench:string -> policy:Policy.t -> Runtime.result -> unit) ->
  Config.t ->
  benches:bench list ->
  policies:Policy.t list ->
  sweep
(** Runs every benchmark once under [Context_insensitive] (the baseline)
    and once per policy; the same configuration is used throughout.

    [jobs] (default 1) fans the independent (benchmark, policy) cells
    across that many domains ({!Parallel.map}); results are collected by
    cell index, so the sweep — all metrics, orderings, virtual cycles —
    is identical for every [jobs] value. Only the interleaving of
    [progress] callbacks (called under a mutex, from worker domains)
    varies.

    [cell_hook] is invoked once per cell, from the worker domain that ran
    it, with the cell's full {!Runtime.result} (baseline cells pass
    [Policy.Context_insensitive]). Since runs are deterministic, a driver
    can retain these results and skip re-running identical
    (benchmark, policy) cells later; the hook must be thread-safe when
    [jobs > 1]. *)

(** {2 The paper's sweep}

    Figures 4-6 and Table 1 evaluate one cell space: the eight suite
    programs under the context-insensitive baseline and each of the 24
    policies of {!Policy.paper_sweep}. Every driver that runs it reads
    these definitions. *)

val paper_config : Config.t -> Config.t
(** [cfg] with termination statistics collected: they only fill counters
    on the trace listener, so every figure is unchanged. *)

val paper_benches : scale_factor:float -> bench list
(** The suite's programs at {!Acsi_workloads.Workloads.scaled}. *)

val paper_policies : Policy.t list
(** [Context_insensitive :: Policy.paper_sweep]: every policy a suite
    program runs under, baseline first ({!run_sweep} adds the baseline
    itself, so {!paper_sweep} passes it the rest). *)

val paper_sweep :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?cell_hook:(bench:string -> policy:Policy.t -> Runtime.result -> unit) ->
  Config.t ->
  scale_factor:float ->
  sweep
(** {!run_sweep} over {!paper_benches} and {!paper_policies} under
    {!paper_config} [cfg]: the cells of Table 1 and Figures 4-6. *)

val find : sweep -> bench:string -> policy:Policy.t -> Metrics.t option
val baseline : sweep -> bench:string -> Metrics.t

val speedup_pct : sweep -> bench:string -> policy:Policy.t -> float
val code_size_pct : sweep -> bench:string -> policy:Policy.t -> float
val compile_time_pct : sweep -> bench:string -> policy:Policy.t -> float

val harmonic_mean_pct : (string -> float) -> string list -> float
(** Harmonic mean of per-benchmark percent changes, computed on the
    underlying ratios as the paper's harMean bars are. *)

type summary = {
  mean_speedup_pct : float;  (** harmonic mean over benches and policies *)
  min_speedup_pct : float;
  max_speedup_pct : float;
  mean_code_pct : float;
  best_code_reduction_pct : float;
  mean_compile_pct : float;
  best_compile_reduction_pct : float;
}

val summarize : sweep -> summary
(** Aggregates over every policy point (the abstract's headline numbers). *)
