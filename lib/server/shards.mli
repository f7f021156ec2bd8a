(** Sharded multi-processor serving: N virtual processors, one OCaml
    domain each.

    Each shard is a complete virtual processor — its own VM, adaptive
    optimization system, round-robin {!Sched} and virtual clock — and
    the shards execute in parallel on host domains between *virtual-time
    barriers*: every round, each shard runs until its clock reaches the
    round's limit, then all cross-shard interaction happens serially in
    shard-id order:

    - the per-shard DCGs are merged into the organizer's global view
      ({!Acsi_profile.Dcg.merge} — the paper's per-virtual-processor
      sample buffers, §4.1);
    - newly opt-compiled methods are *published once* to a shared code
      cache (speculative code, whose CHA assumptions hold only on its
      own shard, is never published); other shards on which the method
      is live adopt the publisher's code — including its closure-tier
      compilation — via {!Acsi_aos.System.adopt_compiled}, paying no
      compile cycles;
    - unstarted sessions are rebalanced by deterministic work stealing
      (victim/thief selection rotates by a splitmix hash of the round,
      oldest due session moves first).

    Mid-execution virtual threads never migrate (their frames point into
    one VM's tables); the steal unit is a not-yet-admitted session, as
    in real work-stealing servers where a connection is bound to a
    worker at accept time.

    Determinism: every schedule decision is a function of (seed, shards,
    barrier, …) on virtual clocks only, and host parallelism is confined
    to the intra-round execution of disjoint shards, so a run's entire
    result — cycle counts, percentiles, steal counts, checksum — is
    byte-reproducible for a given configuration regardless of [~jobs]. *)

module System = Acsi_aos.System

type shard_stat = {
  h_id : int;
  h_served : int;
  h_cycles : int;  (** shard clock at end of run (incl. idle waits) *)
  h_busy_last : int;  (** clock at the shard's last session completion *)
  h_slices : int;
  h_switches : int;
  h_max_live : int;
  h_max_resume_gap : int;  (** per-shard scheduler fairness witness *)
  h_steals_in : int;
  h_steals_out : int;
  h_opt_compilations : int;
  h_adopted : int;
  h_dcg_size : int;
}

type summary = {
  sh_workload : string;
  sh_policy : string;
  sh_shards : int;
  sh_sessions : int;
  sh_period : int;
  sh_pool : int;
  sh_pool_policy : string;
  sh_rounds : int;
  sh_makespan : int;
      (** max over shards of the last session-completion cycle *)
  sh_sum_cycles : int;  (** sum of final shard clocks *)
  sh_throughput_spmc : float;  (** sessions per million makespan cycles *)
  sh_mean_latency : float;
  sh_p50 : int;
  sh_p95 : int;
  sh_p99 : int;
  sh_max_latency : int;
  sh_steals : int;
  sh_fairness : float;
      (** served-session balance witness: max/min served per shard *)
  sh_published : int;  (** methods published to the shared code cache *)
  sh_adopted : int;  (** cross-shard adoptions of published code *)
  sh_merged_dcg_size : int;
  sh_merged_dcg_weight : float;
  sh_output_checksum : int;
}

(** {2 Fleet telemetry}

    Collected off the virtual clock during the run and finalized after
    the last barrier; the summary above and all pinned goldens are
    byte-identical whether or not anyone consumes it. *)

type flow_kind =
  | Steal  (** a due session moved victim shard -> thief shard *)
  | Adopt  (** published code adopted: publisher -> adopter *)
  | Deopt  (** guard-storm deopt -> recompiled install, same shard *)
  | Invalidate  (** CHA-invalidation deopt -> reinstall, same shard *)

(** One half of a flow arrow linking shard tracks in the Perfetto
    export. The two halves of an arrow share [f_id] (an [Out] half at
    the origin and an [In] half at the destination); [f_key] is the
    session rid for steals and the method id otherwise. Flows are
    emitted only in the serial barrier section, in shard-id order, so
    the log is byte-identical across [--jobs]. *)
type flow = {
  f_kind : flow_kind;
  f_id : int;
  f_dir : Acsi_obs.Tracer.flow_dir;
  f_shard : int;
  f_t : int;  (** virtual cycles: barrier stamp for steal/adopt, the
                  deopt/reinstall clock for deopt arrows *)
  f_key : int;
}

type telemetry = {
  tel_interval : int;  (** = the run's barrier length *)
  tel_series : Acsi_obs.Timeseries.t array;
      (** one per shard, one row per round barrier: [live], [backlog]
          (due movable sessions), [compile_queue], [in_flight], [served],
          [steals_in], [steals_out], [adopted], [samples], [deopts] —
          gauges and cumulative counters *)
  tel_latency : Acsi_obs.Hist.t array;  (** per-shard session latency *)
  tel_latency_all : Acsi_obs.Hist.t;  (** merged across shards *)
  tel_steal_distance : Acsi_obs.Hist.t;
      (** |victim - thief| per stolen session *)
  tel_compile_wait : Acsi_obs.Hist.t;
      (** merged {!System.compile_wait_hist} *)
  tel_deopt_gap : Acsi_obs.Hist.t;  (** merged {!System.deopt_gap_hist} *)
  tel_flows : flow list;
      (** emission order; each arrow's [Out] half precedes its [In] *)
}

val flow_pairs : telemetry -> flow_kind -> int
(** Number of complete arrows of a kind (= its [Out] halves). With the
    conservation witness below, [flow_pairs t Steal = sh_steals] and
    [flow_pairs t Adopt = sh_adopted]. *)

val flows_conserved : telemetry -> bool
(** The conservation witness: every flow id has exactly one [Out] and
    one [In] half of the same kind and key, the [In] never precedes its
    [Out], steal/adopt arrows cross shards and deopt arrows stay on
    their shard. *)

val telemetry_tracer : telemetry -> Acsi_obs.Tracer.t
(** Materialize the fleet trace for {!Acsi_obs.Export.to_chrome_json}:
    per-shard [live]/[backlog] counter tracks from the time-series plus
    every flow arrow (anchored on 1-cycle spans). Capacity is computed
    exactly; the tracer never drops. *)

type result = {
  summary : summary;
  shard_stats : shard_stat list;
  publications : (Acsi_bytecode.Ids.Method_id.t * int) list;
      (** (method, origin shard), publication order *)
  merged_dcg : Acsi_profile.Dcg.t;
      (** the organizer's global view after the final barrier *)
  systems : System.t list;  (** per-shard AOS handles, for inspection *)
  telemetry : telemetry;
}

val run :
  seed:int ->
  ?jobs:int ->
  ?barrier:int ->
  pool:int ->
  pool_policy:System.compile_queue_policy ->
  shards:int ->
  sessions:int ->
  period:int ->
  name:string ->
  Acsi_core.Config.t ->
  Acsi_bytecode.Program.t ->
  result
(** Serve [sessions] open-loop arrivals (mean inter-arrival [period],
    drawn from [seed]) of the program's [main] across [shards]
    virtual processors. This is the one open-loop engine: one shard is
    one virtual processor serving arrivals whether or not it keeps up.

    [jobs] (default 1) caps the host domains running shards in parallel
    within a round; it never affects results. [barrier] (default
    2_000_000, at least {!Sched.quantum}) is the virtual-cycle round
    length between cross-shard barriers. Each shard's scheduler runs
    {!Sched.create}'s default quantum and switch cost. Each shard admits at most
    64 sessions at once (admission control; pending sessions stay queued
    as cheap tuples, which is what makes million-session backlogs
    affordable). Shard 0 draws two shares of the home-shard hash and
    every other shard one — a deliberately skewed front-end router — so
    work stealing has an imbalance to fix. Each shard's VM is built from
    the configuration by {!Acsi_core.Runtime.create_vm}, so it samples
    on the configuration's [sample_period] and [invoke_stride]. [pool]
    and [pool_policy] set each shard's background compiler pool,
    replacing the configuration's {!System.config.compiler_pool} and
    [compile_queue_policy]. Compilation is always asynchronous in
    sharded mode. *)

val pp_summary : Format.formatter -> summary -> unit
val pp_shards : Format.formatter -> shard_stat list -> unit
