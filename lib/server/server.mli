(** Server-mode execution: a deterministic request workload against one
    shared program / code cache / AOS instance.

    Each request is one invocation of the program's [main], run as a
    virtual thread under the round-robin {!Sched}. All requests share the
    VM (heap, globals, installed code, virtual clock) and the adaptive
    optimization system, so later requests run increasingly optimized
    code — the warmup-vs-steady-state curve the single-shot harness
    cannot see. Recompilation always happens on the background compiler
    thread ({!Acsi_aos.System.config.async_compile} is forced on), so
    compile cycles overlap request execution; the stalled configuration
    is {!Acsi_core.Runtime.run}'s.

    The load is a closed loop. Open-loop traffic, arrivals that come
    whether or not the server keeps up, is {!Shards.run}'s (one shard is
    one virtual processor).

    Determinism: each arrival is a completion plus the think time, and
    scheduling follows the virtual clock — two identical invocations
    produce identical schedules, latencies and summaries. *)

type mode =
  | Closed of { clients : int; requests_per_client : int; think : int }
      (** [clients] concurrent clients, each issuing its next request
          [think] cycles after its previous one completes *)

type request = {
  r_id : int;  (** admission order *)
  r_tid : int;  (** scheduler thread id *)
  r_arrival : int;  (** cycle the request entered the system *)
  r_finish : int;
  r_latency : int;  (** finish - arrival, queueing included *)
}

type window = {
  w_first : int;  (** index of the window's first request *)
  w_count : int;
  w_mean_latency : float;
  w_activity : Acsi_core.Metrics.snapshot;
      (** counter diff over the window ({!Acsi_core.Metrics.diff}):
          compiles, samples, AOS cycles attributable to the window *)
}

type summary = {
  sv_workload : string;
  sv_policy : string;
  sv_mode : string;
  sv_requests : int;
  sv_total_cycles : int;
  sv_throughput_rpmc : float;  (** requests per million virtual cycles *)
  sv_mean_latency : float;
  sv_p50 : int;
  sv_p95 : int;
  sv_p99 : int;
  sv_max_latency : int;
  sv_warmup_requests : int;  (** requests until steady state *)
  sv_steady_latency : float;  (** mean latency after warmup *)
  sv_slices : int;
  sv_switches : int;
  sv_max_live : int;
  sv_osr : int;
  sv_opt_compilations : int;
  sv_async_installs : int;
  sv_max_queue_depth : int;
  sv_overlap_instructions : int;
  sv_output_checksum : int;
}

type result = {
  summary : summary;
  requests : request list;  (** completion order *)
  windows : window list;  (** the warmup curve, 8 windows *)
  latency : Acsi_obs.Hist.t;  (** every request's latency *)
}

val run :
  mode:mode ->
  name:string ->
  Acsi_core.Config.t ->
  Acsi_bytecode.Program.t ->
  result
(** Serve the request schedule to completion. [name] labels the summary;
    [cfg] supplies the VM ({!Acsi_core.Runtime.create_vm}: cost model and
    sampling knobs) and the AOS configuration (its [async_compile] field
    is overridden: always [true]). The scheduler runs {!Sched.create}'s
    default quantum and switch cost. *)

val pp_summary : Format.formatter -> summary -> unit

val pp_windows : Format.formatter -> window list -> unit
(** The warmup curve, one line per window. *)
