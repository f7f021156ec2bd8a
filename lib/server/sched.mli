(** Deterministic round-robin scheduler for virtual threads.

    Multiplexes N {!Acsi_vm.Interp} threads over the shared virtual cycle
    clock with quantum-based preemption. Preemption happens only at the
    interpreter's cycle-budget window boundaries (its yield points), so
    AOS sampling in threaded runs fires at thread switches exactly as in
    Jikes RVM. Everything is driven by the virtual clock — no wall clock,
    no host threads — so a schedule is a pure function of (program,
    config, spawn order) and replays identically.

    The scheduler keeps no per-thread history: its state is the ready
    ring plus a few counters, so a server that runs millions of threads
    through one scheduler holds only the live ones. Callers that want
    per-thread facts collect them from {!run_slice}'s results. *)

type t

val quantum : int
(** The per-slice cycle budget of every server and shard scheduler:
    25_000 virtual cycles. *)

val create :
  ?quantum:int ->
  ?switch_cost:int ->
  ?cycle_limit:int ->
  ?on_switch:(unit -> unit) ->
  ?tracer:Acsi_obs.Tracer.t ->
  Acsi_vm.Interp.t ->
  t
(** [quantum] (default {!quantum}) is the per-slice cycle budget.
    [switch_cost] (default 200 virtual cycles) is charged to the shared clock
    whenever a slice runs a different thread than the previous slice (the
    context-switch tax). Servers and shards take both defaults; the
    scheduler's own tests pass tiny quanta to force interleavings.
    [on_switch] runs at the start of every slice, after the switch charge
    and before the thread resumes — the server uses it to install
    finished background compilations at thread-switch yield points. [tracer] (default {!Acsi_obs.Tracer.null}) receives one
    span per slice on a per-thread [vthread-N] track. *)

val spawn : t -> int
(** Register a fresh thread running the program's [main]; returns its
    thread id. The thread becomes runnable immediately (appended to the
    round-robin ready ring). *)

val live : t -> int
(** Threads spawned but not yet completed. *)

val max_live : t -> int
(** High-water mark of {!live} over the scheduler's lifetime. *)

val run_slice : t -> (int * Acsi_vm.Interp.thread_status) option
(** Resume the next ready thread for one quantum. Returns its id and
    whether it completed, or [None] when no thread is ready. *)

val slices : t -> int
(** Slices executed so far. *)

val switches : t -> int
(** Slices that changed the running thread (charged [switch_cost]). *)

val max_resume_gap : t -> int
(** Fairness witness: the maximum number of slices any thread ever
    waited between two consecutive resumes (or between spawn and first
    resume). Under round-robin this is bounded by the number of
    simultaneously live threads — the no-starvation invariant the test
    suite pins. *)
