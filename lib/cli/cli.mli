(** The command-line knob table shared by [acsi-run] and [bench/main.exe]:
    typed converters, one term per shared knob, and the one function that
    turns the knobs into a run configuration.

    Every value is checked where the command line is parsed. An unknown
    or out-of-range value is a usage error naming the option (cmdliner's
    exit 124), never an exception from inside a run nor a run that
    silently adjusts it. *)

open Cmdliner

(** {2 Converters} *)

val at_least : int -> int Arg.conv

val positive_float : float Arg.conv
(** Finite and [> 0]. *)

val pool_policy : Acsi_aos.System.compile_queue_policy Arg.conv

(** {2 Shared knobs} *)

val policy_arg : Acsi_policy.Policy.t Term.t
(** [-p]/[--policy], default fixed(max=3). *)

val bench_arg : default:string -> string -> Acsi_workloads.Workloads.spec Term.t
(** [-b]/[--bench] with the subcommand's default benchmark and doc. *)

val benches_arg :
  default:string list -> string -> Acsi_workloads.Workloads.spec list Term.t
(** [-b]/[--bench] as comma-separated names; empty names are skipped. *)

val scale_arg : int option Term.t
(** [-s]/[--scale], an absolute workload scale; [None] is the benchmark's
    default, which {!scale_for} resolves. *)

val scale_for : Acsi_workloads.Workloads.spec -> int option -> int

val jobs_arg : ?names:string list -> default:int -> string -> int Term.t
(** [--jobs] (and [-j] unless [names] says otherwise), [>= 1], with the
    binary's own default and doc string. *)

val static_seed_arg : bool Term.t
val speculate_arg : bool Term.t
val verbose_arg : bool Term.t

(** {2 The run configuration} *)

val config :
  policy:Acsi_policy.Policy.t ->
  static_seed:bool ->
  speculate:bool ->
  Acsi_core.Config.t
(** {!Acsi_core.Config.default} with the static pre-warm oracle and
    guard-free speculation set as given. Speculation implies on-stack
    replacement both ways, so recompiles activate at once and reverted
    methods drain their stale frames. *)

val config_term :
  ?policy:Acsi_policy.Policy.t Term.t ->
  ?speculate:bool Term.t ->
  unit ->
  Acsi_core.Config.t Term.t
(** {!config} over [--policy], [--static-seed] and [--speculate]; a
    binary without the policy or speculate option passes a constant. *)
