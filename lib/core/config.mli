(** Top-level run configuration: the AOS configuration plus the VM's cost
    model and sampling parameters. *)

type t = {
  aos : Acsi_aos.System.config;
  cost : Acsi_vm.Cost.t;
  sample_period : int;  (** virtual cycles between timer samples *)
  invoke_stride : int;  (** invocations between trace samples *)
  cycle_limit : int;  (** safety limit; {!Acsi_vm.Interp.Cycle_limit_exceeded} *)
}

val default : policy:Acsi_policy.Policy.t -> t
(** The paper's configuration under [policy]: {!Acsi_vm.Cost.default},
    a timer sample every 100_000 cycles and a trace sample every 512th
    invocation. The one place a default of these knobs is stated:
    {!Acsi_vm.Interp.create} has none. *)

val with_policy : t -> Acsi_policy.Policy.t -> t
(** The same configuration under another policy (used by sweeps so every
    policy faces identical parameters). *)
