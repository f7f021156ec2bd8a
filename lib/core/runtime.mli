(** Couples a program, the VM and the adaptive optimization system into a
    single run. *)

type result = {
  metrics : Metrics.t;
  vm : Acsi_vm.Interp.t;
  sys : Acsi_aos.System.t;
}

val create_vm : Config.t -> Acsi_bytecode.Program.t -> Acsi_vm.Interp.t
(** A fresh VM for the program under the configuration's cost model,
    [sample_period] and [invoke_stride]: the one way a {!Config.t}
    becomes a VM, for single runs, {!run_reference}, {!run_no_aos} and
    every server and shard engine alike. *)

val run :
  ?profile:Acsi_profile.Dcg.t -> Config.t -> Acsi_bytecode.Program.t -> result
(** Execute the program to completion under the adaptive system.
    [profile] seeds the dynamic call graph with a previously collected
    profile (offline profile-directed inlining). *)

val run_reference : Config.t -> Acsi_bytecode.Program.t -> result
(** {!run} with the AOS driven from {!Acsi_vm.Interp.run_reference}, the
    naive instruction-at-a-time loop: the executable specification the
    production engine (closure tier plus one-instruction tails) must
    match on output and on the whole {!Metrics.t}. Exists for
    differential testing. *)

val run_no_aos : Config.t -> Acsi_bytecode.Program.t -> Acsi_vm.Interp.t
(** Execute purely at baseline, no adaptive system (for semantics
    comparisons in tests). Baseline code runs on the closure tier; the
    clock, counters and output equal a bare
    {!Acsi_vm.Interp.run_reference}. *)
