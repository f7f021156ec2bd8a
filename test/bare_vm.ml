(* A VM with no adaptive system, built the way every run builds one:
   [Runtime.create_vm] over [Config.default]'s cost model and sampling
   knobs. A test that needs its own timer period or invocation stride
   states it here; every other knob is the configured default. The
   policy is the AOS's, which a bare VM never reads. *)

module Config = Acsi_core.Config

let create ?sample_period ?invoke_stride program =
  let cfg = Config.default ~policy:Acsi_policy.Policy.Context_insensitive in
  let pick v d = Option.value v ~default:d in
  Acsi_core.Runtime.create_vm
    {
      cfg with
      Config.sample_period = pick sample_period cfg.Config.sample_period;
      invoke_stride = pick invoke_stride cfg.Config.invoke_stride;
    }
    program
