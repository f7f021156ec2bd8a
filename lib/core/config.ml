type t = {
  aos : Acsi_aos.System.config;
  cost : Acsi_vm.Cost.t;
  sample_period : int;
  invoke_stride : int;
  cycle_limit : int;
}

let default ~policy =
  {
    aos = Acsi_aos.System.default_config policy;
    cost = Acsi_vm.Cost.default;
    sample_period = 100_000;
    invoke_stride = 512;
    cycle_limit = 4_000_000_000;
  }

let with_policy t policy =
  { t with aos = { t.aos with Acsi_aos.System.policy } }
