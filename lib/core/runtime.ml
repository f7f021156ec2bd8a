module Interp = Acsi_vm.Interp

type result = {
  metrics : Metrics.t;
  vm : Interp.t;
  sys : Acsi_aos.System.t;
}

let create_vm (cfg : Config.t) program =
  Interp.create ~cost:cfg.Config.cost ~sample_period:cfg.Config.sample_period
    ~invoke_stride:cfg.Config.invoke_stride program

let run ?profile (cfg : Config.t) program =
  let vm = create_vm cfg program in
  let sys = Acsi_aos.System.create ?profile cfg.Config.aos vm in
  Interp.run ~cycle_limit:cfg.Config.cycle_limit vm;
  { metrics = Metrics.of_run vm sys; vm; sys }

let run_reference (cfg : Config.t) program =
  let vm = create_vm cfg program in
  let sys = Acsi_aos.System.create cfg.Config.aos vm in
  Interp.run_reference ~cycle_limit:cfg.Config.cycle_limit vm;
  { metrics = Metrics.of_run vm sys; vm; sys }

(* Baseline code runs on the closure tier, as under the AOS: each method
   is compiled to closures at its first execution. Closure compiles
   charge no cycles, so the clock is the naive loop's. *)
let run_no_aos (cfg : Config.t) program =
  let vm = create_vm cfg program in
  Interp.set_on_first_execution vm (fun m ->
      Acsi_vm.Tier.install vm m (Interp.code_of vm m));
  Interp.run ~cycle_limit:cfg.Config.cycle_limit vm;
  vm
