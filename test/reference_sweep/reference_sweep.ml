(* Runs every cell of the bench's quick sweep — [Experiment]'s paper
   sweep (the eight suite programs under the context-insensitive
   baseline and each of the 24 policies, termination statistics on) at
   scale factor 0.25, the definition bench/main.exe --quick reads too —
   twice: through
   [Runtime.run] (the closure tier and its one-instruction tails) and through
   [Runtime.run_reference] (the same adaptive system driven from the
   naive instruction-at-a-time loop). Each cell must agree on output,
   on the whole metrics record, which is a per-cell check of what the
   bench's golden summary only sees in aggregate, and on the clock
   reading at every timer sample: a window that ends one instruction
   late samples the same method and leaves every metric alone, but not
   the sample times. Both runs are driven as [Runtime.run] and
   [Runtime.run_reference] drive them, with the AOS's timer hook
   wrapped to record the clock. Cells are spread over 2 domains. Exits
   non-zero if any cell differs. *)

module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Experiment = Acsi_core.Experiment
module Parallel = Acsi_core.Parallel
module Policy = Acsi_policy.Policy
module Metrics = Acsi_core.Metrics

let drive run (cfg : Config.t) program =
  let vm = Acsi_core.Runtime.create_vm cfg program in
  let sys = System.create cfg.Config.aos vm in
  let samples = ref [] and hook = vm.Interp.on_timer_sample in
  Interp.set_on_timer_sample vm (fun vm ->
      samples := Interp.cycles vm :: !samples;
      hook vm);
  run ~cycle_limit:cfg.Config.cycle_limit vm;
  (Interp.output vm, Metrics.of_run vm sys, !samples)

let () =
  let cfg =
    Experiment.paper_config (Config.default ~policy:Policy.Context_insensitive)
  in
  let benches = Experiment.paper_benches ~scale_factor:0.25 in
  let cells =
    List.concat_map
      (fun policy -> List.map (fun b -> (policy, b)) benches)
      Experiment.paper_policies
  in
  let check (policy, { Experiment.name; program }) =
    let cfg = Config.with_policy cfg policy in
    let out, metrics, samples =
      drive (fun ~cycle_limit vm -> Interp.run ~cycle_limit vm) cfg program
    in
    let out', metrics', samples' =
      drive
        (fun ~cycle_limit vm -> Interp.run_reference ~cycle_limit vm)
        cfg program
    in
    List.filter_map
      (fun (what, ok) ->
        if ok then None
        else
          Some
            (Printf.sprintf "%s under %s: %s" name (Policy.to_string policy)
               what))
      [
        ("output", out = out');
        ("metrics record", metrics = metrics');
        ("timer sample times", samples = samples');
      ]
  in
  let failures = List.concat (Parallel.map ~jobs:2 check cells) in
  List.iter (Printf.eprintf "reference-sweep: %s differs\n%!") failures;
  if failures <> [] then exit 1;
  Printf.printf "reference-sweep: %d cells agree with the reference loop\n"
    (List.length cells)
