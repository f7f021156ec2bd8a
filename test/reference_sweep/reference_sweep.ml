(* Runs every cell of the bench's quick sweep — the eight suite programs
   at scale 0.25 under the context-insensitive baseline and each policy
   of [Policy.paper_sweep], with termination statistics on, exactly as
   bench/main.exe --quick configures them — twice: through
   [Runtime.run] (decoded interpreter plus closure tier) and through
   [Runtime.run_reference] (the same adaptive system driven from the
   naive instruction-at-a-time loop). Each cell must agree on output
   and on the whole metrics record, which is a per-cell check of what
   the bench's golden summary only sees in aggregate. Cells are spread
   over 2 domains. Exits non-zero if any cell differs. *)

module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Runtime = Acsi_core.Runtime
module Parallel = Acsi_core.Parallel
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads

let () =
  let cfg = Config.default ~policy:Policy.Context_insensitive in
  let cfg =
    {
      cfg with
      Config.aos =
        { cfg.Config.aos with System.collect_termination_stats = true };
    }
  in
  let programs = Workloads.build_all ~scale_factor:0.25 () in
  let cells =
    List.concat_map
      (fun policy -> List.map (fun (name, p) -> (name, policy, p)) programs)
      (Policy.Context_insensitive :: Policy.paper_sweep)
  in
  let check (name, policy, program) =
    let cfg = Config.with_policy cfg policy in
    let run = Runtime.run cfg program in
    let reference = Runtime.run_reference cfg program in
    List.filter_map
      (fun (what, ok) ->
        if ok then None
        else
          Some
            (Printf.sprintf "%s under %s: %s" name (Policy.to_string policy)
               what))
      [
        ( "output",
          Interp.output run.Runtime.vm = Interp.output reference.Runtime.vm );
        ("metrics record", run.Runtime.metrics = reference.Runtime.metrics);
      ]
  in
  let failures = List.concat (Parallel.map ~jobs:2 check cells) in
  List.iter (Printf.eprintf "reference-sweep: %s differs\n%!") failures;
  if failures <> [] then exit 1;
  Printf.printf "reference-sweep: %d cells agree with the reference loop\n"
    (List.length cells)
