(* Runs the eight suite programs at default scale, and [Shapes]'
   program of every heap shape, on the production engine (closure tier
   included), under a 4096-word minor heap and
   [space_overhead] 20, and checks every run against the same program
   driven from the naive [run_reference] loop and against the AOS-free
   baseline run: output, cycles, counters and the whole metrics
   record. Linked with the debug runtime (see dune), so a store that
   skipped a needed write barrier shows up as a failed runtime assertion
   or as diverging results. Every frame stack here starts at 8 slots and
   grows by doubling, so the suite's deep call chains take the growth
   path many times. Then runs closed-loop serving (db and session, 4
   clients, reactive and statically seeded) and a small sharded fleet
   (the session workload on 2 shards) under the same heap. Both go
   through the scheduler's ready ring and the per-slice clearing of
   parked stacks; the fleet also exercises its int-vector bookkeeping
   and thousands of short thread stacks. Each output checksum is checked
   against the AOS-free run of one request, repeated per served request,
   and the fleet's flow log for conservation. Exits non-zero if anything
   differs. *)

module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Runtime = Acsi_core.Runtime
module Metrics = Acsi_core.Metrics
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Server = Acsi_server.Server
module Shards = Acsi_server.Shards

let counters vm =
  ( Interp.cycles vm,
    Interp.instructions_executed vm,
    Interp.calls_executed vm,
    Interp.guard_hits vm,
    Interp.guard_misses vm )

let () =
  Gc.set { (Gc.get ()) with Gc.verbose = 0 };
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4096; space_overhead = 20 };
  let failures = ref 0 in
  let check name what ok =
    if not ok then begin
      incr failures;
      Printf.eprintf "gc-stress: %s: %s differs\n%!" name what
    end
  in
  let cfg = Config.default ~policy:(Policy.Fixed 3) in
  List.iter
    (fun (name, program) ->
      let on = Runtime.run cfg program in
      let reference = Runtime.run_reference cfg program in
      let base = Runtime.run_no_aos cfg program in
      let out r = Interp.output r.Runtime.vm in
      check name "output (tier vs reference)" (out on = out reference);
      check name "output (tier vs no AOS)" (out on = Interp.output base);
      check name "cycles and counters (tier vs reference)"
        (counters on.Runtime.vm = counters reference.Runtime.vm);
      check name "metrics record (tier vs reference)"
        (on.Runtime.metrics = reference.Runtime.metrics))
    (Workloads.build_all () @ [ ("shapes", Shapes.program ()) ]);
  let build name = (Workloads.find name).Workloads.build ~scale:1 in
  let repeated out n =
    Metrics.checksum (List.concat (List.init n (fun _ -> out)))
  in
  List.iter
    (fun name ->
      let program = build name in
      let one = Interp.output (Runtime.run_no_aos cfg program) in
      List.iter
        (fun seeded ->
          let aos = { cfg.Config.aos with System.static_seed = seeded } in
          let cfg = { cfg with Config.aos } in
          let r =
            Server.run ~name
              ~mode:
                (Server.Closed
                   { clients = 4; requests_per_client = 3; think = 50_000 })
              cfg program
          in
          let label =
            name ^ if seeded then " (serve, seeded)" else " (serve)"
          in
          let served = List.length r.Server.requests in
          check label "requests served" (served = 12);
          check label "output checksum (server vs no AOS)"
            (r.Server.summary.Server.sv_output_checksum = repeated one served))
        [ false; true ])
    [ "db"; "session" ];
  let sessions = 2_000 in
  let session = build "session" in
  let fleet =
    Shards.run ~seed:7 ~pool:2 ~pool_policy:System.Hot_first ~shards:2
      ~sessions ~period:450 ~name:"session" cfg session
  in
  let one = Interp.output (Runtime.run_no_aos cfg session) in
  let served = List.map (fun h -> h.Shards.h_served) fleet.Shards.shard_stats in
  let expected =
    List.fold_left
      (fun acc n -> (acc * 31) + repeated one n + 17)
      0 served
    land max_int
  in
  check "fleet" "sessions served" (List.fold_left ( + ) 0 served = sessions);
  check "fleet" "output checksum (shards vs no AOS)"
    (fleet.Shards.summary.Shards.sh_output_checksum = expected);
  check "fleet" "flow conservation"
    (Shards.flows_conserved fleet.Shards.telemetry);
  let minor = Gc.minor_words () in
  if !failures > 0 then exit 1;
  Printf.printf
    "gc-stress: 9 programs, 4 closed-loop servers and a %d-session fleet \
     agree (%.0fM minor words)\n"
    sessions (minor /. 1e6)
