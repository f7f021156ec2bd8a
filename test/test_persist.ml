(* Tests for profile serialization and the offline profile-directed
   experiment it enables. *)

open Acsi_bytecode
open Acsi_profile
open Acsi_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mid n = Ids.Method_id.of_int n

let trace callee chain =
  Trace.make ~callee:(mid callee)
    ~chain:(List.map (fun (c, s) -> { Trace.caller = mid c; callsite = s }) chain)

let test_roundtrip () =
  let dcg = Dcg.create () in
  for _ = 1 to 7 do
    Dcg.add_sample dcg (trace 3 [ (1, 2) ])
  done;
  for _ = 1 to 4 do
    Dcg.add_sample dcg (trace 4 [ (1, 2); (5, 6) ])
  done;
  let restored = Persist.of_string (Persist.to_string dcg) in
  check_bool "weights restored" true
    (Dcg.weight restored (trace 3 [ (1, 2) ]) = 7.0
    && Dcg.weight restored (trace 4 [ (1, 2); (5, 6) ]) = 4.0);
  check_int "size restored" (Dcg.size dcg) (Dcg.size restored);
  check_bool "total restored" true
    (Dcg.total_weight restored = Dcg.total_weight dcg)

let test_stable_output () =
  let dcg = Dcg.create () in
  Dcg.add_sample dcg (trace 2 [ (9, 1) ]);
  Dcg.add_sample dcg (trace 1 [ (8, 0) ]);
  let s1 = Persist.to_string dcg in
  let s2 = Persist.to_string (Persist.of_string s1) in
  Alcotest.(check string) "canonical form is a fixed point" s1 s2

let test_malformed_inputs () =
  let bad input =
    match Persist.of_string input with
    | _ -> Alcotest.failf "accepted malformed input %S" input
    | exception Persist.Malformed _ -> ()
  in
  bad "";
  bad "not-a-header\n";
  bad "acsi-profile 1\ntrace\n";
  bad "acsi-profile 1\ntrace x 1.0 1:2\n";
  bad "acsi-profile 1\ntrace 3 1.0 nonsense\n";
  bad "acsi-profile 1\ntrace 3 1.0 1:2:3\n"

let test_file_roundtrip () =
  let dcg = Dcg.create () in
  Dcg.add_sample dcg (trace 3 [ (1, 2) ]);
  let path = Filename.temp_file "acsi_profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save path dcg;
      let restored = Persist.load path in
      check_int "file roundtrip" (Dcg.size dcg) (Dcg.size restored))

(* A heavy trace restores in one step: a weight of a billion loads well
   inside a second, and small weights give exactly the DCG that replaying
   them sample by sample builds (weights, total, site views). *)
let test_heavy_weights () =
  let t0 = Unix.gettimeofday () in
  let big = Persist.of_string "acsi-profile 1\ntrace 3 1e9 1:2\n" in
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "1e9-weight line loads in under a second" true (dt < 1.0);
  check_bool "weight is exact" true (Dcg.weight big (trace 3 [ (1, 2) ]) = 1e9);
  let text =
    "acsi-profile 1\ntrace 3 7 1:2\ntrace 4 0.4 1:2 5:6\ntrace 3 2.6 9:1\n"
  in
  let replayed = Dcg.create () in
  List.iter
    (fun (n, tr) ->
      for _ = 1 to n do
        Dcg.add_sample replayed tr
      done)
    [ (7, trace 3 [ (1, 2) ]); (1, trace 4 [ (1, 2); (5, 6) ]); (3, trace 3 [ (9, 1) ]) ];
  let restored = Persist.of_string text in
  Alcotest.(check string) "same profile as the replay"
    (Persist.to_string replayed) (Persist.to_string restored);
  check_bool "same total" true
    (Dcg.total_weight restored = Dcg.total_weight replayed);
  Alcotest.(check (list (pair int (float 0.0))))
    "same site view"
    (List.map (fun ((m : Ids.Method_id.t), w) -> ((m :> int), w))
       (Dcg.site_distribution replayed ~caller:(mid 1) ~callsite:2))
    (List.map (fun ((m : Ids.Method_id.t), w) -> ((m :> int), w))
       (Dcg.site_distribution restored ~caller:(mid 1) ~callsite:2))

(* The offline experiment: collect a profile in run 1, seed run 2 with it;
   the seeded run must reach its inlining decisions with at most as many
   optimizing compilations as the cold run (no warm-up churn). *)
let test_offline_seeding () =
  let spec = Acsi_workloads.Workloads.find "jbb" in
  let program =
    spec.Acsi_workloads.Workloads.build ~scale:25
  in
  let cfg = Config.default ~policy:(Acsi_policy.Policy.Fixed 3) in
  let cold = Runtime.run cfg program in
  let collected = Acsi_aos.System.dcg cold.Runtime.sys in
  let profile = Persist.of_string (Persist.to_string collected) in
  let seeded = Runtime.run ~profile cfg program in
  Alcotest.(check (list int))
    "output unchanged"
    (Acsi_vm.Interp.output cold.Runtime.vm)
    (Acsi_vm.Interp.output seeded.Runtime.vm);
  check_bool "seeded run has rules from the first epoch" true
    (seeded.Runtime.metrics.Metrics.rule_count > 0);
  (* A mature profile from the start changes compilation churn in either
     direction (earlier rules, but also earlier missing-edge passes); it
     must stay in the same ballpark. *)
  check_bool "seeded compilation churn stays bounded" true
    (seeded.Runtime.metrics.Metrics.opt_compilations
    <= (2 * cold.Runtime.metrics.Metrics.opt_compilations) + 4)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "stable canonical output" `Quick test_stable_output;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed_inputs;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "heavy weights restore in one step" `Quick
      test_heavy_weights;
    Alcotest.test_case "offline profile seeding" `Quick test_offline_seeding;
  ]
