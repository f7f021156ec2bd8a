(* Diff two BENCH_results.json files (or two runs of one trajectory
   file) on the virtual clock, and gate a run against declared SLO
   budgets.

     compare.exe OLD.json NEW.json [--old-run N] [--new-run N]
                 [--allow-cross-config] [--slo KEY=BUDGET]...

   By default the *last* run of each file is compared (a results file is
   a trajectory; see results.ml). Every recorded figure is a pure
   function of the run's scale and configuration, so at equal scale and
   equal config every metric of every cell found in both runs must be
   identical; a mismatch means the simulated execution itself changed,
   which the determinism contract forbids, and exits 1.

   A run's config names the non-default knobs it applied (--static-seed,
   --speculate). Those knobs change figures by design, so comparing runs
   whose configs differ at equal scale would report a knob's intended
   effect as a regression: refused with exit 2 unless
   --allow-cross-config, which skips the identity checks. Malformed
   input also exits 2, with a one-line diagnostic; a bad argument is a
   usage error (exit 124). *)

(* Each SLO key reads one metric of one section of the NEW run; the
   budget holds the metric's maximum over that section's cells. *)
let slo_keys =
  [
    ("p99", ("telemetry", "hist_p99"));
    ("warmup", ("static", "warmup_on"));
    ("deopts", ("telemetry", "deopts"));
    ("guards", ("speculation", "guards_on"));
  ]

let die fmt =
  Format.kasprintf
    (fun m ->
      flush stdout;
      prerr_endline ("compare.exe: " ^ m);
      exit 2)
    fmt

let load path idx =
  let runs =
    try Results.read_file path with
    | Sys_error msg -> die "%s" msg
    | Results.Parse_error msg -> die "%s: %s" path msg
  in
  let n = List.length runs in
  if n = 0 then die "%s: no runs" path;
  let i = match idx with Some i -> i | None -> n - 1 in
  if i >= n then die "%s: run %d requested but only %d recorded" path i n;
  (List.nth runs i, i, n)

let config_label = function [] -> "default" | knobs -> String.concat "," knobs

(* The knobs one config applies and the other does not. *)
let differing_knobs a b =
  List.filter
    (fun k -> List.mem k a <> List.mem k b)
    (List.sort_uniq compare (a @ b))

let main old_path new_path old_run new_run allow_cross_config slo =
  let old_run, old_i, old_n = load old_path old_run in
  let new_run, new_i, new_n = load new_path new_run in
  let header tag path i n (r : Results.run) =
    Printf.printf "%s: %s (run %d/%d)  jobs %d  scale %g  config %s\n" tag path
      i (n - 1) r.Results.jobs r.Results.scale_factor
      (config_label r.Results.config)
  in
  header "old" old_path old_i old_n old_run;
  header "new" new_path new_i new_n new_run;
  let same_scale =
    old_run.Results.scale_factor = new_run.Results.scale_factor
  in
  let knobs = differing_knobs old_run.Results.config new_run.Results.config in
  if not same_scale then
    print_endline
      "note: scale factors differ — figures are not comparable, identity \
       checks skipped";
  if same_scale && knobs <> [] then begin
    if not allow_cross_config then
      die
        "refusing to compare runs whose configs differ at equal scale (%s): \
         those knobs change figures by design. Pass --allow-cross-config to \
         compare anyway (identity checks are then skipped)."
        (String.concat ", " knobs);
    Printf.printf "note: configs differ (%s) — identity checks skipped\n"
      (String.concat ", " knobs)
  end;
  let check = same_scale && knobs = [] in
  (* The identity loop: every metric of every cell found in both runs. *)
  let old_cells = Hashtbl.create 256 in
  List.iter
    (fun (c : Results.cell) ->
      Hashtbl.replace old_cells (c.Results.section, c.Results.key) c)
    old_run.Results.cells;
  let only_new = ref 0 and matched = ref 0 and mismatches = ref [] in
  List.iter
    (fun (c : Results.cell) ->
      let id = (c.Results.section, c.Results.key) in
      match Hashtbl.find_opt old_cells id with
      | None -> incr only_new
      | Some old_c ->
          Hashtbl.remove old_cells id;
          incr matched;
          let value (c : Results.cell) m =
            Option.value ~default:"(absent)"
              (List.assoc_opt m c.Results.metrics)
          in
          if check then
            List.iter
              (fun m ->
                let ov = value old_c m and nv = value c m in
                if ov <> nv then mismatches := (id, m, ov, nv) :: !mismatches)
              (List.map fst c.Results.metrics
              @ List.filter
                  (fun m -> not (List.mem_assoc m c.Results.metrics))
                  (List.map fst old_c.Results.metrics)))
    new_run.Results.cells;
  Printf.printf "\ncells: %d in both runs, %d only in old, %d only in new\n"
    !matched (Hashtbl.length old_cells) !only_new;
  (* The SLO gate: declared budgets are checked against the NEW run's
     cells — the same numbers the identity loop holds byte-stable — so a
     budget can only regress when the simulated behaviour itself
     regressed. A declared budget with no recorded data is a violation
     too: a gate that silently passes because the section went missing
     is not a gate. *)
  let slo_violations =
    List.filter_map
      (fun (key, budget) ->
        let section, metric = List.assoc key slo_keys in
        let values =
          List.filter_map
            (fun (c : Results.cell) ->
              if c.Results.section <> section then None
              else
                Option.map
                  (fun v ->
                    match int_of_string_opt v with
                    | Some n -> n
                    | None ->
                        die "%s: %s %s: %s is not an integer: %s" new_path
                          section c.Results.key metric v)
                  (List.assoc_opt metric c.Results.metrics))
            new_run.Results.cells
        in
        match values with
        | [] -> Some (key, budget, None)
        | v :: vs ->
            let m = List.fold_left max v vs in
            if m > budget then Some (key, budget, Some m)
            else begin
              Printf.printf "SLO ok: %s %d within budget %d\n" key m budget;
              None
            end)
      slo
  in
  if !mismatches <> [] then begin
    Printf.printf "\nDETERMINISM VIOLATION: %d metrics changed:\n"
      (List.length !mismatches);
    List.iter
      (fun ((section, key), m, ov, nv) ->
        Printf.printf "  %s %s: %s %s -> %s\n" section key m ov nv)
      (List.rev !mismatches)
  end;
  if slo_violations <> [] then begin
    Printf.printf "\nSLO VIOLATION on %d budgets:\n"
      (List.length slo_violations);
    List.iter
      (fun (key, budget, measured) ->
        match measured with
        | Some m ->
            Printf.printf "  %s: measured %d exceeds budget %d\n" key m budget
        | None ->
            Printf.printf
              "  %s: budget %d declared but the new run recorded no data for \
               it\n"
              key budget)
      slo_violations
  end;
  if !mismatches <> [] || slo_violations <> [] then exit 1

open Cmdliner
module Cli = Acsi_cli.Cli

(* KEY=BUDGET, KEY one of [slo_keys] and BUDGET an integer >= 0. *)
let slo =
  let parse v =
    match String.index_opt v '=' with
    | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', want KEY=BUDGET" v))
    | Some i ->
        let key = String.sub v 0 i in
        if List.mem_assoc key slo_keys then
          Result.map
            (fun budget -> (key, budget))
            (Arg.conv_parser (Cli.at_least 0)
               (String.sub v (i + 1) (String.length v - i - 1)))
        else
          Error
            (`Msg
              (Printf.sprintf "unknown SLO key '%s' (known: %s)" key
                 (String.concat ", " (List.map fst slo_keys))))
  in
  Arg.conv (parse, fun ppf (k, b) -> Format.fprintf ppf "%s=%d" k b)

let run_arg name which =
  Arg.(
    value
    & opt (some (Cli.at_least 0)) None
    & info [ name ] ~docv:"N"
        ~doc:
          (Printf.sprintf "Compare run $(docv) of %s (default: its last)."
             which))

let results_arg n docv =
  Arg.(required & pos n (some string) None & info [] ~docv)

let cmd =
  let doc = "diff two benchmark results files on the virtual clock" in
  let exits =
    Cmd.Exit.info 1 ~doc:"on a determinism or SLO violation."
    :: Cmd.Exit.info 2
         ~doc:"on unreadable or malformed input, or configs that differ."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "compare.exe" ~doc ~exits)
    Term.(
      const main $ results_arg 0 "OLD.json" $ results_arg 1 "NEW.json"
      $ run_arg "old-run" "OLD.json" $ run_arg "new-run" "NEW.json"
      $ Arg.(
          value & flag
          & info [ "allow-cross-config" ]
              ~doc:
                "Compare runs whose configs differ at equal scale, skipping \
                 the identity checks.")
      $ Arg.(
          value & opt_all slo []
          & info [ "slo" ] ~docv:"KEY=BUDGET"
              ~doc:
                ("Exit 1 when KEY's metric in the NEW run exceeds BUDGET. \
                  Keys: "
                ^ String.concat ", "
                    (List.map
                       (fun (k, (s, m)) -> Printf.sprintf "%s (%s %s)" k s m)
                       slo_keys)
                ^ ".")))

let () = exit (Cmd.eval cmd)
