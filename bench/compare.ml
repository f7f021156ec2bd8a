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
   input and bad arguments also exit 2, with a one-line diagnostic. *)

(* Each SLO key reads one metric of one section of the NEW run; the
   budget holds the metric's maximum over that section's cells. *)
let slo_keys =
  [
    ("p99", ("telemetry", "hist_p99"));
    ("warmup", ("static", "warmup_on"));
    ("deopts", ("telemetry", "deopts"));
    ("guards", ("speculation", "guards_on"));
  ]

let usage =
  "usage: compare.exe OLD.json NEW.json [--old-run N] [--new-run N] \
   [--allow-cross-config] [--slo KEY=BUDGET]...\n\
   SLO keys (checked against the NEW run, violation exits 1): "
  ^ String.concat ", "
      (List.map (fun (k, (s, m)) -> Printf.sprintf "%s (%s %s)" k s m) slo_keys)

let die fmt =
  Format.kasprintf
    (fun m ->
      flush stdout;
      prerr_endline ("compare.exe: " ^ m);
      exit 2)
    fmt

type opts = {
  mutable old_file : string option;
  mutable new_file : string option;
  mutable old_run : int option;  (* index into the trajectory; default last *)
  mutable new_run : int option;
  mutable allow_cross_config : bool;
  mutable slo : (string * int) list;  (* declared budgets, argv order *)
}

let parse_args () =
  let o =
    {
      old_file = None;
      new_file = None;
      old_run = None;
      new_run = None;
      allow_cross_config = false;
      slo = [];
    }
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> die "invalid %s value %s" name v
  in
  let rec go = function
    | [] -> ()
    | "--allow-cross-config" :: rest ->
        o.allow_cross_config <- true;
        go rest
    | "--old-run" :: v :: rest ->
        o.old_run <- Some (int_arg "--old-run" v);
        go rest
    | "--new-run" :: v :: rest ->
        o.new_run <- Some (int_arg "--new-run" v);
        go rest
    | "--slo" :: v :: rest ->
        (match String.index_opt v '=' with
        | Some i ->
            let key = String.sub v 0 i in
            if not (List.mem_assoc key slo_keys) then
              die "unknown SLO key %S (known: %s)" key
                (String.concat ", " (List.map fst slo_keys));
            let budget =
              int_arg "--slo" (String.sub v (i + 1) (String.length v - i - 1))
            in
            o.slo <- o.slo @ [ (key, budget) ]
        | None -> die "invalid --slo value %s (want KEY=BUDGET)" v);
        go rest
    | arg :: rest when o.old_file = None ->
        o.old_file <- Some arg;
        go rest
    | arg :: rest when o.new_file = None ->
        o.new_file <- Some arg;
        go rest
    | arg :: _ -> die "unexpected argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  match (o.old_file, o.new_file) with
  | Some a, Some b -> (o, a, b)
  | _ -> die "two results files required@.%s" usage

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

let () =
  let o, old_path, new_path = parse_args () in
  let old_run, old_i, old_n = load old_path o.old_run in
  let new_run, new_i, new_n = load new_path o.new_run in
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
    if not o.allow_cross_config then
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
      o.slo
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
