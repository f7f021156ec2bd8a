(* Diff two BENCH_results.json files (or two runs of one trajectory
   file): per-cell wall-clock deltas, sorted by magnitude, plus the
   totals — one command to spot a performance regression after a change.

     compare.exe OLD.json NEW.json [--all] [--old-run N] [--new-run N]
                 [--allow-cross-seed] [--allow-cross-spec]

   By default the *last* run of each file is compared (a results file is
   a trajectory; see results.ml). Wall-clock deltas are informational —
   the host is noisy — but a total_cycles mismatch between runs at the
   same scale factor means the simulated execution itself changed, which
   the determinism contract forbids; that exits non-zero.

   When both runs recorded a host-time calibration section, the
   per-bucket ns-per-virtual-cycle drift is reported informationally.

   Runs are stamped with whether the static pre-warm oracle was on
   (--static-seed). Seeding is a measured behaviour change — cycle
   counts legitimately differ — so comparing across the
   stamp at equal scale would report the oracle's effect as a
   regression; refused unless --allow-cross-seed (which also waives the
   cycle-identity check, since the identity does not hold across the
   seed). When both runs carry a "static" warmup-ablation section, the
   per-workload warmup-requests deltas are diffed like every other
   deterministic cell.

   The --speculate stamp (guard-free speculative inlining + deopt) is
   the same shape as the seed stamp: cycle counts legitimately move
   under speculation, so a cross-spec comparison at equal scale is
   refused unless --allow-cross-spec (which likewise waives the
   cycle-identity check). When both runs carry a "speculation"
   guards-vs-guard-free section, its guard counts, deopt counts and
   checksums are held to the determinism contract like every other
   deterministic cell. *)

let usage =
  "usage: compare.exe OLD.json NEW.json [--all] [--old-run N] [--new-run N] \
   [--allow-cross-seed] [--allow-cross-spec] [--slo KEY=BUDGET]...\n\
   SLO keys (checked against the NEW run, violation exits 1): p99 \
   (telemetry session-latency p99), warmup (static-ablation seeded warmup \
   requests), deopts (telemetry deopt count), guards (speculation guard \
   checks, on half)"

let die fmt = Format.kasprintf (fun m -> prerr_endline m; exit 2) fmt

type opts = {
  mutable old_file : string option;
  mutable new_file : string option;
  mutable all : bool;
  mutable old_run : int option;  (* index into the trajectory; default last *)
  mutable new_run : int option;
  mutable allow_cross_seed : bool;
  mutable allow_cross_spec : bool;
  mutable slo : (string * int) list;  (* declared budgets, argv order *)
}

let parse_args () =
  let o =
    {
      old_file = None;
      new_file = None;
      all = false;
      old_run = None;
      new_run = None;
      allow_cross_seed = false;
      allow_cross_spec = false;
      slo = [];
    }
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> die "invalid %s value %s@.%s" name v usage
  in
  let rec go = function
    | [] -> ()
    | "--all" :: rest ->
        o.all <- true;
        go rest
    | "--allow-cross-seed" :: rest ->
        o.allow_cross_seed <- true;
        go rest
    | "--allow-cross-spec" :: rest ->
        o.allow_cross_spec <- true;
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
            let budget =
              int_arg "--slo"
                (String.sub v (i + 1) (String.length v - i - 1))
            in
            if
              not (List.mem key [ "p99"; "warmup"; "deopts"; "guards" ])
            then die "unknown SLO key %S@.%s" key usage;
            o.slo <- o.slo @ [ (key, budget) ]
        | None -> die "invalid --slo value %s (want KEY=BUDGET)@.%s" v usage);
        go rest
    | arg :: rest when o.old_file = None ->
        o.old_file <- Some arg;
        go rest
    | arg :: rest when o.new_file = None ->
        o.new_file <- Some arg;
        go rest
    | arg :: _ -> die "unexpected argument %s@.%s" arg usage
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

let () =
  let o, old_path, new_path = parse_args () in
  let old_run, old_i, old_n = load old_path o.old_run in
  let new_run, new_i, new_n = load new_path o.new_run in
  let seed_label r =
    if r.Results.static_seed then "seeded" else "reactive"
  in
  let spec_label r =
    if r.Results.speculate then "speculative" else "guarded"
  in
  Printf.printf
    "old: %s (run %d/%d)  jobs %d  scale %g  %s  %s  wall_total %.2fs\n"
    old_path old_i (old_n - 1) old_run.Results.jobs old_run.Results.scale_factor
    (seed_label old_run) (spec_label old_run)
    old_run.Results.wall_total_s;
  Printf.printf
    "new: %s (run %d/%d)  jobs %d  scale %g  %s  %s  wall_total %.2fs\n"
    new_path new_i (new_n - 1) new_run.Results.jobs new_run.Results.scale_factor
    (seed_label new_run) (spec_label new_run)
    new_run.Results.wall_total_s;
  let same_scale =
    old_run.Results.scale_factor = new_run.Results.scale_factor
  in
  if not same_scale then
    print_endline
      "note: scale factors differ — cycle counts are not comparable, only \
       reporting wall-clock";
  (* The static-seed stamp: a seeded run's cycle counts legitimately
     differ from a reactive run's, so at equal scale the determinism
     check below would report the oracle's intended effect as a
     violation. Refuse, and when overridden, skip the cycle checks
     rather than fail them. *)
  let cross_seed =
    old_run.Results.static_seed <> new_run.Results.static_seed
  in
  if same_scale && cross_seed && not o.allow_cross_seed then
    die
      "refusing to compare a %s run against a %s run at equal scale: the \
       static pre-warm oracle changes cycle counts by design, so the diff \
       would measure the oracle, not the change under test. Pass \
       --allow-cross-seed to compare anyway (cycle-identity checks are \
       then skipped)."
      (seed_label old_run) (seed_label new_run);
  (* The speculate stamp has the same force as the seed stamp: guard-free
     inlining legitimately changes cycle counts (that is its point), so a
     cross-spec diff at equal scale would report the subsystem's intended
     effect as a regression. Refuse, and when overridden, skip the cycle
     checks rather than fail them. *)
  let cross_spec =
    old_run.Results.speculate <> new_run.Results.speculate
  in
  if same_scale && cross_spec && not o.allow_cross_spec then
    die
      "refusing to compare a %s run against a %s run at equal scale: \
       guard-free speculative inlining changes cycle counts by design, so \
       the diff would measure the speculation, not the change under test. \
       Pass --allow-cross-spec to compare anyway (cycle-identity checks \
       are then skipped)."
      (spec_label old_run) (spec_label new_run);
  let check_cycles = same_scale && not cross_seed && not cross_spec in
  (* Cost-model drift: when both runs measured host time per charged
     virtual cycle, report how much each bucket's measured cost moved.
     Informational only — the host is noisy — but a large drift means
     wall-clock comparisons against older trajectory points are suspect. *)
  (match (old_run.Results.calibration, new_run.Results.calibration) with
  | [], _ | _, [] -> ()
  | old_cal, new_cal ->
      Printf.printf "\ncalibration drift (host ns per charged virtual cycle):\n";
      List.iter
        (fun (nk : Results.calib) ->
          let ns (k : Results.calib) =
            if k.Results.k_cycles = 0 then 0.0
            else k.Results.k_host_s *. 1e9 /. float_of_int k.Results.k_cycles
          in
          match
            List.find_opt
              (fun (ok : Results.calib) ->
                ok.Results.k_tier = nk.Results.k_tier)
              old_cal
          with
          | Some ok ->
              let o_ns = ns ok and n_ns = ns nk in
              Printf.printf "  %-8s %8.2f -> %8.2f ns/cycle (%+.1f%%)\n"
                nk.Results.k_tier o_ns n_ns
                (if o_ns > 0.0 then (n_ns -. o_ns) /. o_ns *. 100.0 else 0.0)
          | None ->
              Printf.printf "  %-8s (new)  %8.2f ns/cycle\n" nk.Results.k_tier
                (ns nk))
        new_cal);
  (* Charge-constant sanity verdicts (bench --trace): a verdict flip
     between runs means the measured host cost of a charged system cycle
     moved across the consistency band relative to app execution — the
     Cost constants (or the host) changed character. Informational, like
     all host-time figures, but worth a loud note. *)
  (match
     (old_run.Results.calibration_check, new_run.Results.calibration_check)
   with
  | None, None -> ()
  | None, Some n ->
      Printf.printf
        "\ncalibration check (new): ratio %.2f, verdict %s (no old verdict)\n"
        n.Results.v_ratio n.Results.v_verdict
  | Some o, None ->
      Printf.printf
        "\ncalibration check: old run had verdict %s, new run recorded none\n"
        o.Results.v_verdict
  | Some o, Some n ->
      Printf.printf "\ncalibration check: ratio %.2f -> %.2f, verdict %s -> %s\n"
        o.Results.v_ratio n.Results.v_ratio o.Results.v_verdict
        n.Results.v_verdict;
      if o.Results.v_verdict <> n.Results.v_verdict then
        Printf.printf
          "  WARNING: charge-constant verdict flipped (%s -> %s) — the \
           system charge constants have drifted relative to measured host \
           cost\n"
          o.Results.v_verdict n.Results.v_verdict);
  let old_cells = Hashtbl.create 64 in
  List.iter
    (fun (c : Results.cell) ->
      Hashtbl.replace old_cells (c.Results.bench, c.Results.policy) c)
    old_run.Results.cells;
  let matched = ref [] in
  let added = ref [] in
  let cycle_mismatches = ref [] in
  List.iter
    (fun (c : Results.cell) ->
      let key = (c.Results.bench, c.Results.policy) in
      match Hashtbl.find_opt old_cells key with
      | None -> added := key :: !added
      | Some old_c ->
          Hashtbl.remove old_cells key;
          if check_cycles && old_c.Results.total_cycles <> c.Results.total_cycles
          then cycle_mismatches := (key, old_c, c) :: !cycle_mismatches;
          matched := (key, old_c.Results.wall_s, c.Results.wall_s) :: !matched)
    new_run.Results.cells;
  let removed = Hashtbl.fold (fun key _ acc -> key :: acc) old_cells [] in
  let deltas =
    List.map (fun (key, o, n) -> (key, o, n, n -. o)) !matched
    |> List.sort (fun (_, _, _, a) (_, _, _, b) ->
           Float.compare (Float.abs b) (Float.abs a))
  in
  let shown = if o.all then deltas else
    (let rec take k = function
       | x :: rest when k > 0 -> x :: take (k - 1) rest
       | _ -> []
     in
     take 15 deltas)
  in
  Printf.printf "\n%-10s %-22s %9s %9s %9s %8s\n" "bench" "policy" "old ms"
    "new ms" "delta ms" "delta %";
  List.iter
    (fun ((bench, policy), o, n, d) ->
      Printf.printf "%-10s %-22s %9.1f %9.1f %+9.1f %+7.1f%%\n" bench policy
        (o *. 1e3) (n *. 1e3) (d *. 1e3)
        (if o > 0.0 then d /. o *. 100.0 else 0.0))
    shown;
  if not o.all && List.length deltas > List.length shown then
    Printf.printf "  ... %d more cells (--all to list)\n"
      (List.length deltas - List.length shown);
  let sum f = List.fold_left (fun acc (_, o, n, _) -> acc +. f o n) 0.0 deltas in
  let old_sum = sum (fun o _ -> o) and new_sum = sum (fun _ n -> n) in
  Printf.printf
    "\ntotals over %d matched cells: %.2fs -> %.2fs (%+.2fs, %+.1f%%)\n"
    (List.length deltas) old_sum new_sum (new_sum -. old_sum)
    (if old_sum > 0.0 then (new_sum -. old_sum) /. old_sum *. 100.0 else 0.0);
  List.iter
    (fun (bench, policy) ->
      Printf.printf "cell only in new run: %s/%s\n" bench policy)
    (List.rev !added);
  List.iter
    (fun (bench, policy) ->
      Printf.printf "cell only in old run: %s/%s\n" bench policy)
    removed;
  (* Server cells carry the same determinism contract: at equal scale,
     matched (bench, policy) server cells must agree on cycles and the
     latency percentiles. Runs recorded before server mode existed have
     no server section, so nothing matches and nothing is checked. *)
  let server_mismatches = ref [] in
  if check_cycles then begin
    let old_scells = Hashtbl.create 8 in
    List.iter
      (fun (s : Results.scell) ->
        Hashtbl.replace old_scells (s.Results.s_bench, s.Results.s_policy) s)
      old_run.Results.server;
    List.iter
      (fun (s : Results.scell) ->
        match
          Hashtbl.find_opt old_scells (s.Results.s_bench, s.Results.s_policy)
        with
        | Some o
          when o.Results.s_total_cycles <> s.Results.s_total_cycles
               || o.Results.s_p50 <> s.Results.s_p50
               || o.Results.s_p95 <> s.Results.s_p95
               || o.Results.s_p99 <> s.Results.s_p99 ->
            server_mismatches := (o, s) :: !server_mismatches
        | Some _ | None -> ())
      new_run.Results.server
  end;
  (* Sharded-server cells carry the determinism contract in full: for a
     given (bench, policy, shards, pool, pool_policy, sessions, period)
     configuration at equal scale, the makespan, latency percentiles and
     steal count are all pure functions of the configuration — byte-
     identical across --jobs — so any drift is a violation. Runs
     recorded before the sharded server existed have no shards section,
     so nothing matches and nothing is checked. *)
  let shard_mismatches = ref [] in
  if check_cycles then begin
    let old_hcells = Hashtbl.create 8 in
    let hkey (h : Results.hcell) =
      ( h.Results.sh_bench,
        h.Results.sh_policy,
        h.Results.sh_shards,
        h.Results.sh_pool,
        h.Results.sh_pool_policy,
        h.Results.sh_sessions,
        h.Results.sh_period )
    in
    List.iter
      (fun (h : Results.hcell) -> Hashtbl.replace old_hcells (hkey h) h)
      old_run.Results.shards;
    List.iter
      (fun (h : Results.hcell) ->
        match Hashtbl.find_opt old_hcells (hkey h) with
        | Some o
          when o.Results.sh_makespan <> h.Results.sh_makespan
               || o.Results.sh_p50 <> h.Results.sh_p50
               || o.Results.sh_p95 <> h.Results.sh_p95
               || o.Results.sh_p99 <> h.Results.sh_p99
               || o.Results.sh_steals <> h.Results.sh_steals ->
            shard_mismatches := (o, h) :: !shard_mismatches
        | Some _ | None -> ())
      new_run.Results.shards
  end;
  (* Fleet-telemetry cells carry the contract in full as well: for a
     given (bench, shards, sessions, interval) configuration at equal
     scale, every recorded figure — histogram quantiles, exact
     count/sum, flow counts, the conservation verdict and the
     order-sensitive series checksum — is byte-identical across --jobs
     and across repeated runs, so any drift is a violation. Runs
     recorded before fleet telemetry existed have no telemetry section,
     so nothing matches and nothing is checked. *)
  let telemetry_mismatches = ref [] in
  if check_cycles then begin
    let old_tcells = Hashtbl.create 8 in
    let tkey (t : Results.tcell) =
      ( t.Results.t_bench,
        t.Results.t_shards,
        t.Results.t_sessions,
        t.Results.t_interval )
    in
    List.iter
      (fun (t : Results.tcell) -> Hashtbl.replace old_tcells (tkey t) t)
      old_run.Results.telemetry;
    List.iter
      (fun (t : Results.tcell) ->
        match Hashtbl.find_opt old_tcells (tkey t) with
        | Some o when o <> t ->
            telemetry_mismatches := (o, t) :: !telemetry_mismatches
        | Some _ | None -> ())
      new_run.Results.telemetry
  end;
  (* Static warmup-ablation cells: report the per-workload
     warmup-requests movement between the two runs, and hold the cells
     to the determinism contract at equal scale. The section is
     self-contained (each cell embeds its own off/on halves, both run
     with an explicit seed setting), so it is comparable even across
     the global seed stamp. *)
  let static_mismatches = ref [] in
  (match (old_run.Results.static, new_run.Results.static) with
  | [], _ | _, [] -> ()
  | old_static, new_static ->
      Printf.printf
        "\nstatic-oracle warmup ablation (requests to steady state, \
         off -> on):\n";
      List.iter
        (fun (n : Results.pcell) ->
          match
            List.find_opt
              (fun (p : Results.pcell) ->
                p.Results.p_bench = n.Results.p_bench
                && p.Results.p_policy = n.Results.p_policy)
              old_static
          with
          | Some old_p ->
              Printf.printf
                "  %-10s old %3d -> %3d   new %3d -> %3d   (seeding delta \
                 %+d old, %+d new)\n"
                n.Results.p_bench old_p.Results.p_warmup_off
                old_p.Results.p_warmup_on n.Results.p_warmup_off
                n.Results.p_warmup_on
                (old_p.Results.p_warmup_on - old_p.Results.p_warmup_off)
                (n.Results.p_warmup_on - n.Results.p_warmup_off);
              if
                same_scale
                && (old_p.Results.p_warmup_off <> n.Results.p_warmup_off
                   || old_p.Results.p_warmup_on <> n.Results.p_warmup_on
                   || old_p.Results.p_checksum_off <> n.Results.p_checksum_off
                   || old_p.Results.p_checksum_on <> n.Results.p_checksum_on)
              then static_mismatches := (old_p, n) :: !static_mismatches
          | None ->
              Printf.printf "  %-10s (new)  %3d -> %3d\n" n.Results.p_bench
                n.Results.p_warmup_off n.Results.p_warmup_on)
        new_static);
  (* Speculation (guards-vs-guard-free) cells: report each workload's
     guard-check movement between the two runs, and hold every recorded
     figure to the determinism contract at equal scale. Like the static
     section, each cell embeds its own off/on halves with explicit
     settings, so it is comparable even across the global --speculate
     stamp. *)
  let spec_mismatches = ref [] in
  (match (old_run.Results.speculation, new_run.Results.speculation) with
  | [], _ | _, [] -> ()
  | old_spec, new_spec ->
      Printf.printf
        "\nguards-vs-guard-free ablation (guard checks, off -> on):\n";
      List.iter
        (fun (n : Results.gcell) ->
          let checks_off (g : Results.gcell) =
            g.Results.g_hits_off + g.Results.g_misses_off
          in
          let checks_on (g : Results.gcell) =
            g.Results.g_hits_on + g.Results.g_misses_on
          in
          match
            List.find_opt
              (fun (g : Results.gcell) ->
                g.Results.g_bench = n.Results.g_bench
                && g.Results.g_policy = n.Results.g_policy)
              old_spec
          with
          | Some old_g ->
              Printf.printf
                "  %-10s old %6d -> %-6d   new %6d -> %-6d   (deopts %d \
                 storm + %d invalidated)\n"
                n.Results.g_bench (checks_off old_g) (checks_on old_g)
                (checks_off n) (checks_on n) n.Results.g_storms_on
                n.Results.g_invalidated_on;
              if
                same_scale
                && (old_g.Results.g_hits_off <> n.Results.g_hits_off
                   || old_g.Results.g_misses_off <> n.Results.g_misses_off
                   || old_g.Results.g_hits_on <> n.Results.g_hits_on
                   || old_g.Results.g_misses_on <> n.Results.g_misses_on
                   || old_g.Results.g_storms_on <> n.Results.g_storms_on
                   || old_g.Results.g_invalidated_on
                      <> n.Results.g_invalidated_on
                   || old_g.Results.g_checksum_off <> n.Results.g_checksum_off
                   || old_g.Results.g_checksum_on <> n.Results.g_checksum_on)
              then spec_mismatches := (old_g, n) :: !spec_mismatches
          | None ->
              Printf.printf "  %-10s (new)  %6d -> %-6d\n" n.Results.g_bench
                (checks_off n) (checks_on n))
        new_spec);
  (* Traced component breakdowns carry the contract too: at equal scale,
     matched (bench, policy) component cells must agree on every
     component's cycle count — the per-component split is deterministic,
     not just the totals. Runs recorded without --trace have no
     components section, so nothing matches and nothing is checked. *)
  let component_mismatches = ref [] in
  if check_cycles then begin
    let old_ccells = Hashtbl.create 8 in
    List.iter
      (fun (c : Results.ccell) ->
        Hashtbl.replace old_ccells (c.Results.c_bench, c.Results.c_policy) c)
      old_run.Results.components;
    List.iter
      (fun (c : Results.ccell) ->
        match
          Hashtbl.find_opt old_ccells (c.Results.c_bench, c.Results.c_policy)
        with
        | Some o when o.Results.c_components <> c.Results.c_components ->
            component_mismatches := (o, c) :: !component_mismatches
        | Some _ | None -> ())
      new_run.Results.components
  end;
  (* The SLO gate: declared budgets are checked against the NEW run's
     recorded sections — the same numbers the determinism checks above
     hold byte-stable — so a budget can only regress when the simulated
     behaviour itself regressed. A declared budget with no recorded
     data is a violation too: a gate that silently passes because the
     section went missing is not a gate. *)
  let slo_violations = ref [] in
  List.iter
    (fun (key, budget) ->
      let max_over f = function
        | [] -> None
        | cells ->
            Some
              (List.fold_left (fun acc c -> max acc (f c)) min_int cells)
      in
      let measured =
        match key with
        | "p99" ->
            max_over
              (fun (t : Results.tcell) -> t.Results.t_hist_p99)
              new_run.Results.telemetry
        | "deopts" ->
            max_over
              (fun (t : Results.tcell) -> t.Results.t_deopts)
              new_run.Results.telemetry
        | "warmup" ->
            max_over
              (fun (p : Results.pcell) -> p.Results.p_warmup_on)
              new_run.Results.static
        | "guards" ->
            max_over
              (fun (g : Results.gcell) ->
                g.Results.g_hits_on + g.Results.g_misses_on)
              new_run.Results.speculation
        | _ -> None
      in
      match measured with
      | None ->
          slo_violations :=
            (key, budget, None) :: !slo_violations
      | Some m when m > budget ->
          slo_violations := (key, budget, Some m) :: !slo_violations
      | Some m -> Printf.printf "SLO ok: %s %d within budget %d\n" key m budget)
    o.slo;
  if
    !cycle_mismatches <> [] || !server_mismatches <> []
    || !shard_mismatches <> []
    || !telemetry_mismatches <> []
    || !static_mismatches <> []
    || !spec_mismatches <> []
    || !component_mismatches <> []
    || !slo_violations <> []
  then begin
    if !cycle_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: total_cycles changed on %d cells:\n"
        (List.length !cycle_mismatches);
      List.iter
        (fun ((bench, policy), (o : Results.cell), (n : Results.cell)) ->
          Printf.printf "  %s/%s: %d -> %d\n" bench policy
            o.Results.total_cycles n.Results.total_cycles)
        (List.rev !cycle_mismatches)
    end;
    if !server_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: server cells changed on %d cells:\n"
        (List.length !server_mismatches);
      List.iter
        (fun ((o : Results.scell), (n : Results.scell)) ->
          Printf.printf
            "  %s/%s: cycles %d -> %d, p50/p95/p99 %d/%d/%d -> %d/%d/%d\n"
            n.Results.s_bench n.Results.s_policy o.Results.s_total_cycles
            n.Results.s_total_cycles o.Results.s_p50 o.Results.s_p95
            o.Results.s_p99 n.Results.s_p50 n.Results.s_p95 n.Results.s_p99)
        (List.rev !server_mismatches)
    end;
    if !shard_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: sharded-server cells changed on %d cells:\n"
        (List.length !shard_mismatches);
      List.iter
        (fun ((o : Results.hcell), (n : Results.hcell)) ->
          Printf.printf
            "  %s/%s shards=%d pool=%d/%s: makespan %d -> %d, p50/p95/p99 \
             %d/%d/%d -> %d/%d/%d, steals %d -> %d\n"
            n.Results.sh_bench n.Results.sh_policy n.Results.sh_shards
            n.Results.sh_pool n.Results.sh_pool_policy o.Results.sh_makespan
            n.Results.sh_makespan o.Results.sh_p50 o.Results.sh_p95
            o.Results.sh_p99 n.Results.sh_p50 n.Results.sh_p95 n.Results.sh_p99
            o.Results.sh_steals n.Results.sh_steals)
        (List.rev !shard_mismatches)
    end;
    if !telemetry_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: fleet-telemetry cells changed on %d \
         cells:\n"
        (List.length !telemetry_mismatches);
      List.iter
        (fun ((o : Results.tcell), (n : Results.tcell)) ->
          Printf.printf
            "  %s shards=%d: latency p50/p90/p99 %d/%d/%d -> %d/%d/%d, \
             count %d -> %d, flows %d+%d -> %d+%d (conserved %b -> %b), \
             deopts %d -> %d, series checksum %s\n"
            n.Results.t_bench n.Results.t_shards o.Results.t_hist_p50
            o.Results.t_hist_p90 o.Results.t_hist_p99 n.Results.t_hist_p50
            n.Results.t_hist_p90 n.Results.t_hist_p99 o.Results.t_hist_count
            n.Results.t_hist_count o.Results.t_steal_flows
            o.Results.t_adopt_flows n.Results.t_steal_flows
            n.Results.t_adopt_flows o.Results.t_flow_conserved
            n.Results.t_flow_conserved o.Results.t_deopts n.Results.t_deopts
            (if o.Results.t_series_checksum = n.Results.t_series_checksum
             then "unchanged"
             else "changed"))
        (List.rev !telemetry_mismatches)
    end;
    if !static_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: static warmup-ablation cells changed on \
         %d cells:\n"
        (List.length !static_mismatches);
      List.iter
        (fun ((o : Results.pcell), (n : Results.pcell)) ->
          Printf.printf
            "  %s/%s: warmup off/on %d/%d -> %d/%d, checksums %s\n"
            n.Results.p_bench n.Results.p_policy o.Results.p_warmup_off
            o.Results.p_warmup_on n.Results.p_warmup_off n.Results.p_warmup_on
            (if
               o.Results.p_checksum_off = n.Results.p_checksum_off
               && o.Results.p_checksum_on = n.Results.p_checksum_on
             then "unchanged"
             else "changed"))
        (List.rev !static_mismatches)
    end;
    if !spec_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: guards-vs-guard-free cells changed on %d \
         cells:\n"
        (List.length !spec_mismatches);
      List.iter
        (fun ((o : Results.gcell), (n : Results.gcell)) ->
          Printf.printf
            "  %s/%s: guards off %d/%d -> %d/%d, on %d/%d -> %d/%d, deopts \
             %d+%d -> %d+%d, checksums %s\n"
            n.Results.g_bench n.Results.g_policy o.Results.g_hits_off
            o.Results.g_misses_off n.Results.g_hits_off n.Results.g_misses_off
            o.Results.g_hits_on o.Results.g_misses_on n.Results.g_hits_on
            n.Results.g_misses_on o.Results.g_storms_on
            o.Results.g_invalidated_on n.Results.g_storms_on
            n.Results.g_invalidated_on
            (if
               o.Results.g_checksum_off = n.Results.g_checksum_off
               && o.Results.g_checksum_on = n.Results.g_checksum_on
             then "unchanged"
             else "changed"))
        (List.rev !spec_mismatches)
    end;
    if !component_mismatches <> [] then begin
      Printf.printf
        "\nDETERMINISM VIOLATION: per-component breakdown changed on %d \
         cells:\n"
        (List.length !component_mismatches);
      List.iter
        (fun ((o : Results.ccell), (n : Results.ccell)) ->
          Printf.printf "  %s/%s:\n" n.Results.c_bench n.Results.c_policy;
          List.iter
            (fun (nm, cycles) ->
              let old_cycles =
                match List.assoc_opt nm o.Results.c_components with
                | Some v -> v
                | None -> 0
              in
              if old_cycles <> cycles then
                Printf.printf "    %s: %d -> %d\n" nm old_cycles cycles)
            n.Results.c_components;
          List.iter
            (fun (nm, old_cycles) ->
              if not (List.mem_assoc nm n.Results.c_components) then
                Printf.printf "    %s: %d -> (absent)\n" nm old_cycles)
            o.Results.c_components)
        (List.rev !component_mismatches)
    end;
    if !slo_violations <> [] then begin
      Printf.printf "\nSLO VIOLATION on %d budgets:\n"
        (List.length !slo_violations);
      List.iter
        (fun (key, budget, measured) ->
          match measured with
          | Some m ->
              Printf.printf "  %s: measured %d exceeds budget %d\n" key m
                budget
          | None ->
              Printf.printf
                "  %s: budget %d declared but the new run recorded no data \
                 for it\n"
                key budget)
        (List.rev !slo_violations)
    end;
    exit 1
  end
