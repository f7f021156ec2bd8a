(* Reading and writing BENCH_results.json: the machine-readable side
   channel of the bench driver. A results file holds a *trajectory* — a
   list of runs, one appended per invocation — so the wall-clock history
   of the repo is tracked in one committed file and [compare.exe] can
   diff any two points of it. The parser is a minimal recursive-descent
   JSON reader covering exactly what the writer emits (plus the PR 1
   single-run format, accepted for backward compatibility). *)

type cell = {
  bench : string;
  policy : string;
  wall_s : float;
  total_cycles : int;
}

(* One server-mode (virtual-threaded) cell: deterministic latency and
   throughput figures from Acsi_server.Server. Everything here except
   wall-clock is covered by the determinism contract. *)
type scell = {
  s_bench : string;
  s_policy : string;
  s_requests : int;
  s_total_cycles : int;
  s_throughput_rpmc : float;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
}

(* One traced-sweep cell: the per-AOS-component cycle breakdown measured
   from tracer spans (reconciled against the accounting before being
   recorded — see main.ml). Fully deterministic at a given scale. *)
type ccell = {
  c_bench : string;
  c_policy : string;
  c_components : (string * int) list;
      (* component name -> cycles, in canonical Accounting order *)
}

(* Host-time calibration for one execution-tier bucket: how many virtual
   cycles were charged by that tier's windows and how much host time they
   took. ns-per-virtual-cycle is derived, not stored. Host seconds are
   informational (the host is noisy) — only the bench's --trace mode
   records these. *)
type calib = {
  k_tier : string; (* "interp" | "closure" | "system" *)
  k_cycles : int;
  k_host_s : float;
}

(* One sharded-server cell: the multi-processor serving figures from
   Acsi_server.Shards. Everything here is deterministic for a given
   (workload, shards, pool, sessions, period, scale) — byte-identical
   across --jobs — so compare.exe treats a mismatch as a determinism
   violation, like server cells. *)
type hcell = {
  sh_bench : string;
  sh_policy : string;
  sh_shards : int;
  sh_pool : int;
  sh_pool_policy : string;
  sh_sessions : int;
  sh_period : int;
  sh_makespan : int;
  sh_throughput_spmc : float;
  sh_p50 : int;
  sh_p95 : int;
  sh_p99 : int;
  sh_steals : int;
  sh_fairness : float;
  sh_published : int;
  sh_adopted : int;
}

(* Calibration sanity-check verdict (bench --trace): the measured host
   ns-per-charged-virtual-cycle of the system bucket divided by the app
   execution tier's. The charge constants in Acsi_vm.Cost price system
   work (compilation, organizer, tracing) in the same virtual currency
   as application bytecodes; if a charged system cycle costs wildly
   more (or less) host time than a charged app cycle, the constants
   have drifted from reality. Verdict: "consistent" when the ratio is
   within [0.5, 2.0], "undercharged" above, "overcharged" below. *)
type calcheck = {
  v_app_ns : float; (* host ns per charged cycle, app execution tier *)
  v_system_ns : float; (* host ns per charged cycle, system bucket *)
  v_ratio : float; (* v_system_ns /. v_app_ns *)
  v_verdict : string; (* "consistent" | "undercharged" | "overcharged" *)
}

(* One static-oracle warmup-ablation cell (bench --serve): the same
   closed-loop serve workload run twice — static_seed off, then on —
   at a tiny scale where requests are short enough for the warmup knee
   to be visible. Both halves are deterministic; checksums may licitly
   differ only on workloads whose concurrent requests interleave
   output (the checksum is order-sensitive), never on the others. *)
type pcell = {
  p_bench : string;
  p_policy : string;
  p_requests : int;
  p_warmup_off : int; (* sv_warmup_requests, static_seed off *)
  p_warmup_on : int; (* sv_warmup_requests, static_seed on *)
  p_steady_off : float; (* sv_steady_latency, static_seed off *)
  p_steady_on : float; (* sv_steady_latency, static_seed on *)
  p_checksum_off : int;
  p_checksum_on : int;
}

(* One guards-vs-guard-free ablation cell (bench --deopt): the same
   workload run twice — speculation off, then on — at its full default
   scale. Both halves are deterministic, and the output checksums must
   always agree: guard-free speculative inlining plus deoptimization is
   a performance transform, never a semantic one. *)
type gcell = {
  g_bench : string;
  g_policy : string;
  g_hits_off : int; (* inline-guard hits, speculation off *)
  g_misses_off : int;
  g_hits_on : int;
  g_misses_on : int;
  g_storms_on : int; (* deopts after repeated guard failure, on half *)
  g_invalidated_on : int; (* deopts after class-load invalidation *)
  g_cycles_off : int; (* total_cycles per half *)
  g_cycles_on : int;
  g_checksum_off : int;
  g_checksum_on : int;
}

(* One fleet-telemetry cell (bench --serve, sharded half): the
   observability figures from Acsi_server.Shards.telemetry — histogram
   quantiles, flow-arrow counts with the conservation verdict, and the
   order-sensitive checksum of every per-shard time-series. All of it is
   deterministic for a given cell configuration and byte-identical
   across --jobs, so compare.exe treats any mismatch as a determinism
   violation, and the SLO gate reads its budgets from here. *)
type tcell = {
  t_bench : string;
  t_shards : int;
  t_sessions : int;
  t_interval : int; (* barrier length = series sampling interval *)
  t_hist_p50 : int; (* session-latency histogram quantiles ... *)
  t_hist_p90 : int;
  t_hist_p99 : int;
  t_hist_count : int; (* ... with exact count and sum *)
  t_hist_sum : int;
  t_compile_wait_p99 : int;
  t_deopt_gap_p99 : int;
  t_steal_flows : int; (* complete steal arrows (= sh_steals) *)
  t_adopt_flows : int; (* complete adopt arrows (= sh_adopted) *)
  t_flow_conserved : bool; (* Shards.flows_conserved verdict *)
  t_deopts : int; (* guard + invalidation deopts, all shards *)
  t_series_checksum : int; (* folded over per-shard series checksums *)
}

type run = {
  jobs : int;
  scale_factor : float;
  wall_total_s : float;
  static_seed : bool;
      (* whether the run's cells executed with the static pre-warm
         oracle on (--static-seed); absent in files written before the
         oracle existed, which reads as false *)
  speculate : bool;
      (* whether the run's cells executed with guard-free speculative
         inlining + deoptimization on (--speculate); absent in files
         written before the deopt subsystem existed, which reads as
         false *)
  cells : cell list;
  server : scell list;
      (* empty for runs recorded before server mode existed *)
  shards : hcell list;
      (* empty for runs recorded before the sharded server existed *)
  telemetry : tcell list;
      (* empty for runs recorded before fleet telemetry existed *)
  static : pcell list;
      (* empty for runs recorded before the static oracle existed or
         without --serve *)
  speculation : gcell list;
      (* empty for runs recorded before the deopt subsystem existed or
         without --deopt *)
  components : ccell list;
      (* empty for runs recorded without --trace *)
  calibration : calib list;
      (* empty for runs recorded without --trace *)
  calibration_check : calcheck option;
      (* None for runs recorded without --trace *)
}

(* --- JSON values --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad unicode escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?' (* the writer never emits these *)
              | None -> fail "bad unicode escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_ ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items (v :: acc)
        | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let field () =
        skip_ws ();
        let k = string_ () in
        skip_ws ();
        expect ':';
        let v = value () in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            fields (kv :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      fields []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

(* --- results files --- *)

let field name = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error (Printf.sprintf "expected an object for %S" name))

let num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let cell_of_json j =
  {
    bench = str (field "bench" j);
    policy = str (field "policy" j);
    wall_s = num (field "wall_s" j);
    total_cycles = int_of_float (num (field "total_cycles" j));
  }

let scell_of_json j =
  {
    s_bench = str (field "bench" j);
    s_policy = str (field "policy" j);
    s_requests = int_of_float (num (field "requests" j));
    s_total_cycles = int_of_float (num (field "total_cycles" j));
    s_throughput_rpmc = num (field "throughput_rpmc" j);
    s_p50 = int_of_float (num (field "p50" j));
    s_p95 = int_of_float (num (field "p95" j));
    s_p99 = int_of_float (num (field "p99" j));
  }

let ccell_of_json j =
  {
    c_bench = str (field "bench" j);
    c_policy = str (field "policy" j);
    c_components =
      (match field "components" j with
      | Obj kvs -> List.map (fun (k, v) -> (k, int_of_float (num v))) kvs
      | _ -> raise (Parse_error "expected an object of component cycles"));
  }

let hcell_of_json j =
  {
    sh_bench = str (field "bench" j);
    sh_policy = str (field "policy" j);
    sh_shards = int_of_float (num (field "shards" j));
    sh_pool = int_of_float (num (field "pool" j));
    sh_pool_policy = str (field "pool_policy" j);
    sh_sessions = int_of_float (num (field "sessions" j));
    sh_period = int_of_float (num (field "period" j));
    sh_makespan = int_of_float (num (field "makespan" j));
    sh_throughput_spmc = num (field "throughput_spmc" j);
    sh_p50 = int_of_float (num (field "p50" j));
    sh_p95 = int_of_float (num (field "p95" j));
    sh_p99 = int_of_float (num (field "p99" j));
    sh_steals = int_of_float (num (field "steals" j));
    sh_fairness = num (field "fairness" j);
    sh_published = int_of_float (num (field "published" j));
    sh_adopted = int_of_float (num (field "adopted" j));
  }

(* Output checksums use the full 63-bit int range, beyond a float's 53
   bits of exact precision, so they travel as JSON strings. *)
let checksum_field name j =
  match int_of_string_opt (str (field name j)) with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "bad checksum in %S" name))

let tcell_of_json j =
  {
    t_bench = str (field "bench" j);
    t_shards = int_of_float (num (field "shards" j));
    t_sessions = int_of_float (num (field "sessions" j));
    t_interval = int_of_float (num (field "interval" j));
    t_hist_p50 = int_of_float (num (field "hist_p50" j));
    t_hist_p90 = int_of_float (num (field "hist_p90" j));
    t_hist_p99 = int_of_float (num (field "hist_p99" j));
    t_hist_count = int_of_float (num (field "hist_count" j));
    (* Sums and checksums use the full 63-bit range: strings. *)
    t_hist_sum = checksum_field "hist_sum" j;
    t_compile_wait_p99 = int_of_float (num (field "compile_wait_p99" j));
    t_deopt_gap_p99 = int_of_float (num (field "deopt_gap_p99" j));
    t_steal_flows = int_of_float (num (field "steal_flows" j));
    t_adopt_flows = int_of_float (num (field "adopt_flows" j));
    t_flow_conserved =
      (match field "flow_conserved" j with
      | Bool b -> b
      | _ -> raise (Parse_error "expected a bool for flow_conserved"));
    t_deopts = int_of_float (num (field "deopts" j));
    t_series_checksum = checksum_field "series_checksum" j;
  }

let pcell_of_json j =
  {
    p_bench = str (field "bench" j);
    p_policy = str (field "policy" j);
    p_requests = int_of_float (num (field "requests" j));
    p_warmup_off = int_of_float (num (field "warmup_off" j));
    p_warmup_on = int_of_float (num (field "warmup_on" j));
    p_steady_off = num (field "steady_off" j);
    p_steady_on = num (field "steady_on" j);
    p_checksum_off = checksum_field "checksum_off" j;
    p_checksum_on = checksum_field "checksum_on" j;
  }

let gcell_of_json j =
  {
    g_bench = str (field "bench" j);
    g_policy = str (field "policy" j);
    g_hits_off = int_of_float (num (field "hits_off" j));
    g_misses_off = int_of_float (num (field "misses_off" j));
    g_hits_on = int_of_float (num (field "hits_on" j));
    g_misses_on = int_of_float (num (field "misses_on" j));
    g_storms_on = int_of_float (num (field "storms_on" j));
    g_invalidated_on = int_of_float (num (field "invalidated_on" j));
    g_cycles_off = int_of_float (num (field "cycles_off" j));
    g_cycles_on = int_of_float (num (field "cycles_on" j));
    g_checksum_off = checksum_field "checksum_off" j;
    g_checksum_on = checksum_field "checksum_on" j;
  }

let calcheck_of_json j =
  {
    v_app_ns = num (field "app_ns" j);
    v_system_ns = num (field "system_ns" j);
    v_ratio = num (field "ratio" j);
    v_verdict = str (field "verdict" j);
  }

let calib_of_json j =
  {
    k_tier = str (field "tier" j);
    k_cycles = int_of_float (num (field "cycles" j));
    k_host_s = num (field "host_s" j);
  }

let run_of_json j =
  {
    jobs = int_of_float (num (field "jobs" j));
    scale_factor = num (field "scale_factor" j);
    wall_total_s = num (field "wall_total_s" j);
    (* Runs written while the closure tier could be switched off also
       carry a "tier" key; it is ignored. *)
    static_seed =
      (* Absent in files written before the static oracle existed:
         those runs were purely reactive. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "static_seed" kvs with
          | None | Some Null -> false
          | Some (Bool b) -> b
          | Some _ -> raise (Parse_error "expected a bool for static_seed"))
      | _ -> false);
    speculate =
      (* Absent in files written before the deopt subsystem existed:
         those runs never speculated. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "speculate" kvs with
          | None | Some Null -> false
          | Some (Bool b) -> b
          | Some _ -> raise (Parse_error "expected a bool for speculate"))
      | _ -> false);
    cells =
      (match field "cells" j with
      | Arr cells -> List.map cell_of_json cells
      | _ -> raise (Parse_error "expected an array of cells"));
    server =
      (* Absent in files written before server mode existed. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "server" kvs with
          | None | Some Null -> []
          | Some (Arr scells) -> List.map scell_of_json scells
          | Some _ ->
              raise (Parse_error "expected an array under \"server\""))
      | _ -> []);
    shards =
      (* Absent in files written before the sharded server existed. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "shards" kvs with
          | None | Some Null -> []
          | Some (Arr hcells) -> List.map hcell_of_json hcells
          | Some _ ->
              raise (Parse_error "expected an array under \"shards\""))
      | _ -> []);
    telemetry =
      (* Absent in files written before fleet telemetry existed. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "telemetry" kvs with
          | None | Some Null -> []
          | Some (Arr tcells) -> List.map tcell_of_json tcells
          | Some _ ->
              raise (Parse_error "expected an array under \"telemetry\""))
      | _ -> []);
    static =
      (* Absent in files written before the static-oracle ablation. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "static" kvs with
          | None | Some Null -> []
          | Some (Arr pcells) -> List.map pcell_of_json pcells
          | Some _ ->
              raise (Parse_error "expected an array under \"static\""))
      | _ -> []);
    speculation =
      (* Absent in files written before the deopt subsystem existed. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "speculation" kvs with
          | None | Some Null -> []
          | Some (Arr gcells) -> List.map gcell_of_json gcells
          | Some _ ->
              raise (Parse_error "expected an array under \"speculation\""))
      | _ -> []);
    components =
      (* Absent in files written without a traced sweep. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "components" kvs with
          | None | Some Null -> []
          | Some (Arr ccells) -> List.map ccell_of_json ccells
          | Some _ ->
              raise (Parse_error "expected an array under \"components\""))
      | _ -> []);
    calibration =
      (* Absent in files written without a traced sweep. *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "calibration" kvs with
          | None | Some Null -> []
          | Some (Arr cs) -> List.map calib_of_json cs
          | Some _ ->
              raise (Parse_error "expected an array under \"calibration\""))
      | _ -> []);
    calibration_check =
      (* Absent in files written without a traced sweep (or before the
         sanity check existed). *)
      (match j with
      | Obj kvs -> (
          match List.assoc_opt "calibration_check" kvs with
          | None | Some Null -> None
          | Some v -> Some (calcheck_of_json v))
      | _ -> None);
  }

(* A trajectory file is {"runs": [...]}; a bare run object (the PR 1
   format) reads as a one-run trajectory. *)
let runs_of_json j =
  match j with
  | Obj kvs when List.mem_assoc "runs" kvs -> (
      match List.assoc "runs" kvs with
      | Arr runs -> List.map run_of_json runs
      | _ -> raise (Parse_error "expected an array under \"runs\""))
  | j -> [ run_of_json j ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  runs_of_json (parse contents)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let output_run oc r ~last =
  Printf.fprintf oc
    "    {\n\
    \      \"jobs\": %d,\n\
    \      \"scale_factor\": %g,\n\
    \      \"wall_total_s\": %.6f,\n\
    \      \"static_seed\": %b,\n\
    \      \"speculate\": %b,\n\
    \      \"cells\": [\n"
    r.jobs r.scale_factor r.wall_total_s r.static_seed
    r.speculate;
  let last_cell = List.length r.cells - 1 in
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "        {\"bench\": \"%s\", \"policy\": \"%s\", \"wall_s\": %.6f, \
         \"total_cycles\": %d}%s\n"
        (json_escape c.bench) (json_escape c.policy) c.wall_s c.total_cycles
        (if i = last_cell then "" else ","))
    r.cells;
  Printf.fprintf oc "      ]";
  (* The server section is only written when present, so trajectories
     without server-mode runs keep their exact prior shape. *)
  if r.server <> [] then begin
    Printf.fprintf oc ",\n      \"server\": [\n";
    let last_s = List.length r.server - 1 in
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"policy\": \"%s\", \"requests\": %d, \
           \"total_cycles\": %d, \"throughput_rpmc\": %.6f, \"p50\": %d, \
           \"p95\": %d, \"p99\": %d}%s\n"
          (json_escape s.s_bench) (json_escape s.s_policy) s.s_requests
          s.s_total_cycles s.s_throughput_rpmc s.s_p50 s.s_p95 s.s_p99
          (if i = last_s then "" else ","))
      r.server;
    Printf.fprintf oc "      ]"
  end;
  (* The shards section is likewise only written when the sharded
     server ran (bench --serve on a repo with lib/server/shards). *)
  if r.shards <> [] then begin
    Printf.fprintf oc ",\n      \"shards\": [\n";
    let last_h = List.length r.shards - 1 in
    List.iteri
      (fun i h ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"policy\": \"%s\", \"shards\": %d, \
           \"pool\": %d, \"pool_policy\": \"%s\", \"sessions\": %d, \
           \"period\": %d, \"makespan\": %d, \"throughput_spmc\": %.6f, \
           \"p50\": %d, \"p95\": %d, \"p99\": %d, \"steals\": %d, \
           \"fairness\": %.6f, \"published\": %d, \"adopted\": %d}%s\n"
          (json_escape h.sh_bench) (json_escape h.sh_policy) h.sh_shards
          h.sh_pool
          (json_escape h.sh_pool_policy)
          h.sh_sessions h.sh_period h.sh_makespan h.sh_throughput_spmc h.sh_p50
          h.sh_p95 h.sh_p99 h.sh_steals h.sh_fairness h.sh_published
          h.sh_adopted
          (if i = last_h then "" else ","))
      r.shards;
    Printf.fprintf oc "      ]"
  end;
  (* The telemetry section is likewise only written when the sharded
     server ran with fleet telemetry (bench --serve). *)
  if r.telemetry <> [] then begin
    Printf.fprintf oc ",\n      \"telemetry\": [\n";
    let last_t = List.length r.telemetry - 1 in
    List.iteri
      (fun i t ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"shards\": %d, \"sessions\": %d, \
           \"interval\": %d, \"hist_p50\": %d, \"hist_p90\": %d, \
           \"hist_p99\": %d, \"hist_count\": %d, \"hist_sum\": \"%d\", \
           \"compile_wait_p99\": %d, \"deopt_gap_p99\": %d, \"steal_flows\": \
           %d, \"adopt_flows\": %d, \"flow_conserved\": %b, \"deopts\": %d, \
           \"series_checksum\": \"%d\"}%s\n"
          (json_escape t.t_bench) t.t_shards t.t_sessions t.t_interval
          t.t_hist_p50 t.t_hist_p90 t.t_hist_p99 t.t_hist_count t.t_hist_sum
          t.t_compile_wait_p99 t.t_deopt_gap_p99 t.t_steal_flows
          t.t_adopt_flows t.t_flow_conserved t.t_deopts t.t_series_checksum
          (if i = last_t then "" else ","))
      r.telemetry;
    Printf.fprintf oc "      ]"
  end;
  (* The static-oracle ablation section is likewise only written when
     bench --serve ran it. *)
  if r.static <> [] then begin
    Printf.fprintf oc ",\n      \"static\": [\n";
    let last_p = List.length r.static - 1 in
    List.iteri
      (fun i p ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"policy\": \"%s\", \"requests\": %d, \
           \"warmup_off\": %d, \"warmup_on\": %d, \"steady_off\": %.6f, \
           \"steady_on\": %.6f, \"checksum_off\": \"%d\", \"checksum_on\": \
           \"%d\"}%s\n"
          (json_escape p.p_bench) (json_escape p.p_policy) p.p_requests
          p.p_warmup_off p.p_warmup_on p.p_steady_off p.p_steady_on
          p.p_checksum_off p.p_checksum_on
          (if i = last_p then "" else ","))
      r.static;
    Printf.fprintf oc "      ]"
  end;
  (* The guards-vs-guard-free ablation section is likewise only written
     when bench --deopt ran it. *)
  if r.speculation <> [] then begin
    Printf.fprintf oc ",\n      \"speculation\": [\n";
    let last_g = List.length r.speculation - 1 in
    List.iteri
      (fun i g ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"policy\": \"%s\", \"hits_off\": %d, \
           \"misses_off\": %d, \"hits_on\": %d, \"misses_on\": %d, \
           \"storms_on\": %d, \"invalidated_on\": %d, \"cycles_off\": %d, \
           \"cycles_on\": %d, \"checksum_off\": \"%d\", \"checksum_on\": \
           \"%d\"}%s\n"
          (json_escape g.g_bench) (json_escape g.g_policy) g.g_hits_off
          g.g_misses_off g.g_hits_on g.g_misses_on g.g_storms_on
          g.g_invalidated_on g.g_cycles_off g.g_cycles_on g.g_checksum_off
          g.g_checksum_on
          (if i = last_g then "" else ","))
      r.speculation;
    Printf.fprintf oc "      ]"
  end;
  (* Likewise only written when a traced sweep ran. *)
  if r.components <> [] then begin
    Printf.fprintf oc ",\n      \"components\": [\n";
    let last_c = List.length r.components - 1 in
    List.iteri
      (fun i c ->
        Printf.fprintf oc
          "        {\"bench\": \"%s\", \"policy\": \"%s\", \"components\": {"
          (json_escape c.c_bench) (json_escape c.c_policy);
        List.iteri
          (fun k (nm, cycles) ->
            Printf.fprintf oc "%s\"%s\": %d"
              (if k = 0 then "" else ", ")
              (json_escape nm) cycles)
          c.c_components;
        Printf.fprintf oc "}}%s\n" (if i = last_c then "" else ","))
      r.components;
    Printf.fprintf oc "      ]"
  end;
  (* Likewise only written when --trace measured host time per tier. *)
  if r.calibration <> [] then begin
    Printf.fprintf oc ",\n      \"calibration\": [\n";
    let last_k = List.length r.calibration - 1 in
    List.iteri
      (fun i k ->
        Printf.fprintf oc
          "        {\"tier\": \"%s\", \"cycles\": %d, \"host_s\": %.6f}%s\n"
          (json_escape k.k_tier) k.k_cycles k.k_host_s
          (if i = last_k then "" else ","))
      r.calibration;
    Printf.fprintf oc "      ]"
  end;
  (* Likewise only written when --trace computed the sanity verdict. *)
  (match r.calibration_check with
  | None -> ()
  | Some v ->
      Printf.fprintf oc
        ",\n\
        \      \"calibration_check\": {\"app_ns\": %.6f, \"system_ns\": \
         %.6f, \"ratio\": %.6f, \"verdict\": \"%s\"}"
        v.v_app_ns v.v_system_ns v.v_ratio (json_escape v.v_verdict));
  Printf.fprintf oc "\n    }%s\n" (if last then "" else ",")

let write_file path runs =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"runs\": [\n";
  let last = List.length runs - 1 in
  List.iteri (fun i r -> output_run oc r ~last:(i = last)) runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc
