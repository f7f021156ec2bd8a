module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Metrics = Acsi_core.Metrics

type mode =
  | Closed of { clients : int; requests_per_client : int; think : int }

type request = {
  r_id : int;
  r_tid : int;
  r_arrival : int;
  r_finish : int;
  r_latency : int;
}

type window = {
  w_first : int;
  w_count : int;
  w_mean_latency : float;
  w_activity : Metrics.snapshot;
}

type summary = {
  sv_workload : string;
  sv_policy : string;
  sv_mode : string;
  sv_requests : int;
  sv_total_cycles : int;
  sv_throughput_rpmc : float;
  sv_mean_latency : float;
  sv_p50 : int;
  sv_p95 : int;
  sv_p99 : int;
  sv_max_latency : int;
  sv_warmup_requests : int;
  sv_steady_latency : float;
  sv_slices : int;
  sv_switches : int;
  sv_max_live : int;
  sv_osr : int;
  sv_opt_compilations : int;
  sv_async_installs : int;
  sv_max_queue_depth : int;
  sv_overlap_instructions : int;
  sv_output_checksum : int;
}

type result = {
  summary : summary;
  requests : request list;
  windows : window list;
  latency : Acsi_obs.Hist.t;
}

let mode_string (Closed { clients; requests_per_client; think }) =
  Printf.sprintf "closed(clients=%d,requests=%d,think=%d)" clients
    requests_per_client think

(* Pending admissions, kept sorted by arrival cycle; insertion is stable
   (FIFO among equal arrivals), so the admission order — and with it
   every thread id — is deterministic. *)
let insert_pending pending (arrival, client) =
  let rec go = function
    | [] -> [ (arrival, client) ]
    | (a, c) :: rest when a <= arrival -> (a, c) :: go rest
    | rest -> (arrival, client) :: rest
  in
  go pending

let run ~mode ~name (cfg : Config.t) program =
  let (Closed { clients; requests_per_client; think }) = mode in
  if clients <= 0 || requests_per_client <= 0 then
    invalid_arg "Server.run: no requests";
  let n_total = clients * requests_per_client in
  let vm = Acsi_core.Runtime.create_vm cfg program in
  let aos = { cfg.Config.aos with System.async_compile = true } in
  let sys = System.create aos vm in
  let tracer = System.tracer sys in
  let sched =
    Sched.create ~cycle_limit:cfg.Config.cycle_limit
      ~on_switch:(fun () -> System.poll_async_installs sys)
      ~tracer vm
  in
  (* Every client sends its first request at cycle 0. *)
  let pending = ref (List.init clients (fun c -> (0, c))) in
  let remaining = Array.make clients (requests_per_client - 1) in
  let next_rid = ref 0 in
  let by_tid : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  (* tid -> (rid, arrival, client) *)
  let completed_rev = ref [] in
  let completed_count = ref 0 in
  (* Warmup-curve windows: counter snapshots at window boundaries. *)
  let win = max 1 ((n_total + 7) / 8) in
  let snaps = ref [ (0, Metrics.snapshot vm sys) ] in
  let latency = Acsi_obs.Hist.create () in
  let admit_due () =
    let now = Interp.cycles vm in
    let rec go = function
      | (at, client) :: rest when at <= now ->
          let tid = Sched.spawn sched in
          Hashtbl.replace by_tid tid (!next_rid, at, client);
          if Acsi_obs.Tracer.enabled tracer then
            Acsi_obs.Tracer.instant tracer ~track:"requests" ~name:"admit"
              ~t:now
              ~args:
                [
                  ("rid", string_of_int !next_rid);
                  ("tid", string_of_int tid);
                  ("arrival", string_of_int at);
                ]
              ();
          incr next_rid;
          go rest
      | rest -> rest
    in
    pending := go !pending
  in
  let finish_one tid =
    let finish = Interp.cycles vm in
    let rid, arrival, client =
      match Hashtbl.find_opt by_tid tid with
      | Some x -> x
      | None -> assert false
    in
    Hashtbl.remove by_tid tid;
    Acsi_obs.Hist.record latency (finish - arrival);
    completed_rev :=
      {
        r_id = rid;
        r_tid = tid;
        r_arrival = arrival;
        r_finish = finish;
        r_latency = finish - arrival;
      }
      :: !completed_rev;
    incr completed_count;
    if Acsi_obs.Tracer.enabled tracer then
      Acsi_obs.Tracer.instant tracer ~track:"requests" ~name:"finish"
        ~t:finish
        ~args:
          [
            ("rid", string_of_int rid);
            ("latency", string_of_int (finish - arrival));
          ]
        ();
    if !completed_count mod win = 0 || !completed_count = n_total then
      snaps := (!completed_count, Metrics.snapshot vm sys) :: !snaps;
    (* The client thinks, then sends its next request. *)
    if remaining.(client) > 0 then begin
      remaining.(client) <- remaining.(client) - 1;
      pending := insert_pending !pending (finish + think, client)
    end
  in
  let rec serve () =
    admit_due ();
    match Sched.run_slice sched with
    | Some (tid, Interp.Done) ->
        finish_one tid;
        serve ()
    | Some (_, Interp.Running) -> serve ()
    | None -> (
        (* Nothing runnable: idle until the next arrival, if any. *)
        match !pending with
        | [] -> ()
        | (at, _) :: _ ->
            let now = Interp.cycles vm in
            if at > now then Interp.charge vm (at - now);
            serve ())
  in
  serve ();
  let requests = List.rev !completed_rev in
  let latencies =
    Array.of_list (List.map (fun r -> r.r_latency) requests)
  in
  let total_cycles = Interp.cycles vm in
  let warmup = Load.warmup_requests latencies in
  let steady =
    if warmup >= n_total then Load.mean latencies
    else
      Load.mean (Array.sub latencies warmup (n_total - warmup))
  in
  (* Build the warmup curve from consecutive snapshot diffs. *)
  let windows =
    let snaps = List.rev !snaps in
    let rec pair = function
      | (i0, s0) :: ((i1, s1) :: _ as rest) ->
          {
            w_first = i0;
            w_count = i1 - i0;
            w_mean_latency =
              Load.mean (Array.sub latencies i0 (i1 - i0));
            w_activity = Metrics.diff ~before:s0 ~after:s1;
          }
          :: pair rest
      | [ _ ] | [] -> []
    in
    pair snaps
  in
  (* p100 is the maximum latency (0 when nothing was served). *)
  let pct = Load.percentiles latencies [| 50.0; 95.0; 99.0; 100.0 |] in
  let summary =
    {
      sv_workload = name;
      sv_policy = Acsi_policy.Policy.to_string aos.System.policy;
      sv_mode = mode_string mode;
      sv_requests = n_total;
      sv_total_cycles = total_cycles;
      sv_throughput_rpmc =
        float_of_int n_total *. 1_000_000.0 /. float_of_int (max 1 total_cycles);
      sv_mean_latency = Load.mean latencies;
      sv_p50 = pct.(0);
      sv_p95 = pct.(1);
      sv_p99 = pct.(2);
      sv_max_latency = pct.(3);
      sv_warmup_requests = warmup;
      sv_steady_latency = steady;
      sv_slices = Sched.slices sched;
      sv_switches = Sched.switches sched;
      sv_max_live = Sched.max_live sched;
      sv_osr = Interp.osr_count vm;
      sv_opt_compilations =
        Acsi_aos.Registry.opt_compilation_count (System.registry sys)
        + System.in_flight_compiles sys;
      sv_async_installs = System.async_installs sys;
      sv_max_queue_depth = System.max_compile_queue_depth sys;
      sv_overlap_instructions = System.async_overlap_instructions sys;
      sv_output_checksum = Metrics.checksum (Interp.output vm);
    }
  in
  { summary; requests; windows; latency }

let pp_summary fmt s =
  let f = Format.fprintf in
  f fmt "@[<v>workload             %s (%s)@," s.sv_workload s.sv_mode;
  f fmt "policy               %s@," s.sv_policy;
  f fmt "requests             %d in %d cycles@," s.sv_requests
    s.sv_total_cycles;
  f fmt "throughput           %.3f req/Mcycle@," s.sv_throughput_rpmc;
  f fmt "latency              mean %.0f  p50 %d  p95 %d  p99 %d  max %d@,"
    s.sv_mean_latency s.sv_p50 s.sv_p95 s.sv_p99 s.sv_max_latency;
  f fmt "warmup               %d requests to steady state (steady mean %.0f)@,"
    s.sv_warmup_requests s.sv_steady_latency;
  f fmt "scheduler            %d slices, %d switches, %d max live@,"
    s.sv_slices s.sv_switches s.sv_max_live;
  f fmt "compiler             %d compilations (%d async installs, queue high-water %d)@,"
    s.sv_opt_compilations s.sv_async_installs s.sv_max_queue_depth;
  f fmt "overlap              %d mutator instrs during background compiles@,"
    s.sv_overlap_instructions;
  f fmt "osr transfers        %d@," s.sv_osr;
  f fmt "output checksum      %d@]" s.sv_output_checksum

let pp_windows fmt windows =
  Format.fprintf fmt "@[<v>%-10s %8s %12s %9s %9s %8s@," "window" "requests"
    "mean-latency" "compiles" "installs" "samples";
  List.iter
    (fun w ->
      Format.fprintf fmt "%4d..%-4d %8d %12.0f %9d %9d %8d@," w.w_first
        (w.w_first + w.w_count - 1)
        w.w_count w.w_mean_latency w.w_activity.Metrics.s_opt_compilations
        w.w_activity.Metrics.s_async_installs
        w.w_activity.Metrics.s_method_samples)
    windows;
  Format.fprintf fmt "@]"
