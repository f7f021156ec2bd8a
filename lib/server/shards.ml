module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Registry = Acsi_aos.Registry
module Dcg = Acsi_profile.Dcg
module Config = Acsi_core.Config
module Metrics = Acsi_core.Metrics
module Parallel = Acsi_core.Parallel

type shard_stat = {
  h_id : int;
  h_served : int;
  h_cycles : int;
  h_busy_last : int;
  h_slices : int;
  h_switches : int;
  h_max_live : int;
  h_max_resume_gap : int;
  h_steals_in : int;
  h_steals_out : int;
  h_opt_compilations : int;
  h_adopted : int;
  h_dcg_size : int;
}

type summary = {
  sh_workload : string;
  sh_policy : string;
  sh_shards : int;
  sh_sessions : int;
  sh_period : int;
  sh_pool : int;
  sh_pool_policy : string;
  sh_rounds : int;
  sh_makespan : int;
  sh_sum_cycles : int;
  sh_throughput_spmc : float;
  sh_mean_latency : float;
  sh_p50 : int;
  sh_p95 : int;
  sh_p99 : int;
  sh_max_latency : int;
  sh_steals : int;
  sh_fairness : float;
  sh_published : int;
  sh_adopted : int;
  sh_merged_dcg_size : int;
  sh_merged_dcg_weight : float;
  sh_output_checksum : int;
}

(* --- fleet telemetry ------------------------------------------------ *)

type flow_kind = Steal | Adopt | Deopt | Invalidate

(* One half of a cross-shard flow arrow. The two halves of an arrow
   share [f_id]; [f_key] is the session rid for steals and the method id
   for adopt/deopt flows. All emission happens in the serial barrier
   section in shard-id order, so the flow log is byte-identical across
   [--jobs]. *)
type flow = {
  f_kind : flow_kind;
  f_id : int;
  f_dir : Acsi_obs.Tracer.flow_dir;
  f_shard : int;
  f_t : int;
  f_key : int;
}

let flow_name = function
  | Steal -> "steal"
  | Adopt -> "adopt"
  | Deopt -> "deopt"
  | Invalidate -> "invalidate"

type telemetry = {
  tel_interval : int;
  tel_series : Acsi_obs.Timeseries.t array;  (* one per shard *)
  tel_latency : Acsi_obs.Hist.t array;  (* one per shard *)
  tel_latency_all : Acsi_obs.Hist.t;
  tel_steal_distance : Acsi_obs.Hist.t;
  tel_compile_wait : Acsi_obs.Hist.t;
  tel_deopt_gap : Acsi_obs.Hist.t;
  tel_flows : flow list;  (* emission order; Out precedes its In *)
}

let telemetry_columns =
  [
    "live"; "backlog"; "compile_queue"; "in_flight"; "served"; "steals_in";
    "steals_out"; "adopted"; "samples"; "deopts";
  ]

(* Mutable telemetry state threaded through the barrier passes. *)
type tel_ctx = {
  mutable tc_flows : flow list;  (* newest first *)
  mutable tc_next_id : int;
  tc_dist : Acsi_obs.Hist.t;
}

let tel_flow tc kind ~out_shard ~out_t ~in_shard ~in_t ~key =
  let id = tc.tc_next_id in
  tc.tc_next_id <- id + 1;
  tc.tc_flows <-
    {
      f_kind = kind;
      f_id = id;
      f_dir = Acsi_obs.Tracer.In;
      f_shard = in_shard;
      f_t = in_t;
      f_key = key;
    }
    :: {
         f_kind = kind;
         f_id = id;
         f_dir = Acsi_obs.Tracer.Out;
         f_shard = out_shard;
         f_t = out_t;
         f_key = key;
       }
    :: tc.tc_flows

type result = {
  summary : summary;
  shard_stats : shard_stat list;
  publications : (Acsi_bytecode.Ids.Method_id.t * int) list;
  merged_dcg : Dcg.t;
  systems : System.t list;
  telemetry : telemetry;
}

(* One virtual processor. [sd_home_at]/[sd_home_rid] are the shard's
   slice of the global arrival schedule as two parallel vectors
   (ascending arrival; [sd_head] marks the next unadmitted entry) and
   [sd_stolen_at]/[sd_stolen_rid] hold, as two int rings popped in
   step, the sessions stolen from other shards at barriers. A session is
   two ints until admission spawns a virtual thread for it — which is
   what keeps a million-session backlog cheap, and which leaves the
   minor collector nothing to promote for a queued session.
   [sd_lat] is indexed by thread id (dense per shard VM, and only
   admission spawns threads): the slot holds the session's arrival while
   it runs and its latency once it completes, so every served session
   costs the shard one word of bookkeeping. *)
type shard = {
  sd_id : int;
  sd_vm : Interp.t;
  sd_sys : System.t;
  sd_sched : Sched.t;
  sd_home_at : int array;
  sd_home_rid : int array;
  mutable sd_head : int;
  sd_stolen_at : int Ring.t;
  sd_stolen_rid : int Ring.t;
  mutable sd_lat : int array;
  mutable sd_served : int;
  mutable sd_steals_in : int;
  mutable sd_steals_out : int;
  mutable sd_busy_last : int;
  sd_pub_seen : int array;
  sd_latency_hist : Acsi_obs.Hist.t;
}

(* A publish-once code-cache entry. [p_native] carries the publisher's
   closure-tier compilation: tier closures are VM-independent (runtime
   state flows through the interpreter's window-state record), so
   adopters install them directly instead of re-compiling. *)
type publication = {
  p_mid : Acsi_bytecode.Ids.Method_id.t;
  p_origin : int;
  p_code : Acsi_vm.Code.t;
  p_stats : Acsi_jit.Expand.stats;
  p_rule_stamp : int;
  p_native : (Interp.nfn array * int array) option;
}

(* Arrival of the next unadmitted home / stolen session; [max_int] when
   that queue is empty. *)
let home_at sd =
  if sd.sd_head < Array.length sd.sd_home_at then sd.sd_home_at.(sd.sd_head)
  else max_int

let stolen_at sd =
  if Ring.is_empty sd.sd_stolen_at then max_int else Ring.peek sd.sd_stolen_at

(* Earliest arrival the shard still has queued (home or stolen). *)
let next_arrival sd = Int.min (home_at sd) (stolen_at sd)

(* Admission control: concurrently admitted sessions per shard. Pending
   sessions stay queued as two ints each, which is what makes
   million-session backlogs affordable. *)
let max_live = 64

let admit sd =
  let now = Interp.cycles sd.sd_vm in
  let rec go () =
    if Sched.live sd.sd_sched < max_live then begin
      let h_at = home_at sd and s_at = stolen_at sd in
      if Int.min h_at s_at <= now then begin
        let at =
          if s_at <= h_at then begin
            ignore (Ring.pop sd.sd_stolen_rid);
            Ring.pop sd.sd_stolen_at
          end
          else begin
            sd.sd_head <- sd.sd_head + 1;
            h_at
          end
        in
        let tid = Sched.spawn sd.sd_sched in
        if tid >= Array.length sd.sd_lat then begin
          let bigger = Array.make (max (tid + 1) (2 * tid)) 0 in
          Array.blit sd.sd_lat 0 bigger 0 (Array.length sd.sd_lat);
          sd.sd_lat <- bigger
        end;
        sd.sd_lat.(tid) <- at;
        go ()
      end
    end
  in
  go ()

let finish_one sd tid =
  let finish = Interp.cycles sd.sd_vm in
  let latency = finish - sd.sd_lat.(tid) in
  sd.sd_lat.(tid) <- latency;
  Acsi_obs.Hist.record sd.sd_latency_hist latency;
  sd.sd_served <- sd.sd_served + 1;
  sd.sd_busy_last <- finish

(* Run one shard up to the round's virtual-time limit. Touches only the
   shard's own state, so shards run on concurrent host domains; the
   spawn/join edges of [Parallel.map] order these mutations against the
   serial barrier work. An idle shard advances its clock to the next
   arrival (or the limit) — the processor waiting, exactly as in
   {!Server}. *)
let run_round limit sd =
  let vm = sd.sd_vm in
  let rec loop () =
    admit sd;
    if Interp.cycles vm < limit then
      match Sched.run_slice sd.sd_sched with
      | Some (tid, Interp.Done) ->
          finish_one sd tid;
          loop ()
      | Some (_, Interp.Running) -> loop ()
      | None ->
          let now = Interp.cycles vm in
          let target = min limit (max now (next_arrival sd)) in
          if target > now then Interp.charge vm (target - now);
          if target < limit then loop ()
  in
  loop ()

(* Due backlog: sessions whose arrival has passed but that are not yet
   admitted, plus live threads. Only the un-admitted part is movable. *)
let due_home sd =
  let now = Interp.cycles sd.sd_vm in
  let n = Array.length sd.sd_home_at in
  (* First index with arrival > now, binary search over the sorted
     suffix starting at sd_head. *)
  let lo = ref sd.sd_head and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sd.sd_home_at.(mid) <= now then lo := mid + 1 else hi := mid
  done;
  !lo - sd.sd_head

let movable sd = due_home sd + Ring.length sd.sd_stolen_at

(* Deterministic work stealing at a barrier: greedily move the oldest
   due session from the most-backlogged shard to the least-backlogged
   one until the spread is <= 1. Victim/thief scans rotate by a
   splitmix hash of (seed, round) so tie-breaks do not systematically
   favour low shard ids. Stolen sessions keep their arrival, so
   latencies still measure from the original arrival. *)
let steal_pass shards ~seed ~round ~now ~tel =
  let n = Array.length shards in
  if n > 1 then begin
    let offset =
      Load.next_rand (seed + ((round + 1) * 0x9E3779B9)) mod n
    in
    let offset = if offset < 0 then -offset else offset in
    let backlog = Array.map (fun sd -> movable sd + Sched.live sd.sd_sched) shards in
    let mov = Array.map movable shards in
    let continue_ = ref true in
    while !continue_ do
      let victim = ref (-1) and thief = ref (-1) in
      for k = 0 to n - 1 do
        let i = (offset + k) mod n in
        if mov.(i) > 0 && (!victim < 0 || backlog.(i) > backlog.(!victim))
        then victim := i;
        if !thief < 0 || backlog.(i) < backlog.(!thief) then thief := i
      done;
      if
        !victim >= 0 && !thief >= 0 && !victim <> !thief
        && backlog.(!victim) >= backlog.(!thief) + 2
      then begin
        let v = shards.(!victim) and t = shards.(!thief) in
        (* Oldest due session first: compare the two queue heads. *)
        let rid =
          if stolen_at v <= home_at v then begin
            Ring.push t.sd_stolen_at (Ring.pop v.sd_stolen_at);
            Ring.pop v.sd_stolen_rid
          end
          else begin
            let h = v.sd_head in
            v.sd_head <- h + 1;
            Ring.push t.sd_stolen_at v.sd_home_at.(h);
            v.sd_home_rid.(h)
          end
        in
        Ring.push t.sd_stolen_rid rid;
        v.sd_steals_out <- v.sd_steals_out + 1;
        t.sd_steals_in <- t.sd_steals_in + 1;
        (* Flow arrow from victim to thief at barrier time; steal
           distance is the shard-index hop the session made. *)
        tel_flow tel Steal ~out_shard:!victim ~out_t:now ~in_shard:!thief
          ~in_t:now ~key:rid;
        Acsi_obs.Hist.record tel.tc_dist (abs (!victim - !thief));
        backlog.(!victim) <- backlog.(!victim) - 1;
        mov.(!victim) <- mov.(!victim) - 1;
        backlog.(!thief) <- backlog.(!thief) + 1;
        mov.(!thief) <- mov.(!thief) + 1
      end
      else continue_ := false
    done
  end

(* Publish-once code cache. After each round, every shard's registry is
   scanned (in shard-id order, methods ascending) for versions not seen
   at the previous barrier; the first shard to have compiled a method
   publishes its code, stats and — when the tier took it — the closures
   it installed. Later compiles of an already-published method stay
   local. Speculative code is never published: its CHA assumptions hold
   against the publisher's loaded universe only (see
   [System.adopt_compiled]). The version is still marked seen, so a
   later non-speculative version of the method is published. *)
let collect_publications published shards pubs_rev =
  Array.iter
    (fun sd ->
      let reg = System.registry sd.sd_sys in
      let fresh = ref [] in
      Registry.iter reg ~f:(fun mid entry ->
          if entry.Registry.version > sd.sd_pub_seen.((mid :> int)) then
            fresh := (mid, entry) :: !fresh);
      let fresh =
        List.sort (fun ((a : Acsi_bytecode.Ids.Method_id.t), _) (b, _) ->
            compare (a :> int) (b :> int))
          !fresh
      in
      List.iter
        (fun ((mid : Acsi_bytecode.Ids.Method_id.t), entry) ->
          sd.sd_pub_seen.((mid :> int)) <- entry.Registry.version;
          let code = Interp.code_of sd.sd_vm mid in
          if
            (not (Hashtbl.mem published (mid :> int)))
            && code.Acsi_vm.Code.assumptions = []
          then begin
            let native =
              if Interp.native_installed sd.sd_vm mid then
                Some
                  ( sd.sd_vm.Interp.native_table.((mid :> int)),
                    sd.sd_vm.Interp.native_depths.((mid :> int)) )
              else None
            in
            let p =
              {
                p_mid = mid;
                p_origin = sd.sd_id;
                p_code = code;
                p_stats = entry.Registry.stats;
                p_rule_stamp = entry.Registry.rule_stamp;
                p_native = native;
              }
            in
            Hashtbl.add published (mid :> int) p;
            pubs_rev := p :: !pubs_rev
          end)
        fresh)
    shards

(* Adopt published code on every shard that has executed the method but
   never opt-compiled it. Runs every barrier, so a shard that first
   touches a method later still adopts at the next barrier. *)
let adopt_published published shards ~now ~tel =
  let pubs =
    Hashtbl.fold (fun _ p acc -> p :: acc) published []
    |> List.sort (fun a b -> compare (a.p_mid :> int) (b.p_mid :> int))
  in
  Array.iter
    (fun sd ->
      List.iter
        (fun p ->
          if
            sd.sd_id <> p.p_origin
            && Registry.entry (System.registry sd.sd_sys) p.p_mid = None
            && Interp.was_executed sd.sd_vm p.p_mid
          then begin
            System.adopt_compiled sd.sd_sys p.p_mid p.p_code p.p_stats
              ~rule_stamp:p.p_rule_stamp ~native:p.p_native;
            (* A refused adoption installs nothing and leaves no registry
               entry; the adopter keeps its code and draws no arrow. *)
            match Registry.entry (System.registry sd.sd_sys) p.p_mid with
            | Some e ->
                tel_flow tel Adopt ~out_shard:p.p_origin ~out_t:now
                  ~in_shard:sd.sd_id ~in_t:now
                  ~key:(p.p_mid :> int);
                sd.sd_pub_seen.((p.p_mid :> int)) <- e.Registry.version
            | None -> ()
          end)
        pubs)
    shards

let hot_shard_weight = 2

let run ~seed ?(jobs = 1) ?(barrier = 2_000_000) ~pool ~pool_policy
    ~shards:n_shards ~sessions ~period ~name (cfg : Config.t) program =
  if n_shards <= 0 then invalid_arg "Shards.run: shards must be positive";
  if sessions <= 0 then invalid_arg "Shards.run: no sessions";
  let barrier = max Sched.quantum barrier in
  (* Global open-loop arrival schedule, then a deliberately skewed
     home-shard hash: shard 0 draws [hot_shard_weight] shares, every
     other shard one — a front-end router with a hot shard, the
     imbalance work stealing exists to fix. *)
  let arrivals = Load.open_loop_arrivals ~seed ~period ~n:sessions in
  let total_shares = hot_shard_weight + (n_shards - 1) in
  let home = Array.make sessions 0 in
  let home_count = Array.make n_shards 0 in
  let st = ref (Load.next_rand (seed lxor 0x2545F4914F6CDD1D)) in
  for rid = 0 to sessions - 1 do
    st := Load.next_rand !st;
    (if n_shards > 1 then
       let pick = !st mod total_shares in
       home.(rid) <-
         (if pick < hot_shard_weight then 0
          else 1 + ((pick - hot_shard_weight) mod (n_shards - 1))));
    home_count.(home.(rid)) <- home_count.(home.(rid)) + 1
  done;
  (* Each shard's slice of the schedule, split in one pass; rids ascend,
     so each slice keeps ascending arrival. *)
  let slice_at = Array.map (fun c -> Array.make c 0) home_count in
  let slice_rid = Array.map (fun c -> Array.make c 0) home_count in
  let fill = Array.make n_shards 0 in
  for rid = 0 to sessions - 1 do
    let h = home.(rid) in
    let k = fill.(h) in
    slice_at.(h).(k) <- arrivals.(rid);
    slice_rid.(h).(k) <- rid;
    fill.(h) <- k + 1
  done;
  let n_methods = Acsi_bytecode.Program.method_count program in
  let mk_shard id =
    let vm = Acsi_core.Runtime.create_vm cfg program in
    let aos =
      {
        cfg.Config.aos with
        System.async_compile = true;
        compiler_pool = pool;
        compile_queue_policy = pool_policy;
      }
    in
    let sys = System.create aos vm in
    (* Telemetry event log on: drained every barrier (below), so it
       stays bounded by one round's deopt activity. *)
    System.set_telemetry_events sys true;
    let sched =
      (* Sharded runs outlive the single-run default cycle budget by
         design (millions of sessions), so the per-resume limit is
         effectively unbounded; the barrier loop is the budget. *)
      Sched.create ~cycle_limit:max_int
        ~on_switch:(fun () -> System.poll_async_installs sys)
        vm
    in
    {
      sd_id = id;
      sd_vm = vm;
      sd_sys = sys;
      sd_sched = sched;
      sd_home_at = slice_at.(id);
      sd_home_rid = slice_rid.(id);
      sd_head = 0;
      sd_stolen_at = Ring.create ();
      sd_stolen_rid = Ring.create ();
      sd_lat = Array.make home_count.(id) 0;
      sd_served = 0;
      sd_steals_in = 0;
      sd_steals_out = 0;
      sd_busy_last = 0;
      sd_pub_seen = Array.make n_methods 0;
      sd_latency_hist = Acsi_obs.Hist.create ();
    }
  in
  let shards = Array.init n_shards mk_shard in
  let published : (int, publication) Hashtbl.t = Hashtbl.create 64 in
  let pubs_rev = ref [] in
  let tel =
    { tc_flows = []; tc_next_id = 1; tc_dist = Acsi_obs.Hist.create () }
  in
  let series =
    Array.init n_shards (fun _ ->
        Acsi_obs.Timeseries.create ~columns:telemetry_columns)
  in
  (* Open deopt windows per (shard, mid): a flow arrow is emitted only
     when the matching reinstall closes the window, so every Out half
     has exactly one In half by construction. *)
  let open_deopts : (int * int, int * bool) Hashtbl.t = Hashtbl.create 16 in
  let drain_deopt_flows () =
    Array.iter
      (fun sd ->
        List.iter
          (fun (ev : System.tel_event) ->
            match ev with
            | System.Tel_deopt { mid; at; invalidated } ->
                Hashtbl.replace open_deopts (sd.sd_id, mid) (at, invalidated)
            | System.Tel_reinstall { mid; at; gap = _ } -> (
                match Hashtbl.find_opt open_deopts (sd.sd_id, mid) with
                | Some (t0, invalidated) ->
                    Hashtbl.remove open_deopts (sd.sd_id, mid);
                    tel_flow tel
                      (if invalidated then Invalidate else Deopt)
                      ~out_shard:sd.sd_id ~out_t:t0 ~in_shard:sd.sd_id
                      ~in_t:at ~key:mid
                | None -> ()))
          (System.take_telemetry_events sd.sd_sys))
      shards
  in
  let sample_series limit =
    Array.iteri
      (fun i sd ->
        Acsi_obs.Timeseries.sample series.(i) ~now:limit
          [|
            Sched.live sd.sd_sched;
            movable sd;
            System.compile_queue_depth sd.sd_sys;
            System.in_flight_compiles sd.sd_sys;
            sd.sd_served;
            sd.sd_steals_in;
            sd.sd_steals_out;
            System.adopted_installs sd.sd_sys;
            System.method_samples_taken sd.sd_sys;
            Interp.deopt_guard_count sd.sd_vm
            + Interp.deopt_invalidate_count sd.sd_vm;
          |])
      shards
  in
  let total_served () =
    Array.fold_left (fun acc sd -> acc + sd.sd_served) 0 shards
  in
  let round = ref 0 in
  while total_served () < sessions do
    let limit = (!round + 1) * barrier in
    ignore
      (Parallel.map ~jobs:(min jobs n_shards)
         (fun sd ->
           run_round limit sd;
           ())
         (Array.to_list shards));
    (* Serial barrier, shard-id order: publications, adoptions, steals,
       then telemetry — deopt flow arrows drained from the shard
       systems and one time-series row per shard at the barrier stamp.
       (The global DCG view is rebuilt once at the end — merging is
       associative over barriers, and organizers read shard-local DCGs
       during rounds.) *)
    collect_publications published shards pubs_rev;
    adopt_published published shards ~now:limit ~tel;
    steal_pass shards ~seed ~round:!round ~now:limit ~tel;
    drain_deopt_flows ();
    sample_series limit;
    incr round
  done;
  let merged_dcg = Dcg.create () in
  Array.iter (fun sd -> Dcg.merge ~into:merged_dcg (System.dcg sd.sd_sys)) shards;
  (* Every admitted session has completed, so each shard's first
     [sd_served] tid slots are latencies (in spawn order, which the
     order-free mean and percentiles below do not see); p100 is the
     maximum latency. *)
  let latencies = Array.make sessions 0 in
  ignore
    (Array.fold_left
       (fun off sd ->
         Array.blit sd.sd_lat 0 latencies off sd.sd_served;
         off + sd.sd_served)
       0 shards);
  let pct = Load.percentiles latencies [| 50.0; 95.0; 99.0; 100.0 |] in
  let makespan = Array.fold_left (fun acc sd -> max acc sd.sd_busy_last) 0 shards in
  let sum_cycles =
    Array.fold_left (fun acc sd -> acc + Interp.cycles sd.sd_vm) 0 shards
  in
  let served_min =
    Array.fold_left (fun acc sd -> min acc sd.sd_served) max_int shards
  in
  let served_max =
    Array.fold_left (fun acc sd -> max acc sd.sd_served) 0 shards
  in
  let checksum =
    Array.fold_left
      (fun acc sd ->
        (acc * 31) + Metrics.checksum (Interp.output sd.sd_vm) + 17)
      0 shards
    land max_int
  in
  let publications =
    List.rev_map (fun p -> (p.p_mid, p.p_origin)) !pubs_rev
  in
  let adopted =
    Array.fold_left (fun acc sd -> acc + System.adopted_installs sd.sd_sys) 0
      shards
  in
  let shard_stats =
    Array.to_list
      (Array.map
         (fun sd ->
           {
             h_id = sd.sd_id;
             h_served = sd.sd_served;
             h_cycles = Interp.cycles sd.sd_vm;
             h_busy_last = sd.sd_busy_last;
             h_slices = Sched.slices sd.sd_sched;
             h_switches = Sched.switches sd.sd_sched;
             h_max_live = Sched.max_live sd.sd_sched;
             h_max_resume_gap = Sched.max_resume_gap sd.sd_sched;
             h_steals_in = sd.sd_steals_in;
             h_steals_out = sd.sd_steals_out;
             h_opt_compilations =
               Registry.opt_compilation_count (System.registry sd.sd_sys);
             h_adopted = System.adopted_installs sd.sd_sys;
             h_dcg_size = Dcg.size (System.dcg sd.sd_sys);
           })
         shards)
  in
  let summary =
    {
      sh_workload = name;
      sh_policy = Acsi_policy.Policy.to_string cfg.Config.aos.System.policy;
      sh_shards = n_shards;
      sh_sessions = sessions;
      sh_period = period;
      sh_pool = max 1 pool;
      sh_pool_policy = System.queue_policy_name pool_policy;
      sh_rounds = !round;
      sh_makespan = makespan;
      sh_sum_cycles = sum_cycles;
      sh_throughput_spmc =
        float_of_int sessions *. 1_000_000.0 /. float_of_int (max 1 makespan);
      sh_mean_latency = Load.mean latencies;
      sh_p50 = pct.(0);
      sh_p95 = pct.(1);
      sh_p99 = pct.(2);
      sh_max_latency = pct.(3);
      sh_steals =
        Array.fold_left (fun acc sd -> acc + sd.sd_steals_in) 0 shards;
      sh_fairness =
        float_of_int served_max /. float_of_int (max 1 served_min);
      sh_published = List.length publications;
      sh_adopted = adopted;
      sh_merged_dcg_size = Dcg.size merged_dcg;
      sh_merged_dcg_weight = Dcg.total_weight merged_dcg;
      sh_output_checksum = checksum;
    }
  in
  let telemetry =
    let latency_all = Acsi_obs.Hist.create () in
    let compile_wait = Acsi_obs.Hist.create () in
    let deopt_gap = Acsi_obs.Hist.create () in
    Array.iter
      (fun sd ->
        Acsi_obs.Hist.merge ~into:latency_all sd.sd_latency_hist;
        Acsi_obs.Hist.merge ~into:compile_wait
          (System.compile_wait_hist sd.sd_sys);
        Acsi_obs.Hist.merge ~into:deopt_gap (System.deopt_gap_hist sd.sd_sys))
      shards;
    {
      tel_interval = barrier;
      tel_series = series;
      tel_latency = Array.map (fun sd -> sd.sd_latency_hist) shards;
      tel_latency_all = latency_all;
      tel_steal_distance = tel.tc_dist;
      tel_compile_wait = compile_wait;
      tel_deopt_gap = deopt_gap;
      tel_flows = List.rev tel.tc_flows;
    }
  in
  {
    summary;
    shard_stats;
    publications;
    merged_dcg;
    systems = Array.to_list (Array.map (fun sd -> sd.sd_sys) shards);
    telemetry;
  }

let pp_summary fmt s =
  let f = Format.fprintf in
  f fmt "@[<v>workload             %s (%d sessions, period %d)@,"
    s.sh_workload s.sh_sessions s.sh_period;
  f fmt "policy               %s@," s.sh_policy;
  f fmt "shards               %d (pool %d, %s queue)@," s.sh_shards s.sh_pool
    s.sh_pool_policy;
  f fmt "rounds               %d barriers@," s.sh_rounds;
  f fmt "makespan             %d cycles (sum over shards %d)@," s.sh_makespan
    s.sh_sum_cycles;
  f fmt "throughput           %.3f sessions/Mcycle@," s.sh_throughput_spmc;
  f fmt "latency              mean %.0f  p50 %d  p95 %d  p99 %d  max %d@,"
    s.sh_mean_latency s.sh_p50 s.sh_p95 s.sh_p99 s.sh_max_latency;
  f fmt "stealing             %d sessions moved@," s.sh_steals;
  f fmt "fairness             %.3f max/min served per shard@," s.sh_fairness;
  f fmt "code cache           %d published, %d adopted@," s.sh_published
    s.sh_adopted;
  f fmt "merged dcg           %d traces, total weight %.1f@,"
    s.sh_merged_dcg_size s.sh_merged_dcg_weight;
  f fmt "output checksum      %d@]" s.sh_output_checksum

let pp_shards fmt stats =
  Format.fprintf fmt "@[<v>%-6s %9s %12s %8s %8s %9s %9s %5s %9s %8s@,"
    "shard" "served" "cycles" "in" "out" "compiles" "adopted" "gap"
    "max-live" "dcg";
  List.iter
    (fun h ->
      Format.fprintf fmt "%-6d %9d %12d %8d %8d %9d %9d %5d %9d %8d@," h.h_id
        h.h_served h.h_cycles h.h_steals_in h.h_steals_out
        h.h_opt_compilations h.h_adopted h.h_max_resume_gap h.h_max_live
        h.h_dcg_size)
    stats;
  Format.fprintf fmt "@]"

(* --- flow witnesses and export -------------------------------------- *)

let flow_pairs tel kind =
  List.fold_left
    (fun acc f ->
      if f.f_kind = kind && f.f_dir = Acsi_obs.Tracer.Out then acc + 1
      else acc)
    0 tel.tel_flows

(* Conservation witness: every flow id has exactly one Out and one In of
   the same kind; steal/adopt arrows cross shards, deopt arrows stay on
   their shard; the In never precedes its Out on the virtual clock. *)
let flows_conserved tel =
  let halves : (int, flow list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt halves f.f_id) in
      Hashtbl.replace halves f.f_id (f :: prev))
    tel.tel_flows;
  Hashtbl.fold
    (fun _ fs ok ->
      ok
      &&
      match fs with
      | [ a; b ] ->
          let out, inn =
            if a.f_dir = Acsi_obs.Tracer.Out then (a, b) else (b, a)
          in
          out.f_dir = Acsi_obs.Tracer.Out
          && inn.f_dir = Acsi_obs.Tracer.In
          && out.f_kind = inn.f_kind
          && out.f_key = inn.f_key
          && out.f_t <= inn.f_t
          && (match out.f_kind with
             | Steal | Adopt -> out.f_shard <> inn.f_shard
             | Deopt | Invalidate -> out.f_shard = inn.f_shard)
      | _ -> false)
    halves true

let shard_track i = Printf.sprintf "shard%d" i

(* Materialize the fleet trace: per-shard counter rows from the
   time-series plus every flow arrow (anchored on a 1-cycle span, which
   Perfetto uses to attach the arrow ends). Capacity is computed exactly,
   so nothing is ever dropped. *)
let telemetry_tracer tel =
  let rows =
    Array.fold_left
      (fun acc s -> acc + Acsi_obs.Timeseries.length s)
      0 tel.tel_series
  in
  let capacity =
    max 16 ((2 * rows) + (2 * List.length tel.tel_flows))
  in
  let tr = Acsi_obs.Tracer.create ~capacity () in
  Array.iteri
    (fun i s ->
      let track = shard_track i in
      Acsi_obs.Timeseries.iter s ~f:(fun ~now vs ->
          Acsi_obs.Tracer.counter tr ~track ~name:"live" ~t:now ~value:vs.(0);
          Acsi_obs.Tracer.counter tr ~track ~name:"backlog" ~t:now
            ~value:vs.(1)))
    tel.tel_series;
  List.iter
    (fun f ->
      let track = shard_track f.f_shard in
      let name = flow_name f.f_kind in
      Acsi_obs.Tracer.span tr ~track ~name ~t0:f.f_t ~t1:(f.f_t + 1);
      Acsi_obs.Tracer.flow tr ~track ~name ~t:f.f_t ~id:f.f_id ~dir:f.f_dir)
    tel.tel_flows;
  tr
