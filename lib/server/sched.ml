module Interp = Acsi_vm.Interp

type entry = {
  e_tid : int;
  e_thread : Interp.thread;
  mutable e_enqueued_at : int;  (* slice index when (re)enqueued *)
}

type t = {
  vm : Interp.t;
  quantum : int;
  switch_cost : int;
  cycle_limit : int;
  on_switch : unit -> unit;
  tracer : Acsi_obs.Tracer.t;
  ready : entry Ring.t;
  mutable live : int;
  mutable max_live : int;
  mutable slices : int;
  mutable switches : int;
  mutable last_tid : int;  (* -1 before the first slice *)
  mutable max_resume_gap : int;
}

let quantum = 25_000
let switch_cost = 200

let create ?(quantum = quantum) ?(switch_cost = switch_cost)
    ?(cycle_limit = max_int)
    ?(on_switch = fun () -> ()) ?(tracer = Acsi_obs.Tracer.null) vm =
  if quantum <= 0 then invalid_arg "Sched.create: quantum must be positive";
  if switch_cost < 0 then
    invalid_arg "Sched.create: switch_cost must be non-negative";
  {
    vm;
    quantum;
    switch_cost;
    cycle_limit;
    on_switch;
    tracer;
    ready = Ring.create ();
    live = 0;
    max_live = 0;
    slices = 0;
    switches = 0;
    last_tid = -1;
    max_resume_gap = 0;
  }

let spawn t =
  let th = Interp.spawn t.vm in
  let tid = Interp.thread_id th in
  Ring.push t.ready { e_tid = tid; e_thread = th; e_enqueued_at = t.slices };
  t.live <- t.live + 1;
  t.max_live <- Int.max t.max_live t.live;
  tid

let live t = t.live
let max_live t = t.max_live
let slices t = t.slices
let switches t = t.switches
let max_resume_gap t = t.max_resume_gap

let run_slice t =
  if Ring.is_empty t.ready then None
  else
    let e = Ring.pop t.ready in
    t.max_resume_gap <-
      Int.max t.max_resume_gap (t.slices - e.e_enqueued_at);
    if e.e_tid <> t.last_tid then begin
      if t.last_tid >= 0 && t.switch_cost > 0 then
        Interp.charge t.vm t.switch_cost;
      t.switches <- t.switches + 1
    end;
    t.last_tid <- e.e_tid;
    t.on_switch ();
    let t0 = Interp.cycles t.vm in
    let status =
      Interp.resume ~cycle_limit:t.cycle_limit t.vm e.e_thread
        ~quantum:t.quantum
    in
    (* One span per slice on the thread's own track: the interval the
       thread occupied the shared clock (including AOS work charged
       while it ran). Not an Accounting track, so reconciliation of
       the component tracks is untouched. *)
    if Acsi_obs.Tracer.enabled t.tracer then
      Acsi_obs.Tracer.span t.tracer
        ~track:(Printf.sprintf "vthread-%d" e.e_tid)
        ~name:"slice" ~t0 ~t1:(Interp.cycles t.vm);
    t.slices <- t.slices + 1;
    (match status with
    | Interp.Running ->
        e.e_enqueued_at <- t.slices;
        Ring.push t.ready e
    | Interp.Done -> t.live <- t.live - 1);
    Some (e.e_tid, status)
