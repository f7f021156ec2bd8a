open Acsi_bytecode

type compilation_event = {
  ce_method : Ids.Method_id.t;
  ce_version : int;
  ce_units : int;
  ce_bytes : int;
  ce_cycles : int;
  ce_inlines : int;
  ce_guards : int;
}

type t = {
  refusals : (int * int * int, int * Acsi_jit.Oracle.refusal_reason) Hashtbl.t;
  mutable events_rev : compilation_event list;
}

let create () = { refusals = Hashtbl.create 64; events_rev = [] }

let key ~(caller : Ids.Method_id.t) ~callsite ~(callee : Ids.Method_id.t) =
  ((caller :> int), callsite, (callee :> int))

let record_refusal t ~caller ~callsite ~callee ~stamp reason =
  Hashtbl.replace t.refusals (key ~caller ~callsite ~callee) (stamp, reason)

let refused t ~caller ~callsite ~callee ~now ~ttl =
  match Hashtbl.find_opt t.refusals (key ~caller ~callsite ~callee) with
  | Some (stamp, _) -> now - stamp <= ttl
  | None -> false

let refusal_count t = Hashtbl.length t.refusals

let refusal_reasons t =
  let count r =
    Hashtbl.fold
      (fun _ (_, reason) acc -> if reason = r then acc + 1 else acc)
      t.refusals 0
  in
  List.map (fun r -> (r, count r)) Acsi_jit.Oracle.all_refusal_reasons
let record_compilation t e = t.events_rev <- e :: t.events_rev
let compilations t = List.rev t.events_rev
