open Acsi_bytecode
open Acsi_profile

type outcome = Inlined of { guarded : bool } | Refused of string

type info = {
  i_root : Ids.Method_id.t;
  i_context : Trace.entry array;
  i_callee : Ids.Method_id.t option;
  i_outcome : outcome;
  i_match_depth : int;
  i_match_weight : float;
  i_matched_rule : Trace.t option;
  i_inline_depth : int;
  i_expanded_units : int;
  i_est : int;
  i_budget_limit : int;
  i_budget_ext_limit : int;
  i_speculative : bool;
}

type source = Sampled | Static | Speculative

type decision = {
  d_seq : int;
  d_cycle : int;
  d_source : source;
  d_info : info;
}

type tier_outcome =
  | Tier_compiled
  | Install_refused of string
  | Tier_fell_back of string

type tier_decision = {
  td_seq : int;
  td_cycle : int;
  td_meth : Ids.Method_id.t;
  td_outcome : tier_outcome;
}

type t = {
  now : unit -> int;
  mutable rev : decision list;
  mutable count : int;
  mutable tier_rev : tier_decision list;
  mutable tier_count : int;
}

let create ?(now = fun () -> 0) () =
  { now; rev = []; count = 0; tier_rev = []; tier_count = 0 }

let add ?(source = Sampled) t info =
  t.rev <-
    { d_seq = t.count; d_cycle = t.now (); d_source = source; d_info = info }
    :: t.rev;
  t.count <- t.count + 1

let add_tier t meth outcome =
  t.tier_rev <-
    {
      td_seq = t.tier_count;
      td_cycle = t.now ();
      td_meth = meth;
      td_outcome = outcome;
    }
    :: t.tier_rev;
  t.tier_count <- t.tier_count + 1

let count t = t.count
let all t = List.rev t.rev
let tier_count t = t.tier_count
let tier_all t = List.rev t.tier_rev

let tier_outcome_counts t =
  List.fold_left
    (fun (c, r, f) d ->
      match d.td_outcome with
      | Tier_compiled -> (c + 1, r, f)
      | Install_refused _ -> (c, r + 1, f)
      | Tier_fell_back _ -> (c, r, f + 1))
    (0, 0, 0) t.tier_rev

let at t ~(caller : Ids.Method_id.t) ?callsite () =
  List.filter
    (fun d ->
      let e0 = d.d_info.i_context.(0) in
      Ids.Method_id.equal e0.Trace.caller caller
      && match callsite with None -> true | Some pc -> e0.Trace.callsite = pc)
    (all t)

let outcome_counts t =
  List.fold_left
    (fun (i, r) d ->
      match d.d_info.i_outcome with
      | Inlined _ -> (i + 1, r)
      | Refused _ -> (i, r + 1))
    (0, 0) t.rev

let source_counts t =
  List.fold_left
    (fun (sampled, static, speculative) d ->
      match d.d_source with
      | Sampled -> (sampled + 1, static, speculative)
      | Static -> (sampled, static + 1, speculative)
      | Speculative -> (sampled, static, speculative + 1))
    (0, 0, 0) t.rev

let pp_context ~name fmt (ctx : Trace.entry array) =
  Array.iteri
    (fun i (e : Trace.entry) ->
      if i > 0 then Format.fprintf fmt " < ";
      Format.fprintf fmt "%s:%d" (name e.Trace.caller) e.Trace.callsite)
    ctx

let pp_decision ~name fmt d =
  let i = d.d_info in
  let callee =
    match i.i_callee with Some mid -> name mid | None -> "<no candidate>"
  in
  let verdict =
    match i.i_outcome with
    | Inlined { guarded = true } -> "INLINED (guarded)"
    | Inlined { guarded = false } when i.i_speculative ->
        "INLINED (speculative, no guard)"
    | Inlined { guarded = false } -> "INLINED"
    | Refused reason -> "refused: " ^ reason
  in
  Format.fprintf fmt "@[<v 2>#%d @@%d cycles%s  %a -> %s  %s@," d.d_seq
    d.d_cycle
    (match d.d_source with
    | Sampled -> ""
    | Static -> " [static]"
    | Speculative -> " [speculative]")
    (pp_context ~name) i.i_context callee verdict;
  (match (d.d_source, i.i_matched_rule, i.i_match_depth) with
  | Static, _, _ ->
      Format.fprintf fmt
        "static oracle: summary-driven, decided before any samples@,"
  | Speculative, _, _ ->
      Format.fprintf fmt
        "speculative oracle: loaded-CHA monomorphic + pre-existing \
         receiver, deopt on invalidation@,"
  | Sampled, Some rule, depth ->
      Format.fprintf fmt
        "matched rule %a (Eq.3 match depth %d of %d, weight %.2f)@," Trace.pp
        rule depth
        (Array.length i.i_context)
        i.i_match_weight
  | Sampled, None, _ ->
      Format.fprintf fmt "no profile rule matched (static heuristics only)@,");
  Format.fprintf fmt
    "budget: est %d units, expanded %d, limit %d (extended %d), inline depth \
     %d, root %s@]"
    i.i_est i.i_expanded_units i.i_budget_limit i.i_budget_ext_limit
    i.i_inline_depth (name i.i_root)

let pp_tier_decision ~name fmt d =
  let verdict =
    match d.td_outcome with
    | Tier_compiled -> "closure-tier COMPILED"
    | Install_refused why -> "install refused: " ^ why
    | Tier_fell_back why -> "closure-tier fell back: " ^ why
  in
  Format.fprintf fmt "tier #%d @@%d cycles  %s  %s" d.td_seq d.td_cycle
    (name d.td_meth) verdict
