open Acsi_bytecode
open Acsi_profile

type config = { exact_match_only : bool; peephole : bool }

let default_config = { exact_match_only = false; peephole = true }

(* Inline depth limit, and the extended one profile-hot small callees
   (and every tiny one) may reach. *)
let max_inline_depth = 5
let extended_inline_depth = 7

(* Expanded code may reach [factor * root_size + expansion_slack] units,
   with the extended factor for the callees the extended depth admits. *)
let expansion_factor = 4
let extended_expansion_factor = 6
let expansion_slack = 60

(* Guarded inlinees per polymorphic virtual site. *)
let max_guarded_targets = 2

type refusal_reason =
  | Too_large
  | Budget
  | Depth
  | Recursive
  | Context_conflict

let refusal_reason_to_string = function
  | Too_large -> "too-large"
  | Budget -> "budget"
  | Depth -> "depth"
  | Recursive -> "recursive"
  | Context_conflict -> "context-conflict"

let all_refusal_reasons =
  [ Too_large; Budget; Depth; Recursive; Context_conflict ]

type target = {
  target : Ids.Method_id.t;
  guarded : bool;
  speculative : bool;
      (* unguarded on the strength of a loaded-CHA proof + pre-existing
         receiver; the expander records the assumption on the code *)
}

type decision = No_inline | Inline of target list

(* Evidence providers for guard-free speculation, supplied by the AOS
   (the oracle itself has no view of what is loaded at runtime):
   [spec_mono sel] is the unique dispatch target of [sel] over the
   *loaded* class universe (None when absent or not unique), and
   [spec_preexists root pc] whether the receiver of the virtual call at
   [root]'s [pc] provably pre-exists the activation. *)
type speculation = {
  spec_mono : Ids.Selector.t -> Ids.Method_id.t option;
  spec_preexists : Meth.t -> int -> bool;
}

type t = {
  program : Program.t;
  cfg : config;
  mutable rules : Rules.t;
  mutable on_refusal :
    site:Trace.entry array -> callee:Ids.Method_id.t -> refusal_reason -> unit;
  mutable on_decision : (Acsi_obs.Provenance.info -> unit) option;
  mutable speculation : speculation option;
}

let create ?(config = default_config) program =
  {
    program;
    cfg = config;
    rules = Rules.empty ();
    on_refusal = (fun ~site:_ ~callee:_ _ -> ());
    on_decision = None;
    speculation = None;
  }

let config t = t.cfg
let set_rules t rules = t.rules <- rules
let set_on_refusal t f = t.on_refusal <- f
let set_on_decision t f = t.on_decision <- Some f
let set_speculation t s = t.speculation <- s

(* Whether an inlined body of [est] units fits the expansion budget. *)
let budget_ok ~extended ~root ~expanded_units ~est =
  let factor =
    if extended then extended_expansion_factor else expansion_factor
  in
  expanded_units + est <= (factor * Meth.size_units root) + expansion_slack

(* --- decision provenance --------------------------------------------- *)

(* Eq.-3 evidence for [mid] under [site_chain]: (max match depth, summed
   weight, deepest — ties heaviest — applicable rule). Pure reads of the
   memoized rule index; never runs unless a decision sink is installed. *)
let match_evidence t ~site_chain mid =
  Rules.applicable ~exact:t.cfg.exact_match_only t.rules ~site_chain
  |> List.filter (fun (r : Rules.rule) ->
         Ids.Method_id.equal r.Rules.trace.Trace.callee mid)
  |> List.fold_left
       (fun (depth, weight, best) (r : Rules.rule) ->
         let d =
           min
             (Array.length r.Rules.trace.Trace.chain)
             (Array.length site_chain)
         in
         let best =
           match best with
           | Some (bd, bw, _) when bd > d || (bd = d && bw >= r.Rules.weight)
             ->
               best
           | _ -> Some (d, r.Rules.weight, r.Rules.trace)
         in
         (max depth d, weight +. r.Rules.weight, best))
       (0, 0.0, None)

let emit_decision t ~root ~site_chain ~depth ~expanded_units ~const_args
    ~callee ~outcome ~speculative =
  match t.on_decision with
  | None -> ()
  | Some sink ->
      let base = Meth.size_units root in
      let est, (md, mw, best) =
        match callee with
        | Some mid ->
            ( Size.estimate (Program.meth t.program mid) ~const_args,
              match_evidence t ~site_chain mid )
        | None -> (0, (0, 0.0, None))
      in
      sink
        {
          Acsi_obs.Provenance.i_root = root.Meth.id;
          i_context = Array.copy site_chain;
          i_callee = callee;
          i_outcome = outcome;
          i_match_depth = md;
          i_match_weight = mw;
          i_matched_rule =
            (match best with Some (_, _, tr) -> Some tr | None -> None);
          i_inline_depth = depth;
          i_expanded_units = expanded_units;
          i_est = est;
          i_budget_limit = (expansion_factor * base) + expansion_slack;
          i_budget_ext_limit =
            (extended_expansion_factor * base) + expansion_slack;
          i_speculative = speculative;
        }

(* Verdict for one concrete callee. [hot] means the profile recommends this
   callee here; refusals of hot callees are reported. Returns the refusal
   reason (as its taxonomy string) so the decision sink can record it;
   ["not-hot"] marks the silent medium-size rejection the reporting
   callback never sees. *)
let consider t ~root ~site_chain ~chain_methods ~depth ~expanded_units ~hot
    ~const_args (callee : Meth.t) =
  let refuse reason =
    if hot then t.on_refusal ~site:site_chain ~callee:callee.Meth.id reason;
    Error (refusal_reason_to_string reason)
  in
  if List.exists (Ids.Method_id.equal callee.Meth.id) chain_methods then
    refuse Recursive
  else
    let est = Size.estimate callee ~const_args in
    match Size.classify ~units:est with
    | Size.Large -> refuse Too_large
    | Size.Tiny ->
        if depth >= extended_inline_depth then refuse Depth
        else if budget_ok ~extended:true ~root ~expanded_units ~est then
          Ok callee.Meth.id
        else refuse Budget
    | Size.Small ->
        if
          depth < max_inline_depth
          && budget_ok ~extended:false ~root ~expanded_units ~est
        then Ok callee.Meth.id
        else if
          (* profile data lets small methods exceed the normal limits *)
          hot
          && depth < extended_inline_depth
          && budget_ok ~extended:true ~root ~expanded_units ~est
        then Ok callee.Meth.id
        else if depth >= max_inline_depth then refuse Depth
        else refuse Budget
    | Size.Medium ->
        if not hot then Error "not-hot"
        else if depth >= max_inline_depth then refuse Depth
        else if budget_ok ~extended:false ~root ~expanded_units ~est then
          Ok callee.Meth.id
        else refuse Budget

let decide t ~root ~site_chain ~chain_methods ~depth ~expanded_units ~call
    ~const_args =
  let emit ?(speculative = false) ~callee ~outcome () =
    emit_decision t ~root ~site_chain ~depth ~expanded_units ~const_args
      ~callee ~outcome ~speculative
  in
  let candidates =
    lazy (Rules.candidates ~exact:t.cfg.exact_match_only t.rules ~site_chain)
  in
  (* Rule callees killed by the partial-match intersection at a site in
     the root method itself are recorded as refusals, so the missing-edge
     organizer stops recommending recompilations the oracle will keep
     rejecting. *)
  (if Array.length site_chain = 1 then
     let e0 = site_chain.(0) in
     Rules.rules_at t.rules ~caller:e0.Trace.caller ~callsite:e0.Trace.callsite
     |> List.iter (fun (r : Rules.rule) ->
            let callee = r.Rules.trace.Trace.callee in
            let surviving =
              List.exists
                (fun (c, _) -> Ids.Method_id.equal c callee)
                (Lazy.force candidates)
            in
            if not surviving then begin
              t.on_refusal ~site:site_chain ~callee Context_conflict;
              emit ~callee:(Some callee)
                ~outcome:
                  (Acsi_obs.Provenance.Refused
                     (refusal_reason_to_string Context_conflict))
                ()
            end));
  let is_hot mid =
    List.exists
      (fun (c, _) -> Ids.Method_id.equal c mid)
      (Lazy.force candidates)
  in
  let consider_one ?(speculative = false) ~guarded mid =
    let callee = Program.meth t.program mid in
    match
      consider t ~root ~site_chain ~chain_methods ~depth ~expanded_units
        ~hot:(is_hot mid) ~const_args callee
    with
    | Ok target ->
        emit ~speculative ~callee:(Some mid)
          ~outcome:(Acsi_obs.Provenance.Inlined { guarded })
          ();
        Some { target; guarded; speculative }
    | Error reason ->
        emit ~speculative ~callee:(Some mid)
          ~outcome:(Acsi_obs.Provenance.Refused reason)
          ();
        None
  in
  match (call : Instr.t) with
  | Instr.Call_static mid | Instr.Call_direct mid -> (
      match consider_one ~guarded:false mid with
      | Some target -> Inline [ target ]
      | None -> No_inline)
  | Instr.Call_virtual (sel, _argc) -> (
      match Program.monomorphic_target t.program sel with
      | Some mid -> (
          (* CHA statically binds the call: no guard needed (closed world,
             see DESIGN.md). *)
          match consider_one ~guarded:false mid with
          | Some target -> Inline [ target ]
          | None -> No_inline)
      | None ->
          (* Speculation first: a site CHA cannot bind over the sealed
             universe may still be monomorphic over the *loaded* one. If
             additionally the receiver pre-exists the activation, inline
             the unique loaded target with no guard at all — the AOS
             records the assumption and deoptimizes on invalidation.
             Root-level sites only: pre-existence facts are per root
             argument. *)
          let speculated =
            match t.speculation with
            | Some s when depth = 0 -> (
                match s.spec_mono sel with
                | Some mid
                  when Array.length site_chain > 0
                       && s.spec_preexists root site_chain.(0).Trace.callsite
                  -> (
                    match consider_one ~speculative:true ~guarded:false mid with
                    | Some tgt -> Some (Inline [ tgt ])
                    | None -> None)
                | _ -> None)
            | Some _ | None -> None
          in
          (match speculated with
          | Some d -> d
          | None ->
          (* Polymorphic: guarded inlining of the profile's dominant
             targets, most frequent first. *)
          let impls = Program.implementations t.program sel in
          let hot_targets =
            Lazy.force candidates
            |> List.filter (fun (mid, _) ->
                   List.exists (Ids.Method_id.equal mid) impls)
          in
          if Option.is_some t.on_decision then begin
            (* Targets past the guard limit are refused without being
               considered; a site whose rules all died in the
               partial-match intersection gets one callee-less record. *)
            List.filteri (fun i _ -> i >= max_guarded_targets) hot_targets
            |> List.iter (fun (mid, _) ->
                   emit ~callee:(Some mid)
                     ~outcome:(Acsi_obs.Provenance.Refused "guard-limit")
                     ());
            if
              hot_targets = []
              && Array.length site_chain > 0
              && Rules.rules_at t.rules
                   ~caller:site_chain.(0).Trace.caller
                   ~callsite:site_chain.(0).Trace.callsite
                 <> []
            then
              emit ~callee:None
                ~outcome:(Acsi_obs.Provenance.Refused "no-match")
                ()
          end;
          let chosen =
            List.filteri (fun i _ -> i < max_guarded_targets) hot_targets
            |> List.filter_map (fun (mid, _) ->
                   consider_one ~guarded:true mid)
          in
          (match chosen with [] -> No_inline | _ :: _ -> Inline chosen)))
  | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
  | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
  | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
  | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _ | Instr.Put_field _
  | Instr.Get_global _ | Instr.Put_global _ | Instr.Array_new
  | Instr.Array_get | Instr.Array_set | Instr.Array_len | Instr.Return
  | Instr.Return_void | Instr.Instance_of _ | Instr.Guard_method _
  | Instr.Print_int | Instr.Nop ->
      No_inline
