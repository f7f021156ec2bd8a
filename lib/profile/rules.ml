open Acsi_bytecode

type rule = { trace : Trace.t; weight : float }

(* The oracle asks for candidates once per call site per inline expansion,
   and recompilations revisit the same roots under the same rules — so the
   same (rules, site chain) query recurs many times between AI-organizer
   passes. Results are memoized per rules value: a fresh cache is
   allocated with every [of_hot_traces] (and every [empty ()]), so new
   rules invalidate the whole cache structurally and two
   simulated systems can never share (or race on) cached state. *)

module Chain_key = struct
  type t = { exact : bool; chain : Trace.entry array; h : int }

  let make ~exact chain =
    let h = ref (if exact then 1 else 0) in
    Array.iter
      (fun (e : Trace.entry) ->
        h := (!h * 31) + Ids.Method_id.hash e.Trace.caller;
        h := (!h * 31) + e.Trace.callsite)
      chain;
    { exact; chain; h = !h land max_int }

  let equal a b =
    a.exact = b.exact
    && Array.length a.chain = Array.length b.chain
    &&
    let rec go i =
      i >= Array.length a.chain
      || (Trace.entry_equal a.chain.(i) b.chain.(i) && go (i + 1))
    in
    go 0

  let hash t = t.h
end

module Cache = Hashtbl.Make (Chain_key)

(* Indexed by the innermost chain entry (caller, callsite) — the component
   Eq. 3 always requires to match (min(k, j) >= 1). *)
type t = {
  by_site : (int * int, rule list) Hashtbl.t;
  count : int;
  cache : (Ids.Method_id.t * float) list Cache.t;
}

let empty () =
  { by_site = Hashtbl.create 1; count = 0; cache = Cache.create 1 }

let site_key (e : Trace.entry) = ((e.Trace.caller :> int), e.Trace.callsite)

let of_hot_traces hot =
  let by_site = Hashtbl.create 64 in
  List.iter
    (fun (trace, weight) ->
      let key = site_key trace.Trace.chain.(0) in
      let prev = Option.value (Hashtbl.find_opt by_site key) ~default:[] in
      Hashtbl.replace by_site key ({ trace; weight } :: prev))
    hot;
  { by_site; count = List.length hot; cache = Cache.create 64 }

let rule_count t = t.count

let rules_at t ~(caller : Ids.Method_id.t) ~callsite =
  Option.value
    (Hashtbl.find_opt t.by_site ((caller :> int), callsite))
    ~default:[]

let applicable_rules ~exact t ~site_chain =
  if Array.length site_chain = 0 then []
  else
  rules_at t
    ~caller:site_chain.(0).Trace.caller
    ~callsite:site_chain.(0).Trace.callsite
  |> List.filter (fun r ->
         let chain = r.trace.Trace.chain in
         if exact then
           Array.length chain = Array.length site_chain
           && Trace.context_matches ~rule_chain:chain ~site_chain
         else Trace.context_matches ~rule_chain:chain ~site_chain)

let applicable ?(exact = false) t ~site_chain =
  applicable_rules ~exact t ~site_chain

(* Shared tail of both implementations: the per-callee weights are summed
   in [applicable] order and folded out of the same table, so the
   optimized path reproduces the reference's result list exactly —
   including the order of equal-weight ties under the stable sort. *)
let weights_of_applicable applicable =
  let weight_of = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = (r.trace.Trace.callee :> int) in
      let prev = Option.value (Hashtbl.find_opt weight_of key) ~default:0.0 in
      Hashtbl.replace weight_of key (prev +. r.weight))
    applicable;
  weight_of

let compute_candidates ~exact t ~site_chain =
  match applicable_rules ~exact t ~site_chain with
  | [] -> []
  | applicable ->
      (* Group applicable rules by identical context; a group's callee set
         is every hot callee recorded under exactly that context. The
         groups are keyed by the chain rendered as int pairs, and each
         carries an int-keyed callee set, so both grouping and the
         intersection below are hash lookups instead of list scans. *)
      let groups : ((int * int) array, (int, unit) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun r ->
          let key =
            Array.map
              (fun (e : Trace.entry) ->
                ((e.Trace.caller :> int), e.Trace.callsite))
              r.trace.Trace.chain
          in
          let callees =
            match Hashtbl.find_opt groups key with
            | Some s -> s
            | None ->
                let s = Hashtbl.create 4 in
                Hashtbl.add groups key s;
                s
          in
          Hashtbl.replace callees (r.trace.Trace.callee :> int) ())
        applicable;
      (* Intersect the groups' callee sets; weight of a surviving callee
         is its summed weight over all applicable rules. *)
      let weight_of = weights_of_applicable applicable in
      let survivors =
        Hashtbl.fold
          (fun key w acc ->
            let in_every_group =
              Hashtbl.fold
                (fun _ callees acc -> acc && Hashtbl.mem callees key)
                groups true
            in
            if in_every_group then (Ids.Method_id.of_int key, w) :: acc
            else acc)
          weight_of []
      in
      List.sort (fun (_, a) (_, b) -> Float.compare b a) survivors

let candidates ?(exact = false) t ~site_chain =
  if Array.length site_chain = 0 then []
  else
    let key = Chain_key.make ~exact site_chain in
    match Cache.find_opt t.cache key with
    | Some result -> result
    | None ->
        let result = compute_candidates ~exact t ~site_chain in
        (* The stored key must not alias the caller's (mutable) array. *)
        Cache.add t.cache { key with Chain_key.chain = Array.copy site_chain }
          result;
        result

(* The pre-index implementation, kept verbatim as the executable spec the
   differential tests compare [candidates] against. *)
let candidates_reference ?(exact = false) t ~site_chain =
  if Array.length site_chain = 0 then []
  else
    let applicable = applicable_rules ~exact t ~site_chain in
    match applicable with
    | [] -> []
    | _ :: _ ->
        (* Group by context. Contexts are few per site; association lists
           keep the code simple. *)
        let groups = ref [] in
        List.iter
          (fun r ->
            let chain = r.trace.Trace.chain in
            let rec insert = function
              | [] -> [ (chain, ref [ r ]) ]
              | ((c, rs) as g) :: rest ->
                  if
                    Array.length c = Array.length chain
                    && Trace.context_matches ~rule_chain:c ~site_chain:chain
                  then begin
                    rs := r :: !rs;
                    g :: rest
                  end
                  else g :: insert rest
            in
            groups := insert !groups)
          applicable;
        let weight_of = weights_of_applicable applicable in
        let in_group callee (_, rs) =
          List.exists
            (fun r -> Ids.Method_id.equal r.trace.Trace.callee callee)
            !rs
        in
        let survivors =
          Hashtbl.fold
            (fun key w acc ->
              let callee = Ids.Method_id.of_int key in
              if List.for_all (in_group callee) !groups then
                (callee, w) :: acc
              else acc)
            weight_of []
        in
        List.sort (fun (_, a) (_, b) -> Float.compare b a) survivors

let iter t ~f = Hashtbl.iter (fun _ rs -> List.iter f rs) t.by_site
