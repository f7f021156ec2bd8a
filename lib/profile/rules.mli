(** Inlining rules: the hot traces the adaptive-inlining organizer exports,
    indexed for the oracle's partial-match queries.

    A rule says "callee X, reached through context C, is hot and should be
    inlined if possible". Rules are rebuilt from the dynamic call graph on
    every AI-organizer pass; hot traces are *not* merged across depths —
    merging happens only through partial matching at query time (the
    paper's hybrid approach). *)

open Acsi_bytecode

type rule = { trace : Trace.t; weight : float }

type t

val empty : unit -> t
(** A fresh, unshared empty rule set. Allocated per call: a rules value
    carries a (mutable) memoization cache, and concurrently simulated
    systems must never alias profile state. *)

val of_hot_traces : (Trace.t * float) list -> t
(** {!candidates} results are memoized per rules value, so a new
    [of_hot_traces] structurally invalidates every cached query. *)

val rule_count : t -> int

val rules_at : t -> caller:Ids.Method_id.t -> callsite:int -> rule list
(** Every rule whose innermost chain entry is this call site. *)

val applicable :
  ?exact:bool -> t -> site_chain:Trace.entry array -> rule list
(** Every rule applicable to the compilation context under Eq. 3 partial
    matching: the rule's chain and [site_chain] agree on their first
    [min] entries (all entries, with [exact]). The raw evidence behind
    {!candidates} — exposed for decision provenance, which reports each
    candidate's match depth and summed weight. *)

val candidates :
  ?exact:bool -> t -> site_chain:Trace.entry array -> (Ids.Method_id.t * float) list
(** The oracle query (paper §3.3). [site_chain] is the compilation context,
    innermost-first: entry 0 is the call site being compiled, deeper
    entries come from inline parents already committed by the expander.

    Returns the callees to consider for (guarded) inlining, heaviest
    first: rules applicable under Eq. 3 are grouped by identical context,
    each group contributes its callee set, and the groups' sets are
    intersected.

    With [exact] (an ablation of the paper's partial matching), a rule is
    applicable only when its context equals the site chain exactly.

    Results are memoized on [(exact, site_chain)] within this rules
    value: repeated compiles of the same root under the same rules hit
    the cache instead of recomputing the partial-match intersection. *)

val candidates_reference :
  ?exact:bool -> t -> site_chain:Trace.entry array -> (Ids.Method_id.t * float) list
(** The pre-index implementation of {!candidates} (list-scan groups, no
    memoization), kept as the executable specification for differential
    tests. Must agree with {!candidates} exactly, including result
    order. *)

val iter : t -> f:(rule -> unit) -> unit
