(** Inline-decision provenance: why the oracle inlined — or refused —
    every context-sensitive candidate it considered.

    The oracle (paper §3.1) reaches each verdict from three ingredients:
    the compilation context (the chain of call sites being expanded,
    innermost-first), the profile rules matched against that context
    under Eq. 3 partial matching, and the static size/depth budgets.
    A {!decision} record captures all three at the moment of the
    verdict, so a run can be debugged decision-by-decision afterwards
    ([acsi-run explain]) instead of from end-of-run aggregates.

    Records are appended by the oracle's decision sink and never
    influence the run: building them reads profile state but charges no
    cycles and mutates nothing outside this store. *)

open Acsi_bytecode
open Acsi_profile

type outcome =
  | Inlined of { guarded : bool }
  | Refused of string
      (** taxonomy string from {!Acsi_jit.Oracle.refusal_reason_to_string}
          (["too-large"], ["budget"], ["depth"], ["recursive"],
          ["context-conflict"], ["not-hot"], ["guard-limit"]) or
          ["no-match"] when no profile rule survived partial matching at
          a polymorphic site (then [i_callee] is [None]). *)

type info = {
  i_root : Ids.Method_id.t;  (** method being optimized *)
  i_context : Trace.entry array;
      (** compilation context, innermost-first; entry 0 is the call
          site itself *)
  i_callee : Ids.Method_id.t option;
      (** candidate under consideration; [None] only for ["no-match"] *)
  i_outcome : outcome;
  i_match_depth : int;
      (** Eq. 3 partial-match depth: over the applicable rules for this
          callee, the maximum number of innermost chain entries shared
          with the compilation context (0 = no rule matched; the
          candidate came from static heuristics alone) *)
  i_match_weight : float;
      (** summed weight of the applicable rules backing this candidate
          (the oracle's hotness evidence; 0 when no rule matched) *)
  i_matched_rule : Trace.t option;
      (** the deepest (ties: heaviest) applicable rule's trace *)
  i_inline_depth : int;  (** inline depth at the decision *)
  i_expanded_units : int;  (** units already emitted for the root *)
  i_est : int;  (** estimated size of the candidate body, in units *)
  i_budget_limit : int;
      (** normal expansion budget: [factor * root + slack] units *)
  i_budget_ext_limit : int;  (** extended budget for hot/tiny callees *)
  i_speculative : bool;
      (** the inline was emitted with {e no} guard on the strength of a
          loaded-CHA monomorphism proof plus receiver pre-existence;
          safety rests on deopt-on-invalidation, not on a check *)
}

type source =
  | Sampled
      (** the ordinary reactive path: the oracle consulted profile rules
          built from DCG samples (even if none matched) *)
  | Static
      (** the static pre-warm oracle: the decision was reached at
          method-install time from interprocedural summaries
          ({!Acsi_analysis.Summary}), before any sample existed *)
  | Speculative
      (** the decision carries at least one guard-free speculative
          inline ([i_speculative]); the installed code records the CHA
          assumption and relies on deoptimization for safety *)

type decision = private {
  d_seq : int;  (** 0-based emission order *)
  d_cycle : int;  (** virtual cycle when the oracle decided *)
  d_source : source;
  d_info : info;
}

(** {2 Install decisions}

    A second reason axis, orthogonal to inlining: what happened when the
    AOS installed code for a method (baseline, compiled or adopted). *)

type tier_outcome =
  | Tier_compiled  (** installed, closure-tier code included *)
  | Install_refused of string
      (** [Jit_check] refused the code (first diagnostic, rendered):
          nothing was installed, the method keeps its current code *)
  | Tier_fell_back of string
      (** installed on the interpreter, but the tier compiler failed;
          the method runs on the interpreter tier *)

type tier_decision = private {
  td_seq : int;  (** 0-based emission order, separate from inline seq *)
  td_cycle : int;  (** virtual cycle at the decision *)
  td_meth : Ids.Method_id.t;
  td_outcome : tier_outcome;
}

type t

val create : ?now:(unit -> int) -> unit -> t
(** [now] reads the virtual clock for {!decision.d_cycle} (default:
    always 0). *)

val add : ?source:source -> t -> info -> unit
(** Default source: {!Sampled}. *)

val add_tier : t -> Ids.Method_id.t -> tier_outcome -> unit

val count : t -> int
val all : t -> decision list
(** Emission order. *)

val tier_count : t -> int
val tier_all : t -> tier_decision list
(** Emission order. *)

val tier_outcome_counts : t -> int * int * int
(** [(compiled, refused, fell_back)]. *)

val at : t -> caller:Ids.Method_id.t -> ?callsite:int -> unit -> decision list
(** Decisions whose innermost context entry is a call site in [caller]
    (optionally at exactly [callsite]). *)

val outcome_counts : t -> int * int
(** [(inlined, refused)]. *)

val source_counts : t -> int * int * int
(** [(sampled, static, speculative)]: decisions by {!source}. *)

val pp_decision :
  name:(Ids.Method_id.t -> string) ->
  Format.formatter ->
  decision ->
  unit
(** One multi-line, human-readable record; [name] resolves method ids
    (e.g. via [Program.meth]). *)

val pp_tier_decision :
  name:(Ids.Method_id.t -> string) ->
  Format.formatter ->
  tier_decision ->
  unit
(** One-line record for an install decision. *)
