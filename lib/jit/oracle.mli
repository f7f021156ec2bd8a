(** The Inlining Oracle (paper §3.1).

    The optimizing compiler consults the oracle at every call site to learn
    which callees, if any, to inline there. The oracle combines:

    - static heuristics: size classes ({!Size}), inline depth (5, or 7
      for profile-hot small and all tiny callees) and code expansion
      budgets ([4 * root_size + 60] units, or [6 * root_size + 60]),
      at most two guarded targets per polymorphic site, class-hierarchy
      analysis for static binding;
    - profile-directed rules: the hot traces exported by the adaptive
      inlining organizer, matched against the compilation context with
      partial matching (paper Eq. 3).

    Profile data extends the static heuristics exactly the three ways the
    paper lists: enabling guarded inlining at polymorphic virtual sites,
    admitting medium-sized methods, and letting small methods exceed the
    normal depth/expansion limits.

    Refusals of profile-recommended inlines are reported through a callback
    so the AOS database can stop the missing-edge organizer from
    re-recommending them. *)

open Acsi_bytecode
open Acsi_profile

type config = {
  exact_match_only : bool;
      (** ablation: disable Eq. 3 partial matching — a rule applies only
          when its recorded context equals the compilation context *)
  peephole : bool;
      (** run classical peephole optimization on expanded code (see
          {!Peephole}); off = ablation *)
}

val default_config : config

type refusal_reason =
  | Too_large
  | Budget
  | Depth
  | Recursive
  | Context_conflict
      (** the callee is hot at this site under some contexts, but the
          applicable contexts disagree and the compilation context cannot
          discriminate (empty partial-match intersection) *)

val refusal_reason_to_string : refusal_reason -> string

val all_refusal_reasons : refusal_reason list
(** Every reason, in declaration order — the canonical order for
    per-reason breakdowns. *)

type target = {
  target : Ids.Method_id.t;
  guarded : bool;  (** true: protect with a method-test guard + fallback *)
  speculative : bool;
      (** unguarded by speculation, not CHA proof: the expander must
          record the (selector, target) assumption on the emitted code *)
}

type decision = No_inline | Inline of target list

type speculation = {
  spec_mono : Ids.Selector.t -> Ids.Method_id.t option;
      (** unique dispatch target of the selector over the {e loaded}
          class universe; [None] when absent or not unique *)
  spec_preexists : Meth.t -> int -> bool;
      (** [spec_preexists root pc]: the receiver of the virtual call at
          [root]'s [pc] provably pre-exists the activation (see
          {!Acsi_analysis.Preexist}) *)
}
(** Runtime evidence providers for guard-free speculation, supplied by
    the AOS — the oracle has no view of what is loaded. *)

type t

val create : ?config:config -> Program.t -> t

val config : t -> config
val set_rules : t -> Rules.t -> unit

val set_on_refusal :
  t ->
  (site:Trace.entry array -> callee:Ids.Method_id.t -> refusal_reason -> unit) ->
  unit

val set_speculation : t -> speculation option -> unit
(** Install (or clear) the speculation evidence providers. With one
    installed, the oracle inlines a root-level virtual site that is
    monomorphic over the loaded classes with {e no} guard when the
    receiver provably pre-exists the activation, so the caller must be
    prepared to deoptimize on invalidation. Without one it never
    speculates. *)

val set_on_decision : t -> (Acsi_obs.Provenance.info -> unit) -> unit
(** Install a decision-provenance sink: one record per callee the oracle
    considers (inlined or refused, with the Eq. 3 match evidence and
    budget state behind the verdict), plus records the refusal callback
    never sees — ["not-hot"] medium callees, ["guard-limit"] hot targets
    past the two guarded targets a site may take, and a callee-less ["no-match"] when a
    polymorphic site has rules but none survive partial matching.
    Building records is pure (reads the memoized rule index only) and
    skipped entirely when no sink is installed, so installing one never
    changes a decision. *)

val decide :
  t ->
  root:Meth.t ->
  site_chain:Trace.entry array ->
  chain_methods:Ids.Method_id.t list ->
  depth:int ->
  expanded_units:int ->
  call:Instr.t ->
  const_args:int ->
  decision
(** [site_chain] is the compilation context, innermost-first; entry 0 is
    the call site itself. [chain_methods] are the methods already in the
    current inline chain (recursion prevention); [depth] the current
    inline depth; [expanded_units] the units emitted so far for [root]. *)
