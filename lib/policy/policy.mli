(** Context-sensitivity policies (paper §4).

    A policy governs how deep the trace listener walks the call stack when
    it takes a sample. [Context_insensitive] reproduces the pre-existing
    Jikes RVM behaviour (plain call edges, depth 1). [Fixed n] collects
    exactly [n] call edges when the stack allows. The adaptive policies are
    early-termination rules bounding a [Fixed n] walk:

    - [Parameterless]: stop once the method receiving state from above
      declares no parameters (nothing flows further down the chain);
    - [Class_methods]: stop once an instance (non-static) caller has been
      added — its receiver state is taken to dominate its calling context;
    - [Large_methods]: stop once a large caller has been added — a large
      method is never inlined into its parent, so context above it cannot
      be exploited;
    - the two hybrids stop when either component rule fires;
    - [Adaptive_resolving] (paper §4.3, left unimplemented there) starts
      context-insensitive and deepens only at call sites the AI organizer
      has flagged as insufficiently skewed polymorphic sites; the flag set
      lives in the AOS, so this module only carries the depth bound. *)

open Acsi_bytecode

type t =
  | Context_insensitive
  | Fixed of int
  | Parameterless of int
  | Class_methods of int
  | Large_methods of int
  | Hybrid_param_class of int
  | Hybrid_param_large of int
  | Adaptive_resolving of int

val max_depth : t -> int
(** Upper bound on collected trace depth (1 for [Context_insensitive]). *)

val name : t -> string
(** Short family name as used in the paper's figures: "cins", "fixed",
    "paramLess", "class", "large", "hybrid1", "hybrid2", "resolve". *)

val to_string : t -> string
(** e.g. ["fixed(max=3)"]. *)

val of_string : string -> t option
(** Parses [to_string]'s format as well as bare family names (which get
    max = 5, except "cins"). [None] for anything else, including a max
    below 1 (which {!max_depth} would silently raise to 1) and trailing
    text after the closing parenthesis. *)

val should_extend :
  t -> Program.t -> callee:Meth.t -> last_caller:Meth.t -> chain_len:int -> bool
(** Whether the trace listener, having already collected [chain_len] >= 1
    edges ending at [last_caller], should walk one level further.
    [Adaptive_resolving] always answers [false] here — its deepening is
    driven by the AOS flag set, not by this predicate. *)

val is_adaptive_resolving : t -> bool

val paper_sweep : t list
(** Every policy/max combination evaluated in the paper's figures:
    fixed, parameterless, class, large, hybrid1 and hybrid2 with max 2–5
    (context-insensitive is the baseline, not part of the sweep). *)
