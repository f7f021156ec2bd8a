(** Method size classification (paper §3.1).

    Jikes RVM buckets inline candidates by the estimated machine-code size
    of the inlined body, measured in multiples of the code required for a
    method call:

    - {e tiny} (< 2x a call): unconditionally inlined when statically
      bound without a guard;
    - {e small} (2–5x): inlined subject to code-expansion and depth
      heuristics;
    - {e medium} (5–25x): candidates for profile-directed inlining only;
    - {e large} (> 25x): never inlined.

    The size estimate is adjusted downward when a call site passes constant
    arguments, modeling the expected benefit of constant folding inside the
    inlined body (paper footnote 1). *)

open Acsi_bytecode

type clazz = Tiny | Small | Medium | Large

val call_units : int
(** Instruction units a method call occupies (the classification unit). *)

val classify : units:int -> clazz

val clazz_of : Meth.t -> clazz
(** Classification of a method's unadjusted body size. *)

val estimate : Meth.t -> const_args:int -> int
(** Inline size estimate in units, reduced for each constant argument. *)

val const_args_at : Instr.t array -> pc:int -> int
(** How many of the arguments of the call at [pc] are provably constants —
    a shallow scan of the instructions that pushed them. *)

