(** Inline size estimates for the oracle. The size classes themselves
    (paper §3.1) are {!Acsi_bytecode.Meth.size_class}.

    The size estimate is adjusted downward when a call site passes constant
    arguments, modeling the expected benefit of constant folding inside the
    inlined body (paper footnote 1). *)

open Acsi_bytecode

type clazz = Meth.size_class = Tiny | Small | Medium | Large

val classify : units:int -> clazz
(** {!Meth.classify}. *)

val estimate : Meth.t -> const_args:int -> int
(** Inline size estimate in units, reduced for each constant argument. *)

val const_args_at : Instr.t array -> pc:int -> int
(** How many of the arguments of the call at [pc] are provably constants —
    a shallow scan of the instructions that pushed them. *)
