(** Program lints: typed verification plus style/deadness findings.

    Runs the structural verifier and the typed verifier over every
    method, then reports unreachable instruction ranges and local slots
    that are never read or written.

    Two deliberate exemptions keep the compiler's own output clean: a
    trailing unreachable return (the front end appends an epilogue
    [Return_void] that explicit returns can strand), and local slot 0
    of a parameterless static method (the front end always allocates at
    least one slot). *)

open Acsi_bytecode

val meth : Program.t -> Meth.t -> Diag.t list
val program : Program.t -> Diag.t list
(** Findings for every method, in declaration order. *)

val program_notes : ?summaries:Summary.table -> Program.t -> Diag.t list
(** Advisory notes backed by interprocedural summaries, for every method
    in declaration order — dead work the intraprocedural lints cannot
    see: the result of a provably pure call immediately discarded, a call
    to an always-throwing method, and a virtual dispatch CHA proves
    monomorphic. Empty for methods that fail verification (the hard
    findings cover those). Computes the summary table once when not
    supplied. *)
