(** JIT-output verification.

    Re-verifies every [Code.t] the JIT produces — structural
    well-formedness and typed verification of the expanded body via the
    shared transfer table, plus the transformation-specific invariants
    the interpreter and OSR machinery rely on:

    - {b inline-map validity}: every source entry names an existing
      method and pc, every parent link is a call site, and root-level
      entries name the compiled root;
    - {b guard domination}: every instruction of a devirtualized inline
      region is dominated by a [Guard_method] for exactly that target
      at that call site — unless class-hierarchy analysis proves the
      selector monomorphic, or the call site was statically bound (in
      which case the inlined body must be the bound target);
    - {b return discipline}: a rewritten return (a [Jump] whose source
      instruction is a return of an inlined frame) never lands back in
      its own or a more deeply nested inline region (jump threading may
      legally carry it to any {e ancestor} frame);
    - {b OSR compatibility}: for each root source pc, the first
      optimized entry the interpreter would transfer onto has the same
      operand-stack depth as the source, with pairwise-compatible
      types. *)

open Acsi_bytecode
open Acsi_vm

val wrapper_of : Program.t -> Code.t -> Meth.t
(** The compiled body wrapped as a method (named [root$opt]) so the
    verifier and the typed checker can run on it unchanged. *)

type facts
(** What install checks re-read of one program and never change: each
    source root's typed in-states and the baseline entry depths deopt
    tables need, filled on first use. Mutable, so a value belongs to one
    adaptive system (one domain at a time); the class-hierarchy facts
    every check also reads are fixed in the program at sealing. *)

val facts : Program.t -> facts
(** Empty facts for the program. *)

val deopt_depths : facts -> Acsi_deopt.Deopt.depths
(** The baseline entry-depth memo, for deopt tables built alongside. *)

val check : ?facts:facts -> Program.t -> Code.t -> Diag.t list
(** All findings, in pc order. Baseline code (no source map) is the
    method body itself and trivially passes. [facts] (default: fresh)
    carries per-program work over from earlier checks; the findings
    are the same either way. Raises [Invalid_argument] when [facts]
    were made for another program. *)
