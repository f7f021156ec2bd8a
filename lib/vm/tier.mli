(** The closure ("native") second execution tier.

    Compiles a method's installed {!Code.t} into OCaml closures, in the
    manner of the OCamlJIT line of work: each basic block is evaluated
    symbolically into expression trees (leaves are registers and
    constants read in place, interior nodes are closures specialized on
    their operands' shapes), and each statement consuming a tree — a
    store, a field, array or global write, [Print_int], [Pop], a branch
    — is one closure tailing into the next. No closure keeps a stack
    pointer: the slot for depth [d] at any pc is the static
    [max_locals + d], and only values still pending at a block end are
    written to it. Evaluation order (traps, heap reads, output)
    is exactly the naive loop's ({!Interp.run_reference}).

    Frames, operand layout, the virtual clock, hooks and preemption
    windows are shared with {!Interp}. Window accounting is prepaid per
    straight-line run (which continues through forward jumps), and
    branches and backward jumps prepay their target inline.
    {!Interp.exec_until} runs one instruction at a time in exactly two
    places: the window tail once a run no longer fits the budget, and
    the rest of a run entered at a pc that starts no block (after a
    window ended mid-run, or by OSR), executed to the clock of exactly
    that run's cost. So cycle counts, hook firing points, counters and
    output stay bit-identical to {!Interp.run_reference} (enforced by
    the differential tests).

    Installation is gated by the AOS ({!Acsi_aos}): only methods whose
    optimized code passes [Jit_check] are compiled to this tier, so the
    unsafe array accesses of the closures and of {!Interp}'s call and
    return sequences remain bounded by the verifier's guarantees. *)

open Acsi_bytecode

val compile : Interp.t -> Code.t -> Interp.nfn array * int array
(** [compile t code] builds the closure-tier entry points for [code] (one
    per source pc) plus the operand-stack entry depth per pc (from
    {!Code.entry_depths}, used to cross-check OSR transfers onto
    compiled entry points). Does not install anything. *)

val install : Interp.t -> Ids.Method_id.t -> Code.t -> unit
(** Compile [code] — which must be what {!Interp.install_code} most
    recently installed for [mid] — and activate it via
    {!Interp.install_native}. New invocations of [mid] then run on the
    closure tier; frames already live keep their current tier. Nothing
    is cached: each VM compiles a baseline method at its first
    execution, and again after a deopt reverts it. *)
