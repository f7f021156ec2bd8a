(** The closure ("native") second execution tier.

    Compiles a method's installed {!Code.t} into direct-threaded chains
    of OCaml closures, the technique of the OCamlJIT line of work: one
    entry closure per source pc, straight-line runs linked by directly
    captured successor closures, control transfers re-entering through
    the target's entry closure. Common straight-line sequences
    ([load;load;binop], [load;const;cmp;jump_ifnot], ...) compile to one
    superinstruction closure each ({!fuse_at}); superinstructions exist
    only here, never in {!Interp.step}. Frames, operand layout, the
    virtual clock, hooks and preemption windows are all shared with
    {!Interp}; the tier is an exact host-speed re-encoding of the
    interpreter's observable semantics. Window accounting is *prepaid*
    per straight-line run, and any run that no longer fits the window is
    handed back to {!Interp.step} on the source instructions, so cycle
    counts, hook firing points, counters and output stay bit-identical
    to {!Interp.run_reference} (enforced by the differential tests).

    Installation is gated by the AOS ({!Acsi_aos}): only methods whose
    optimized code passes [Jit_check] are compiled to this tier, so the
    unsafe array accesses the closures share with the interpreter remain
    bounded by the verifier's guarantees. *)

open Acsi_bytecode

val compile : Interp.t -> Code.t -> Interp.nfn array * int array
(** [compile t code] builds the closure-tier entry points for [code] (one
    per source pc) plus the operand-stack entry depth per pc (from
    {!Verify.entry_depths}, used to cross-check OSR transfers onto
    compiled entry points). Does not install anything. *)

val fuse_at : Instr.t array -> int -> (string * int) option
(** [fuse_at instrs pc] is the superinstruction {!compile} selects at
    [pc] — its name and the number of source instructions it covers —
    or [None] when [pc] compiles to a plain closure. The longest
    matching pattern wins; every component has a plain per-dispatch
    cost, so a superinstruction charges exactly [width] instructions'
    worth of cycles. *)

val install : Interp.t -> Ids.Method_id.t -> Code.t -> unit
(** Compile [code] — which must be what {!Interp.install_code} most
    recently installed for [mid] — and activate it via
    {!Interp.install_native}. New invocations of [mid] then run on the
    closure tier; frames already live keep their current tier. *)

(** {2 Shared baseline-compile cache statistics}

    The MRU (program, cost) cache that lets concurrent VMs of the
    same program share baseline closure code is process-global; so are
    its traffic counters. They are host-side observability only — they
    never feed the virtual clock — and under parallel sweeps the
    hit/miss split depends on domain interleaving, so they must not be
    folded into per-run {!Metrics}-style determinism-checked output. *)

type cache_stats = { hits : int; misses : int; evictions : int }

val cache_stats : unit -> cache_stats
val reset_cache_stats : unit -> unit
