(** Frame-state mapping for bidirectional on-stack transfer.

    For an installed optimized [Code.t], the deopt table records, per
    optimized pc, how the one physical frame suspended there decomposes
    into the stack of source (baseline) frames it subsumes: for every
    frame of the inline chain, the baseline method and pc to resume at
    and the compensation recipe — where its locals live in the optimized
    register array and which slice of the optimized operand stack is its
    residual stack. The same mapping, read in the two directions, is

    - {e deoptimization} ({!Interp.deopt_top_frame}): optimized →
      baseline, used when an inline guard fails repeatedly or a class
      load invalidates a CHA proof the code speculated on; and
    - {e generalized OSR} ({!try_osr_up} / {!Interp.osr_into}):
      baseline → optimized at arbitrary mapped pcs, including points
      where inline-region frames are live — the "OSR à la Carte" shape,
      strictly more general than the depth-compatible root-level-only
      {!Interp.osr}.

    Tables are pure functions of [(program, code)]: construction
    performs host-side analysis only and charges nothing; the AOS
    charges {!Cost.deopt_frame} per frame a transfer touches. A pc maps
    to a point only when the mapping is {e provably} valid — the source
    chain's entry depths, argument-slot residuals and region local bases
    must all be recoverable and must sum to exactly the optimized pc's
    verifier entry depth. Synthesized instructions (argument stores,
    guards' fail paths) and peephole-perturbed entries simply get no
    point; {!Acsi_analysis.Jit_check} requires speculative regions to be
    dominated by mapped pcs, not covered. *)

open Acsi_bytecode
open Acsi_vm

type point = Interp.frame_plan array
(** Source frames to reconstruct, outermost (root) first. *)

type table

type depths
(** Verifier entry depths of baseline methods, filled on first use. A
    pure function of the program, so one value serves every table built
    against it; it is mutable, so it must stay on one domain. *)

val depths : Program.t -> depths
(** An empty memo for the program's methods. *)

val table_of_code : ?depths:depths -> Program.t -> Code.t -> table
(** Build the deopt table for [code]. Baseline code yields an empty
    table (no pc needs a mapping — the code {e is} the source).
    [depths] (default: a fresh memo) must have been made for
    [program]. *)

val meth : table -> Ids.Method_id.t

val point_at : table -> pc:int -> point option
(** The valid deopt point at [pc], if the frame state there is provably
    reconstructible. *)

val point_count : table -> int
(** Number of pcs with a valid point (diagnostics and tests). *)

val covered : table -> pc:int -> bool
(** [point_at] is [Some _] — convenience for dominance checks. *)

val try_osr_up : Interp.t -> Code.t -> table -> bool
(** Attempt a generalized upward transfer: if [code] is the currently
    installed code for its method and the top frames of the VM (two or
    more — single-frame root-level transfers are {!Interp.osr}'s job)
    exactly match some point's chain (method, pc and operand-stack
    depth per frame, outermost frame running stale baseline code of the
    root), collapse them into one optimized frame via
    {!Interp.osr_into}. Returns whether a transfer happened. Only safe
    at an instruction boundary (a VM hook). *)
