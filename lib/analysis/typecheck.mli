(** Typed abstract interpretation of method bodies.

    Runs the {!Dataflow} engine with the {!Ty} kind lattice over every
    local and operand-stack slot, then re-walks the converged states
    reporting definite errors: int operations on references,
    field/array access on ints, virtual calls no class in the
    receiver's cone can answer, [Call_direct] on an unrelated receiver
    class, and any use of a value that is an int on one path and a
    reference on another ("type clash at join").

    Checking happens at the fixpoint only — never during propagation —
    because early, precise states can flag uses the converged (wider)
    state permits. Stack shapes come from {!Acsi_bytecode.Verify.effect_of},
    the transfer table shared with the depth verifier; run
    {!Acsi_bytecode.Verify.meth} first so shape errors are reported in
    their canonical form.

    On the fall-through edge of a [Guard_method] the receiver slot is
    narrowed to the expected target's owner class: passing the guard
    proves the runtime class dispatches to that exact method, which
    only classes under its owner can. *)

open Acsi_bytecode

type state = {
  locals : Ty.t array;
  stack : Ty.t list;  (** top of stack first *)
}

val analyze : Program.t -> Meth.t -> state option array
(** Converged in-state per pc; [None] for unreachable code. May raise
    {!Acsi_bytecode.Verify.Error} (shape problems) or
    {!Dataflow.Join_error} on malformed bodies. *)

val analyze_diags :
  Program.t -> Meth.t -> state option array option * Diag.t list
(** {!analyze} and {!meth_diags} from one fixpoint: the converged
    states ([None] when the analysis itself failed) and the findings. *)

val meth_diags : Program.t -> Meth.t -> Diag.t list
(** All definite type errors, in pc order. Never raises: shape and
    join failures become diagnostics. *)

val program : Program.t -> unit
(** Checks every method of the program; raises {!Diag.Error} with the
    first diagnostic, if any. *)
