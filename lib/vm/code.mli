(** Executable code, as installed in the VM's code table.

    A method's code is either its baseline compilation (the bytecode body,
    executed at baseline per-instruction cost) or an optimized compilation
    produced by the JIT (inline-expanded bytecode at optimized cost).

    Optimized code carries a *source map*: for every pc, the source-level
    method and pc the instruction came from, plus the chain of inline
    parents (caller, callsite) within the same physical frame. This is the
    mechanism that lets the trace listener recover the source-level view of
    optimized stack frames (paper §3.3, "Optimized Stack Frames"). *)

open Acsi_bytecode

type tier = Baseline | Optimized

type src_entry = {
  src_meth : Ids.Method_id.t;
      (** source method owning this instruction (the innermost inlinee) *)
  src_pc : int;
      (** pc within that method's baseline body; [-1] for instructions the
          JIT synthesized (guards, argument stores, rewired jumps) *)
  parents : (Ids.Method_id.t * int) list;
      (** inline parents, innermost-first: [(caller, callsite src pc)] *)
}

type t = {
  meth : Ids.Method_id.t;
  tier : tier;
  instrs : Instr.t array;
  max_locals : int;
  max_stack : int;
  src : src_entry array option;  (** [None] for baseline (identity map) *)
  code_bytes : int;  (** modeled machine-code size *)
  assumptions : (Ids.Selector.t * Ids.Method_id.t) list;
      (** CHA proofs this code speculates on without a guard:
          [(sel, target)] means "every loaded receiver class dispatches
          [sel] to [target]". Empty for baseline and for fully guarded
          optimized code. Loading a class that violates an assumption
          must deoptimize/discard the code before the class is used. *)
}

val baseline : Cost.t -> Meth.t -> t
(** The baseline compilation of a method: its body verbatim. *)

val entry_depths : Program.t -> t -> int array
(** Per-pc operand-stack entry depths of the code's body, derived by the
    bytecode verifier with the body seen as its root method (the root's
    signature, the code's [max_locals] and [max_stack]). Raises
    [Verify.Error] on a body the verifier rejects. *)

val source_at : t -> pc:int -> (Ids.Method_id.t * int) * (Ids.Method_id.t * int) list
(** [source_at code ~pc] is [((m, src_pc), parents)]: the source-level
    method and pc executing at [pc], plus the inline parents within this
    physical frame, innermost-first. *)

val pp : Format.formatter -> t -> unit
