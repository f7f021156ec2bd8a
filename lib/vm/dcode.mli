(** Pre-decoded execution form of a {!Code.t}.

    Built once at code-install time so the interpreter's inner loop pays
    neither per-instruction tier resolution (the per-dispatch cost is
    resolved into {!t.icost}) nor repeated decoding. A peephole pass fuses
    common straight-line sequences ([load;load;binop],
    [load;const;cmp;jump_ifnot], ...) into superinstructions.

    Cost neutrality is a hard invariant: executing the decoded stream
    charges exactly the virtual cycles, fires hooks at exactly the cycle
    counts, and produces exactly the state the naive instruction-at-a-time
    interpretation of the source [Code.t] would — superinstructions only
    collapse interpreter {e dispatch} overhead, which is real time, not
    virtual time. The decoded stream is indexed 1:1 by source pc (fused
    ops are an optional per-slot fast path), so frame pcs remain source
    pcs: jumps into fused regions, inline maps, and OSR need no
    translation. *)

open Acsi_bytecode

type op =
  | Const of Value.t  (** covers [Const] and [Const_null] *)
  | Load of int
  | Store of int
  | Dup
  | Pop
  | Swap
  | Binop of Instr.binop
  | Neg
  | Not
  | Cmp of Instr.cmp
  | Jump of int
  | Jump_if of int
  | Jump_ifnot of int
  | New of Ids.Class_id.t
  | Get_field of int
  | Put_field of int
  | Get_global of int
  | Put_global of int
  | Array_new
  | Array_get
  | Array_set
  | Array_len
  | Call of Ids.Method_id.t  (** covers [Call_static] and [Call_direct] *)
  | Call_virtual of Ids.Selector.t * int
  | Return
  | Return_void
  | Instance_of of Ids.Class_id.t
  | Guard of Instr.guard
  | Print_int
  | Nop
  | Load2_binop of int * int * Instr.binop
  | Load_const_binop of int * int * Instr.binop
  | Load2_binop_store of int * int * Instr.binop * int
  | Load_const_binop_store of int * int * Instr.binop * int
  | Load_getfield_store of int * int * int
  | Load2_cmp_jumpifnot of int * int * Instr.cmp * int
  | Load_const_cmp_jumpifnot of int * Value.t * Instr.cmp * int
  | Load_store of int * int
  | Const_store of Value.t * int
  | Load_getfield of int * int
  | Load2 of int * int
  | Cmp_jumpifnot of Instr.cmp * int
  | Cmp_jumpif of Instr.cmp * int
  | Binop_store of Instr.binop * int
  | Const_binop of int * Instr.binop
  | Load_jumpifnot of int * int
  | Store_load of int * int
  | Store_store of int * int
  | Store_jump of int * int
  | Getfield_load of int * int
  | Load_binop of int * Instr.binop
  | Load_cmp of int * Instr.cmp
  | Load_arrayget of int
  | Binop_const of Instr.binop * Value.t
  | Binop_binop of Instr.binop * Instr.binop
  | Const_cmp of Value.t * Instr.cmp
  | Arrayget_store of int

type t = {
  ops : op array;  (** same length as the source [Code.instrs] *)
  icost : int;  (** per-instruction dispatch cost of this code's tier *)
}

val width : op -> int
(** Number of source instructions the op covers (1 for non-fused ops). *)

val of_code : Cost.t -> Code.t -> t
(** Decode [code], fusing every superinstruction pattern. *)

val fused_count : t -> int
(** Number of slots holding a superinstruction (for tests/inspection). *)
