open Acsi_bytecode

(* The decoded stream is indexed 1:1 by source pc: the slot for every pc
   holds an executable op, and a superinstruction at [pc] is an *optional
   fast path* covering [width] source instructions — the covered slots
   keep their own single-instruction ops, so jumps into the middle of a
   fused region, OSR transfers, and partial execution near a timer event
   all work without any pc remapping. *)

type op =
  (* one source instruction each *)
  | Const of Value.t
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
  | Call of Ids.Method_id.t  (* Call_static and Call_direct *)
  | Call_virtual of Ids.Selector.t * int
  | Return
  | Return_void
  | Instance_of of Ids.Class_id.t
  | Guard of Instr.guard
  | Print_int
  | Nop
  (* superinstructions; the first component is always reconstructible so
     the interpreter can fall back to single-step execution when a timer
     event lies inside the fused window *)
  | Load2_binop of int * int * Instr.binop  (* load i; load j; binop *)
  | Load_const_binop of int * int * Instr.binop  (* load i; const n; binop *)
  | Load2_binop_store of int * int * Instr.binop * int
      (* load i; load j; binop; store d *)
  | Load_const_binop_store of int * int * Instr.binop * int
      (* load i; const n; binop; store d *)
  | Load_getfield_store of int * int * int  (* load i; get_field f; store d *)
  | Load2_cmp_jumpifnot of int * int * Instr.cmp * int
      (* load i; load j; cmp; jump_ifnot target *)
  | Load_const_cmp_jumpifnot of int * Value.t * Instr.cmp * int
      (* load i; const n; cmp; jump_ifnot target *)
  | Load_store of int * int  (* load i; store j *)
  | Const_store of Value.t * int  (* const n; store j *)
  | Load_getfield of int * int  (* load i; get_field f *)
  | Load2 of int * int  (* load i; load j *)
  | Cmp_jumpifnot of Instr.cmp * int  (* cmp; jump_ifnot target *)
  | Cmp_jumpif of Instr.cmp * int  (* cmp; jump_if target *)
  | Binop_store of Instr.binop * int  (* binop; store j *)
  | Const_binop of int * Instr.binop  (* const n; binop *)
  | Load_jumpifnot of int * int  (* load i; jump_ifnot target *)
  | Store_load of int * int  (* store i; load j *)
  | Store_store of int * int  (* store i; store j *)
  | Store_jump of int * int  (* store i; jump target *)
  | Getfield_load of int * int  (* get_field f; load j *)
  | Load_binop of int * Instr.binop  (* load i; binop *)
  | Load_cmp of int * Instr.cmp  (* load i; cmp *)
  | Load_arrayget of int  (* load i; array_get *)
  | Binop_const of Instr.binop * Value.t  (* binop; const n *)
  | Binop_binop of Instr.binop * Instr.binop  (* binop; binop *)
  | Const_cmp of Value.t * Instr.cmp  (* const n; cmp *)
  | Arrayget_store of int  (* array_get; store j *)

type t = {
  ops : op array;  (* same length as the source [Code.instrs] *)
  icost : int;  (* per-instruction dispatch cost of this code's tier *)
}

let width = function
  | Const _ | Load _ | Store _ | Dup | Pop | Swap | Binop _ | Neg | Not
  | Cmp _ | Jump _ | Jump_if _ | Jump_ifnot _ | New _ | Get_field _
  | Put_field _ | Get_global _ | Put_global _ | Array_new | Array_get
  | Array_set | Array_len | Call _ | Call_virtual _ | Return | Return_void
  | Instance_of _ | Guard _ | Print_int | Nop ->
      1
  | Load_store _ | Const_store _ | Load_getfield _ | Load2 _
  | Cmp_jumpifnot _ | Cmp_jumpif _ | Binop_store _ | Const_binop _
  | Load_jumpifnot _ | Store_load _ | Store_store _ | Store_jump _
  | Getfield_load _ | Load_binop _ | Load_cmp _ | Load_arrayget _
  | Binop_const _ | Binop_binop _ | Const_cmp _ | Arrayget_store _ ->
      2
  | Load2_binop _ | Load_const_binop _ | Load_getfield_store _ -> 3
  | Load2_cmp_jumpifnot _ | Load_const_cmp_jumpifnot _ | Load2_binop_store _
  | Load_const_binop_store _ ->
      4

let plain (i : Instr.t) : op =
  match i with
  | Instr.Const n -> Const (Value.of_int n)
  | Instr.Const_null -> Const Value.null
  | Instr.Load i -> Load i
  | Instr.Store i -> Store i
  | Instr.Dup -> Dup
  | Instr.Pop -> Pop
  | Instr.Swap -> Swap
  | Instr.Binop op -> Binop op
  | Instr.Neg -> Neg
  | Instr.Not -> Not
  | Instr.Cmp c -> Cmp c
  | Instr.Jump t -> Jump t
  | Instr.Jump_if t -> Jump_if t
  | Instr.Jump_ifnot t -> Jump_ifnot t
  | Instr.New c -> New c
  | Instr.Get_field i -> Get_field i
  | Instr.Put_field i -> Put_field i
  | Instr.Get_global i -> Get_global i
  | Instr.Put_global i -> Put_global i
  | Instr.Array_new -> Array_new
  | Instr.Array_get -> Array_get
  | Instr.Array_set -> Array_set
  | Instr.Array_len -> Array_len
  | Instr.Call_static m | Instr.Call_direct m -> Call m
  | Instr.Call_virtual (s, n) -> Call_virtual (s, n)
  | Instr.Return -> Return
  | Instr.Return_void -> Return_void
  | Instr.Instance_of c -> Instance_of c
  | Instr.Guard_method g -> Guard g
  | Instr.Print_int -> Print_int
  | Instr.Nop -> Nop

(* Peephole superinstruction selection at [pc]; longest pattern wins. The
   components are all plain-cost instructions (no calls, allocations or
   guards), so a fused op charges exactly [width * icost] — cost-neutral
   by construction. *)
let fuse_at instrs pc n =
  let at k = if pc + k < n then Some instrs.(pc + k) else None in
  match (instrs.(pc), at 1) with
  | Instr.Load i, Some (Instr.Load j) -> (
      match at 2 with
      | Some (Instr.Binop op) -> (
          match at 3 with
          | Some (Instr.Store d) -> Some (Load2_binop_store (i, j, op, d))
          | _ -> Some (Load2_binop (i, j, op)))
      | Some (Instr.Cmp c) -> (
          match at 3 with
          | Some (Instr.Jump_ifnot t) -> Some (Load2_cmp_jumpifnot (i, j, c, t))
          | _ -> Some (Load2 (i, j)))
      | _ -> Some (Load2 (i, j)))
  | Instr.Load i, Some (Instr.Const k) -> (
      match at 2 with
      | Some (Instr.Binop op) -> (
          match at 3 with
          | Some (Instr.Store d) -> Some (Load_const_binop_store (i, k, op, d))
          | _ -> Some (Load_const_binop (i, k, op)))
      | Some (Instr.Cmp c) -> (
          match at 3 with
          | Some (Instr.Jump_ifnot t) ->
              Some (Load_const_cmp_jumpifnot (i, Value.of_int k, c, t))
          | _ -> None)
      | _ -> None)
  | Instr.Load i, Some (Instr.Store j) -> Some (Load_store (i, j))
  | Instr.Load i, Some (Instr.Get_field f) -> (
      match at 2 with
      | Some (Instr.Store d) -> Some (Load_getfield_store (i, f, d))
      | _ -> Some (Load_getfield (i, f)))
  | Instr.Load i, Some (Instr.Jump_ifnot t) -> Some (Load_jumpifnot (i, t))
  | Instr.Load i, Some (Instr.Binop op) -> Some (Load_binop (i, op))
  | Instr.Load i, Some (Instr.Cmp c) -> Some (Load_cmp (i, c))
  | Instr.Load i, Some Instr.Array_get -> Some (Load_arrayget i)
  | Instr.Store i, Some (Instr.Load j) -> Some (Store_load (i, j))
  | Instr.Store i, Some (Instr.Store j) -> Some (Store_store (i, j))
  | Instr.Store i, Some (Instr.Jump t) -> Some (Store_jump (i, t))
  | Instr.Get_field f, Some (Instr.Load j) -> Some (Getfield_load (f, j))
  | Instr.Const k, Some (Instr.Store j) ->
      Some (Const_store (Value.of_int k, j))
  | Instr.Const k, Some (Instr.Binop op) -> Some (Const_binop (k, op))
  | Instr.Const k, Some (Instr.Cmp c) -> Some (Const_cmp (Value.of_int k, c))
  | Instr.Cmp c, Some (Instr.Jump_ifnot t) -> Some (Cmp_jumpifnot (c, t))
  | Instr.Cmp c, Some (Instr.Jump_if t) -> Some (Cmp_jumpif (c, t))
  | Instr.Binop op, Some (Instr.Store j) -> Some (Binop_store (op, j))
  | Instr.Binop op, Some (Instr.Const n) ->
      Some (Binop_const (op, Value.of_int n))
  | Instr.Binop op1, Some (Instr.Binop op2) -> Some (Binop_binop (op1, op2))
  | Instr.Array_get, Some (Instr.Store j) -> Some (Arrayget_store j)
  | _ -> None

let of_code (cost : Cost.t) (code : Code.t) =
  let icost =
    match code.Code.tier with
    | Code.Baseline -> cost.Cost.baseline_instr
    | Code.Optimized -> cost.Cost.opt_instr
  in
  let instrs = code.Code.instrs in
  let n = Array.length instrs in
  let ops = Array.init n (fun i -> plain instrs.(i)) in
  for pc = 0 to n - 1 do
    match fuse_at instrs pc n with
    | Some op -> ops.(pc) <- op
    | None -> ()
  done;
  { ops; icost }

let fused_count t =
  Array.fold_left (fun acc op -> if width op > 1 then acc + 1 else acc) 0 t.ops
