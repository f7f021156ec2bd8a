open Acsi_bytecode

type effects = {
  reads_heap : bool;
  writes_heap : bool;
  allocates : bool;
  io : bool;
}

type meth_summary = {
  meth : Ids.Method_id.t;
  units : int;
  size_est : int;
  effects : effects;
  pure : bool;
  escapes : bool array;
  returns_param : bool array;
  return_const : int option;
  always_throws : bool;
  mono_sites : (int * Ids.Method_id.t) list;
  virtual_sites : int;
  seed_sites : int;
}

(* Indexed by method id. *)
type table = meth_summary array

let all_effects =
  { reads_heap = true; writes_heap = true; allocates = true; io = true }

let is_pure e = not (e.writes_heap || e.allocates || e.io)

(* Inside the pass effects are a 4-bit set, joined with [lor]. *)
let e_read = 1
let e_write = 2
let e_alloc = 4
let e_io = 8
let e_all = 15

let effects_of_bits b =
  {
    reads_heap = b land e_read <> 0;
    writes_heap = b land e_write <> 0;
    allocates = b land e_alloc <> 0;
    io = b land e_io <> 0;
  }

(* The body defeats the analysis: an operand-stack underflow, a local
   index out of range, or two paths reaching one block at different
   stack depths. None of these survives the verifier; the method gets a
   conservative row. *)
exception Malformed

let need sp k = if sp < k then raise Malformed
let check_local nl i = if i < 0 || i >= nl then raise Malformed

(* --- the per-method problem ------------------------------------------ *)

(* Constant propagation and parameter taint run as one forward problem
   over the blocks of the method's one {!Cfg}. A state holds three ints
   per slot, the [nl] locals first, then the operand stack:

   - a constant: a tag ([t_any], [t_null] or [t_int]) and a value, 0
     unless the tag is [t_int], so two slots hold the same constant
     exactly when both ints are equal;
   - a taint: the bitset of parameter slots the value may alias.

   A block runs on [state] with an explicit stack pointer. The entry
   state of each reached block is a copy in [buf], made when a path first
   reaches the block and joined in place by later paths. Every array
   belongs to one [analyze] call and serves each method in turn. *)
let w = 3
let t_any = 0
let t_null = 1
let t_int = 2

type ctx = {
  p : Program.t;
  cg : Scc.t;
  rows_ : meth_summary array;  (* final rows, valid for comps < current *)
  (* Per method: the working facts of the current component (grown
     monotonically from optimistic empty sets during its fixpoint), and
     the final facts of every lower one, its escape and returns-param
     bitsets cut to the row's parameter slots. *)
  eff : int array;
  esc : int array;
  retp : int array;
  state : int array;  (* running state, [w] ints per slot of any method *)
  mutable buf : int array;  (* entry states, back to back *)
  mutable fill : int;  (* used prefix of [buf] *)
  off : int array;  (* per block: offset of its entry state, -1 unreached *)
  depth : int array;  (* per block: entry stack depth *)
  pending : Bytes.t;  (* per block: on the worklist *)
  throws : Bytes.t;  (* per pc: definitely traps *)
  live : Bytes.t;  (* per pc: reachable, refined by throws *)
  work : int array;  (* pc stack of [refined_reachable] *)
  (* Read off the converged states: *)
  mutable ev_eff : int;  (* effects of the reachable instructions *)
  mutable ev_esc : int;  (* taints that escape *)
  mutable ev_retp : int;  (* taints returned *)
  mutable ev_returns : (int * int option) list;
      (* (pc, constant) per [Return] *)
}

(* One CFG per method, shared by every analysis of it. *)
type frame = { m : Meth.t; body : Instr.t array; cfg : Cfg.t; nl : int }

let frame (m : Meth.t) =
  let body = m.Meth.body in
  { m; body; cfg = Cfg.make body; nl = max 1 m.Meth.max_locals }

let same_comp ctx comp (mid : Ids.Method_id.t) =
  Scc.component_of ctx.cg mid = comp

let set (c : int array) s tag v taint =
  c.(w * s) <- tag;
  c.((w * s) + 1) <- v;
  c.((w * s) + 2) <- taint

let move (c : int array) src dst =
  set c dst c.(w * src) c.((w * src) + 1) c.((w * src) + 2)

let set_const (c : int array) s tag v =
  c.(w * s) <- tag;
  c.((w * s) + 1) <- v

let set_any c s = set_const c s t_any 0
let set_bool c s b = set_const c s t_int (if b then 1 else 0)
let is_int (c : int array) s = c.(w * s) = t_int
let is_null (c : int array) s = c.(w * s) = t_null
let ival (c : int array) s = c.((w * s) + 1)
let taint (c : int array) s = c.((w * s) + 2)

(* A value computed from operands rather than moved: never a parameter. *)
let set_fresh_any c s = set c s t_any 0 0

(* --- calls ----------------------------------------------------------- *)

(* Operand slots a call pops: parameter [j] is the [j]th of them. *)
let call_slots ctx (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid -> (Program.meth ctx.p mid).Meth.arity
  | Instr.Call_direct mid -> (Program.meth ctx.p mid).Meth.arity + 1
  | Instr.Call_virtual (_, argc) -> argc + 1
  | _ -> 0

let call_returns ctx (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid | Instr.Call_direct mid ->
      (Program.meth ctx.p mid).Meth.returns
  | Instr.Call_virtual (sel, _) -> (
      match Program.implementations ctx.p sel with
      | [] -> false
      | mid :: _ -> (Program.meth ctx.p mid).Meth.returns)
  | _ -> false

(* The taints of the [k] arguments at slot [base] whose positions
   [bits] selects. *)
let select ctx base k bits =
  let acc = ref 0 in
  for j = 0 to k - 1 do
    if bits land (1 lsl j) <> 0 then
      acc := !acc lor taint ctx.state (base + j)
  done;
  !acc

let rec select_all ctx (facts : int array) base k acc = function
  | [] -> acc
  | (mid : Ids.Method_id.t) :: rest ->
      select_all ctx facts base k
        (acc lor select ctx base k facts.((mid :> int)))
        rest

(* The same over every target of a call, with the targets' bitsets
   read from [facts] ([ctx.esc] or [ctx.retp]). *)
let call_select ctx facts base k (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid | Instr.Call_direct mid ->
      select ctx base k facts.((mid :> int))
  | Instr.Call_virtual (sel, _) ->
      select_all ctx facts base k 0 (Program.implementations ctx.p sel)
  | _ -> 0

(* A callee's constant return; calls inside the current component are
   opaque. *)
let const_of ctx comp (mid : Ids.Method_id.t) =
  if same_comp ctx comp mid then None
  else ctx.rows_.((mid :> int)).return_const

let rec all_return ctx comp k = function
  | [] -> true
  | mid :: rest -> (
      match const_of ctx comp mid with
      | Some k' when k' = k -> all_return ctx comp k rest
      | Some _ | None -> false)

(* The result constant of a call whose targets are [first :: rest],
   written to slot [s]: their common constant return, if any. *)
let set_call_const ctx comp s first rest =
  match const_of ctx comp first with
  | Some k when all_return ctx comp k rest -> set_const ctx.state s t_int k
  | Some _ | None -> set_any ctx.state s

let call_const ctx comp s (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid | Instr.Call_direct mid ->
      set_call_const ctx comp s mid []
  | Instr.Call_virtual (sel, _) -> (
      match Program.implementations ctx.p sel with
      | first :: rest -> set_call_const ctx comp s first rest
      | [] -> set_any ctx.state s)
  | _ -> set_any ctx.state s

(* --- transfer ---------------------------------------------------------- *)

(* Folding mirrors the interpreter's [eval_binop]/[eval_cmp] exactly;
   where the runtime would trap (division by a known zero) the pc is
   recorded as a definite throw instead of folding. *)
let fold_binop op x y =
  match (op : Instr.binop) with
  | Instr.Add -> Some (x + y)
  | Instr.Sub -> Some (x - y)
  | Instr.Mul -> Some (x * y)
  | Instr.Div -> if y = 0 then None else Some (x / y)
  | Instr.Rem -> if y = 0 then None else Some (x mod y)
  | Instr.And -> Some (x land y)
  | Instr.Or -> Some (x lor y)
  | Instr.Xor -> Some (x lxor y)
  | Instr.Shl -> Some (x lsl (y land 63))
  | Instr.Shr -> Some (x asr (y land 63))

(* Slots [a] and [b] compared, the constant result written over [a]. *)
let fold_cmp c (cmp : Instr.cmp) a b =
  let ints = is_int c a && is_int c b in
  let x = ival c a and y = ival c b in
  match cmp with
  | Instr.Eq | Instr.Ne ->
      let ne = match cmp with Instr.Ne -> true | _ -> false in
      if ints then set_bool c a ((x = y) <> ne)
      else if is_null c a && is_null c b then set_bool c a (not ne)
      else if (is_int c a && is_null c b) || (is_null c a && is_int c b) then
        set_bool c a ne
      else set_any c a
  | Instr.Lt -> if ints then set_bool c a (x < y) else set_any c a
  | Instr.Le -> if ints then set_bool c a (x <= y) else set_any c a
  | Instr.Gt -> if ints then set_bool c a (x > y) else set_any c a
  | Instr.Ge -> if ints then set_bool c a (x >= y) else set_any c a

(* Runs the instruction at [pc] on [state] at stack depth [sp]; returns
   the new depth. Taint propagates only through moves (loads, stores,
   dup/swap) and through callees' returns-its-parameter bitsets:
   arithmetic produces fresh integers and heap reads produce heap values,
   neither of which IS a parameter. *)
let step ctx comp fr sp pc =
  let c = ctx.state in
  let nl = fr.nl in
  let top = nl + sp - 1 in
  match fr.body.(pc) with
  | Instr.Const n ->
      set c (top + 1) t_int n 0;
      sp + 1
  | Instr.Const_null ->
      set c (top + 1) t_null 0 0;
      sp + 1
  | Instr.New _ | Instr.Get_global _ ->
      set_fresh_any c (top + 1);
      sp + 1
  | Instr.Load i ->
      check_local nl i;
      move c i (top + 1);
      sp + 1
  | Instr.Store i ->
      need sp 1;
      check_local nl i;
      move c top i;
      sp - 1
  | Instr.Dup ->
      need sp 1;
      move c top (top + 1);
      sp + 1
  | Instr.Pop | Instr.Jump_if _ | Instr.Jump_ifnot _ | Instr.Put_global _
  | Instr.Return | Instr.Print_int ->
      need sp 1;
      sp - 1
  | Instr.Swap ->
      need sp 2;
      let tag = c.(w * top) and v = c.((w * top) + 1) in
      let t = taint c top in
      move c (top - 1) top;
      set c (top - 1) tag v t;
      sp
  | Instr.Binop op ->
      need sp 2;
      let a = top - 1 in
      (if is_int c a && is_int c top then
         match fold_binop op (ival c a) (ival c top) with
         | Some r -> set c a t_int r 0
         | None -> set_fresh_any c a
       else set_fresh_any c a);
      sp - 1
  | Instr.Cmp cmp ->
      need sp 2;
      fold_cmp c cmp (top - 1) top;
      c.((w * (top - 1)) + 2) <- 0;
      sp - 1
  | Instr.Neg ->
      need sp 1;
      if is_int c top then set c top t_int (-ival c top) 0
      else set_fresh_any c top;
      sp
  | Instr.Not ->
      need sp 1;
      (* [Value.truthy]: null and 0 are falsy, everything else truthy. *)
      if is_int c top then set c top t_int (if ival c top = 0 then 1 else 0) 0
      else if is_null c top then set c top t_int 1 0
      else set_fresh_any c top;
      sp
  | Instr.Instance_of _ ->
      need sp 1;
      if is_null c top then set c top t_int 0 0 else set_fresh_any c top;
      sp
  | Instr.Get_field _ | Instr.Array_new | Instr.Array_len ->
      need sp 1;
      set_fresh_any c top;
      sp
  | Instr.Array_get ->
      need sp 2;
      set_fresh_any c (top - 1);
      sp - 1
  | Instr.Put_field _ ->
      need sp 2;
      sp - 2
  | Instr.Array_set ->
      need sp 3;
      sp - 3
  | Instr.Jump _ | Instr.Return_void | Instr.Guard_method _ | Instr.Nop -> sp
  | (Instr.Call_static _ | Instr.Call_direct _ | Instr.Call_virtual _) as
    instr ->
      let k = call_slots ctx instr in
      need sp k;
      let base = nl + sp - k in
      if call_returns ctx instr then begin
        (* A target that may return its parameter [j] passes argument
           [j]'s taint through. *)
        let t = call_select ctx ctx.retp base k instr in
        call_const ctx comp base instr;
        c.((w * base) + 2) <- t;
        sp - k + 1
      end
      else sp - k

let rec callee_effects ctx acc = function
  | [] -> acc
  | (mid : Ids.Method_id.t) :: rest ->
      callee_effects ctx (acc lor ctx.eff.((mid :> int))) rest

(* Direct (one-instruction) effects joined with those of every possible
   callee. *)
let instr_effects ctx (instr : Instr.t) =
  match instr with
  | Instr.Get_field _ | Instr.Array_get | Instr.Array_len | Instr.Get_global _
    ->
      e_read
  | Instr.Put_field _ | Instr.Array_set | Instr.Put_global _ -> e_write
  | Instr.New _ | Instr.Array_new -> e_alloc
  | Instr.Print_int -> e_io
  | Instr.Call_static mid | Instr.Call_direct mid -> ctx.eff.((mid :> int))
  | Instr.Guard_method g -> ctx.eff.((g.Instr.expected :> int))
  | Instr.Call_virtual (sel, _) ->
      callee_effects ctx 0 (Program.implementations ctx.p sel)
  | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
  | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
  | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
  | Instr.Jump_ifnot _ | Instr.Return | Instr.Return_void
  | Instr.Instance_of _ | Instr.Nop ->
      0

(* The events of the instruction at [pc], read off its converged
   in-state: definite throws (division or remainder by a known zero,
   dereference of a definite null, a negative constant array size);
   values stored into heap objects, arrays or globals escape, and so do
   values passed at a parameter position the callee lets escape; a
   returned taint feeds [returns_param], a returned constant
   [return_const]; and the instruction's effects. *)
let throw_if ctx pc b = if b then Bytes.set ctx.throws pc '\001'
let escape ctx s = ctx.ev_esc <- ctx.ev_esc lor taint ctx.state s

let events ctx fr sp pc =
  let c = ctx.state in
  let top = fr.nl + sp - 1 in
  let instr = fr.body.(pc) in
  ctx.ev_eff <- ctx.ev_eff lor instr_effects ctx instr;
  match instr with
  | Instr.Binop (Instr.Div | Instr.Rem) ->
      throw_if ctx pc (is_int c top && ival c top = 0)
  | Instr.Get_field _ | Instr.Array_len -> throw_if ctx pc (is_null c top)
  | Instr.Array_get -> throw_if ctx pc (is_null c (top - 1))
  | Instr.Put_field _ ->
      throw_if ctx pc (is_null c (top - 1));
      escape ctx top
  | Instr.Array_set ->
      throw_if ctx pc (is_null c (top - 2));
      escape ctx top
  | Instr.Put_global _ -> escape ctx top
  | Instr.Array_new -> throw_if ctx pc (is_int c top && ival c top < 0)
  | Instr.Return ->
      ctx.ev_retp <- ctx.ev_retp lor taint c top;
      ctx.ev_returns <-
        (pc, if is_int c top then Some (ival c top) else None)
        :: ctx.ev_returns
  | (Instr.Call_static _ | Instr.Call_direct _ | Instr.Call_virtual _) as
    instr ->
      let k = call_slots ctx instr in
      ctx.ev_esc <-
        ctx.ev_esc lor call_select ctx ctx.esc (fr.nl + sp - k) k instr
  | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
  | Instr.Dup | Instr.Pop | Instr.Swap
  | Instr.Binop
      ( Instr.Add | Instr.Sub | Instr.Mul | Instr.And | Instr.Or | Instr.Xor
      | Instr.Shl | Instr.Shr )
  | Instr.Neg | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
  | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_global _
  | Instr.Return_void | Instr.Instance_of _ | Instr.Guard_method _
  | Instr.Print_int | Instr.Nop ->
      ()

(* --- the worklist ---------------------------------------------------- *)

let copy (src : int array) so (dst : int array) d len =
  for i = 0 to len - 1 do
    dst.(d + i) <- src.(so + i)
  done

(* Joins [state] into the entry state at [buf.(off)]: a constant that
   differs becomes [t_any] (every slot moves at most twice, so plain joins
   converge without widening), taints union. True when it grew. *)
let join ctx off len =
  let buf = ctx.buf and c = ctx.state in
  let grew = ref false in
  let i = ref 0 in
  while !i < len do
    let d = off + !i in
    if buf.(d) <> t_any && (buf.(d) <> c.(!i) || buf.(d + 1) <> c.(!i + 1))
    then begin
      buf.(d) <- t_any;
      buf.(d + 1) <- 0;
      grew := true
    end;
    let t = buf.(d + 2) lor c.(!i + 2) in
    if t <> buf.(d + 2) then begin
      buf.(d + 2) <- t;
      grew := true
    end;
    i := !i + w
  done;
  !grew

(* Merges the running state at depth [sp] into block [b]'s entry state
   (a first arrival copies it); true when that entry state is new or
   grew. *)
let enter ctx fr b sp =
  let len = w * (fr.nl + sp) in
  if ctx.off.(b) < 0 then begin
    if ctx.fill + len > Array.length ctx.buf then begin
      let buf = Array.make (2 * (ctx.fill + len)) 0 in
      copy ctx.buf 0 buf 0 ctx.fill;
      ctx.buf <- buf
    end;
    copy ctx.state 0 ctx.buf ctx.fill len;
    ctx.off.(b) <- ctx.fill;
    ctx.depth.(b) <- sp;
    ctx.fill <- ctx.fill + len;
    true
  end
  else if ctx.depth.(b) <> sp then raise Malformed
  else join ctx ctx.off.(b) len

(* Runs block [b] from its entry state, reading events off each
   instruction when [replay]; returns the exit stack depth. *)
let run_block ctx comp fr ~replay b =
  let sp = ref ctx.depth.(b) in
  copy ctx.buf ctx.off.(b) ctx.state 0 (w * (fr.nl + !sp));
  let blk = fr.cfg.Cfg.blocks.(b) in
  for pc = blk.Cfg.first to blk.Cfg.last do
    if replay then events ctx fr !sp pc;
    sp := step ctx comp fr !sp pc
  done;
  !sp

(* Enters each successor; returns the lowest one newly queued. *)
let rec flow ctx fr sp low = function
  | [] -> low
  | s :: rest ->
      let low =
        if enter ctx fr s sp then begin
          Bytes.set ctx.pending s '\001';
          Int.min s low
        end
        else low
      in
      flow ctx fr sp low rest

let reset_events ctx fr =
  Bytes.fill ctx.throws 0 (Array.length fr.body) '\000';
  ctx.ev_eff <- 0;
  ctx.ev_esc <- 0;
  ctx.ev_retp <- 0;
  ctx.ev_returns <- []

(* The method's problem: a worklist fixpoint over its blocks in
   ascending pc order, a back edge whose state grew moving the cursor
   back. Events are read while the cursor only moves forward: each block
   then runs exactly once, after all its predecessors, so from its
   converged entry state (code without loops needs nothing more). Once
   a block is queued again, the events are dropped and read off one
   replay of every reached block after convergence instead. Leaves the
   events in [ctx]. *)
let solve ctx comp fr =
  let nb = Array.length fr.cfg.Cfg.blocks in
  let slots = Meth.param_slots fr.m in
  Array.fill ctx.off 0 nb (-1);
  Bytes.fill ctx.pending 0 nb '\000';
  ctx.fill <- 0;
  reset_events ctx fr;
  for s = 0 to fr.nl - 1 do
    set ctx.state s t_any 0 (if s < slots then 1 lsl s else 0)
  done;
  if nb > 0 then begin
    ignore (enter ctx fr 0 0);
    Bytes.set ctx.pending 0 '\001';
    let cursor = ref 0 in
    let looped = ref false in
    while !cursor < nb do
      let b = !cursor in
      incr cursor;
      if Bytes.get ctx.pending b <> '\000' then begin
        Bytes.set ctx.pending b '\000';
        let sp = run_block ctx comp fr ~replay:(not !looped) b in
        let low = flow ctx fr sp max_int fr.cfg.Cfg.blocks.(b).Cfg.succs in
        if low <= b then begin
          if not !looped then reset_events ctx fr;
          looped := true;
          cursor := low
        end
      end
    done;
    if !looped then begin
      for b = 0 to nb - 1 do
        if ctx.off.(b) >= 0 then ignore (run_block ctx comp fr ~replay:true b)
      done
    end
  end

let solves ctx comp fr =
  match solve ctx comp fr with () -> true | exception Malformed -> false

(* --- facts and rows ---------------------------------------------------- *)

(* Maximum parameter count the int bitset can carry; beyond it the
   method gets a conservative all-escape row (never hit in practice). *)
let max_taint_params = 60

(* The effects of every reachable instruction, for a body {!solve}
   cannot run; otherwise [ctx.ev_eff] holds them. *)
let effects ctx fr =
  let reachable = fr.cfg.Cfg.reachable and block_of = fr.cfg.Cfg.block_of in
  let eff = ref 0 in
  for pc = 0 to Array.length fr.body - 1 do
    if reachable.(block_of.(pc)) then
      eff := !eff lor instr_effects ctx fr.body.(pc)
  done;
  !eff

(* The monotone facts of one method from the current working facts:
   effects, escape and returns-param bitsets. [solved] tells whether
   {!solve} ran to completion. *)
let facts ctx fr ~solved =
  let slots = Meth.param_slots fr.m in
  if slots > max_taint_params then
    ((if solved then ctx.ev_eff else effects ctx fr), -1, -1)
  else if (not solved) || slots > fr.nl then (e_all, -1, -1)
  else (ctx.ev_eff, ctx.ev_esc, ctx.ev_retp)

(* Fills [ctx.live]: reachability refined by definite throws and by
   calls whose every target is proven always-throwing; neither falls
   through. *)
let refined_reachable ctx comp fr =
  let body = fr.body in
  let n = Array.length body in
  let rec all_throw = function
    | [] -> true
    | (mid : Ids.Method_id.t) :: rest ->
        (not (same_comp ctx comp mid))
        && ctx.rows_.((mid :> int)).always_throws
        && all_throw rest
  in
  Bytes.fill ctx.live 0 n '\000';
  let top = ref 0 in
  let visit pc =
    if pc >= 0 && pc < n && Bytes.get ctx.live pc = '\000' then begin
      Bytes.set ctx.live pc '\001';
      ctx.work.(!top) <- pc;
      incr top
    end
  in
  (* Whether control falls through from [pc], after queueing its branch
     targets. *)
  let falls pc =
    Bytes.get ctx.throws pc = '\000'
    &&
    match body.(pc) with
    | Instr.Jump t ->
        visit t;
        false
    | Instr.Jump_if t | Instr.Jump_ifnot t ->
        visit t;
        true
    | Instr.Guard_method g ->
        visit g.Instr.fail;
        true
    | Instr.Return | Instr.Return_void -> false
    | Instr.Call_static mid | Instr.Call_direct mid ->
        same_comp ctx comp mid || not ctx.rows_.((mid :> int)).always_throws
    | Instr.Call_virtual (sel, _) -> (
        match Program.implementations ctx.p sel with
        | [] -> true
        | targets -> not (all_throw targets))
    | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
    | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
    | Instr.Not | Instr.Cmp _ | Instr.New _ | Instr.Get_field _
    | Instr.Put_field _ | Instr.Get_global _ | Instr.Put_global _
    | Instr.Array_new | Instr.Array_get | Instr.Array_set
    | Instr.Array_len | Instr.Instance_of _ | Instr.Print_int | Instr.Nop ->
        true
  in
  visit 0;
  while !top > 0 do
    decr top;
    (* Straight-line code runs on without the stack. *)
    let pc = ref ctx.work.(!top) in
    while falls !pc && !pc + 1 < n && Bytes.get ctx.live (!pc + 1) = '\000' do
      incr pc;
      Bytes.set ctx.live !pc '\001'
    done
  done

let live ctx pc = Bytes.get ctx.live pc <> '\000'

(* The one possible target of a call site: statically bound, or a
   CHA-monomorphic virtual. *)
let unique_target ctx (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid | Instr.Call_direct mid -> Some mid
  | Instr.Call_virtual (sel, _) -> Program.monomorphic_target ctx.p sel
  | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
  | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
  | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
  | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _ | Instr.Put_field _
  | Instr.Get_global _ | Instr.Put_global _ | Instr.Array_new
  | Instr.Array_get | Instr.Array_set | Instr.Array_len | Instr.Return
  | Instr.Return_void | Instr.Instance_of _ | Instr.Guard_method _
  | Instr.Print_int | Instr.Nop ->
      None

let conservative_row (m : Meth.t) =
  let slots = Meth.param_slots m in
  {
    meth = m.Meth.id;
    units = Meth.size_units m;
    size_est = Meth.size_units m;
    effects = all_effects;
    pure = false;
    escapes = Array.make slots true;
    returns_param = Array.make slots true;
    return_const = None;
    always_throws = false;
    mono_sites = [];
    virtual_sites =
      Array.fold_left
        (fun acc i ->
          match i with Instr.Call_virtual _ -> acc + 1 | _ -> acc)
        0 m.Meth.body;
    seed_sites = 0;
  }

(* The row of one method after {!solve} ran to completion on its
   converged facts. Calls inside the component are opaque for constness,
   size and always-throws, matching the oracle, which never inlines
   recursive edges. *)
let finalize_row ctx comp fr =
  let m = fr.m in
  let body = fr.body in
  let i = (m.Meth.id :> int) in
  let units = Meth.size_units m in
  refined_reachable ctx comp fr;
  let has_return = ref false in
  let mono_sites = ref [] in
  let virtual_sites = ref 0 in
  let size_est = ref units in
  let seed_sites = ref 0 in
  for pc = Array.length body - 1 downto 0 do
    let instr = body.(pc) in
    (match instr with
    | Instr.Return | Instr.Return_void ->
        if live ctx pc then has_return := true
    | Instr.Call_virtual (sel, _) -> (
        incr virtual_sites;
        match Program.monomorphic_target ctx.p sel with
        | Some target -> mono_sites := (pc, target) :: !mono_sites
        | None -> ())
    | _ -> ());
    if live ctx pc then
      match unique_target ctx instr with
      | Some tgt when not (same_comp ctx comp tgt) -> (
          let r = ctx.rows_.((tgt :> int)) in
          match Meth.classify ~units:r.size_est with
          | Meth.Tiny | Meth.Small ->
              size_est := !size_est + (r.size_est - 1);
              if not r.always_throws then incr seed_sites
          | Meth.Medium | Meth.Large -> ())
      | Some _ | None -> ()
  done;
  (* A constant only when every live [Return] yields the same one. *)
  let return_const =
    match List.filter (fun (pc, _) -> live ctx pc) ctx.ev_returns with
    | (_, Some k) :: rest
      when m.Meth.returns && List.for_all (fun (_, v) -> v = Some k) rest ->
        Some k
    | _ -> None
  in
  let slots = Meth.param_slots m in
  let bools bits = Array.init slots (fun j -> bits land (1 lsl j) <> 0) in
  let effects = effects_of_bits ctx.eff.(i) in
  {
    meth = m.Meth.id;
    units;
    size_est = !size_est;
    effects;
    pure = is_pure effects;
    escapes = bools ctx.esc.(i);
    returns_param = bools ctx.retp.(i);
    return_const;
    always_throws = not !has_return;
    mono_sites = !mono_sites;
    virtual_sites = !virtual_sites;
    seed_sites = !seed_sites;
  }

(* The bitset of the [true] slots, as callers read it. *)
let bits_of bools =
  let bits = ref 0 in
  for j = 0 to Array.length bools - 1 do
    if bools.(j) then bits := !bits lor (1 lsl j)
  done;
  !bits

let analyze_component ctx comp =
  let members = Scc.members ctx.cg comp in
  let frame_of mid = frame (Program.meth ctx.p mid) in
  (* Joins one method's fresh facts into its working facts; true when
     they grew. *)
  let record fr (eff, esc, retp) =
    let i = (fr.m.Meth.id :> int) in
    let eff' = eff lor ctx.eff.(i) in
    let esc' = esc lor ctx.esc.(i) and retp' = retp lor ctx.retp.(i) in
    let grew =
      eff' <> ctx.eff.(i) || esc' <> ctx.esc.(i) || retp' <> ctx.retp.(i)
    in
    ctx.eff.(i) <- eff';
    ctx.esc.(i) <- esc';
    ctx.retp.(i) <- retp';
    grew
  in
  let finish fr ~solved =
    let i = (fr.m.Meth.id :> int) in
    let row =
      if solved then finalize_row ctx comp fr
      else begin
        ctx.eff.(i) <- e_all;
        conservative_row fr.m
      end
    in
    ctx.rows_.(i) <- row;
    ctx.esc.(i) <- bits_of row.escapes;
    ctx.retp.(i) <- bits_of row.returns_param
  in
  (* Only a cycle reads its own working facts, so only a cycle iterates
     to a fixpoint from the optimistic empty facts, and then solves each
     member once more for its row. Any other component is one method,
     final after one solve. *)
  if Scc.cyclic ctx.cg comp then begin
    let frames = Array.map frame_of members in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun fr ->
          let solved = solves ctx comp fr in
          if record fr (facts ctx fr ~solved) then changed := true)
        frames
    done;
    Array.iter (fun fr -> finish fr ~solved:(solves ctx comp fr)) frames
  end
  else
    Array.iter
      (fun mid ->
        let fr = frame_of mid in
        let solved = solves ctx comp fr in
        ignore (record fr (facts ctx fr ~solved));
        finish fr ~solved)
      members

let analyze p =
  let ms = Program.methods p in
  let n = Array.length ms in
  let cg = Scc.of_program p in
  let dummy = conservative_row ms.(0) in
  (* A stack is never deeper than the body is long: each instruction
     pushes at most one slot net, and a block's entry depth is that of
     the first path reaching it. *)
  let longest = ref 1 and slots = ref 0 in
  Array.iter
    (fun (m : Meth.t) ->
      let n = Array.length m.Meth.body in
      longest := Int.max !longest n;
      slots := Int.max !slots (Int.max 1 m.Meth.max_locals + n + 1))
    ms;
  let longest = !longest and slots = !slots in
  let ctx =
    {
      p;
      cg;
      rows_ = Array.make n dummy;
      eff = Array.make n 0;
      esc = Array.make n 0;
      retp = Array.make n 0;
      state = Array.make (w * slots) 0;
      buf = Array.make (4 * w * slots) 0;
      fill = 0;
      off = Array.make longest 0;
      depth = Array.make longest 0;
      pending = Bytes.create longest;
      throws = Bytes.create longest;
      live = Bytes.create longest;
      work = Array.make longest 0;
      ev_eff = 0;
      ev_esc = 0;
      ev_retp = 0;
      ev_returns = [];
    }
  in
  for comp = 0 to Scc.count cg - 1 do
    analyze_component ctx comp
  done;
  ctx.rows_

let get t (mid : Ids.Method_id.t) = t.((mid :> int))
let seed_worthy t mid = (get t mid).seed_sites > 0

let effects_to_string e =
  if is_pure e && not e.reads_heap then "pure"
  else
    let parts =
      (if e.reads_heap then [ "rd" ] else [])
      @ (if e.writes_heap then [ "wr" ] else [])
      @ (if e.allocates then [ "al" ] else [])
      @ if e.io then [ "io" ] else []
    in
    if parts = [] then "pure" else String.concat "+" parts

let size_class_name units =
  match Meth.classify ~units with
  | Meth.Tiny -> "tiny"
  | Meth.Small -> "small"
  | Meth.Medium -> "medium"
  | Meth.Large -> "large"

let slots_to_string a =
  let hits = ref [] in
  Array.iteri (fun i b -> if b then hits := i :: !hits) a;
  if !hits = [] then "-"
  else String.concat "," (List.rev_map string_of_int !hits)

let print fmt p t =
  let qualified m =
    let owner = (Program.clazz p m.Meth.owner).Clazz.name in
    Printf.sprintf "%s.%s/%d" owner m.Meth.name m.Meth.arity
  in
  Format.fprintf fmt "%-36s %5s %5s %-6s %-9s %-7s %-6s %-6s %s@."
    "method" "units" "est" "class" "effects" "escapes" "ret" "throws"
    "mono";
  let pure = ref 0 and throwing = ref 0 in
  let mono = ref 0 and virt = ref 0 and seeds = ref 0 in
  Array.iter
    (fun (r : meth_summary) ->
      let m = Program.meth p r.meth in
      if r.pure then incr pure;
      if r.always_throws then incr throwing;
      mono := !mono + List.length r.mono_sites;
      virt := !virt + r.virtual_sites;
      if r.seed_sites > 0 then incr seeds;
      Format.fprintf fmt "%-36s %5d %5d %-6s %-9s %-7s %-6s %-6s %d/%d@."
        (qualified m) r.units r.size_est
        (size_class_name r.size_est)
        (effects_to_string r.effects)
        (slots_to_string r.escapes)
        (match r.return_const with Some k -> string_of_int k | None -> "-")
        (if r.always_throws then "yes" else "-")
        (List.length r.mono_sites)
        r.virtual_sites)
    t;
  Format.fprintf fmt
    "%d methods: %d pure, %d always-throw, %d/%d virtual sites monomorphic, \
     %d static-seed candidates@."
    (Array.length t)
    !pure !throwing !mono !virt !seeds
