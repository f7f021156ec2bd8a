open Acsi_bytecode
open Interp

(* The closure ("native") execution tier: an installed method's
   instructions are compiled, once, into OCaml closures, and the
   interpreter dispatches whole windows into them instead of running its
   fetch/decode loop.

   Static stack slots. The verifier gives every reachable pc one stack
   depth ({!Verify.entry_depths}), so the slot for depth [d] is the
   constant [max_locals + d]: no closure keeps a stack pointer.

   Expression trees. Each basic block is evaluated symbolically: value
   instructions ([Load], [Const], [Binop], [Cmp], [Get_field], ...)
   build a {!tree}; statements (stores, field/array/global writes,
   [Print_int], [Pop], branches) consume trees, one closure each. Leaves
   are read in place, interior nodes are closures specialized on their
   operands' shapes, and only what is still on the symbolic stack at
   the end of a block is written to its slot ("spilled"). Evaluation
   order is exactly the naive loop's ({!Interp.exec_one}):
   - before a statement, older non-leaf entries run first, bottom to
     top, so traps and heap reads keep source order;
   - before a [Store] to a local, older leaves reading it are spilled;
   - [Dup] of a non-leaf and every [Swap] spill first;
   - at a block end the stack spills bottom to top;
   - a node runs its operands' subtrees in source order, then checks
     the operands in the naive loop's order.

   Specialization. All closures built by one arm of a builder share
   that arm's machine code, so whatever the arm leaves to run time
   (which operator, which operand kind) is an indirect jump in shared
   code: every closure of the arm takes it, each with its own operator,
   and the branch predictor sees them all as one jump that keeps
   changing target. So the hot (operator, operand shape) pairs of
   [ev], [assign] and [branch] have arms of their own, chosen from
   counts of executions per arm on the benchmark's workloads
   (EXPERIMENTS.md "PR 34"), in which the operator is one instruction
   and leaf operands are read in place, and [moves] is built from
   fixed-arity register/constant arms, with no per-move dispatch. The
   generic arms ([eval_binop]/[eval_cmp] on a captured operator,
   [fetch] on a captured operand) serve every other pair.
   Each specialized arm checks its operands in the naive loop's order
   (a binop's or compare's right operand first), so traps, their
   messages and the clock are {!Interp.run_reference}'s.

   Prepayment. A run is the instructions from a pc through forward
   jumps up to and including the next branch or backward jump, stopping
   before any breaker (an instruction with an extra charge: calls,
   returns, guards, allocations). If the remaining budget covers a run
   ([rem > (count - 1) * icost], the exact condition under which the
   naive loop executes all of it without a timer check coming due), its
   entry pays [count * icost] at once. Leaders (pc 0, jump and
   guard-fail targets, the pc after a jump or breaker) get a prepaid
   body; a block falling
   or jumping forward into a leader tails into that leader's body,
   which its run already paid for; branches and backward jumps prepay
   their target inline ({!enter}). {!Interp.exec_until} runs in exactly
   two places: the window tail once a run no longer fits, and the rest
   of a run entered at a pc that starts no block (after a window ended
   mid-run, or by OSR), which it executes to the clock of exactly that
   run's cost before the tier takes over again at the run's end. Either
   way it executes one instruction at a time on the naive loop's
   semantics, and a tail never reaches its run's end, so it meets no
   breaker. Breakers charge what the naive loop charges, and after
   guards and allocations restart the window unclipped, at
   [next_sample - cycles].

   Frames. Every closure takes the frame it runs ({!Interp.nfn}): the
   VM ([f_vm]), the registers and the window state ([f_rem], the budget
   left; [f_nin], the instructions not yet settled) are fields of that
   one argument, so a closure captures no VM, and a shard can adopt
   closures another shard's VM compiled. A dispatch into a frame sets its
   window state; a call or return settles it and the next frame starts
   afresh, so switching frames stores no pointer.

   Calls and returns are {!Interp}'s ({!Interp.call_breaker} and
   friends), compiled where [invoke] and [push_frame] inline; a callee
   or caller without closure-tier code ends the window. Guards read the
   program's flat dispatch table ({!Program.dispatch_ids}), captured at
   compile time. The value helpers repeat {!Interp}'s (dune's dev
   profile builds with [-opaque], so calls into another module are
   never inlined). *)

let rerr fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* An integer is an immediate and everything else a block (see
   {!Value}); no match on a [Value.t] runs before an [is_int] test. *)
let[@inline] is_int (v : Value.t) = Obj.is_int (Obj.repr v)
let[@inline] int_of (v : Value.t) : int = Obj.magic v
let[@inline] of_int (n : int) : Value.t = Obj.magic n
(* Typed, so the access compiles without a float-array check. *)
let[@inline] get (a : Value.t array) i = Array.unsafe_get a i

(* [Interp.flush]: settle [n] deferred instructions of cost [icost]. *)
let[@inline] settle (t : t) icost n =
  t.instr_count <- t.instr_count + n;
  t.cycles <- t.cycles + (n * icost)

let[@inline] truthy v =
  if is_int v then int_of v <> 0
  else
    match (v : Value.t) with
    | Value.Null_c _ -> false
    | Value.Obj_c _ | Value.Arr_c _ -> true

let[@inline] equal_cmp a b =
  if is_int a || is_int b then a == b
  else
    match ((a : Value.t), (b : Value.t)) with
    | Value.Null_c _, Value.Null_c _ -> true
    | Value.Obj_c x, Value.Obj_c y -> x == y
    | Value.Arr_c x, Value.Arr_c y -> x == y
    | (Value.Null_c _ | Value.Obj_c _ | Value.Arr_c _), _ -> false

(* Barrier-free when both the old and the new value are immediates, the
   one case where [caml_modify] does nothing (see [Interp]'s [set]). *)
let[@inline] set (a : Value.t array) i (v : Value.t) =
  if is_int v && is_int (Array.unsafe_get a i) then
    Array.unsafe_set (Obj.magic a : int array) i (int_of v)
  else Array.unsafe_set a i v

let[@inline] set_int (a : Value.t array) i n =
  if is_int (Array.unsafe_get a i) then
    Array.unsafe_set (Obj.magic a : int array) i n
  else Array.unsafe_set a i (of_int n)

let[@inline] store (a : Value.t array) i (v : Value.t) =
  if is_int v && is_int a.(i) then
    Array.unsafe_set (Obj.magic a : int array) i (int_of v)
  else a.(i) <- v

let[@inline never] not_int v = rerr "expected an integer, got %a" Value.pp v
let[@inline] as_int v = if is_int v then int_of v else not_int v

let[@inline] as_obj v =
  if is_int v then rerr "expected an object, got %a" Value.pp v
  else
    match (v : Value.t) with
    | Value.Obj_c o -> o
    | Value.Null_c _ -> rerr "null dereference"
    | Value.Arr_c _ -> rerr "expected an object, got %a" Value.pp v

let[@inline] as_arr v =
  if is_int v then rerr "expected an array, got %a" Value.pp v
  else
    match (v : Value.t) with
    | Value.Arr_c a -> a
    | Value.Null_c _ -> rerr "null array dereference"
    | Value.Obj_c _ -> rerr "expected an array, got %a" Value.pp v

let[@inline] elt a i =
  if i < 0 || i >= Array.length a then
    rerr "array index %d out of bounds (length %d)" i (Array.length a)
  else Array.unsafe_get a i

let[@inline] eval_binop op a b =
  match (op : Instr.binop) with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then rerr "division by zero" else a / b
  | Instr.Rem -> if b = 0 then rerr "remainder by zero" else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)

let[@inline] eval_cmp c a b =
  let r =
    match (c : Instr.cmp) with
    | Instr.Eq -> equal_cmp a b
    | Instr.Ne -> not (equal_cmp a b)
    | Instr.Lt -> as_int a < as_int b
    | Instr.Le -> as_int a <= as_int b
    | Instr.Gt -> as_int a > as_int b
    | Instr.Ge -> as_int a >= as_int b
  in
  if r then 1 else 0

(* Reachable only if control would flow past the last instruction —
   impossible in code that passed the install gate (Jit_check). *)
let stuck : nfn = fun _ -> rerr "execution ran past end of code"

(* Where control lands at [d_pc]: its static stack pointer, the run
   the entry prepays ([d_count] instructions; 0 at a breaker, which pays
   for itself) and the closure that runs once it is paid. *)
type dest = {
  d_pc : int;
  d_sp : int;
  d_icost : int;
  d_count : int;
  d_pre : int;  (* (d_count - 1) * icost *)
  d_pay : int;  (* d_count * icost *)
  mutable d_body : nfn;
}

(* Nothing to prepay; also the placeholder at pcs that start no block. *)
let paid_already =
  { d_pc = 0; d_sp = 0; d_icost = 0; d_count = 0;
    d_pre = min_int; d_pay = 0; d_body = stuck }

(* The window tail at [d], once its run no longer fits the budget [rem]:
   settle the deferred instructions, then run the rest of the window one
   instruction at a time. It never reaches the run's end, as the run
   does not fit. *)
let[@inline never] fallback fr d rem =
  let t = fr.f_vm in
  settle t d.d_icost fr.f_nin;
  fr.f_pc <- d.d_pc;
  fr.f_sp <- d.d_sp;
  exec_until t fr (t.cycles + rem)

(* Prepay [d]'s run if the budget covers it. *)
let[@inline] prepay fr d =
  let rem = fr.f_rem in
  rem > d.d_pre
  &&
  (fr.f_rem <- rem - d.d_pay;
   fr.f_nin <- fr.f_nin + d.d_count;
   true)

(* The prepaid entry: the whole run when the budget covers it, else the
   window tail. Inlined into every jump and branch. *)
let[@inline] enter fr d =
  if prepay fr d then d.d_body fr else fallback fr d fr.f_rem

(* A value on the symbolic stack. [Reg] is an absolute index into the
   frame's register array: a local, or a stack slot written before the
   block began. *)
type tree =
  | Reg of int
  | Imm of Value.t
  | Binop of Instr.binop * tree * tree
  | Cmp of Instr.cmp * tree * tree
  | Neg of tree
  | Not of tree
  | Get_field of int * tree
  | Get_global of int
  | Array_get of tree * tree
  | Array_len of tree
  | Instance_of of Ids.Class_id.t * tree

let is_leaf = function Reg _ | Imm _ -> true | _ -> false
let is_reg i = function Reg j -> i = j | _ -> false

(* An operand read in place — a leaf or a field of a register — or the
   closure of a deeper node. Nodes and statements specialize on leaf
   operands and use these for the rest. *)
type opd =
  | Oreg of int
  | Oimm of Value.t
  | Ofield of int * int
  | Onode of (frame -> Value.t)

let[@inline] fetch fr = function
  | Oreg i -> get fr.f_regs i
  | Oimm v -> v
  | Ofield (i, f) -> (as_obj (get fr.f_regs i)).Value.fields.(f)
  | Onode g -> g fr

(* Interior nodes: closures specialized on their operands' shapes and,
   for the hot pairs, on their operator, with subtrees run in source
   order and operands checked in the naive loop's order (a binop's or
   compare's right operand first). The generic [Binop] and [Cmp] arms
   serve every other pair. *)
let rec ev (e : tree) : frame -> Value.t =
  match e with
  | Binop (Instr.Add, Reg i, Reg j) ->
      fun fr ->
        let r = fr.f_regs in
        let b = as_int (get r j) in
        of_int (as_int (get r i) + b)
  | Binop (Instr.Sub, Reg i, Reg j) ->
      fun fr ->
        let r = fr.f_regs in
        let b = as_int (get r j) in
        of_int (as_int (get r i) - b)
  | Binop (Instr.Mul, Reg i, Reg j) ->
      fun fr ->
        let r = fr.f_regs in
        let b = as_int (get r j) in
        of_int (as_int (get r i) * b)
  | Binop (Instr.Shr, Binop (Instr.Mul, Reg i, Reg j), Imm c) when is_int c ->
      let s = int_of c land 63 in
      fun fr ->
        let r = fr.f_regs in
        let b = as_int (get r j) in
        of_int ((as_int (get r i) * b) asr s)
  | Binop (Instr.Mul, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr -> of_int (as_int (get fr.f_regs i) * c)
  | Binop (Instr.And, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr -> of_int (as_int (get fr.f_regs i) land c)
  | Binop (Instr.Add, a, Imm c) when is_int c ->
      let a = opd a and c = int_of c in
      fun fr -> of_int (as_int (fetch fr a) + c)
  | Binop (Instr.Mul, a, Imm c) when is_int c ->
      let a = opd a and c = int_of c in
      fun fr -> of_int (as_int (fetch fr a) * c)
  | Binop (Instr.And, a, Imm c) when is_int c ->
      let a = opd a and c = int_of c in
      fun fr -> of_int (as_int (fetch fr a) land c)
  | Binop (Instr.Add, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        of_int (as_int va + b)
  | Binop (op, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        of_int (eval_binop op (as_int va) b)
  | Cmp (c, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let vb = fetch fr b in
        of_int (eval_cmp c va vb)
  | Array_get (Reg x, Reg y) ->
      fun fr ->
        let r = fr.f_regs in
        let i = as_int (get r y) in
        elt (as_arr (get r x)) i
  | Array_get (a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let i = as_int (fetch fr b) in
        elt (as_arr va) i
  | Neg a ->
      let a = opd a in
      fun fr -> of_int (-as_int (fetch fr a))
  | Not a ->
      let a = opd a in
      fun fr -> of_int (if truthy (fetch fr a) then 0 else 1)
  | Get_field (f, a) ->
      let a = opd a in
      fun fr -> (as_obj (fetch fr a)).Value.fields.(f)
  | Get_global i -> fun fr -> fr.f_vm.globals.(i)
  | Array_len a ->
      let a = opd a in
      fun fr -> of_int (Array.length (as_arr (fetch fr a)))
  | Instance_of (cid, a) ->
      let a = opd a in
      fun fr ->
        let v = fetch fr a in
        if is_int v then of_int 0
        else (
          match v with
          | Value.Obj_c o ->
              let sub = o.Value.cls in
              of_int (Bool.to_int (Program.is_subclass fr.f_vm.program ~sub ~super:cid))
          | Value.Null_c _ | Value.Arr_c _ -> of_int 0)
  | Reg _ | Imm _ ->
      let a = opd e in
      fun fr -> fetch fr a

and opd = function
  | Reg i -> Oreg i
  | Imm v -> Oimm v
  | Get_field (f, Reg i) -> Ofield (i, f)
  | e -> Onode (ev e)

(* Statements: each performs its effect and tails into [k]. An assign's
   root node runs inside the statement, specialized as in [ev]. *)

let assign dst (e : tree) (k : nfn) : nfn =
  match e with
  | Reg s ->
      fun fr ->
        let r = fr.f_regs in
        set r dst (get r s);
        k fr
  | Imm v ->
      fun fr ->
        set fr.f_regs dst v;
        k fr
  | Binop (Instr.Add, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr ->
        let r = fr.f_regs in
        set_int r dst (as_int (get r i) + c);
        k fr
  | Binop (Instr.Sub, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr ->
        let r = fr.f_regs in
        set_int r dst (as_int (get r i) - c);
        k fr
  | Binop (Instr.Add, Reg i, Reg j) ->
      fun fr ->
        let r = fr.f_regs in
        let b = as_int (get r j) in
        set_int r dst (as_int (get r i) + b);
        k fr
  | Binop (Instr.And, a, Imm c) when is_int c ->
      let a = opd a and c = int_of c in
      fun fr ->
        let a = as_int (fetch fr a) in
        set_int fr.f_regs dst (a land c);
        k fr
  | Binop (Instr.Shr, a, Imm c) when is_int c ->
      let a = opd a and s = int_of c land 63 in
      fun fr ->
        let a = as_int (fetch fr a) in
        set_int fr.f_regs dst (a asr s);
        k fr
  | Binop (Instr.Sub, a, Reg j) ->
      let a = opd a in
      fun fr ->
        let va = fetch fr a in
        let r = fr.f_regs in
        let b = as_int (get r j) in
        set_int r dst (as_int va - b);
        k fr
  | Binop (Instr.Rem, a, Reg j) ->
      let a = opd a in
      fun fr ->
        let va = fetch fr a in
        let r = fr.f_regs in
        let b = as_int (get r j) in
        let a = as_int va in
        if b = 0 then rerr "remainder by zero";
        set_int r dst (a mod b);
        k fr
  | Binop (Instr.Add, Reg i, b) ->
      let b = opd b in
      fun fr ->
        let b = as_int (fetch fr b) in
        let r = fr.f_regs in
        set_int r dst (as_int (get r i) + b);
        k fr
  | Binop (Instr.Sub, Reg i, b) ->
      let b = opd b in
      fun fr ->
        let b = as_int (fetch fr b) in
        let r = fr.f_regs in
        set_int r dst (as_int (get r i) - b);
        k fr
  | Binop (Instr.Add, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        set_int fr.f_regs dst (as_int va + b);
        k fr
  | Binop (Instr.Sub, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        set_int fr.f_regs dst (as_int va - b);
        k fr
  | Binop (op, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        set_int fr.f_regs dst (eval_binop op (as_int va) b);
        k fr
  | Cmp (Instr.Eq, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let vb = fetch fr b in
        set_int fr.f_regs dst (Bool.to_int (equal_cmp va vb));
        k fr
  | Cmp (Instr.Gt, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let b = as_int (fetch fr b) in
        set_int fr.f_regs dst (Bool.to_int (as_int va > b));
        k fr
  | Get_field (f, Reg i) ->
      fun fr ->
        let r = fr.f_regs in
        set r dst (as_obj (get r i)).Value.fields.(f);
        k fr
  | Array_get (Reg x, Reg y) ->
      fun fr ->
        let r = fr.f_regs in
        let i = as_int (get r y) in
        set r dst (elt (as_arr (get r x)) i);
        k fr
  | Array_get (a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        let va = fetch fr a in
        let i = as_int (fetch fr b) in
        set fr.f_regs dst (elt (as_arr va) i);
        k fr
  | e ->
      let f = ev e in
      fun fr ->
        let v = f fr in
        set fr.f_regs dst v;
        k fr

(* Consecutive leaf moves (stores of leaves, call arguments, block-end
   spills), run in order: the common two- and three-move shapes in one
   closure each, longer runs as a chain of them. *)
let rec moves (ms : (int * tree) list) (k : nfn) : nfn =
  match ms with
  | [] -> k
  | [ (d, e) ] -> assign d e k
  | [ (d0, Reg s0); (d1, Reg s1) ] ->
      fun fr ->
        let r = fr.f_regs in
        set r d0 (get r s0);
        set r d1 (get r s1);
        k fr
  | [ (d0, Reg s0); (d1, Reg s1); (d2, Reg s2) ] ->
      fun fr ->
        let r = fr.f_regs in
        set r d0 (get r s0);
        set r d1 (get r s1);
        set r d2 (get r s2);
        k fr
  | [ (d0, Imm v0); (d1, Reg s1); (d2, Reg s2) ] ->
      fun fr ->
        let r = fr.f_regs in
        set r d0 v0;
        set r d1 (get r s1);
        set r d2 (get r s2);
        k fr
  | m0 :: m1 :: m2 :: (_ :: _ as rest) -> moves [ m0; m1; m2 ] (moves rest k)
  | m :: rest -> assign (fst m) (snd m) (moves rest k)

(* The entry of a block that starts by moving register [s] to [d]:
   [p]'s prepayment, the move, then the rest of the block, [rests.(pc)]. *)
let move_entry p d s (rests : nfn array) pc =
  closure (fun fr ->
      if prepay fr p then begin
        let r = fr.f_regs in
        set r d (get r s);
        (Array.unsafe_get rests pc) fr
      end
      else fallback fr p fr.f_rem)

let print_int e k : nfn =
  let a = opd e in
  fun fr ->
    let t = fr.f_vm in
    t.output_rev <- as_int (fetch fr a) :: t.output_rev;
    k fr

let put_field fi o v k : nfn =
  let o = opd o and v = opd v in
  fun fr ->
    let vo = fetch fr o in
    let vv = fetch fr v in
    store (as_obj vo).Value.fields fi vv;
    k fr

let put_global i v k : nfn =
  let v = opd v in
  fun fr ->
    store fr.f_vm.globals i (fetch fr v);
    k fr

let array_set a i v k : nfn =
  let a = opd a and i = opd i and v = opd v in
  fun fr ->
    let va = fetch fr a in
    let vi = fetch fr i in
    let vv = fetch fr v in
    let i = as_int vi in
    let a = as_arr va in
    ignore (elt a i);
    set a i vv;
    k fr

let discard e k : nfn =
  let a = opd e in
  fun fr ->
    ignore (fetch fr a);
    k fr

let swap s k =
  closure (fun fr ->
      let r = fr.f_regs in
      let a = get r s in
      set r s (get r (s - 1));
      set r (s - 1) a;
      k fr)

let[@inline] pick fr b ~if_true ~if_false =
  if b then enter fr if_true else enter fr if_false

(* A two-way branch on [c], each side prepaying its target inline. A
   jump into a block that is nothing but a branch runs the branch
   itself, after prepaying that block's run ([pre]). [Ge], [Gt] and
   [Ne] are the negations of [Lt], [Le] and [Eq], with the same operand
   checks in the same order, so they branch as those with the targets
   swapped. *)
let rec branch pre c ~(if_true : dest) ~(if_false : dest) : nfn =
  match c with
  | Cmp (Instr.Ge, a, b) ->
      branch pre (Cmp (Instr.Lt, a, b)) ~if_true:if_false ~if_false:if_true
  | Cmp (Instr.Gt, a, b) ->
      branch pre (Cmp (Instr.Le, a, b)) ~if_true:if_false ~if_false:if_true
  | Cmp (Instr.Ne, a, b) ->
      branch pre (Cmp (Instr.Eq, a, b)) ~if_true:if_false ~if_false:if_true
  | Cmp (Instr.Lt, Reg i, Reg j) ->
      fun fr ->
        if prepay fr pre then
          let r = fr.f_regs in
          let b = as_int (get r j) in
          pick fr (as_int (get r i) < b) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Le, Reg i, Reg j) ->
      fun fr ->
        if prepay fr pre then
          let r = fr.f_regs in
          let b = as_int (get r j) in
          pick fr (as_int (get r i) <= b) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Lt, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr ->
        if prepay fr pre then
          pick fr (as_int (get fr.f_regs i) < c) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Le, Reg i, Imm c) when is_int c ->
      let c = int_of c in
      fun fr ->
        if prepay fr pre then
          pick fr (as_int (get fr.f_regs i) <= c) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Eq, Reg i, Imm c) when is_int c ->
      fun fr ->
        if prepay fr pre then pick fr (get fr.f_regs i == c) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Lt, a, Imm c) when is_int c ->
      let a = opd a and c = int_of c in
      fun fr ->
        if prepay fr pre then
          pick fr (as_int (fetch fr a) < c) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Eq, a, Imm c) ->
      (* An integer equals only itself, and null only null. *)
      let a = opd a in
      if is_int c then fun fr ->
        if prepay fr pre then pick fr (fetch fr a == c) ~if_true ~if_false
        else fallback fr pre fr.f_rem
      else fun fr ->
        if prepay fr pre then
          let v = fetch fr a in
          pick fr
            ((not (is_int v))
            &&
            match v with
            | Value.Null_c _ -> true
            | Value.Obj_c _ | Value.Arr_c _ -> false)
            ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Lt, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        if prepay fr pre then
          let va = fetch fr a in
          let b = as_int (fetch fr b) in
          pick fr (as_int va < b) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (Instr.Eq, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        if prepay fr pre then
          let va = fetch fr a in
          let vb = fetch fr b in
          pick fr (equal_cmp va vb) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Cmp (cmp, a, b) ->
      let a = opd a and b = opd b in
      fun fr ->
        if prepay fr pre then
          let va = fetch fr a in
          let vb = fetch fr b in
          pick fr (eval_cmp cmp va vb <> 0) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | Reg i ->
      fun fr ->
        if prepay fr pre then pick fr (truthy (get fr.f_regs i)) ~if_true ~if_false
        else fallback fr pre fr.f_rem
  | c ->
      let a = opd c in
      fun fr ->
        if prepay fr pre then pick fr (truthy (fetch fr a)) ~if_true ~if_false
        else fallback fr pre fr.f_rem

let is_breaker (ins : Instr.t) =
  match ins with
  | Instr.Call_static _ | Instr.Call_direct _ | Instr.Call_virtual _
  | Instr.Guard_method _ | Instr.New _ | Instr.Array_new | Instr.Return
  | Instr.Return_void ->
      true
  | _ -> false

(* How a block ends: falling or jumping forward into the body at a pc
   (a leader or a breaker), jumping back, or branching. *)
type exit = Tail of int | Goto of int | Branch of tree * int * int

let compile (t : t) (code : Code.t) : nfn array * int array =
  let instrs = code.Code.instrs in
  let icost =
    match code.Code.tier with
    | Code.Baseline -> t.cost.Cost.baseline_instr
    | Code.Optimized -> t.cost.Cost.opt_instr
  in
  let n = Array.length instrs in
  (* Raises on code the verifier would reject: the install gate. *)
  let depths =
    let root = Program.meth t.program code.Code.meth in
    Verify.entry_depths t.program
      {
        root with
        Meth.body = instrs;
        max_locals = code.Code.max_locals;
        max_stack = code.Code.max_stack;
      }
  in
  let base = code.Code.max_locals in
  let nfns : nfn array = Array.make (max 1 n) stuck in
  (* Run lengths, high pc to low: the instructions an entry at [pc]
     prepays. Leaders start a block. *)
  let cnt = Array.make (n + 1) 0 in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  for pc = n - 1 downto 0 do
    match instrs.(pc) with
    | Instr.Jump tg | Instr.Jump_if tg | Instr.Jump_ifnot tg ->
        (* A run continues through a forward jump, as through a fall. *)
        let forward = tg > pc && instrs.(pc) = Instr.Jump tg in
        cnt.(pc) <- (if forward then 1 + cnt.(tg) else 1);
        leader.(tg) <- true;
        leader.(pc + 1) <- true
    | Instr.Guard_method g ->
        leader.(g.Instr.fail) <- true;
        leader.(pc + 1) <- true
    | ins when is_breaker ins -> leader.(pc + 1) <- true
    | _ -> cnt.(pc) <- 1 + cnt.(pc + 1)
  done;
  let dests =
    Array.init n (fun pc ->
        let c = cnt.(pc) in
        if not (leader.(pc) || is_breaker instrs.(pc)) then paid_already
        else
          {
            d_pc = pc;
            d_sp = base + depths.(pc);
            d_icost = icost;
            d_count = c;
            d_pre = (c - 1) * icost;
            d_pay = c * icost;
            d_body = stuck;
          })
  in
  (* Breakers: the naive loop's charges and effects, settled in one
     step, entered with nothing prepaid for them. Calls and returns are
     [Interp]'s own ([Interp.call_breaker] and friends); guards read the
     program's flat dispatch table, captured here. *)
  let dispatch_ids = Program.dispatch_ids t.program
  and nsel = Program.selector_count t.program in
  let breaker pc (ins : Instr.t) : nfn =
    let sp = base + depths.(pc) in
    let stop fr =
      settle fr.f_vm icost fr.f_nin;
      fr.f_pc <- pc;
      fr.f_sp <- sp
    in
    match ins with
    | Instr.Call_static mid | Instr.Call_direct mid ->
        call_breaker ~pc ~sp ~icost mid
    | Instr.Call_virtual (sel, argc) -> virtual_breaker ~pc ~sp ~icost sel argc
    | Instr.Return -> return_breaker ~pc ~sp ~icost
    | Instr.Return_void -> return_void_breaker ~pc ~sp ~icost
    | Instr.Guard_method g ->
        let next = dests.(pc + 1) and fail = dests.(g.Instr.fail) in
        let sel = (g.Instr.sel :> int)
        and expected = (g.Instr.expected :> int)
        and recv_slot = sp - 1 - g.Instr.argc in
        fun fr ->
          if fr.f_rem <= 0 then stop fr
          else begin
            let t = fr.f_vm in
            settle t icost (fr.f_nin + 1);
            t.cycles <- t.cycles + t.cost.Cost.guard;
            let recv = get fr.f_regs recv_slot in
            let ok =
              (not (is_int recv))
              &&
              match recv with
              | Value.Obj_c o ->
                  dispatch_ids.(((o.Value.cls :> int) * nsel) + sel) = expected
              | Value.Null_c _ | Value.Arr_c _ -> false
            in
            let d =
              if ok then begin
                t.guard_hits <- t.guard_hits + 1;
                next
              end
              else begin
                t.guard_misses <- t.guard_misses + 1;
                t.on_guard_miss t fr.f_code.Code.meth pc;
                fail
              end
            in
            (* Unclipped restart, as after every guard and allocation. *)
            fr.f_rem <- t.next_sample - t.cycles;
            fr.f_nin <- 0;
            enter fr d
          end
    | Instr.New cid ->
        let next = dests.(pc + 1) in
        fun fr ->
          if fr.f_rem <= 0 then stop fr
          else begin
            let t = fr.f_vm in
            settle t icost (fr.f_nin + 1);
            t.cycles <- t.cycles + t.cost.Cost.alloc;
            (* The call into [Interp] only at a class's first [New]. *)
            if not (Array.unsafe_get t.class_loaded (cid :> int)) then
              note_class_load t cid;
            Array.unsafe_set fr.f_regs sp (Value.alloc t.program cid);
            fr.f_rem <- t.next_sample - t.cycles;
            fr.f_nin <- 0;
            enter fr next
          end
    | Instr.Array_new ->
        let next = dests.(pc + 1) in
        fun fr ->
          if fr.f_rem <= 0 then stop fr
          else begin
            let t = fr.f_vm in
            let regs = fr.f_regs in
            let len = as_int (get regs (sp - 1)) in
            if len < 0 then rerr "negative array size %d" len;
            settle t icost (fr.f_nin + 1);
            t.cycles <-
              t.cycles + t.cost.Cost.alloc
              + (len * t.cost.Cost.alloc_array_word);
            Array.unsafe_set regs (sp - 1)
              (Value.of_arr (Array.make len Value.zero));
            fr.f_rem <- t.next_sample - t.cycles;
            fr.f_nin <- 0;
            enter fr next
          end
    | _ -> assert false
  in
  let stk = Array.make (max 1 code.Code.max_stack) (Imm Value.zero) in
  (* The block from leader [l] to the next jump or branch (inclusive),
     breaker or leader, evaluated symbolically: its leading move (see
     [move_entry]), its other statements (last first) and its exit. *)
  let block l =
    let d = ref depths.(l) in
    for k = 0 to !d - 1 do
      stk.(k) <- Reg (base + k)
    done;
    let lead = ref [] and stmts = ref [] and pending = ref [] in
    let flush_moves () =
      (match (!pending, !lead, !stmts) with
      | [], _, _ -> ()
      | [ m ], [], [] -> lead := [ m ]
      | ms, _, _ -> stmts := moves (List.rev ms) :: !stmts);
      pending := []
    in
    let emit s =
      flush_moves ();
      stmts := s :: !stmts
    in
    let move dst e = pending := (dst, e) :: !pending in
    let push e =
      stk.(!d) <- e;
      incr d
    in
    let pop () =
      decr d;
      stk.(!d)
    in
    (* Write the entries satisfying [p] to their slots, bottom to top. A
       node may read slots above its own position (the operands it
       consumed), so bottom to top evaluates it before they are
       overwritten. *)
    let spill p =
      for k = 0 to !d - 1 do
        let e = stk.(k) and slot = base + k in
        if p e && not (is_reg slot e) then begin
          if is_leaf e then move slot e else emit (assign slot e);
          stk.(k) <- Reg slot
        end
      done
    in
    let non_leaf e = not (is_leaf e) in
    let statement s =
      spill non_leaf;
      emit s
    in
    let rec go pc =
      if pc > l && (leader.(pc) || is_breaker instrs.(pc)) then begin
        spill (fun _ -> true);
        Tail pc
      end
      else
        match instrs.(pc) with
        | Instr.Const c -> next pc (push (Imm (of_int c)))
        | Instr.Const_null -> next pc (push (Imm Value.null))
        | Instr.Load i -> next pc (push (Reg i))
        | Instr.Store i ->
            let e = pop () in
            spill (fun x -> non_leaf x || is_reg i x);
            if is_leaf e then move i e else emit (assign i e);
            go (pc + 1)
        | Instr.Dup ->
            if non_leaf stk.(!d - 1) then spill non_leaf;
            next pc (push stk.(!d - 1))
        | Instr.Swap ->
            spill (fun _ -> true);
            next pc (emit (swap (base + !d - 1)))
        | Instr.Pop ->
            let e = pop () in
            if non_leaf e then statement (discard e);
            go (pc + 1)
        | Instr.Binop op ->
            let b = pop () in
            let a = pop () in
            next pc (push (Binop (op, a, b)))
        | Instr.Cmp c ->
            let b = pop () in
            let a = pop () in
            next pc (push (Cmp (c, a, b)))
        | Instr.Neg -> next pc (push (Neg (pop ())))
        | Instr.Not -> next pc (push (Not (pop ())))
        | Instr.Get_field f -> next pc (push (Get_field (f, pop ())))
        | Instr.Get_global i -> next pc (push (Get_global i))
        | Instr.Array_get ->
            let i = pop () in
            let a = pop () in
            next pc (push (Array_get (a, i)))
        | Instr.Array_len -> next pc (push (Array_len (pop ())))
        | Instr.Instance_of cid -> next pc (push (Instance_of (cid, pop ())))
        | Instr.Put_field f ->
            let v = pop () in
            let o = pop () in
            next pc (statement (put_field f o v))
        | Instr.Put_global i -> next pc (statement (put_global i (pop ())))
        | Instr.Array_set ->
            let v = pop () in
            let i = pop () in
            let a = pop () in
            next pc (statement (array_set a i v))
        | Instr.Print_int -> next pc (statement (print_int (pop ())))
        | Instr.Nop -> go (pc + 1)
        | Instr.Jump tg ->
            spill (fun _ -> true);
            if tg > pc then Tail tg else Goto tg
        | Instr.Jump_if tg ->
            let c = pop () in
            spill (fun _ -> true);
            Branch (c, tg, pc + 1)
        | Instr.Jump_ifnot tg ->
            let c = pop () in
            spill (fun _ -> true);
            Branch (c, pc + 1, tg)
        | _ -> assert false (* a breaker ends the block before it *)
    and next pc () = go (pc + 1) in
    let exit = go l in
    flush_moves ();
    (!lead, !stmts, exit)
  in
  (* A pc that starts no block is entered only after a window ended
     mid-run there, or by OSR: [exec_until] runs the rest of the run, to
     the clock it costs, then the tier re-enters at its end. *)
  let mid_run fr =
    let t = fr.f_vm and rem = fr.f_rem in
    let pay = cnt.(fr.f_pc) * icost in
    settle t icost fr.f_nin;
    if rem > pay - icost then begin
      exec_until t fr (t.cycles + pay);
      fr.f_rem <- rem - pay;
      fr.f_nin <- 0;
      (Array.unsafe_get nfns fr.f_pc) fr
    end
    else exec_until t fr (t.cycles + rem)
  in
  let plans = Array.make n None and rests = Array.make n stuck in
  for pc = 0 to n - 1 do
    if depths.(pc) >= 0 && leader.(pc) && not (is_breaker instrs.(pc)) then
      plans.(pc) <- Some (block pc)
  done;
  (* A jump to [tg]; into a branch-only block, the branch itself. *)
  let transfer tg : nfn =
    match plans.(tg) with
    | Some ([], [], Branch (c, t, f)) ->
        branch dests.(tg) c ~if_true:dests.(t) ~if_false:dests.(f)
    | Some ([ (d, Reg s) ], _, _) -> move_entry dests.(tg) d s rests tg
    | _ ->
        let d = dests.(tg) in
        fun fr -> enter fr d
  in
  for pc = n - 1 downto 0 do
    if depths.(pc) >= 0 && is_breaker instrs.(pc) then begin
      let b = breaker pc instrs.(pc) in
      nfns.(pc) <- b;
      dests.(pc).d_body <- b
    end
  done;
  for pc = n - 1 downto 0 do
    let d = dests.(pc) in
    match plans.(pc) with
    | Some (lead, stmts, exit) ->
        let last =
          match exit with
          | Tail pc' -> dests.(pc').d_body
          | Goto tg -> transfer tg
          | Branch (c, t, f) ->
              branch paid_already c ~if_true:dests.(t) ~if_false:dests.(f)
        in
        rests.(pc) <- List.fold_left (fun k s -> s k) last stmts;
        d.d_body <- moves lead rests.(pc);
        nfns.(pc) <- transfer pc
    | None ->
        if depths.(pc) >= 0 && not (is_breaker instrs.(pc)) then
          nfns.(pc) <- mid_run
  done;
  (nfns, depths)

let install t (mid : Ids.Method_id.t) (code : Code.t) =
  let fns, entry_depths = compile t code in
  Interp.install_native t mid ~fns ~entry_depths
