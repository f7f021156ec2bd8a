open Acsi_bytecode
open Interp

(* The closure ("native") execution tier: an installed method's
   instructions are compiled, once, into a chain of OCaml closures — one
   entry closure per source pc plus one effect closure per instruction or
   superinstruction — and the interpreter dispatches whole windows into
   the chain instead of running its fetch/decode loop.

   Superinstructions are a compile-time detail of this tier and nowhere
   else: {!select} picks, at each pc, the longest of 27 fixed patterns of
   plain-cost instructions ([load;load;binop], [load;const;cmp;
   jump_ifnot], ...) and builds one closure for the whole pattern. The
   plain interpreter loop {!Interp.step} knows none of them.

   The design splits each straight-line run (the instructions from a pc
   up to and including the next control transfer, stopping before any
   instruction with a non-uniform charge) into

   - an *entry* closure, which performs the run's entire timer-window
     accounting up front: if the remaining budget provably covers the
     whole run ([rem > (count - 1) * icost], the exact condition under
     which the interpreter would execute every op of the run without a
     timer check becoming due), it prepays [count * icost] cycles and
     tail-calls the effect chain with the accounting already
     settled-forward; otherwise it hands the window tail to the
     interpreter's own {!Interp.step}, which owns the exact
     window-boundary behaviour — so near-boundary execution is not
     *similar* to the interpreter tier, it *is* the interpreter tier;

   - *effect* closures, one per instruction or superinstruction, that only
     touch the operand array and tail-call a directly captured successor:
     no per-op budget arithmetic, no dispatch on an op code, no bounds
     logic beyond what the op itself requires. Control transfers at run
     ends re-enter through the entry closure of their target pc, and ops
     with extra charges (calls, returns, guards, allocations) get
     dedicated closures replicating [step]'s branch for them exactly —
     including the unclipped [next_sample - cycles] window restart after
     guards and allocations, which deliberately ignores [window_end]
     just as the interpreter does.

   The execution state (frame, operand array, stack pointer, remaining
   budget, unsettled instruction count) lives in the VM's one {!wst}
   record rather than in closure arguments: a chain link reads the
   fields it needs, writes back the ones it changed, and applies its
   successor to the record alone. See the [nfn] documentation in
   {!Interp} for why (unknown single-argument applications compile to a
   direct call; six arguments pay the [caml_apply6] stub per link).

   Exactness therefore needs no per-op argument: entry closures prepay
   only what [step] would execute before its next timer check, boundary
   tails run on [step] itself over the source instructions, and the
   seven non-uniform instructions are line-for-line transcriptions of
   [step]'s branches. The differential test suite (the tier against the
   naive [run_reference] loop) enforces byte-identical cycles, counters,
   output and hook timing on top of that argument.

   The value helpers are redefined locally (same definitions, same error
   messages as {!Interp}'s) because dune's dev profile compiles every
   library with [-opaque]: no call into another module is inlined, so
   calling [Interp]'s copies would cost a call per use inside the effect
   closures. *)

let rerr fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* An integer is an immediate and everything else a block (see
   {!Value}); no match on a [Value.t] runs before an [is_int] test. *)
let[@inline] is_int (v : Value.t) = Obj.is_int (Obj.repr v)
let[@inline] int_of (v : Value.t) : int = Obj.magic v
let[@inline] of_int (n : int) : Value.t = Obj.magic n

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

(* A superinstruction selected at some pc: its name, the source
   instructions it covers, whether it ends its straight-line run (a
   control transfer), and its effect closure. *)
type fused = { name : string; width : int; ends_run : bool; fn : nfn }

(* Superinstruction selection at [pc]; the longest pattern wins. Each
   pattern is written once, here: its components, its name, and the
   closure performing their combined effect. A straight-line closure
   tails into [chain_at (pc + width)], the effect chain after it; a
   control transfer re-enters through the entry closure of its target in
   [nfns] (read at run time, so [nfns] may still be under construction).
   The components are all plain-cost instructions (no calls, allocations
   or guards), so a superinstruction charges exactly [width * icost] —
   the entry closure prepays it with the rest of its run. Operand-check
   order follows the source instructions: where a component's operand
   is checked first in [step], it is checked first here. *)
let select ~(nfns : nfn array) ~(chain_at : int -> nfn)
    (instrs : Instr.t array) pc : fused option =
  let n = Array.length instrs in
  let at k = if pc + k < n then Some instrs.(pc + k) else None in
  let straight name width fn = Some { name; width; ends_run = false; fn } in
  let transfer name width fn = Some { name; width; ends_run = true; fn } in
  match (instrs.(pc), at 1, at 2, at 3) with
  | ( Instr.Load i,
      Some (Instr.Load j),
      Some (Instr.Binop op),
      Some (Instr.Store d) ) ->
      let k = chain_at (pc + 4) in
      straight "load2_binop_store" 4 (fun st ->
          let regs = st.w_regs in
          let b = as_int (Array.unsafe_get regs j) in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs d (eval_binop op a b);
          k st)
  | Instr.Load i, Some (Instr.Load j), Some (Instr.Binop op), _ ->
      let k = chain_at (pc + 3) in
      straight "load2_binop" 3 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs j) in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs sp (eval_binop op a b);
          st.w_sp <- sp + 1;
          k st)
  | ( Instr.Load i,
      Some (Instr.Load j),
      Some (Instr.Cmp c),
      Some (Instr.Jump_ifnot target) ) ->
      let next = pc + 4 in
      transfer "load2_cmp_jumpifnot" 4 (fun st ->
          let regs = st.w_regs in
          let r =
            eval_cmp c (Array.unsafe_get regs i) (Array.unsafe_get regs j)
          in
          if r <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st)
  | Instr.Load i, Some (Instr.Load j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "load2" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs i);
          set regs (sp + 1) (Array.unsafe_get regs j);
          st.w_sp <- sp + 2;
          k st)
  | ( Instr.Load i,
      Some (Instr.Const c),
      Some (Instr.Binop op),
      Some (Instr.Store d) ) ->
      let k = chain_at (pc + 4) in
      straight "load_const_binop_store" 4 (fun st ->
          let regs = st.w_regs in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs d (eval_binop op a c);
          k st)
  | Instr.Load i, Some (Instr.Const c), Some (Instr.Binop op), _ ->
      let k = chain_at (pc + 3) in
      straight "load_const_binop" 3 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs sp (eval_binop op a c);
          st.w_sp <- sp + 1;
          k st)
  | ( Instr.Load i,
      Some (Instr.Const c),
      Some (Instr.Cmp cmp),
      Some (Instr.Jump_ifnot target) ) ->
      let v = of_int c in
      let next = pc + 4 in
      transfer "load_const_cmp_jumpifnot" 4 (fun st ->
          let r = eval_cmp cmp (Array.unsafe_get st.w_regs i) v in
          if r <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st)
  | Instr.Load i, Some (Instr.Store j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "load_store" 2 (fun st ->
          let regs = st.w_regs in
          set regs j (Array.unsafe_get regs i);
          k st)
  | Instr.Load i, Some (Instr.Get_field f), Some (Instr.Store d), _ ->
      let k = chain_at (pc + 3) in
      straight "load_getfield_store" 3 (fun st ->
          let regs = st.w_regs in
          let o = as_obj (Array.unsafe_get regs i) in
          set regs d o.Value.fields.(f);
          k st)
  | Instr.Load i, Some (Instr.Get_field f), _, _ ->
      let k = chain_at (pc + 2) in
      straight "load_getfield" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs i) in
          set regs sp o.Value.fields.(f);
          st.w_sp <- sp + 1;
          k st)
  | Instr.Load i, Some (Instr.Jump_ifnot target), _, _ ->
      let next = pc + 2 in
      transfer "load_jumpifnot" 2 (fun st ->
          if truthy (Array.unsafe_get st.w_regs i) then
            (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st)
  | Instr.Load i, Some (Instr.Binop op), _, _ ->
      let k = chain_at (pc + 2) in
      straight "load_binop" 2 (fun st ->
          (* the loaded local is the top operand [b] of the binop *)
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs i) in
          let a = as_int (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (eval_binop op a b);
          k st)
  | Instr.Load i, Some (Instr.Cmp c), _, _ ->
      let k = chain_at (pc + 2) in
      straight "load_cmp" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs i in
          let a = Array.unsafe_get regs (sp - 1) in
          set_int regs (sp - 1) (eval_cmp c a b);
          k st)
  | Instr.Load i, Some Instr.Array_get, _, _ ->
      let k = chain_at (pc + 2) in
      straight "load_arrayget" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let idx = as_int (Array.unsafe_get regs i) in
          let a = as_arr (Array.unsafe_get regs (sp - 1)) in
          if idx < 0 || idx >= Array.length a then
            rerr "array index %d out of bounds (length %d)" idx
              (Array.length a);
          set regs (sp - 1) (Array.unsafe_get a idx);
          k st)
  | Instr.Store i, Some (Instr.Load j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "store_load" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs i (Array.unsafe_get regs (sp - 1));
          set regs (sp - 1) (Array.unsafe_get regs j);
          k st)
  | Instr.Store i, Some (Instr.Store j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "store_store" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs i (Array.unsafe_get regs (sp - 1));
          set regs j (Array.unsafe_get regs (sp - 2));
          st.w_sp <- sp - 2;
          k st)
  | Instr.Store i, Some (Instr.Jump target), _, _ ->
      transfer "store_jump" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp - 1 in
          set regs i (Array.unsafe_get regs sp);
          st.w_sp <- sp;
          (Array.unsafe_get nfns target) st)
  | Instr.Get_field f, Some (Instr.Load j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "getfield_load" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs (sp - 1)) in
          set regs (sp - 1) o.Value.fields.(f);
          set regs sp (Array.unsafe_get regs j);
          st.w_sp <- sp + 1;
          k st)
  | Instr.Const c, Some (Instr.Store j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "const_store" 2 (fun st ->
          set_int st.w_regs j c;
          k st)
  | Instr.Const c, Some (Instr.Binop op), _, _ ->
      let k = chain_at (pc + 2) in
      straight "const_binop" 2 (fun st ->
          (* the constant is the top operand [b]; it is an integer by
             construction, so only [a] needs the dynamic check *)
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_int (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (eval_binop op a c);
          k st)
  | Instr.Const c, Some (Instr.Cmp cmp), _, _ ->
      let v = of_int c in
      let k = chain_at (pc + 2) in
      straight "const_cmp" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = Array.unsafe_get regs (sp - 1) in
          set_int regs (sp - 1) (eval_cmp cmp a v);
          k st)
  | Instr.Cmp c, Some (Instr.Jump_ifnot target), _, _ ->
      let next = pc + 2 in
      transfer "cmp_jumpifnot" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          st.w_sp <- sp - 2;
          if eval_cmp c a b <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st)
  | Instr.Cmp c, Some (Instr.Jump_if target), _, _ ->
      let next = pc + 2 in
      transfer "cmp_jumpif" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          st.w_sp <- sp - 2;
          if eval_cmp c a b <> 0 then (Array.unsafe_get nfns target) st
          else (Array.unsafe_get nfns next) st)
  | Instr.Binop op, Some (Instr.Store j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "binop_store" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          set_int regs j (eval_binop op a b);
          st.w_sp <- sp - 2;
          k st)
  | Instr.Binop op, Some (Instr.Const c), _, _ ->
      let k = chain_at (pc + 2) in
      straight "binop_const" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          set_int regs (sp - 2) (eval_binop op a b);
          set_int regs (sp - 1) c;
          k st)
  | Instr.Binop op1, Some (Instr.Binop op2), _, _ ->
      let k = chain_at (pc + 2) in
      straight "binop_binop" 2 (fun st ->
          (* the first result is the (always-integer) top operand of the
             second binop, so it is never stored *)
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          let r1 = eval_binop op1 a b in
          let a2 = as_int (Array.unsafe_get regs (sp - 3)) in
          set_int regs (sp - 3) (eval_binop op2 a2 r1);
          st.w_sp <- sp - 2;
          k st)
  | Instr.Array_get, Some (Instr.Store j), _, _ ->
      let k = chain_at (pc + 2) in
      straight "arrayget_store" 2 (fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let idx = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_arr (Array.unsafe_get regs (sp - 2)) in
          if idx < 0 || idx >= Array.length a then
            rerr "array index %d out of bounds (length %d)" idx
              (Array.length a);
          set regs j (Array.unsafe_get a idx);
          st.w_sp <- sp - 2;
          k st)
  | _ -> None

let fuse_at instrs pc =
  Option.map
    (fun f -> (f.name, f.width))
    (select ~nfns:[||] ~chain_at:(fun _ -> stuck) instrs pc)

let compile (t : t) (code : Code.t) : nfn array * int array =
  let instrs = code.Code.instrs in
  let icost =
    match code.Code.tier with
    | Code.Baseline -> t.cost.Cost.baseline_instr
    | Code.Optimized -> t.cost.Cost.opt_instr
  in
  let n = Array.length instrs in
  let nfns : nfn array = Array.make (max 1 n) stuck in
  (* [chain.(pc)]: the effect chain from [pc] to the end of its run,
     valid only when the entry closure has already prepaid the whole
     run. [cnt.(pc)]: source instructions that prepayment covers (0 for
     the dedicated non-uniform closures, which pay for themselves). *)
  let chain : nfn array = Array.make (max 1 n) stuck in
  let cnt = Array.make (max 1 n) 0 in
  let chain_at i = if i < n then chain.(i) else stuck in
  let cnt_at i = if i < n then cnt.(i) else 0 in
  (* One closure per instruction with a non-uniform charge: a
     line-for-line transcription of [step]'s branch, ending the prepaid
     regime (these are entered with the budget *not* prepaid, and settle
     themselves). Each reads the state it needs out of [st] before any
     re-entrant dispatch ([invoke]/[continue_window]) can repopulate
     it. *)
  let breaker pc (ins : Instr.t) : nfn =
    match ins with
    | Instr.Call_static mid | Instr.Call_direct mid ->
        fun st ->
          let t = st.w_t in
          let fr = st.w_fr in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            flush t icost (nin + 1);
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp;
            invoke t mid;
            continue_window t
          end
    | Instr.Call_virtual (sel, argc) ->
        fun st ->
          let t = st.w_t in
          let fr = st.w_fr in
          let sp = st.w_sp in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- sp
          end
          else begin
            flush t icost (nin + 1);
            t.cycles <- t.cycles + t.cost.Cost.virtual_dispatch;
            fr.f_pc <- pc;
            fr.f_sp <- sp;
            let recv = Array.unsafe_get st.w_regs (sp - 1 - argc) in
            invoke t (dispatch_target t recv sel);
            continue_window t
          end
    | Instr.Guard_method g ->
        fun st ->
          let t = st.w_t in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            let fr = st.w_fr in
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            flush t icost (nin + 1);
            t.cycles <- t.cycles + t.cost.Cost.guard;
            let recv =
              Array.unsafe_get st.w_regs (st.w_sp - 1 - g.Instr.argc)
            in
            let ok =
              (not (is_int recv))
              &&
              match recv with
              | Value.Obj_c o -> (
                  match Program.dispatch t.program o.Value.cls g.Instr.sel with
                  | Some target -> Ids.Method_id.equal target g.Instr.expected
                  | None -> false)
              | Value.Null_c _ | Value.Arr_c _ -> false
            in
            let pc' =
              if ok then begin
                t.guard_hits <- t.guard_hits + 1;
                pc + 1
              end
              else begin
                t.guard_misses <- t.guard_misses + 1;
                t.on_guard_miss t st.w_fr.f_code.Code.meth pc;
                g.Instr.fail
              end
            in
            (* Unclipped restart, exactly as [step]'s Guard branch. *)
            st.w_rem <- t.next_sample - t.cycles;
            st.w_nin <- 0;
            (Array.unsafe_get nfns pc') st
          end
    | Instr.New cid ->
        fun st ->
          let t = st.w_t in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            let fr = st.w_fr in
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            flush t icost (nin + 1);
            t.cycles <- t.cycles + t.cost.Cost.alloc;
            note_class_load t cid;
            let sp = st.w_sp in
            Array.unsafe_set st.w_regs sp (Value.alloc t.program cid);
            st.w_sp <- sp + 1;
            st.w_rem <- t.next_sample - t.cycles;
            st.w_nin <- 0;
            (Array.unsafe_get nfns (pc + 1)) st
          end
    | Instr.Array_new ->
        fun st ->
          let t = st.w_t in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            let fr = st.w_fr in
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            let regs = st.w_regs in
            let sp = st.w_sp in
            let len = as_int (Array.unsafe_get regs (sp - 1)) in
            if len < 0 then rerr "negative array size %d" len;
            flush t icost (nin + 1);
            t.cycles <-
              t.cycles + t.cost.Cost.alloc
              + (len * t.cost.Cost.alloc_array_word);
            Array.unsafe_set regs (sp - 1)
              (Value.of_arr (Array.make len Value.zero));
            st.w_rem <- t.next_sample - t.cycles;
            st.w_nin <- 0;
            (Array.unsafe_get nfns (pc + 1)) st
          end
    | Instr.Return ->
        fun st ->
          let t = st.w_t in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            let fr = st.w_fr in
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            flush t icost (nin + 1);
            let result = Array.unsafe_get st.w_regs (st.w_sp - 1) in
            t.depth <- t.depth - 1;
            if t.depth > 0 then begin
              let caller = t.frames.(t.depth - 1) in
              store caller.f_regs caller.f_sp result;
              caller.f_sp <- caller.f_sp + 1;
              caller.f_pc <- caller.f_pc + 1;
              continue_window t
            end
          end
    | Instr.Return_void ->
        fun st ->
          let t = st.w_t in
          let nin = st.w_nin in
          if st.w_rem <= 0 then begin
            let fr = st.w_fr in
            flush t icost nin;
            fr.f_pc <- pc;
            fr.f_sp <- st.w_sp
          end
          else begin
            flush t icost (nin + 1);
            t.depth <- t.depth - 1;
            if t.depth > 0 then begin
              let caller = t.frames.(t.depth - 1) in
              caller.f_pc <- caller.f_pc + 1;
              continue_window t
            end
          end
    | _ -> assert false
  in
  (* Effect closure for one uniform-charge instruction: perform its
     effect, write back the fields it moved, and tail into the captured
     successor — accounting untouched, the entry closure prepaid it.
     Effects are [step]'s, including operand-check order. *)
  let effect_link (ins : Instr.t) (k : nfn) : nfn =
    match ins with
    | Instr.Const c ->
        fun st ->
          let sp = st.w_sp in
          set_int st.w_regs sp c;
          st.w_sp <- sp + 1;
          k st
    | Instr.Const_null ->
        fun st ->
          let sp = st.w_sp in
          set st.w_regs sp Value.null;
          st.w_sp <- sp + 1;
          k st
    | Instr.Load i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs i);
          st.w_sp <- sp + 1;
          k st
    | Instr.Store i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp - 1 in
          set regs i (Array.unsafe_get regs sp);
          st.w_sp <- sp;
          k st
    | Instr.Dup ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs (sp - 1));
          st.w_sp <- sp + 1;
          k st
    | Instr.Pop ->
        fun st ->
          st.w_sp <- st.w_sp - 1;
          k st
    | Instr.Swap ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = Array.unsafe_get regs (sp - 1) in
          set regs (sp - 1) (Array.unsafe_get regs (sp - 2));
          set regs (sp - 2) a;
          k st
    | Instr.Binop op ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          let sp = sp - 1 in
          set_int regs (sp - 1) (eval_binop op a b);
          st.w_sp <- sp;
          k st
    | Instr.Neg ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set_int regs (sp - 1) (-as_int (Array.unsafe_get regs (sp - 1)));
          k st
    | Instr.Not ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set_int regs (sp - 1)
            (if truthy (Array.unsafe_get regs (sp - 1)) then 0 else 1);
          k st
    | Instr.Cmp c ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          let sp = sp - 1 in
          set_int regs (sp - 1) (eval_cmp c a b);
          st.w_sp <- sp;
          k st
    | Instr.Get_field i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs (sp - 1)) in
          set regs (sp - 1) o.Value.fields.(i);
          k st
    | Instr.Put_field i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let v = Array.unsafe_get regs (sp - 1) in
          let o = as_obj (Array.unsafe_get regs (sp - 2)) in
          store o.Value.fields i v;
          st.w_sp <- sp - 2;
          k st
    | Instr.Get_global i ->
        fun st ->
          let sp = st.w_sp in
          set st.w_regs sp st.w_t.globals.(i);
          st.w_sp <- sp + 1;
          k st
    | Instr.Put_global i ->
        fun st ->
          let sp = st.w_sp - 1 in
          store st.w_t.globals i (Array.unsafe_get st.w_regs sp);
          st.w_sp <- sp;
          k st
    | Instr.Array_get ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let i = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_arr (Array.unsafe_get regs (sp - 2)) in
          if i < 0 || i >= Array.length a then
            rerr "array index %d out of bounds (length %d)" i (Array.length a);
          let sp = sp - 1 in
          set regs (sp - 1) (Array.unsafe_get a i);
          st.w_sp <- sp;
          k st
    | Instr.Array_set ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let v = Array.unsafe_get regs (sp - 1) in
          let i = as_int (Array.unsafe_get regs (sp - 2)) in
          let a = as_arr (Array.unsafe_get regs (sp - 3)) in
          if i < 0 || i >= Array.length a then
            rerr "array index %d out of bounds (length %d)" i (Array.length a);
          set a i v;
          st.w_sp <- sp - 3;
          k st
    | Instr.Array_len ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_arr (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (Array.length a);
          k st
    | Instr.Instance_of cid ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let v = Array.unsafe_get regs (sp - 1) in
          let r =
            (not (is_int v))
            &&
            match v with
            | Value.Obj_c o ->
                Program.is_subclass st.w_t.program ~sub:o.Value.cls ~super:cid
            | Value.Null_c _ | Value.Arr_c _ -> false
          in
          set_int regs (sp - 1) (if r then 1 else 0);
          k st
    | Instr.Print_int ->
        fun st ->
          let t = st.w_t in
          let sp = st.w_sp - 1 in
          t.output_rev <- as_int (Array.unsafe_get st.w_regs sp) :: t.output_rev;
          st.w_sp <- sp;
          k st
    | Instr.Nop -> fun st -> k st
    | Instr.Jump _ | Instr.Jump_if _ | Instr.Jump_ifnot _ | Instr.Call_static _
    | Instr.Call_direct _ | Instr.Call_virtual _ | Instr.Guard_method _
    | Instr.New _ | Instr.Array_new | Instr.Return | Instr.Return_void ->
        assert false
  in
  (* Effect closure for a run-terminating jump: both successors re-enter
     through their target's *entry* closure (looked up at run time in
     [nfns]), which re-checks the budget for its own run. *)
  let term_link (ins : Instr.t) ~next : nfn =
    match ins with
    | Instr.Jump target -> fun st -> (Array.unsafe_get nfns target) st
    | Instr.Jump_if target ->
        fun st ->
          let sp = st.w_sp - 1 in
          st.w_sp <- sp;
          if truthy (Array.unsafe_get st.w_regs sp) then
            (Array.unsafe_get nfns target) st
          else (Array.unsafe_get nfns next) st
    | Instr.Jump_ifnot target ->
        fun st ->
          let sp = st.w_sp - 1 in
          st.w_sp <- sp;
          if truthy (Array.unsafe_get st.w_regs sp) then
            (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | _ -> assert false
  in
  (* Pass 1, high pc to low: effect chains and prepayment counts, taking
     a superinstruction wherever {!select} finds one. A successor's chain
     is always built before its predecessors, so straight-line links
     capture it directly — the only run-time table lookups are at control
     transfers. *)
  for pc = n - 1 downto 0 do
    match select ~nfns ~chain_at instrs pc with
    | Some f ->
        chain.(pc) <- f.fn;
        cnt.(pc) <-
          (if f.ends_run then f.width else f.width + cnt_at (pc + f.width))
    | None -> (
        match instrs.(pc) with
        | ( Instr.Call_static _ | Instr.Call_direct _ | Instr.Call_virtual _
          | Instr.Guard_method _ | Instr.New _ | Instr.Array_new | Instr.Return
          | Instr.Return_void ) as ins ->
            let b = breaker pc ins in
            nfns.(pc) <- b;
            chain.(pc) <- b;
            cnt.(pc) <- 0
        | (Instr.Jump _ | Instr.Jump_if _ | Instr.Jump_ifnot _) as ins ->
            chain.(pc) <- term_link ins ~next:(pc + 1);
            cnt.(pc) <- 1
        | ins ->
            chain.(pc) <- effect_link ins (chain_at (pc + 1));
            cnt.(pc) <- 1 + cnt_at (pc + 1))
  done;
  (* Pass 2: entry closures for every pc inside a run. The prepayment
     inequality [rem > (c - 1) * icost] is exactly the condition under
     which [step] executes [c] more uniform-cost instructions without a
     timer check becoming due; when it fails, the window tail belongs to
     [step] itself, on the source instructions. *)
  for pc = 0 to n - 1 do
    let c = cnt.(pc) in
    if c > 0 then begin
      let pre = (c - 1) * icost in
      let pay = c * icost in
      let link = chain.(pc) in
      nfns.(pc) <-
        (fun st ->
          let rem = st.w_rem in
          if rem > pre then begin
            st.w_rem <- rem - pay;
            st.w_nin <- st.w_nin + c;
            link st
          end
          else
            let regs = st.w_regs in
            step st.w_t st.w_fr instrs icost regs regs pc st.w_sp rem
              st.w_nin)
    end
  done;
  (* Operand-stack entry depths, for the OSR-transfer cross-check: the
     same derivation the interpreter side performs, run at compile time
     against the code actually being installed. *)
  let entry_depths =
    let root = Program.meth t.program code.Code.meth in
    let wrapper =
      {
        root with
        Meth.body = code.Code.instrs;
        max_locals = code.Code.max_locals;
        max_stack = code.Code.max_stack;
      }
    in
    Verify.entry_depths t.program wrapper
  in
  (nfns, entry_depths)

(* The bench sweep runs one program under dozens of policies, and every
   run closure-compiles the same baseline bodies again. A baseline
   body's closure code depends only on the bytecode and the cost model —
   never on the VM instance (runtime state flows in through the [wst]
   record the closures receive) — so the compiled closures can be
   shared across runs of the same program: one (program, cost) entry
   maps method ids to their compiled code.
   Optimized bodies are run-specific (each run inlines differently) and
   are never cached. The entry list is capped and
   most-recently-used-first so suites that churn through thousands of
   generated programs neither pin them all nor scan a long list. *)
type shared_code = {
  sc_program : Program.t;
  sc_cost : Cost.t;
  sc_methods : (nfn array * int array) option array;  (* by method id *)
}

let shared : shared_code list ref = ref []
let shared_max = 32
let shared_mutex = Mutex.create ()

(* Process-global cache traffic counters, guarded by [shared_mutex]. A
   hit is a method whose closures were found compiled; a miss compiles
   them (and populates the cache); an eviction drops a whole
   (program, cost) entry off the MRU tail. Reads outside the
   mutex see a consistent-enough snapshot for reporting. *)
type cache_stats = { hits : int; misses : int; evictions : int }

let cache_hits = ref 0
let cache_misses = ref 0
let cache_evictions = ref 0

let cache_stats () =
  Mutex.lock shared_mutex;
  let s =
    { hits = !cache_hits; misses = !cache_misses; evictions = !cache_evictions }
  in
  Mutex.unlock shared_mutex;
  s

let reset_cache_stats () =
  Mutex.lock shared_mutex;
  cache_hits := 0;
  cache_misses := 0;
  cache_evictions := 0;
  Mutex.unlock shared_mutex

let compile_baseline_cached t (mid : Ids.Method_id.t) (code : Code.t) =
  Mutex.lock shared_mutex;
  let entry =
    match
      List.find_opt
        (fun e -> e.sc_program == t.program && e.sc_cost = t.cost)
        !shared
    with
    | Some e ->
        shared := e :: List.filter (fun x -> x != e) !shared;
        e
    | None ->
        let e =
          {
            sc_program = t.program;
            sc_cost = t.cost;
            sc_methods = Array.make (Program.method_count t.program) None;
          }
        in
        cache_evictions :=
          !cache_evictions + max 0 (List.length !shared - (shared_max - 1));
        shared := e :: List.filteri (fun i _ -> i < shared_max - 1) !shared;
        e
  in
  let cached = entry.sc_methods.((mid :> int)) in
  (match cached with
  | Some _ -> incr cache_hits
  | None -> incr cache_misses);
  Mutex.unlock shared_mutex;
  match cached with
  | Some r -> r
  | None ->
      (* Compile outside the lock; two domains racing on one method both
         produce equivalent closures and the later store wins. *)
      let r = compile t code in
      Mutex.lock shared_mutex;
      entry.sc_methods.((mid :> int)) <- Some r;
      Mutex.unlock shared_mutex;
      r

let install t (mid : Ids.Method_id.t) (code : Code.t) =
  let fns, entry_depths =
    match code.Code.tier with
    | Code.Baseline -> compile_baseline_cached t mid code
    | Code.Optimized -> compile t code
  in
  Interp.install_native t mid ~fns ~entry_depths
