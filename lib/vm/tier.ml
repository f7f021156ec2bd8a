open Acsi_bytecode
open Interp

(* The closure ("native") execution tier: an installed method's decoded
   stream is compiled, once, into a chain of OCaml closures — one entry
   closure per source pc plus one effect closure per decoded op — and the
   interpreter dispatches whole windows into the chain instead of running
   its fetch/decode loop.

   The design splits each straight-line run (the ops from a pc up to and
   including the next control transfer, stopping before any op with a
   non-uniform charge) into

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

   - *effect* closures, one per decoded (possibly fused) op, that only
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

   Exactness therefore needs no per-op argument: entry closures use the
   same prepayment inequality [step] uses for fused ops, boundary tails
   run on [step] itself, and the seven non-uniform ops are line-for-line
   transcriptions. The differential test suite (the tier against the
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

let compile (t : t) (code : Code.t) : nfn array * int array =
  let dc = Dcode.of_code t.cost code in
  let ops = dc.Dcode.ops in
  let icost = dc.Dcode.icost in
  let n = Array.length ops in
  let nfns : nfn array = Array.make (max 1 n) stuck in
  (* [chain.(pc)]: the effect chain from [pc] to the end of its run,
     valid only when the entry closure has already prepaid the whole
     run. [cnt.(pc)]: source instructions that prepayment covers (0 for
     the dedicated non-uniform closures, which pay for themselves). *)
  let chain : nfn array = Array.make (max 1 n) stuck in
  let cnt = Array.make (max 1 n) 0 in
  let chain_at i = if i < n then chain.(i) else stuck in
  let cnt_at i = if i < n then cnt.(i) else 0 in
  (* One closure per op with a non-uniform charge: a line-for-line
     transcription of [step]'s branch, ending the prepaid regime (these
     are entered with the budget *not* prepaid, and settle themselves).
     Each reads the state it needs out of [st] before any re-entrant
     dispatch ([invoke]/[continue_window]) can repopulate it. *)
  let breaker pc op : nfn =
    match (op : Dcode.op) with
    | Dcode.Call mid ->
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
    | Dcode.Call_virtual (sel, argc) ->
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
    | Dcode.Guard g ->
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
    | Dcode.New cid ->
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
    | Dcode.Array_new ->
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
    | Dcode.Return ->
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
    | Dcode.Return_void ->
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
  (* Effect closure for one uniform-charge op: perform the (possibly
     fused) effect, write back the fields it moved, and tail into the
     captured successor — accounting untouched, the entry closure
     prepaid it. Effects are copied from [step]'s fused fast paths,
     including operand-check order. *)
  let effect_link op (k : nfn) : nfn =
    match (op : Dcode.op) with
    | Dcode.Const v ->
        fun st ->
          let sp = st.w_sp in
          set st.w_regs sp v;
          st.w_sp <- sp + 1;
          k st
    | Dcode.Load i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs i);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Store i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp - 1 in
          set regs i (Array.unsafe_get regs sp);
          st.w_sp <- sp;
          k st
    | Dcode.Dup ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs (sp - 1));
          st.w_sp <- sp + 1;
          k st
    | Dcode.Pop ->
        fun st ->
          st.w_sp <- st.w_sp - 1;
          k st
    | Dcode.Swap ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = Array.unsafe_get regs (sp - 1) in
          set regs (sp - 1) (Array.unsafe_get regs (sp - 2));
          set regs (sp - 2) a;
          k st
    | Dcode.Binop op ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          let sp = sp - 1 in
          set_int regs (sp - 1) (eval_binop op a b);
          st.w_sp <- sp;
          k st
    | Dcode.Neg ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set_int regs (sp - 1) (-as_int (Array.unsafe_get regs (sp - 1)));
          k st
    | Dcode.Not ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set_int regs (sp - 1)
            (if truthy (Array.unsafe_get regs (sp - 1)) then 0 else 1);
          k st
    | Dcode.Cmp c ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          let sp = sp - 1 in
          set_int regs (sp - 1) (eval_cmp c a b);
          st.w_sp <- sp;
          k st
    | Dcode.Get_field i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs (sp - 1)) in
          set regs (sp - 1) o.Value.fields.(i);
          k st
    | Dcode.Put_field i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let v = Array.unsafe_get regs (sp - 1) in
          let o = as_obj (Array.unsafe_get regs (sp - 2)) in
          store o.Value.fields i v;
          st.w_sp <- sp - 2;
          k st
    | Dcode.Get_global i ->
        fun st ->
          let sp = st.w_sp in
          set st.w_regs sp st.w_t.globals.(i);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Put_global i ->
        fun st ->
          let sp = st.w_sp - 1 in
          store st.w_t.globals i (Array.unsafe_get st.w_regs sp);
          st.w_sp <- sp;
          k st
    | Dcode.Array_get ->
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
    | Dcode.Array_set ->
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
    | Dcode.Array_len ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_arr (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (Array.length a);
          k st
    | Dcode.Instance_of cid ->
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
    | Dcode.Print_int ->
        fun st ->
          let t = st.w_t in
          let sp = st.w_sp - 1 in
          t.output_rev <- as_int (Array.unsafe_get st.w_regs sp) :: t.output_rev;
          st.w_sp <- sp;
          k st
    | Dcode.Nop -> fun st -> k st
    (* fused, non-control *)
    | Dcode.Load2_binop (i, j, op) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs j) in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs sp (eval_binop op a b);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Load_const_binop (i, c, op) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs sp (eval_binop op a c);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Load2_binop_store (i, j, op, d) ->
        fun st ->
          let regs = st.w_regs in
          let b = as_int (Array.unsafe_get regs j) in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs d (eval_binop op a b);
          k st
    | Dcode.Load_const_binop_store (i, c, op, d) ->
        fun st ->
          let regs = st.w_regs in
          let a = as_int (Array.unsafe_get regs i) in
          set_int regs d (eval_binop op a c);
          k st
    | Dcode.Load_getfield_store (i, f, d) ->
        fun st ->
          let regs = st.w_regs in
          let o = as_obj (Array.unsafe_get regs i) in
          set regs d o.Value.fields.(f);
          k st
    | Dcode.Load_store (i, j) ->
        fun st ->
          let regs = st.w_regs in
          set regs j (Array.unsafe_get regs i);
          k st
    | Dcode.Const_store (v, j) ->
        fun st ->
          set st.w_regs j v;
          k st
    | Dcode.Load_getfield (i, f) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs i) in
          set regs sp o.Value.fields.(f);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Load2 (i, j) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs sp (Array.unsafe_get regs i);
          set regs (sp + 1) (Array.unsafe_get regs j);
          st.w_sp <- sp + 2;
          k st
    | Dcode.Binop_store (op, j) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          set_int regs j (eval_binop op a b);
          st.w_sp <- sp - 2;
          k st
    | Dcode.Const_binop (c, op) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = as_int (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (eval_binop op a c);
          k st
    | Dcode.Store_load (i, j) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs i (Array.unsafe_get regs (sp - 1));
          set regs (sp - 1) (Array.unsafe_get regs j);
          k st
    | Dcode.Store_store (i, j) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          set regs i (Array.unsafe_get regs (sp - 1));
          set regs j (Array.unsafe_get regs (sp - 2));
          st.w_sp <- sp - 2;
          k st
    | Dcode.Getfield_load (f, j) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let o = as_obj (Array.unsafe_get regs (sp - 1)) in
          set regs (sp - 1) o.Value.fields.(f);
          set regs sp (Array.unsafe_get regs j);
          st.w_sp <- sp + 1;
          k st
    | Dcode.Load_binop (i, op) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs i) in
          let a = as_int (Array.unsafe_get regs (sp - 1)) in
          set_int regs (sp - 1) (eval_binop op a b);
          k st
    | Dcode.Load_cmp (i, c) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs i in
          let a = Array.unsafe_get regs (sp - 1) in
          set_int regs (sp - 1) (eval_cmp c a b);
          k st
    | Dcode.Load_arrayget i ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let idx = as_int (Array.unsafe_get regs i) in
          let a = as_arr (Array.unsafe_get regs (sp - 1)) in
          if idx < 0 || idx >= Array.length a then
            rerr "array index %d out of bounds (length %d)" idx
              (Array.length a);
          set regs (sp - 1) (Array.unsafe_get a idx);
          k st
    | Dcode.Binop_const (op, v) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          set_int regs (sp - 2) (eval_binop op a b);
          set regs (sp - 1) v;
          k st
    | Dcode.Binop_binop (op1, op2) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_int (Array.unsafe_get regs (sp - 2)) in
          let r1 = eval_binop op1 a b in
          let a2 = as_int (Array.unsafe_get regs (sp - 3)) in
          set_int regs (sp - 3) (eval_binop op2 a2 r1);
          st.w_sp <- sp - 2;
          k st
    | Dcode.Const_cmp (v, c) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let a = Array.unsafe_get regs (sp - 1) in
          set_int regs (sp - 1) (eval_cmp c a v);
          k st
    | Dcode.Arrayget_store j ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let idx = as_int (Array.unsafe_get regs (sp - 1)) in
          let a = as_arr (Array.unsafe_get regs (sp - 2)) in
          if idx < 0 || idx >= Array.length a then
            rerr "array index %d out of bounds (length %d)" idx
              (Array.length a);
          set regs j (Array.unsafe_get a idx);
          st.w_sp <- sp - 2;
          k st
    | Dcode.Jump _ | Dcode.Jump_if _ | Dcode.Jump_ifnot _
    | Dcode.Load2_cmp_jumpifnot _ | Dcode.Load_const_cmp_jumpifnot _
    | Dcode.Cmp_jumpifnot _ | Dcode.Cmp_jumpif _ | Dcode.Store_jump _
    | Dcode.Load_jumpifnot _ | Dcode.Call _ | Dcode.Call_virtual _
    | Dcode.Guard _ | Dcode.New _ | Dcode.Array_new | Dcode.Return
    | Dcode.Return_void ->
        assert false
  in
  (* Effect closure for a run-terminating control transfer: both
     successors re-enter through their target's *entry* closure (looked
     up at run time in [nfns]), which re-checks the budget for its own
     run. *)
  let term_link op ~next : nfn =
    match (op : Dcode.op) with
    | Dcode.Jump target -> fun st -> (Array.unsafe_get nfns target) st
    | Dcode.Jump_if target ->
        fun st ->
          let sp = st.w_sp - 1 in
          st.w_sp <- sp;
          if truthy (Array.unsafe_get st.w_regs sp) then
            (Array.unsafe_get nfns target) st
          else (Array.unsafe_get nfns next) st
    | Dcode.Jump_ifnot target ->
        fun st ->
          let sp = st.w_sp - 1 in
          st.w_sp <- sp;
          if truthy (Array.unsafe_get st.w_regs sp) then
            (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | Dcode.Load2_cmp_jumpifnot (i, j, c, target) ->
        fun st ->
          let regs = st.w_regs in
          let r =
            eval_cmp c (Array.unsafe_get regs i) (Array.unsafe_get regs j)
          in
          if r <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | Dcode.Load_const_cmp_jumpifnot (i, v, c, target) ->
        fun st ->
          let r = eval_cmp c (Array.unsafe_get st.w_regs i) v in
          if r <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | Dcode.Cmp_jumpifnot (c, target) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          st.w_sp <- sp - 2;
          if eval_cmp c a b <> 0 then (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | Dcode.Cmp_jumpif (c, target) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp in
          let b = Array.unsafe_get regs (sp - 1) in
          let a = Array.unsafe_get regs (sp - 2) in
          st.w_sp <- sp - 2;
          if eval_cmp c a b <> 0 then (Array.unsafe_get nfns target) st
          else (Array.unsafe_get nfns next) st
    | Dcode.Store_jump (i, target) ->
        fun st ->
          let regs = st.w_regs in
          let sp = st.w_sp - 1 in
          set regs i (Array.unsafe_get regs sp);
          st.w_sp <- sp;
          (Array.unsafe_get nfns target) st
    | Dcode.Load_jumpifnot (i, target) ->
        fun st ->
          if truthy (Array.unsafe_get st.w_regs i) then
            (Array.unsafe_get nfns next) st
          else (Array.unsafe_get nfns target) st
    | _ -> assert false
  in
  (* Pass 1, high pc to low: effect chains and prepayment counts. A
     successor's chain is always built before its predecessors, so
     straight-line links capture it directly — the only run-time table
     lookups are at control transfers. *)
  for pc = n - 1 downto 0 do
    let op = ops.(pc) in
    match op with
    | Dcode.Call _ | Dcode.Call_virtual _ | Dcode.Guard _ | Dcode.New _
    | Dcode.Array_new | Dcode.Return | Dcode.Return_void ->
        let b = breaker pc op in
        nfns.(pc) <- b;
        chain.(pc) <- b;
        cnt.(pc) <- 0
    | Dcode.Jump _ | Dcode.Jump_if _ | Dcode.Jump_ifnot _
    | Dcode.Load2_cmp_jumpifnot _ | Dcode.Load_const_cmp_jumpifnot _
    | Dcode.Cmp_jumpifnot _ | Dcode.Cmp_jumpif _ | Dcode.Store_jump _
    | Dcode.Load_jumpifnot _ ->
        let w = Dcode.width op in
        chain.(pc) <- term_link op ~next:(pc + w);
        cnt.(pc) <- w
    | _ ->
        let w = Dcode.width op in
        let next = pc + w in
        chain.(pc) <- effect_link op (chain_at next);
        cnt.(pc) <- w + cnt_at next
  done;
  (* Pass 2: entry closures for every pc inside a run. The prepayment
     inequality [rem > (c - 1) * icost] is exactly the condition under
     which [step] executes [c] more uniform-cost instructions without a
     timer check becoming due; when it fails, the window tail belongs to
     [step] itself. *)
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
            step st.w_t st.w_fr ops icost regs regs pc st.w_sp rem st.w_nin)
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
