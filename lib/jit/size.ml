open Acsi_bytecode

type clazz = Meth.size_class = Tiny | Small | Medium | Large

let classify = Meth.classify

let estimate m ~const_args =
  let base = Meth.size_units m in
  let discount = const_args * (max 1 (base / 12)) in
  max 1 (base - discount)

(* A conservative scan backwards from the call: arguments pushed by a
   straight run of side-effect-free single-push instructions immediately
   before the call can be attributed; a [Const] among them counts. Any
   other shape stops the scan (we then know nothing about the remaining
   arguments). *)
let const_args_at body ~pc =
  let argc =
    match body.(pc) with
    | Instr.Call_static mid | Instr.Call_direct mid ->
        ignore mid;
        (* resolved by the caller via the oracle; here we only bound the
           scan window by the pushes we can see *)
        max_int
    | Instr.Call_virtual (_, argc) -> argc
    | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
    | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
    | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
    | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _
    | Instr.Put_field _ | Instr.Get_global _ | Instr.Put_global _
    | Instr.Array_new | Instr.Array_get | Instr.Array_set | Instr.Array_len
    | Instr.Return | Instr.Return_void | Instr.Instance_of _
    | Instr.Guard_method _ | Instr.Print_int | Instr.Nop ->
        0
  in
  let rec scan i found =
    if i < 0 || pc - i > argc then found
    else
      match body.(i) with
      | Instr.Const _ -> scan (i - 1) (found + 1)
      | Instr.Const_null | Instr.Load _ | Instr.Get_global _ ->
          scan (i - 1) found
      | Instr.Store _ | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _
      | Instr.Neg | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
      | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _
      | Instr.Put_field _ | Instr.Put_global _ | Instr.Array_new
      | Instr.Array_get | Instr.Array_set | Instr.Array_len
      | Instr.Call_static _ | Instr.Call_virtual _ | Instr.Call_direct _
      | Instr.Return | Instr.Return_void | Instr.Instance_of _
      | Instr.Guard_method _ | Instr.Print_int | Instr.Nop ->
          found
  in
  scan (pc - 1) 0

