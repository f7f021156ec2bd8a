open Acsi_bytecode

type tier = Baseline | Optimized

type src_entry = {
  src_meth : Ids.Method_id.t;
  src_pc : int;
  parents : (Ids.Method_id.t * int) list;
}

type t = {
  meth : Ids.Method_id.t;
  tier : tier;
  instrs : Instr.t array;
  max_locals : int;
  max_stack : int;
  src : src_entry array option;
  code_bytes : int;
  assumptions : (Ids.Selector.t * Ids.Method_id.t) list;
}

let baseline (cost : Cost.t) (m : Meth.t) =
  {
    meth = m.Meth.id;
    tier = Baseline;
    instrs = m.Meth.body;
    max_locals = m.Meth.max_locals;
    max_stack = m.Meth.max_stack;
    src = None;
    code_bytes = Array.length m.Meth.body * cost.Cost.baseline_bytes_per_unit;
    assumptions = [];
  }

let entry_depths program code =
  let root = Program.meth program code.meth in
  Verify.entry_depths program
    {
      root with
      Meth.body = code.instrs;
      max_locals = code.max_locals;
      max_stack = code.max_stack;
    }

let source_at code ~pc =
  match code.src with
  | None -> ((code.meth, pc), [])
  | Some entries ->
      let e = entries.(pc) in
      ((e.src_meth, e.src_pc), e.parents)

let pp fmt code =
  let tier = match code.tier with Baseline -> "base" | Optimized -> "opt" in
  Format.fprintf fmt "@[<v>code %a [%s] %d instrs %d bytes@," Ids.Method_id.pp
    code.meth tier (Array.length code.instrs) code.code_bytes;
  Array.iteri
    (fun i ins -> Format.fprintf fmt "%4d: %a@," i Instr.pp ins)
    code.instrs;
  Format.fprintf fmt "@]"
