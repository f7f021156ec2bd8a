(* The bottom-up summary pass as it stood before the single-pass rewrite
   of [Summary], kept verbatim as the test oracle: [test_analysis.ml]'s
   differential test asserts both produce equal rows. *)

open Acsi_analysis
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

let no_effects =
  { reads_heap = false; writes_heap = false; allocates = false; io = false }

let all_effects =
  { reads_heap = true; writes_heap = true; allocates = true; io = true }

let join_effects a b =
  {
    reads_heap = a.reads_heap || b.reads_heap;
    writes_heap = a.writes_heap || b.writes_heap;
    allocates = a.allocates || b.allocates;
    io = a.io || b.io;
  }

let is_pure e = not (e.writes_heap || e.allocates || e.io)

(* --- constant propagation (per method) -------------------------------- *)

(* Abstract operand values: a known integer constant, a definite null, or
   anything. Folding mirrors the interpreter's [eval_binop]/[eval_cmp]
   exactly; where the runtime would trap (division by a known zero) the
   pc is recorded as a definite throw instead of folding. *)
type cval = Any | Cint of int | Cnull

let cjoin a b = if a = b then a else Any

type cstate = { clocals : cval array; cstack : cval list }

module Const_lattice = struct
  type t = cstate

  let equal a b = a.clocals = b.clocals && a.cstack = b.cstack

  let join a b =
    if List.length a.cstack <> List.length b.cstack then
      raise (Dataflow.Mismatch "operand-stack depth");
    {
      clocals = Array.map2 cjoin a.clocals b.clocals;
      cstack = List.map2 cjoin a.cstack b.cstack;
    }

  (* Every slot moves at most twice (value -> Any), so plain joins
     converge without widening. *)
  let widen _old joined = joined
end

module Const_flow = Dataflow.Forward (Const_lattice)

let cpush v st = { st with cstack = v :: st.cstack }

let cpop st =
  match st.cstack with
  | v :: rest -> (v, { st with cstack = rest })
  | [] -> raise (Dataflow.Mismatch "operand-stack underflow")

let cpop_n n st =
  let rec go n st = if n = 0 then st else go (n - 1) (snd (cpop st)) in
  go n st

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

let fold_cmp c a b =
  match (c : Instr.cmp) with
  | Instr.Eq -> (
      match (a, b) with
      | Cint x, Cint y -> Some (if x = y then 1 else 0)
      | Cnull, Cnull -> Some 1
      | Cint _, Cnull | Cnull, Cint _ -> Some 0
      | Any, _ | _, Any -> None)
  | Instr.Ne -> (
      match (a, b) with
      | Cint x, Cint y -> Some (if x <> y then 1 else 0)
      | Cnull, Cnull -> Some 0
      | Cint _, Cnull | Cnull, Cint _ -> Some 1
      | Any, _ | _, Any -> None)
  | Instr.Lt -> (
      match (a, b) with Cint x, Cint y -> Some (if x < y then 1 else 0) | _ -> None)
  | Instr.Le -> (
      match (a, b) with Cint x, Cint y -> Some (if x <= y then 1 else 0) | _ -> None)
  | Instr.Gt -> (
      match (a, b) with Cint x, Cint y -> Some (if x > y then 1 else 0) | _ -> None)
  | Instr.Ge -> (
      match (a, b) with Cint x, Cint y -> Some (if x >= y then 1 else 0) | _ -> None)

(* --- parameter-taint (escape) analysis -------------------------------- *)

(* Each abstract value is the bitset of parameter slots it may alias.
   Taint propagates only through moves (loads, stores, dup/swap) and
   through callees' returns-its-parameter summaries: arithmetic produces
   fresh integers and heap reads produce heap values, neither of which
   IS a parameter. *)
type tstate = { tlocals : int array; tstack : int list }

module Taint_lattice = struct
  type t = tstate

  let equal a b = a.tlocals = b.tlocals && a.tstack = b.tstack

  let join a b =
    if List.length a.tstack <> List.length b.tstack then
      raise (Dataflow.Mismatch "operand-stack depth");
    {
      tlocals = Array.map2 ( lor ) a.tlocals b.tlocals;
      tstack = List.map2 ( lor ) a.tstack b.tstack;
    }

  let widen _old joined = joined
end

module Taint_flow = Dataflow.Forward (Taint_lattice)

let tpush v st = { st with tstack = v :: st.tstack }

let tpop st =
  match st.tstack with
  | v :: rest -> (v, { st with tstack = rest })
  | [] -> raise (Dataflow.Mismatch "operand-stack underflow")

let tpop_n n st =
  let rec go n acc st =
    if n = 0 then (acc, st)
    else
      let v, st = tpop st in
      go (n - 1) (v :: acc) st
  in
  (* Returns taints in parameter order: slot 0 first (pushed deepest). *)
  go n [] st

(* Maximum parameter count the int bitset can carry; beyond it the
   method gets a conservative all-escape row (never hit in practice). *)
let max_taint_params = 60

(* --- the bottom-up pass ----------------------------------------------- *)

type ctx = {
  p : Program.t;
  cg : Scc.t;
  rows_ : meth_summary array;  (* final rows, valid for comps < current *)
  (* working facts, optimistically initialized and monotonically grown
     during the current component's fixpoint *)
  w_eff : effects array;
  w_esc : int array;  (* escape bitsets *)
  w_retp : int array;  (* returns-parameter bitsets *)
}

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

let same_comp ctx comp (mid : Ids.Method_id.t) =
  Scc.component_of ctx.cg mid = comp

(* Abstract result value of a call, from callee summaries; calls inside
   the current component are opaque. *)
let ret_cval ctx comp targets =
  let one mid =
    if same_comp ctx comp mid then Any
    else
      match ctx.rows_.((mid :> int)).return_const with
      | Some k -> Cint k
      | None -> Any
  in
  match targets with
  | [] -> Any
  | first :: rest ->
      List.fold_left (fun acc mid -> cjoin acc (one mid)) (one first) rest

let const_transfer ctx comp ~pc:_ (instr : Instr.t) st =
  match instr with
  | Instr.Const n -> cpush (Cint n) st
  | Instr.Const_null -> cpush Cnull st
  | Instr.Load i -> cpush st.clocals.(i) st
  | Instr.Store i ->
      let v, st = cpop st in
      let clocals = Array.copy st.clocals in
      clocals.(i) <- v;
      { st with clocals }
  | Instr.Dup ->
      let v, _ = cpop st in
      cpush v st
  | Instr.Pop -> snd (cpop st)
  | Instr.Swap ->
      let b, st = cpop st in
      let a, st = cpop st in
      cpush a (cpush b st)
  | Instr.Binop op ->
      let b, st = cpop st in
      let a, st = cpop st in
      let v =
        match (a, b) with
        | Cint x, Cint y -> (
            match fold_binop op x y with Some r -> Cint r | None -> Any)
        | (Any | Cnull | Cint _), _ -> Any
      in
      cpush v st
  | Instr.Neg ->
      let a, st = cpop st in
      cpush (match a with Cint x -> Cint (-x) | Any | Cnull -> Any) st
  | Instr.Not ->
      let a, st = cpop st in
      (* [Value.truthy]: null and 0 are falsy, everything else truthy. *)
      cpush
        (match a with
        | Cint x -> Cint (if x = 0 then 1 else 0)
        | Cnull -> Cint 1
        | Any -> Any)
        st
  | Instr.Cmp c ->
      let b, st = cpop st in
      let a, st = cpop st in
      cpush (match fold_cmp c a b with Some r -> Cint r | None -> Any) st
  | Instr.Jump _ -> st
  | Instr.Jump_if _ | Instr.Jump_ifnot _ -> snd (cpop st)
  | Instr.New _ -> cpush Any st
  | Instr.Get_field _ ->
      let _, st = cpop st in
      cpush Any st
  | Instr.Put_field _ -> cpop_n 2 st
  | Instr.Get_global _ -> cpush Any st
  | Instr.Put_global _ -> snd (cpop st)
  | Instr.Array_new ->
      let _, st = cpop st in
      cpush Any st
  | Instr.Array_get -> cpush Any (cpop_n 2 st)
  | Instr.Array_set -> cpop_n 3 st
  | Instr.Array_len ->
      let _, st = cpop st in
      cpush Any st
  | Instr.Call_static mid ->
      let callee = Program.meth ctx.p mid in
      let st = cpop_n callee.Meth.arity st in
      if callee.Meth.returns then cpush (ret_cval ctx comp [ mid ]) st else st
  | Instr.Call_direct mid ->
      let callee = Program.meth ctx.p mid in
      let st = cpop_n (callee.Meth.arity + 1) st in
      if callee.Meth.returns then cpush (ret_cval ctx comp [ mid ]) st else st
  | Instr.Call_virtual (sel, argc) ->
      let impls = Program.implementations ctx.p sel in
      let st = cpop_n (argc + 1) st in
      let returns =
        match impls with
        | [] -> false
        | mid :: _ -> (Program.meth ctx.p mid).Meth.returns
      in
      if returns then cpush (ret_cval ctx comp impls) st else st
  | Instr.Return -> snd (cpop st)
  | Instr.Return_void -> st
  | Instr.Instance_of _ ->
      let a, st = cpop st in
      cpush (match a with Cnull -> Cint 0 | Any | Cint _ -> Any) st
  | Instr.Guard_method _ -> st
  | Instr.Print_int -> snd (cpop st)
  | Instr.Nop -> st

(* Pcs where execution definitely traps given the converged constant
   states: division/remainder by a known zero, dereference of a definite
   null, a negative constant array size. *)
let definite_throws (m : Meth.t) (states : cstate option array) =
  let body = m.Meth.body in
  let throws = Array.make (Array.length body) false in
  let peek n st = List.nth st.cstack n in
  Array.iteri
    (fun pc st ->
      match st with
      | None -> ()
      | Some st -> (
          match body.(pc) with
          | Instr.Binop (Instr.Div | Instr.Rem) ->
              if peek 0 st = Cint 0 then throws.(pc) <- true
          | Instr.Get_field _ | Instr.Array_len ->
              if peek 0 st = Cnull then throws.(pc) <- true
          | Instr.Put_field _ | Instr.Array_get ->
              if peek 1 st = Cnull then throws.(pc) <- true
          | Instr.Array_set ->
              if peek 2 st = Cnull then throws.(pc) <- true
          | Instr.Array_new -> (
              match peek 0 st with
              | Cint k when k < 0 -> throws.(pc) <- true
              | Cint _ | Any | Cnull -> ())
          | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
          | Instr.Dup | Instr.Pop | Instr.Swap
          | Instr.Binop
              ( Instr.Add | Instr.Sub | Instr.Mul | Instr.And | Instr.Or
              | Instr.Xor | Instr.Shl | Instr.Shr )
          | Instr.Neg | Instr.Not | Instr.Cmp _ | Instr.Jump _
          | Instr.Jump_if _ | Instr.Jump_ifnot _ | Instr.New _
          | Instr.Get_global _ | Instr.Put_global _ | Instr.Call_static _
          | Instr.Call_virtual _ | Instr.Call_direct _ | Instr.Return
          | Instr.Return_void | Instr.Instance_of _ | Instr.Guard_method _
          | Instr.Print_int | Instr.Nop ->
              ()))
    states;
  throws

(* Reachability refined by definite throws and by calls whose every
   target is proven always-throwing: neither falls through. *)
let refined_reachable ctx comp (m : Meth.t) throws =
  let body = m.Meth.body in
  let n = Array.length body in
  let callee_throws mid =
    (not (same_comp ctx comp mid)) && ctx.rows_.((mid :> int)).always_throws
  in
  let live = Array.make n false in
  let q = Queue.create () in
  let visit pc =
    if pc >= 0 && pc < n && not live.(pc) then begin
      live.(pc) <- true;
      Queue.add pc q
    end
  in
  visit 0;
  while not (Queue.is_empty q) do
    let pc = Queue.pop q in
    let instr = body.(pc) in
    List.iter visit (Instr.jump_targets instr);
    let falls =
      Cfg.falls_through instr
      && (not throws.(pc))
      &&
      if Instr.is_call instr then
        match Scc.call_targets ctx.p instr with
        | [] -> true
        | targets -> not (List.for_all callee_throws targets)
      else true
    in
    if falls then visit (pc + 1)
  done;
  live

let taint_transfer ctx comp ~pc:_ (instr : Instr.t) st =
  let call_result targets arg_taints =
    List.fold_left
      (fun acc mid ->
        let retp =
          if same_comp ctx comp mid then ctx.w_retp.((mid :> int))
          else
            let r = ctx.rows_.((mid :> int)) in
            let bits = ref 0 in
            Array.iteri
              (fun j b -> if b then bits := !bits lor (1 lsl j))
              r.returns_param;
            !bits
        in
        let t = ref acc in
        List.iteri
          (fun j taint -> if retp land (1 lsl j) <> 0 then t := !t lor taint)
          arg_taints;
        !t)
      0 targets
  in
  match instr with
  | Instr.Const _ | Instr.Const_null | Instr.New _ | Instr.Get_global _ ->
      tpush 0 st
  | Instr.Load i -> tpush st.tlocals.(i) st
  | Instr.Store i ->
      let v, st = tpop st in
      let tlocals = Array.copy st.tlocals in
      tlocals.(i) <- v;
      { st with tlocals }
  | Instr.Dup ->
      let v, _ = tpop st in
      tpush v st
  | Instr.Pop | Instr.Put_global _ | Instr.Print_int | Instr.Return ->
      snd (tpop st)
  | Instr.Swap ->
      let b, st = tpop st in
      let a, st = tpop st in
      tpush a (tpush b st)
  | Instr.Binop _ | Instr.Cmp _ -> tpush 0 (snd (tpop (snd (tpop st))))
  | Instr.Neg | Instr.Not | Instr.Instance_of _ | Instr.Array_len
  | Instr.Array_new ->
      tpush 0 (snd (tpop st))
  | Instr.Get_field _ -> tpush 0 (snd (tpop st))
  | Instr.Jump _ | Instr.Return_void | Instr.Guard_method _ | Instr.Nop -> st
  | Instr.Jump_if _ | Instr.Jump_ifnot _ -> snd (tpop st)
  | Instr.Put_field _ -> snd (tpop (snd (tpop st)))
  | Instr.Array_get -> tpush 0 (snd (tpop (snd (tpop st))))
  | Instr.Array_set -> snd (tpop (snd (tpop (snd (tpop st)))))
  | Instr.Call_static mid ->
      let callee = Program.meth ctx.p mid in
      let args, st = tpop_n callee.Meth.arity st in
      if callee.Meth.returns then tpush (call_result [ mid ] args) st else st
  | Instr.Call_direct mid ->
      let callee = Program.meth ctx.p mid in
      let args, st = tpop_n (callee.Meth.arity + 1) st in
      if callee.Meth.returns then tpush (call_result [ mid ] args) st else st
  | Instr.Call_virtual (sel, argc) ->
      let impls = Program.implementations ctx.p sel in
      let args, st = tpop_n (argc + 1) st in
      let returns =
        match impls with
        | [] -> false
        | mid :: _ -> (Program.meth ctx.p mid).Meth.returns
      in
      if returns then tpush (call_result impls args) st else st

(* Escape and returns-parameter events, read off the converged taint
   states: values stored into heap objects, arrays or globals escape;
   values passed at a parameter position the callee lets escape do too;
   a returned taint feeds [returns_param]. *)
let taint_events ctx comp (m : Meth.t) (states : tstate option array) =
  let body = m.Meth.body in
  let esc = ref 0 in
  let retp = ref 0 in
  let callee_esc mid =
    if same_comp ctx comp mid then ctx.w_esc.((mid :> int))
    else begin
      let r = ctx.rows_.((mid :> int)) in
      let bits = ref 0 in
      Array.iteri (fun j b -> if b then bits := !bits lor (1 lsl j)) r.escapes;
      !bits
    end
  in
  let call_escapes targets nslots st =
    (* Parameter j sits at stack depth [nslots - 1 - j]. *)
    List.iter
      (fun mid ->
        let ce = callee_esc mid in
        for j = 0 to nslots - 1 do
          if ce land (1 lsl j) <> 0 then
            esc := !esc lor List.nth st.tstack (nslots - 1 - j)
        done)
      targets
  in
  Array.iteri
    (fun pc st ->
      match st with
      | None -> ()
      | Some st -> (
          match body.(pc) with
          | Instr.Put_field _ | Instr.Put_global _ | Instr.Array_set ->
              esc := !esc lor List.hd st.tstack
          | Instr.Return -> retp := !retp lor List.hd st.tstack
          | Instr.Call_static mid ->
              call_escapes [ mid ] (Program.meth ctx.p mid).Meth.arity st
          | Instr.Call_direct mid ->
              call_escapes [ mid ] ((Program.meth ctx.p mid).Meth.arity + 1) st
          | Instr.Call_virtual (sel, argc) ->
              call_escapes (Program.implementations ctx.p sel) (argc + 1) st
          | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
          | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
          | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
          | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _
          | Instr.Get_global _ | Instr.Array_new | Instr.Array_get
          | Instr.Array_len | Instr.Return_void | Instr.Instance_of _
          | Instr.Guard_method _ | Instr.Print_int | Instr.Nop ->
              ()))
    states;
  (!esc, !retp)

(* Direct (one-instruction) effects plus the transitive join over every
   possible callee of every reachable call. *)
let effects_pass ctx comp (m : Meth.t) reachable =
  let eff = ref no_effects in
  Array.iteri
    (fun pc instr ->
      if reachable.(pc) then begin
        (match (instr : Instr.t) with
        | Instr.Get_field _ | Instr.Array_get | Instr.Array_len
        | Instr.Get_global _ ->
            eff := { !eff with reads_heap = true }
        | Instr.Put_field _ | Instr.Array_set | Instr.Put_global _ ->
            eff := { !eff with writes_heap = true }
        | Instr.New _ | Instr.Array_new -> eff := { !eff with allocates = true }
        | Instr.Print_int -> eff := { !eff with io = true }
        | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
        | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
        | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
        | Instr.Jump_ifnot _ | Instr.Call_static _ | Instr.Call_virtual _
        | Instr.Call_direct _ | Instr.Return | Instr.Return_void
        | Instr.Instance_of _ | Instr.Guard_method _ | Instr.Nop ->
            ());
        List.iter
          (fun mid ->
            let callee_eff =
              if same_comp ctx comp mid then ctx.w_eff.((mid :> int))
              else ctx.rows_.((mid :> int)).effects
            in
            eff := join_effects !eff callee_eff)
          (Scc.call_targets ctx.p instr)
      end)
    m.Meth.body;
  !eff

(* The call sites the static oracle provably benefits from: a single
   possible target (statically bound, or a CHA-monomorphic virtual) that
   lives outside the method's own component, whose post-inlining size is
   Tiny or Small. [for_seed] additionally excludes always-throwing
   targets — inlining those wins nothing at install time. *)
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

let finalize_row ctx comp (m : Meth.t) =
  let mid = m.Meth.id in
  let slots = Meth.param_slots m in
  let units = Meth.size_units m in
  let cfg = Cfg.make m.Meth.body in
  let init =
    { clocals = Array.make (max 1 m.Meth.max_locals) Any; cstack = [] }
  in
  let cstates =
    Const_flow.run cfg ~init ~transfer:(const_transfer ctx comp) ()
  in
  let throws = definite_throws m cstates in
  let live = refined_reachable ctx comp m throws in
  let always_throws =
    let has_return = ref false in
    Array.iteri
      (fun pc instr ->
        match (instr : Instr.t) with
        | Instr.Return | Instr.Return_void ->
            if live.(pc) && not throws.(pc) then has_return := true
        | _ -> ())
      m.Meth.body;
    not !has_return
  in
  let return_const =
    if not m.Meth.returns then None
    else begin
      let acc = ref None in
      (* [None] = no return seen yet; [Some Any] = conflicting. *)
      Array.iteri
        (fun pc instr ->
          match (instr : Instr.t) with
          | Instr.Return when live.(pc) && not throws.(pc) -> (
              let v =
                match cstates.(pc) with
                | Some st -> List.hd st.cstack
                | None -> Any
              in
              match !acc with
              | None -> acc := Some v
              | Some prev -> acc := Some (cjoin prev v))
          | _ -> ())
        m.Meth.body;
      match !acc with Some (Cint k) -> Some k | Some (Any | Cnull) | None -> None
    end
  in
  let mono_sites = ref [] in
  let virtual_sites = ref 0 in
  Array.iteri
    (fun pc instr ->
      match (instr : Instr.t) with
      | Instr.Call_virtual (sel, _) ->
          incr virtual_sites;
          (match Program.monomorphic_target ctx.p sel with
          | Some target -> mono_sites := (pc, target) :: !mono_sites
          | None -> ())
      | _ -> ())
    m.Meth.body;
  let size_est = ref units in
  let seed_sites = ref 0 in
  Array.iteri
    (fun pc instr ->
      if live.(pc) then
        match unique_target ctx instr with
        | Some tgt when not (same_comp ctx comp tgt) ->
            let r = ctx.rows_.((tgt :> int)) in
            (match Meth.classify ~units:r.size_est with
            | Meth.Tiny | Meth.Small ->
                size_est := !size_est + (r.size_est - 1);
                if not r.always_throws then incr seed_sites
            | Meth.Medium | Meth.Large -> ())
        | Some _ | None -> ())
    m.Meth.body;
  let esc_bits = ctx.w_esc.((mid :> int)) in
  let retp_bits = ctx.w_retp.((mid :> int)) in
  {
    meth = mid;
    units;
    size_est = !size_est;
    effects = ctx.w_eff.((mid :> int));
    pure = is_pure ctx.w_eff.((mid :> int));
    escapes = Array.init slots (fun j -> esc_bits land (1 lsl j) <> 0);
    returns_param = Array.init slots (fun j -> retp_bits land (1 lsl j) <> 0);
    return_const;
    always_throws;
    mono_sites = List.rev !mono_sites;
    virtual_sites = !virtual_sites;
    seed_sites = !seed_sites;
  }

let analyze_component ctx comp =
  let members = Scc.members ctx.cg comp in
  let conservative m =
    let i = (m.Meth.id :> int) in
    ctx.w_eff.(i) <- all_effects;
    ctx.w_esc.(i) <- -1;
    ctx.w_retp.(i) <- -1;
    ctx.rows_.(i) <- conservative_row m
  in
  (* Fixpoint on the monotone facts (effects, escape, returns-param). *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun mid ->
        let m = Program.meth ctx.p mid in
        let i = (mid :> int) in
        try
          let reachable = Cfg.reachable_instrs m.Meth.body in
          let eff = effects_pass ctx comp m reachable in
          let esc, retp =
            if Meth.param_slots m > max_taint_params then (-1, -1)
            else begin
              let cfg = Cfg.make m.Meth.body in
              let tlocals = Array.make (max 1 m.Meth.max_locals) 0 in
              for j = 0 to Meth.param_slots m - 1 do
                tlocals.(j) <- 1 lsl j
              done;
              let states =
                Taint_flow.run cfg ~init:{ tlocals; tstack = [] }
                  ~transfer:(taint_transfer ctx comp) ()
              in
              taint_events ctx comp m states
            end
          in
          let eff' = join_effects eff ctx.w_eff.(i) in
          let esc' = ctx.w_esc.(i) lor esc in
          let retp' = ctx.w_retp.(i) lor retp in
          if
            eff' <> ctx.w_eff.(i) || esc' <> ctx.w_esc.(i)
            || retp' <> ctx.w_retp.(i)
          then begin
            changed := true;
            ctx.w_eff.(i) <- eff';
            ctx.w_esc.(i) <- esc';
            ctx.w_retp.(i) <- retp'
          end
        with _ ->
          if
            ctx.w_eff.(i) <> all_effects || ctx.w_esc.(i) <> -1
            || ctx.w_retp.(i) <> -1
          then begin
            changed := true;
            ctx.w_eff.(i) <- all_effects;
            ctx.w_esc.(i) <- -1;
            ctx.w_retp.(i) <- -1
          end)
      members
  done;
  Array.iter
    (fun mid ->
      let m = Program.meth ctx.p mid in
      match finalize_row ctx comp m with
      | row -> ctx.rows_.((mid :> int)) <- row
      | exception _ -> conservative m)
    members

let analyze p =
  let ms = Program.methods p in
  let n = Array.length ms in
  let cg = Scc.of_program p in
  let dummy = conservative_row ms.(0) in
  let ctx =
    {
      p;
      cg;
      rows_ = Array.make n dummy;
      w_eff = Array.make n no_effects;
      w_esc = Array.make n 0;
      w_retp = Array.make n 0;
    }
  in
  for comp = 0 to Scc.count cg - 1 do
    analyze_component ctx comp
  done;
  ctx.rows_

let get t (mid : Ids.Method_id.t) = t.((mid :> int))
let rows t = t
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
