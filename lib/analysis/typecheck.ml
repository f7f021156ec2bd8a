open Acsi_bytecode

type state = { locals : Ty.t array; stack : Ty.t list }

let entry_state _p m =
  let locals = Array.make (max m.Meth.max_locals 1) Ty.Top in
  (match m.Meth.kind with
  | Meth.Instance -> locals.(0) <- Ty.Ref m.Meth.owner
  | Meth.Static -> ());
  { locals; stack = [] }

let state_equal a b =
  Array.length a.locals = Array.length b.locals
  && Array.for_all2 Ty.equal a.locals b.locals
  && List.compare_lengths a.stack b.stack = 0
  && List.for_all2 Ty.equal a.stack b.stack

let state_join p a b =
  if List.compare_lengths a.stack b.stack <> 0 then
    raise
      (Dataflow.Mismatch
         (Printf.sprintf "inconsistent stack depth at join: %d vs %d"
            (List.length a.stack) (List.length b.stack)));
  {
    locals = Array.map2 (Ty.join p) a.locals b.locals;
    stack = List.map2 (Ty.join p) a.stack b.stack;
  }

(* One instruction's abstract effect. [report] receives definite-error
   messages; the fixpoint pass uses [ignore], the check pass collects.
   Shapes (pops/pushes, local and call validity) come from
   [Verify.effect_of] so this can never disagree with the depth
   verifier. Message text, the instruction's included, is built only
   for an error. *)
let step p m ~report ~pc instr (st : state) =
  let pops, pushes = Verify.effect_of p m pc instr in
  let err fmt = Format.kasprintf report fmt in
  let clash = "a type clash at join (int vs reference)" in
  let name_of ty =
    match ty with Ty.Conflict -> clash | _ -> Ty.to_string p ty
  in
  let want_int ty =
    match ty with
    | Ty.Bot | Ty.Int | Ty.Top -> ()
    | Ty.Conflict | Ty.Null | Ty.Ref _ | Ty.Arr | Ty.Any_ref ->
        err "%s expects an int but got %s" (Instr.to_string instr)
          (name_of ty)
  in
  let want_obj ty =
    match ty with
    | Ty.Bot | Ty.Top | Ty.Any_ref | Ty.Ref _ -> ()
    | Ty.Conflict | Ty.Int | Ty.Null | Ty.Arr ->
        err "%s expects an object but got %s" (Instr.to_string instr)
          (name_of ty)
  in
  let want_arr ty =
    match ty with
    | Ty.Bot | Ty.Top | Ty.Any_ref | Ty.Arr -> ()
    | Ty.Conflict | Ty.Int | Ty.Null | Ty.Ref _ ->
        err "%s expects an array but got %s" (Instr.to_string instr)
          (name_of ty)
  in
  let field_bounds i ty =
    match ty with
    | Ty.Ref c ->
        let bound = Ty.cone_max_fields p c in
        if i < 0 || i >= bound then
          err "%s out of bounds: %s and its subclasses have at most %d fields"
            (Instr.to_string instr)
            (Program.clazz p c).Clazz.name
            bound
    | Ty.Bot | Ty.Int | Ty.Null | Ty.Arr | Ty.Any_ref | Ty.Conflict | Ty.Top
      ->
        ()
  in
  let rec take k stack acc =
    if k = 0 then (List.rev acc, stack)
    else
      match stack with
      (* Underflow is the depth verifier's error; stay total here. *)
      | [] -> take (k - 1) [] (Ty.Top :: acc)
      | ty :: rest -> take (k - 1) rest (ty :: acc)
  in
  let popped, rest = take pops st.stack [] in
  let nth i = match List.nth_opt popped i with Some ty -> ty | None -> Ty.Top in
  let peek i = match List.nth_opt st.stack i with Some ty -> ty | None -> Ty.Top in
  let locals = ref st.locals in
  let call_result = if pushes > 0 then [ Ty.Top ] else [] in
  let pushed =
    match (instr : Instr.t) with
    | Const _ -> [ Ty.Int ]
    | Const_null -> [ Ty.Null ]
    | Load i -> [ st.locals.(i) ]
    | Store i ->
        let a = Array.copy st.locals in
        a.(i) <- nth 0;
        locals := a;
        []
    | Dup -> [ nth 0; nth 0 ]
    | Pop -> []
    | Swap -> [ nth 1; nth 0 ]
    | Binop _ ->
        want_int (nth 0);
        want_int (nth 1);
        [ Ty.Int ]
    | Neg ->
        want_int (nth 0);
        [ Ty.Int ]
    | Not -> [ Ty.Int ]
    | Cmp (Eq | Ne) -> [ Ty.Int ]
    | Cmp (Lt | Le | Gt | Ge) ->
        want_int (nth 0);
        want_int (nth 1);
        [ Ty.Int ]
    | Jump _ | Jump_if _ | Jump_ifnot _ | Nop | Return | Return_void -> []
    | New c -> [ Ty.Ref c ]
    | Get_field i ->
        want_obj (nth 0);
        field_bounds i (nth 0);
        [ Ty.Top ]
    | Put_field i ->
        want_obj (nth 1);
        field_bounds i (nth 1);
        []
    | Get_global _ -> [ Ty.Top ]
    | Put_global _ -> []
    | Array_new ->
        want_int (nth 0);
        [ Ty.Arr ]
    | Array_get ->
        want_int (nth 0);
        want_arr (nth 1);
        [ Ty.Top ]
    | Array_set ->
        want_int (nth 1);
        want_arr (nth 2);
        []
    | Array_len ->
        want_arr (nth 0);
        [ Ty.Int ]
    | Print_int ->
        want_int (nth 0);
        []
    | Call_static _ -> call_result
    | Call_direct mid ->
        let callee = Program.meth p mid in
        let recv = nth callee.Meth.arity in
        want_obj recv;
        (match recv with
        | Ty.Ref c when not (Ty.related p c callee.Meth.owner) ->
            err "%s on receiver %s unrelated to %s"
              (Instr.to_string instr)
              (Program.clazz p c).Clazz.name
              (Program.clazz p callee.Meth.owner).Clazz.name
        | _ -> ());
        call_result
    | Call_virtual (sel, argc) ->
        let recv = nth argc in
        want_obj recv;
        (match recv with
        | Ty.Ref c when not (Ty.cone_implements p c sel) ->
            err "%s unanswerable: no subclass of %s implements %s"
              (Instr.to_string instr)
              (Program.clazz p c).Clazz.name
              (Program.selector_name p sel)
        | _ -> ());
        call_result
    | Instance_of _ -> [ Ty.Int ]
    | Guard_method g ->
        want_obj (peek g.Instr.argc);
        []
  in
  { locals = !locals; stack = pushed @ rest }

(* Passing a guard proves the receiver's runtime class dispatches [sel]
   to exactly [expected], which only classes at or under its owner can;
   narrow the receiver slot on the fall-through edge. Never narrow a
   type the guard cannot hold (int, array, a clash) — that would mask
   the definite error the check pass reports. *)
let refine p ~pc:_ instr ~target:_ ~fall st =
  match (instr : Instr.t) with
  | Guard_method g when fall ->
      let owner = (Program.meth p g.Instr.expected).Meth.owner in
      let narrow ty =
        match (ty : Ty.t) with
        | Ref c when Program.is_subclass p ~sub:c ~super:owner -> ty
        | Top | Any_ref | Ref _ | Null | Bot -> Ref owner
        | Int | Conflict | Arr -> ty
      in
      let stack =
        List.mapi (fun i ty -> if i = g.Instr.argc then narrow ty else ty)
          st.stack
      in
      { st with stack }
  | _ -> st

let analyze p m =
  let cfg = Cfg.make m.Meth.body in
  let module L = struct
    type t = state

    let equal = state_equal
    let join = state_join p
    let widen _old joined = joined
  end in
  let module F = Dataflow.Forward (L) in
  F.run cfg ~init:(entry_state p m)
    ~transfer:(fun ~pc instr st -> step p m ~report:ignore ~pc instr st)
    ~refine_edge:(refine p) ()

let analyze_diags p m =
  match analyze p m with
  | states ->
      let diags = ref [] in
      Array.iteri
        (fun pc st ->
          match st with
          | None -> ()
          | Some st -> (
              let report msg =
                diags := Diag.make ~meth:m.Meth.name ~pc msg :: !diags
              in
              try ignore (step p m ~report ~pc m.Meth.body.(pc) st)
              with Verify.Error msg ->
                diags := Diag.of_verify_error msg :: !diags))
        states;
      (Some states, List.rev !diags)
  | exception Verify.Error msg -> (None, [ Diag.of_verify_error msg ])
  | exception Dataflow.Join_error { pc; message } ->
      (None, [ Diag.make ~meth:m.Meth.name ~pc message ])

let meth_diags p m = snd (analyze_diags p m)

let check_meth p m =
  match meth_diags p m with [] -> () | d :: _ -> raise (Diag.Error d)

let program p = Array.iter (check_meth p) (Program.methods p)
