open Acsi_bytecode
open Acsi_vm

let wrapper_of p (code : Code.t) =
  let root = Program.meth p code.Code.meth in
  {
    Meth.id = root.Meth.id;
    owner = root.Meth.owner;
    name = root.Meth.name ^ "$opt";
    selector = root.Meth.selector;
    kind = root.Meth.kind;
    arity = root.Meth.arity;
    returns = root.Meth.returns;
    body = code.Code.instrs;
    max_locals = code.Code.max_locals;
    max_stack = code.Code.max_stack;
  }

let parents_equal =
  List.equal (fun (m1, pc1) (m2, pc2) ->
      Ids.Method_id.equal m1 m2 && Int.equal pc1 pc2)

(* [a] is a (possibly equal) suffix of [b]. *)
let rec is_suffix a b =
  let la = List.length a and lb = List.length b in
  if la > lb then false
  else if la = lb then parents_equal a b
  else match b with [] -> false | _ :: rest -> is_suffix a rest

let meth_exists p mid =
  (mid : Ids.Method_id.t :> int) >= 0
  && (mid :> int) < Program.method_count p

(* The per-(method, parent-chain) inline regions of a source map: every
   pc whose entry carries that exact chain, synthetic argument stores
   included. *)
let regions (srcs : Code.src_entry array) =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun pc (e : Code.src_entry) ->
      if e.Code.parents <> [] then begin
        let key =
          ( (e.Code.src_meth :> int),
            List.map (fun ((m : Ids.Method_id.t), cs) -> ((m :> int), cs))
              e.Code.parents )
        in
        match Hashtbl.find_opt tbl key with
        | Some pcs -> pcs := pc :: !pcs
        | None ->
            let pcs = ref [ pc ] in
            Hashtbl.add tbl key pcs;
            order := (e.Code.src_meth, e.Code.parents, pcs) :: !order
      end)
    srcs;
  List.rev_map (fun (m, parents, pcs) -> (m, parents, List.rev !pcs)) !order

(* Typed in-states of a source root: unknown until first needed, then
   the converged states or the analysis' failure. *)
type root_states = Unknown | Failed | States of Typecheck.state option array

type facts = {
  f_program : Program.t;
  root_states : root_states array;  (* [method] *)
  depths : Acsi_deopt.Deopt.depths;
}

let facts p =
  {
    f_program = p;
    root_states = Array.make (Program.method_count p) Unknown;
    depths = Acsi_deopt.Deopt.depths p;
  }

let deopt_depths f = f.depths

(* The typed in-state of a source root at [pc], from the root's
   analysis run once per [f]; [None] where unreachable, or everywhere
   when the analysis failed. *)
let rec root_state f (root : Meth.t) pc =
  let i = (root.Meth.id :> int) in
  match f.root_states.(i) with
  | States states -> states.(pc)
  | Failed -> None
  | Unknown ->
      f.root_states.(i) <-
        (match Typecheck.analyze f.f_program root with
        | states -> States states
        | exception (Verify.Error _ | Dataflow.Join_error _) -> Failed);
      root_state f root pc

let check ?facts:memo p (code : Code.t) : Diag.t list =
  match code.Code.src with
  | None -> []
  | Some srcs -> (
      let memo =
        match memo with
        | Some f when f.f_program == p -> f
        | Some _ -> invalid_arg "Jit_check.check: facts of another program"
        | None -> facts p
      in
      let root = Program.meth p code.Code.meth in
      let wrapper = wrapper_of p code in
      (* Structural verification first; the remaining invariants assume a
         well-formed body. *)
      match
        (try
           Verify.meth p wrapper;
           None
         with Verify.Error msg -> Some msg)
      with
      | Some msg -> [ Diag.of_verify_error msg ]
      | None ->
          let instrs = code.Code.instrs in
          let n = Array.length instrs in
          let diags = ref [] in
          let add ~pc fmt =
            Format.kasprintf
              (fun message ->
                diags :=
                  Diag.make ~meth:wrapper.Meth.name ~pc message :: !diags)
              fmt
          in
          (* Typed verification of the expanded body; its states also
             serve the OSR check below. *)
          let opt_states, typed = Typecheck.analyze_diags p wrapper in
          diags := List.rev typed;
          (* Inline-map validity. *)
          Array.iteri
            (fun pc (e : Code.src_entry) ->
              if not (meth_exists p e.Code.src_meth) then
                add ~pc "inline map entry names unknown method %d"
                  (e.Code.src_meth :> int)
              else begin
                let sm = Program.meth p e.Code.src_meth in
                if
                  e.Code.src_pc < -1
                  || e.Code.src_pc >= Array.length sm.Meth.body
                then
                  add ~pc "stale inline map: source pc %d outside %s (%d instrs)"
                    e.Code.src_pc sm.Meth.name
                    (Array.length sm.Meth.body);
                if
                  e.Code.parents = []
                  && not (Ids.Method_id.equal e.Code.src_meth root.Meth.id)
                then
                  add ~pc "root-level inline map entry names %s, not the root %s"
                    sm.Meth.name root.Meth.name
              end;
              List.iter
                (fun (caller, cs) ->
                  if not (meth_exists p caller) then
                    add ~pc "inline map parent names unknown method %d"
                      (caller :> int)
                  else
                    let cm = Program.meth p caller in
                    if cs < 0 || cs >= Array.length cm.Meth.body then
                      add ~pc "inline map parent %s:%d out of bounds"
                        cm.Meth.name cs
                    else if not (Instr.is_call cm.Meth.body.(cs)) then
                      add ~pc "inline map parent %s:%d is not a call site"
                        cm.Meth.name cs)
                e.Code.parents)
            srcs;
          (* Guard domination per inline region. *)
          let cfg = Cfg.make instrs in
          let idom = Cfg.dominators cfg in
          (* Speculative (assumption-carrying) regions trade the guard
             for recoverability: every pc must be dominated by a pc with
             a valid deopt point, so a CHA invalidation can always
             reconstruct source frames at or before the region. *)
          let deopt_pcs =
            lazy
              (let tbl =
                 Acsi_deopt.Deopt.table_of_code ~depths:memo.depths p code
               in
               let pcs = ref [] in
               for pc = n - 1 downto 0 do
                 if Acsi_deopt.Deopt.covered tbl ~pc then pcs := pc :: !pcs
               done;
               !pcs)
          in
          let assumed sel target =
            List.exists
              (fun (s, m) ->
                Ids.Selector.equal s sel && Ids.Method_id.equal m target)
              code.Code.assumptions
          in
          List.iter
            (fun (region_m, parents, pcs) ->
              match parents with
              | [] -> ()
              | (c1, p1) :: rest
                when meth_exists p region_m && meth_exists p c1 ->
                  let cm = Program.meth p c1 in
                  if p1 >= 0 && p1 < Array.length cm.Meth.body then begin
                    let region_meth = Program.meth p region_m in
                    match cm.Meth.body.(p1) with
                    | Instr.Call_static mid | Instr.Call_direct mid ->
                        if not (Ids.Method_id.equal mid region_m) then
                          add ~pc:(List.hd pcs)
                            "inline region for %s at call site %s:%d which binds %s"
                            region_meth.Meth.name cm.Meth.name p1
                            (Program.meth p mid).Meth.name
                    | Instr.Call_virtual (sel, _) ->
                        if
                          not
                            (List.exists
                               (Ids.Method_id.equal region_m)
                               (Program.implementations p sel))
                        then
                          add ~pc:(List.hd pcs)
                            "inline region for %s unreachable from selector %s"
                            region_meth.Meth.name
                            (Program.selector_name p sel)
                        else if assumed sel region_m then
                          (* Unguarded speculative inline: no guard to
                             dominate the region — a valid deopt point
                             must instead. *)
                          List.iter
                            (fun pc ->
                              if
                                not
                                  (List.exists
                                     (fun d ->
                                       Cfg.dominates cfg ~idom d pc)
                                     (Lazy.force deopt_pcs))
                              then
                                add ~pc
                                  "speculative inline body for %s not dominated by a deopt point"
                                  region_meth.Meth.name)
                            pcs
                        else if
                          not
                            (match Program.monomorphic_target p sel with
                            | Some t -> Ids.Method_id.equal t region_m
                            | None -> false)
                        then begin
                          (* Devirtualized without CHA proof: every pc of
                             the region must sit below a matching guard. *)
                          let guard_pcs = ref [] in
                          Array.iteri
                            (fun gpc instr ->
                              match instr with
                              | Instr.Guard_method g
                                when Ids.Method_id.equal g.Instr.expected
                                       region_m
                                     && Ids.Selector.equal g.Instr.sel sel
                                     && Ids.Method_id.equal
                                          srcs.(gpc).Code.src_meth c1
                                     && srcs.(gpc).Code.src_pc = p1
                                     && parents_equal srcs.(gpc).Code.parents
                                          rest ->
                                  guard_pcs := gpc :: !guard_pcs
                              | _ -> ())
                            instrs;
                          List.iter
                            (fun pc ->
                              if
                                not
                                  (List.exists
                                     (fun g -> Cfg.dominates cfg ~idom g pc)
                                     !guard_pcs)
                              then
                                add ~pc
                                  "inline body for %s not dominated by its method guard"
                                  region_meth.Meth.name)
                            pcs
                        end
                    | _ ->
                        (* reported by the per-entry parent check *)
                        ()
                  end
              | _ -> ())
            (regions srcs);
          (* Return discipline: a rewritten return never jumps back into
             its own or a nested inline region. *)
          Array.iteri
            (fun pc instr ->
              match instr with
              | Instr.Jump t when t >= 0 && t < n -> (
                  let e = srcs.(pc) in
                  if
                    e.Code.parents <> []
                    && e.Code.src_pc >= 0
                    && meth_exists p e.Code.src_meth
                  then
                    let sm = Program.meth p e.Code.src_meth in
                    if e.Code.src_pc < Array.length sm.Meth.body then
                      match sm.Meth.body.(e.Code.src_pc) with
                      | Instr.Return | Instr.Return_void ->
                          if is_suffix e.Code.parents srcs.(t).Code.parents
                          then
                            add ~pc
                              "rewritten return of %s jumps into its own or a nested inline region"
                              sm.Meth.name
                      | _ -> ())
              | _ -> ())
            instrs;
          (* OSR compatibility: the interpreter transfers a root frame
             onto the first entry matching its root-level source pc,
             carrying the operand stack over. *)
          (match opt_states with
          | None ->
              (* already reported via the typed verification above *)
              ()
          | Some opt_states ->
              let seen = Hashtbl.create 16 in
              Array.iteri
                (fun pc (e : Code.src_entry) ->
                  if
                    e.Code.parents = [] && e.Code.src_pc >= 0
                    && Ids.Method_id.equal e.Code.src_meth root.Meth.id
                    && e.Code.src_pc < Array.length root.Meth.body
                    && not (Hashtbl.mem seen e.Code.src_pc)
                  then begin
                    Hashtbl.add seen e.Code.src_pc ();
                    match
                      (opt_states.(pc), root_state memo root e.Code.src_pc)
                    with
                    | Some o, Some s ->
                        let od = List.length o.Typecheck.stack in
                        let sd = List.length s.Typecheck.stack in
                        (* A depth mismatch is legal: peephole folding
                           can leave an entry on an instruction with a
                           different depth than its source pc, and the
                           interpreter refuses such transfers. A
                           transferable entry (equal depth) must carry
                           compatible types, or the carried-over stack
                           would be misinterpreted. *)
                        if od = sd then
                          List.iteri
                            (fun i (a, b) ->
                              if not (Ty.compatible a b) then
                                add ~pc
                                  "OSR entry for source pc %d: stack slot %d is %s in optimized code but %s at source"
                                  e.Code.src_pc i (Ty.to_string p a)
                                  (Ty.to_string p b))
                            (List.combine o.Typecheck.stack
                               s.Typecheck.stack)
                    | _, _ -> ()
                  end)
                srcs);
          List.stable_sort
            (fun (a : Diag.t) b ->
              compare (Option.value a.pc ~default:(-1))
                (Option.value b.pc ~default:(-1)))
            (List.rev !diags))
