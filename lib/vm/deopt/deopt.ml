open Acsi_bytecode
open Acsi_vm

type point = Interp.frame_plan array

type table = {
  tbl_meth : Ids.Method_id.t;
  points : point option array;
}

let meth t = t.tbl_meth

let point_at t ~pc =
  if pc < 0 || pc >= Array.length t.points then None else t.points.(pc)

let covered t ~pc = point_at t ~pc <> None

let point_count t =
  Array.fold_left (fun n p -> if p = None then n else n + 1) 0 t.points

(* Region identity inside one optimized body: (innermost source method,
   inline-parent chain). The expander allocates each region a contiguous
   block of locals at [callee_base]; recover that base per region:

   - primary: the synthesized argument stores ([src_pc = -1]) the
     expander emits at region entry write locals [base + k] for every
     parameter slot [k] down to 0, and the peephole pass never deletes
     stores — so the minimum synthesized-store operand in the region is
     exactly [base] whenever the callee has at least one parameter slot
     (always true for instance methods);
   - fallback: any surviving real [Load]/[Store] whose source
     instruction is known gives [base = opt_operand - src_operand];
   - a region with no recoverable base and [max_locals = 0] needs no
     base (no locals to map); otherwise the region poisons every point
     whose chain passes through it. *)
let region_key (m : Ids.Method_id.t) parents =
  ( (m :> int),
    List.map (fun ((c : Ids.Method_id.t), p) -> ((c :> int), p)) parents )

let region_bases program (code : Code.t) (entries : Code.src_entry array) =
  let tbl : (int * (int * int) list, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun pc (e : Code.src_entry) ->
      if e.Code.src_pc = -1 && e.Code.parents <> [] then
        match code.Code.instrs.(pc) with
        | Instr.Store j -> (
            let k = region_key e.Code.src_meth e.Code.parents in
            match Hashtbl.find_opt tbl k with
            | Some b when b <= j -> ()
            | _ -> Hashtbl.replace tbl k j)
        | _ -> ())
    entries;
  Array.iteri
    (fun pc (e : Code.src_entry) ->
      if e.Code.src_pc >= 0 && e.Code.parents <> [] then
        let k = region_key e.Code.src_meth e.Code.parents in
        if not (Hashtbl.mem tbl k) then
          let body = (Program.meth program e.Code.src_meth).Meth.body in
          if e.Code.src_pc < Array.length body then
            match (code.Code.instrs.(pc), body.(e.Code.src_pc)) with
            | Instr.Load j, Instr.Load i | Instr.Store j, Instr.Store i ->
                Hashtbl.replace tbl k (j - i)
            | _ -> ())
    entries;
  tbl

exception Invalid

type depths = int array option array

let depths program = Array.make (Program.method_count program) None

let table_of_code ?depths:memo program (code : Code.t) =
  match code.Code.src with
  | None ->
      {
        tbl_meth = code.Code.meth;
        points = Array.make (Array.length code.Code.instrs) None;
      }
  | Some entries ->
      let opt_depths = Code.entry_depths program code in
      let bases = region_bases program code entries in
      let memo = match memo with Some m -> m | None -> depths program in
      let depths_of (mid : Ids.Method_id.t) =
        match memo.((mid :> int)) with
        | Some d -> d
        | None ->
            let d = Verify.entry_depths program (Program.meth program mid) in
            memo.((mid :> int)) <- Some d;
            d
      in
      let depth_at (mid : Ids.Method_id.t) pc =
        let d = depths_of mid in
        if pc < 0 || pc >= Array.length d then raise Invalid;
        let v = d.(pc) in
        if v < 0 then raise Invalid;
        v
      in
      let base_of (m : Ids.Method_id.t) parents =
        if parents = [] then 0
        else
          match Hashtbl.find_opt bases (region_key m parents) with
          | Some b -> b
          | None ->
              if (Program.meth program m).Meth.max_locals = 0 then 0
              else raise Invalid
      in
      let argslots (instr : Instr.t) =
        match instr with
        | Instr.Call_static mid | Instr.Call_direct mid ->
            Meth.param_slots (Program.meth program mid)
        | Instr.Call_virtual (_, argc) -> argc + 1
        | _ -> raise Invalid
      in
      let point_of pc (e : Code.src_entry) =
        if e.Code.src_pc < 0 || pc >= Array.length opt_depths
           || opt_depths.(pc) < 0
        then None
        else
          try
            (* Innermost-first: (method, resume pc, region parents,
               stack slots this frame owns). Suspended callers resume AT
               their call instruction with the arguments already popped,
               so their slice is the entry depth minus argument slots —
               exactly the state [invoke] leaves behind. *)
            let rec callers = function
              | [] -> []
              | ((c : Ids.Method_id.t), p) :: rest ->
                  let body = (Program.meth program c).Meth.body in
                  if p < 0 || p >= Array.length body then raise Invalid;
                  let r = depth_at c p - argslots body.(p) in
                  if r < 0 then raise Invalid;
                  (c, p, rest, r) :: callers rest
            in
            let chain =
              (e.Code.src_meth, e.Code.src_pc, e.Code.parents,
               depth_at e.Code.src_meth e.Code.src_pc)
              :: callers e.Code.parents
            in
            let chain = List.rev chain in
            (* The outermost frame must be the root method at root level;
               anything else cannot be resumed in this physical frame. *)
            (match chain with
            | (m, _, [], _) :: _
              when Ids.Method_id.equal m code.Code.meth ->
                ()
            | _ -> raise Invalid);
            let lo = ref 0 in
            let plans =
              List.map
                (fun (m, p, rparents, len) ->
                  let plan =
                    {
                      Interp.dp_meth = m;
                      dp_pc = p;
                      dp_base = base_of m rparents;
                      dp_stack_lo = !lo;
                      dp_stack_len = len;
                    }
                  in
                  lo := !lo + len;
                  plan)
                chain
            in
            (* Exactness: the source frames' stack slices must tile the
               optimized operand stack with nothing left over, or the
               mapping would drop or invent values (the peephole pass
               can leave entries whose depths disagree — those pcs
               simply get no point). *)
            if !lo <> opt_depths.(pc) then None
            else Some (Array.of_list plans)
          with Invalid -> None
      in
      { tbl_meth = code.Code.meth; points = Array.mapi point_of entries }

let try_osr_up vm (code : Code.t) t =
  let mid = code.Code.meth in
  if
    vm.Interp.depth < 2
    || not (Interp.code_of vm mid == code)
  then false
  else
    let depth = vm.Interp.depth in
    let n = Array.length t.points in
    let matches (plans : point) =
      let k = Array.length plans in
      k >= 2 && k <= depth
      &&
      let ok = ref true in
      Array.iteri
        (fun i (p : Interp.frame_plan) ->
          if !ok then
            let fr = vm.Interp.frames.(depth - k + i) in
            let c = fr.Interp.f_code in
            if
              not
                (c.Code.tier = Code.Baseline
                && Ids.Method_id.equal c.Code.meth p.Interp.dp_meth
                && fr.Interp.f_pc = p.Interp.dp_pc
                && fr.Interp.f_sp - c.Code.max_locals = p.Interp.dp_stack_len)
            then ok := false)
        plans;
      !ok
    in
    let rec scan pc =
      if pc >= n then false
      else
        match t.points.(pc) with
        | Some plans when matches plans ->
            Interp.osr_into vm mid ~plans ~pc;
            true
        | _ -> scan (pc + 1)
    in
    scan 0
