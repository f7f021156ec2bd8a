open Acsi_bytecode

type t = {
  comp_of : int array;  (* method id -> component id, bottom-up order *)
  comps : Ids.Method_id.t array array;  (* members, ascending id order *)
  self_edge : bool array;  (* per method: direct self-call *)
}

let call_targets p (instr : Instr.t) =
  match instr with
  | Instr.Call_static mid | Instr.Call_direct mid -> [ mid ]
  | Instr.Call_virtual (sel, _) -> Program.implementations p sel
  | Instr.Guard_method g -> [ g.Instr.expected ]
  | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
  | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
  | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
  | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _ | Instr.Put_field _
  | Instr.Get_global _ | Instr.Put_global _ | Instr.Array_new
  | Instr.Array_get | Instr.Array_set | Instr.Array_len | Instr.Return
  | Instr.Return_void | Instr.Instance_of _ | Instr.Print_int | Instr.Nop ->
      []

(* Successor method ids of method [i], deduplicated and ascending: the
   deterministic visit order Tarjan's lowlinks (and therefore the
   component numbering) depend on. [mark.(j) = i] once [j] is listed. *)
let successors p mark i (m : Meth.t) =
  let succ = ref [] in
  let add (mid : Ids.Method_id.t) =
    let j = (mid :> int) in
    if mark.(j) <> i then begin
      mark.(j) <- i;
      succ := j :: !succ
    end
  in
  Array.iter (fun instr -> List.iter add (call_targets p instr)) m.Meth.body;
  let succ = Array.of_list !succ in
  Array.sort Int.compare succ;
  succ

let of_program p =
  let ms = Program.methods p in
  let n = Array.length ms in
  let mark = Array.make n (-1) in
  let adj = Array.mapi (successors p mark) ms in
  let self_edge =
    Array.mapi (fun i row -> Array.exists (fun j -> j = i) row) adj
  in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let next_index = ref 0 in
  let scc_stack = ref [] in
  let comps_rev = ref [] in
  let ncomps = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    scc_stack := v :: !scc_stack;
    on_stack.(v) <- true
  in
  let pop_component v =
    let members = ref [] in
    let stop = ref false in
    while not !stop do
      match !scc_stack with
      | [] -> assert false
      | w :: rest ->
          scc_stack := rest;
          on_stack.(w) <- false;
          comp_of.(w) <- !ncomps;
          members := w :: !members;
          if w = v then stop := true
    done;
    comps_rev :=
      Array.of_list
        (List.map Ids.Method_id.of_int (List.sort Int.compare !members))
      :: !comps_rev;
    incr ncomps
  in
  (* Iterative Tarjan: each work-stack entry is a vertex plus the index of
     its next unexplored successor. *)
  let work = Stack.create () in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      discover root;
      Stack.push (root, ref 0) work;
      while not (Stack.is_empty work) do
        let v, next = Stack.top work in
        if !next < Array.length adj.(v) then begin
          let w = adj.(v).(!next) in
          incr next;
          if index.(w) < 0 then begin
            discover w;
            Stack.push (w, ref 0) work
          end
          else if on_stack.(w) then
            lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          ignore (Stack.pop work);
          (match Stack.top_opt work with
          | Some (u, _) -> lowlink.(u) <- Int.min lowlink.(u) lowlink.(v)
          | None -> ());
          if lowlink.(v) = index.(v) then pop_component v
        end
      done
    end
  done;
  { comp_of; comps = Array.of_list (List.rev !comps_rev); self_edge }

let count t = Array.length t.comps
let component_of t (mid : Ids.Method_id.t) = t.comp_of.((mid :> int))
let members t c = t.comps.(c)

let cyclic t c =
  let ms = t.comps.(c) in
  Array.length ms > 1 || t.self_edge.((ms.(0) :> int))
