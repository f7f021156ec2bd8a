type kind = Static | Instance

type t = {
  id : Ids.Method_id.t;
  owner : Ids.Class_id.t;
  name : string;
  selector : Ids.Selector.t;
  kind : kind;
  arity : int;
  returns : bool;
  body : Instr.t array;
  max_locals : int;
  mutable max_stack : int;
}

let param_slots m =
  match m.kind with Static -> m.arity | Instance -> m.arity + 1

let is_instance m = match m.kind with Instance -> true | Static -> false
let is_parameterless m = m.arity = 0
let size_units m = Array.length m.body

type size_class = Tiny | Small | Medium | Large

(* A method call occupies 4 units; the class bounds are multiples of it. *)
let call_units = 4

let classify ~units =
  if units < 2 * call_units then Tiny
  else if units < 5 * call_units then Small
  else if units < 25 * call_units then Medium
  else Large

let size_class m = classify ~units:(size_units m)

let pp fmt m =
  Format.fprintf fmt "%s/%d%s%s" m.name m.arity
    (match m.kind with Static -> " [static]" | Instance -> "")
    (if m.returns then "" else " [void]")

let pp_body fmt m =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i ins -> Format.fprintf fmt "%3d: %a@," i Instr.pp ins) m.body;
  Format.fprintf fmt "@]"
