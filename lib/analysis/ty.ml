open Acsi_bytecode

type t =
  | Bot
  | Int
  | Null
  | Ref of Ids.Class_id.t
  | Arr
  | Any_ref
  | Conflict
  | Top

let equal a b =
  match (a, b) with
  | Ref c1, Ref c2 -> Ids.Class_id.equal c1 c2
  | Bot, Bot | Int, Int | Null, Null | Arr, Arr | Any_ref, Any_ref
  | Conflict, Conflict | Top, Top ->
      true
  | _, _ -> false

(* The class and its ancestors, nearest first. *)
let ancestors p c =
  let rec up c acc =
    let acc = c :: acc in
    match (Program.clazz p c).Clazz.parent with
    | None -> List.rev acc
    | Some parent -> up parent acc
  in
  up c []

let lca p c1 c2 =
  if Ids.Class_id.equal c1 c2 then Some c1
  else
    let a2 = ancestors p c2 in
    List.find_opt
      (fun a -> List.exists (Ids.Class_id.equal a) a2)
      (ancestors p c1)

let join p a b =
  if equal a b then a
  else
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Top, _ | _, Top -> Top
    | Conflict, _ | _, Conflict -> Conflict
    | Int, (Null | Ref _ | Arr | Any_ref) | (Null | Ref _ | Arr | Any_ref), Int
      ->
        Conflict
    | Int, Int -> Int
    | Null, x | x, Null -> x
    | Ref c1, Ref c2 -> (
        match lca p c1 c2 with Some c -> Ref c | None -> Any_ref)
    | (Ref _ | Arr | Any_ref), (Ref _ | Arr | Any_ref) -> Any_ref

let compatible a b =
  let is_int = function Int -> true | _ -> false in
  let is_ref = function Null | Ref _ | Arr | Any_ref -> true | _ -> false in
  not ((is_int a && is_ref b) || (is_ref a && is_int b))

let cone_max_fields p c =
  Array.fold_left
    (fun acc k -> max acc (Clazz.field_count k))
    0 (Program.cone p c)

let cone_implements p c sel =
  Array.exists
    (fun k -> Option.is_some (Program.dispatch p k.Clazz.id sel))
    (Program.cone p c)

let related p c1 c2 =
  Program.is_subclass p ~sub:c1 ~super:c2
  || Program.is_subclass p ~sub:c2 ~super:c1

let pp p fmt t =
  match t with
  | Bot -> Format.pp_print_string fmt "bot"
  | Int -> Format.pp_print_string fmt "int"
  | Null -> Format.pp_print_string fmt "null"
  | Ref c -> Format.pp_print_string fmt (Program.clazz p c).Clazz.name
  | Arr -> Format.pp_print_string fmt "array"
  | Any_ref -> Format.pp_print_string fmt "anyref"
  | Conflict -> Format.pp_print_string fmt "int/ref-conflict"
  | Top -> Format.pp_print_string fmt "top"

let to_string p t = Format.asprintf "%a" (pp p) t
