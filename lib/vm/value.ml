open Acsi_bytecode

type t = Null_c of unit | Obj_c of obj | Arr_c of t array

and obj = {
  cls : Ids.Class_id.t;
  fields : t array;
}

let null = Null_c ()
let[@inline] of_int (n : int) : t = Obj.magic n
let[@inline] is_int (v : t) = Obj.is_int (Obj.repr v)
let[@inline] to_int (v : t) : int = Obj.magic v
let zero = of_int 0
let of_obj o = Obj_c o
let of_arr a = Arr_c a

let alloc program cid =
  let cls = Program.clazz program cid in
  Obj_c { cls = cid; fields = Array.make (Clazz.field_count cls) zero }

let equal_cmp a b =
  if is_int a || is_int b then a == b
  else
    match (a, b) with
    | Null_c _, Null_c _ -> true
    | Obj_c x, Obj_c y -> x == y
    | Arr_c x, Arr_c y -> x == y
    | (Null_c _ | Obj_c _ | Arr_c _), _ -> false

let truthy v =
  if is_int v then v != zero
  else match v with Null_c _ -> false | Obj_c _ | Arr_c _ -> true

let rec pp fmt v =
  if is_int v then Format.fprintf fmt "%d" (to_int v)
  else
    match v with
    | Null_c _ -> Format.fprintf fmt "null"
    | Obj_c o -> Format.fprintf fmt "obj<%a>" Ids.Class_id.pp o.cls
    | Arr_c a ->
        Format.fprintf fmt "[|";
        Array.iteri
          (fun i v ->
            if i > 0 then Format.fprintf fmt "; ";
            if i < 8 then pp fmt v else if i = 8 then Format.fprintf fmt "...")
          a;
        Format.fprintf fmt "|]"
