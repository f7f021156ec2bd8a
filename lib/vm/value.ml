open Acsi_bytecode

type t = Obj_c of { cls : Ids.Class_id.t } | Null_c of unit | Arr_c of unit

let null = Null_c ()
let[@inline] of_int (n : int) : t = Obj.magic n
let[@inline] is_int (v : t) = Obj.is_int (Obj.repr v)
let[@inline] to_int (v : t) : int = Obj.magic v
let zero = of_int 0
let[@inline] slots (v : t) : t array = Obj.magic v

(* Array literals of a non-float type are allocated inline on the minor
   heap; [Array.make] is a C call. Slot 0 is an immediate, so the store
   into a large object's first slot goes through an [int array] view,
   without a write barrier. *)
let alloc k (cid : Ids.Class_id.t) : t =
  let c = of_int (cid :> int) and z = zero in
  Obj.magic
    (match k with
    | 0 -> [| c |]
    | 1 -> [| c; z |]
    | 2 -> [| c; z; z |]
    | 3 -> [| c; z; z; z |]
    | 4 -> [| c; z; z; z; z |]
    | 5 -> [| c; z; z; z; z; z |]
    | 6 -> [| c; z; z; z; z; z; z |]
    | 7 -> [| c; z; z; z; z; z; z; z |]
    | 8 -> [| c; z; z; z; z; z; z; z; z |]
    | k ->
        let a = Array.make (k + 1) z in
        Array.unsafe_set (Obj.magic a : int array) 0 (cid :> int);
        a)

(* An object is built as an array literal, a block of tag 0: [Obj_c]'s
   tag as long as it is declared first. *)
let () = assert (Obj.tag (Obj.repr (Obj_c { cls = Ids.Class_id.of_int 0 })) = 0)

(* [Arr_c]'s tag, read off a witness so it follows the declaration. *)
let arr_tag = Obj.tag (Obj.repr (Arr_c ()))

(* [caml_obj_block] fills every field with [()], which is {!zero}. *)
let make_array n : t = Obj.obj (Obj.new_block arr_tag (n + 1))

let equal_cmp (a : t) b = a == b
let truthy v = v != zero && v != null

let rec pp fmt v =
  if is_int v then Format.fprintf fmt "%d" (to_int v)
  else
    match v with
    | Null_c _ -> Format.fprintf fmt "null"
    | Obj_c { cls } -> Format.fprintf fmt "obj<%a>" Ids.Class_id.pp cls
    | Arr_c _ ->
        let s = slots v in
        Format.fprintf fmt "[|";
        for i = 1 to Array.length s - 1 do
          if i > 1 then Format.fprintf fmt "; ";
          if i <= 8 then pp fmt s.(i) else if i = 9 then Format.fprintf fmt "..."
        done;
        Format.fprintf fmt "|]"
