open Acsi_bytecode

type t =
  | Context_insensitive
  | Fixed of int
  | Parameterless of int
  | Class_methods of int
  | Large_methods of int
  | Hybrid_param_class of int
  | Hybrid_param_large of int
  | Adaptive_resolving of int

let max_depth = function
  | Context_insensitive -> 1
  | Fixed n | Parameterless n | Class_methods n | Large_methods n
  | Hybrid_param_class n | Hybrid_param_large n | Adaptive_resolving n ->
      max 1 n

let name = function
  | Context_insensitive -> "cins"
  | Fixed _ -> "fixed"
  | Parameterless _ -> "paramLess"
  | Class_methods _ -> "class"
  | Large_methods _ -> "large"
  | Hybrid_param_class _ -> "hybrid1"
  | Hybrid_param_large _ -> "hybrid2"
  | Adaptive_resolving _ -> "resolve"

let to_string p =
  match p with
  | Context_insensitive -> "cins"
  | Fixed _ | Parameterless _ | Class_methods _ | Large_methods _
  | Hybrid_param_class _ | Hybrid_param_large _ | Adaptive_resolving _ ->
      Printf.sprintf "%s(max=%d)" (name p) (max_depth p)

let of_string s =
  let make family n =
    match family with
    | "cins" -> Some Context_insensitive
    | "fixed" -> Some (Fixed n)
    | "paramLess" | "paramless" -> Some (Parameterless n)
    | "class" -> Some (Class_methods n)
    | "large" -> Some (Large_methods n)
    | "hybrid1" -> Some (Hybrid_param_class n)
    | "hybrid2" -> Some (Hybrid_param_large n)
    | "resolve" -> Some (Adaptive_resolving n)
    | _ -> None
  in
  match String.index_opt s '(' with
  | None -> make s 5
  | Some i -> (
      let family = String.sub s 0 i in
      try
        Scanf.sscanf (String.sub s i (String.length s - i)) "(max=%d)%!"
          (fun n -> if n >= 1 then make family n else None)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

(* The state-flow tests of §4.3, applied to the most recently added chain
   element. [chain_len] = 1 means only the plain edge has been collected
   and [last_caller] is the immediate caller. *)

let parameterless_stops ~callee ~last_caller ~chain_len =
  if chain_len = 1 then
    Meth.is_parameterless callee || Meth.is_parameterless last_caller
  else Meth.is_parameterless last_caller

let class_method_stops ~last_caller = Meth.is_instance last_caller

let large_method_stops ~last_caller =
  match Acsi_jit.Size.clazz_of last_caller with
  | Acsi_jit.Size.Large -> true
  | Acsi_jit.Size.Tiny | Acsi_jit.Size.Small | Acsi_jit.Size.Medium -> false

let should_extend p _program ~callee ~last_caller ~chain_len =
  chain_len < max_depth p
  &&
  match p with
  | Context_insensitive -> false
  | Fixed _ -> true
  | Parameterless _ -> not (parameterless_stops ~callee ~last_caller ~chain_len)
  | Class_methods _ -> not (class_method_stops ~last_caller)
  | Large_methods _ -> not (large_method_stops ~last_caller)
  | Hybrid_param_class _ ->
      (not (parameterless_stops ~callee ~last_caller ~chain_len))
      && not (class_method_stops ~last_caller)
  | Hybrid_param_large _ ->
      (not (parameterless_stops ~callee ~last_caller ~chain_len))
      && not (large_method_stops ~last_caller)
  | Adaptive_resolving _ -> false

let is_adaptive_resolving = function
  | Adaptive_resolving _ -> true
  | Context_insensitive | Fixed _ | Parameterless _ | Class_methods _
  | Large_methods _ | Hybrid_param_class _ | Hybrid_param_large _ ->
      false

let paper_sweep =
  let maxes = [ 2; 3; 4; 5 ] in
  List.concat_map
    (fun make -> List.map make maxes)
    [
      (fun n -> Fixed n);
      (fun n -> Parameterless n);
      (fun n -> Class_methods n);
      (fun n -> Large_methods n);
      (fun n -> Hybrid_param_class n);
      (fun n -> Hybrid_param_large n);
    ]
