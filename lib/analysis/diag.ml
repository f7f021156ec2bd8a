type t = { meth : string; pc : int option; message : string }

exception Error of t

let make ~meth ?pc message = { meth; pc; message }

let to_string d =
  match (d.meth, d.pc) with
  | "", _ -> d.message
  | m, Some pc -> Printf.sprintf "%s:%d: %s" m pc d.message
  | m, None -> Printf.sprintf "%s: %s" m d.message

(* Verify.Error messages are already "method:pc: message"; keep them
   whole in [message] with no separate method/pc so printing does not
   duplicate the prefix. *)
let of_verify_error msg = { meth = ""; pc = None; message = msg }

let () =
  Printexc.register_printer (function
    | Error d -> Some ("Diag.Error: " ^ to_string d)
    | _ -> None)

let pp fmt d =
  match (d.meth, d.pc) with
  | "", _ -> Format.pp_print_string fmt d.message
  | m, Some pc -> Format.fprintf fmt "%s:%d: %s" m pc d.message
  | m, None -> Format.fprintf fmt "%s: %s" m d.message
