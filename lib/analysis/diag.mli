(** Analysis diagnostics.

    Every checker in this library ({!Typecheck}, {!Jit_check}, {!Lint})
    reports findings in one uniform shape so drivers can print them as
    [method:pc: message] lines (the format the CLI's [--verify] flag and
    the [@lint] alias promise). *)

type t = {
  meth : string;  (** method name (the JIT appends ["$opt"] to roots) *)
  pc : int option;  (** offending pc, when the finding has one *)
  message : string;
}

exception Error of t
(** Raised by the [_exn] entry points; collecting entry points return
    lists instead. *)

val make : meth:string -> ?pc:int -> string -> t

val to_string : t -> string
(** [method:pc: message], or [method: message] when no pc applies. *)

val of_verify_error : string -> t
(** Wrap a {!Acsi_bytecode.Verify.Error} message (already formatted as
    [method:pc: message]) without double-prefixing. *)

val pp : Format.formatter -> t -> unit
