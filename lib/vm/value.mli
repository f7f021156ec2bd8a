(** Runtime values and heap objects.

    The heap is managed by the host (OCaml) garbage collector; the paper's
    semispace collector is out of scope (see DESIGN.md).

    {2 Representation}

    A VM integer is an immediate OCaml [int] carrying no header and no
    allocation; [null], objects and arrays are blocks. The variant below
    lists only the block cases: integers are smuggled in through
    {!of_int}, so the type checker never sees them. It is [private]
    (build values with {!null}, {!of_int}, {!of_obj}, {!of_arr}) and has
    only non-constant constructors, so the compiler treats a
    [t array] as an address array — plain loads, no float-array
    test.

    {b Rule: test {!is_int} before every match on a [t].} A match on
    this type reads the block header directly; on an immediate that
    header does not exist. Matches stay inside [lib/vm], each behind an
    [is_int] test. *)

type t = private
  | Null_c of unit  (** the one [null] *)
  | Obj_c of obj
  | Arr_c of t array

and obj = {
  cls : Acsi_bytecode.Ids.Class_id.t;
  fields : t array;
}

val null : t

val zero : t
(** Default value of fresh fields, globals, array slots, and locals:
    the integer 0, matching Java's default for primitive slots. Code
    holding references in arrays (e.g. the library HashMap) must null its
    slots explicitly, as 0 is not a valid dispatch receiver. *)

val of_int : int -> t
(** The immediate integer [n]: no allocation. *)

val is_int : t -> bool
(** Whether the value is an integer (an immediate, not a block). *)

val to_int : t -> int
(** The integer an {!is_int} value holds. Unchecked: on a block it
    returns a meaningless number. *)

val of_obj : obj -> t
val of_arr : t array -> t

val alloc : Acsi_bytecode.Program.t -> Acsi_bytecode.Ids.Class_id.t -> t
(** Fresh object with all fields set to {!zero}. *)

val equal_cmp : t -> t -> bool
(** Reference equality on objects and arrays, equality on integers, and
    [null = null]; mixed kinds are unequal. This is the semantics of the
    [Cmp Eq] bytecode. *)

val truthy : t -> bool
(** 0 and [null] are false; everything else is true. *)

val pp : Format.formatter -> t -> unit
