(** Runtime values and heap objects.

    The heap is managed by the host (OCaml) garbage collector; the paper's
    semispace collector is out of scope (see DESIGN.md).

    {2 Representation}

    A VM integer is an immediate OCaml [int] carrying no header and no
    allocation. Every other value is one OCaml block, tagged by its
    constructor below:
    - an object of a class with [k] fields is [[class id; f0 … fk-1]]
      ([k + 2] words with the header), so a guard or a virtual dispatch
      reads the class id one load past the pointer, and field [i] is
      slot [i + 1];
    - an array of length [n] is one pad word followed by its elements,
      element [i] at slot [i + 1]. The pad makes even an empty array a
      one-word block of its own, so two allocations never share one
      (OCaml has a single empty block per tag);
    - [null] is one shared block.

    The variant lists only these block cases, with their first slot:
    integers are smuggled in through {!of_int}, so the type checker
    never sees them, and the fields and elements past slot 0 are reached
    through {!slots}. It is [private] (build values with {!null},
    {!of_int}, {!alloc}, {!make_array}) and has only non-constant
    constructors, so the compiler treats a [t array] as an address
    array — plain loads, no float-array test.

    {b Rule: test {!is_int} before every match on a [t].} A match on
    this type reads the block header directly; on an immediate that
    header does not exist. Matches stay inside [lib/vm], each behind an
    [is_int] test. *)

type t = private
  | Obj_c of { cls : Acsi_bytecode.Ids.Class_id.t }
      (** an object: its class id, then its fields *)
  | Null_c of unit  (** the one [null] *)
  | Arr_c of unit  (** an array: the pad, then its elements *)

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

val alloc : int -> Acsi_bytecode.Ids.Class_id.t -> t
(** [alloc k cid]: a fresh object of class [cid] with [k] fields, all
    {!zero} ([k] is the class's {!Acsi_bytecode.Program.field_counts}
    entry). Up to 8 fields it is a literal block allocated inline. *)

val make_array : int -> t
(** [make_array n]: a fresh array of [n >= 0] elements, all {!zero}. *)

val slots : t -> t array
(** The block of an object or an array as an array of its slots: slot 0
    holds the class id or the pad, field or element [i] is slot
    [i + 1]. The identity, unchecked: only for a value a match proved an
    [Obj_c] or an [Arr_c], and slot 0 is never written. *)

val equal_cmp : t -> t -> bool
(** Reference equality on objects and arrays, equality on integers, and
    [null = null]; mixed kinds are unequal. This is the semantics of the
    [Cmp Eq] bytecode, and with one block per value it is [==]. *)

val truthy : t -> bool
(** 0 and [null] are false; everything else is true. *)

val pp : Format.formatter -> t -> unit
