(** Whole programs: the sealed class/method universe plus dispatch tables.

    Programs are constructed through {!Builder} in two phases — declare
    classes and method signatures first (so bodies can reference anything
    by id), then attach bodies and [seal]. Sealing freezes the universe and
    builds the virtual-dispatch tables; the reproduction assumes a closed
    world (no dynamic class loading), which makes class-hierarchy analysis
    sound (see DESIGN.md). *)

type t

val classes : t -> Clazz.t array
val methods : t -> Meth.t array
val clazz : t -> Ids.Class_id.t -> Clazz.t
val meth : t -> Ids.Method_id.t -> Meth.t
val main : t -> Ids.Method_id.t
val global_count : t -> int
val selector_name : t -> Ids.Selector.t -> string
val selector_count : t -> int

val dispatch : t -> Ids.Class_id.t -> Ids.Selector.t -> Ids.Method_id.t option
(** Dispatch target of a selector on a dynamic class, or [None] when the
    class does not understand the selector. *)

val dispatch_ids : t -> int array
(** The same table, flat: [(cid * selector_count + sel)] holds the
    target's method id, or [-1] where {!dispatch} is [None]. Immutable
    once sealed; the VM reads it on every virtual call and guard. *)

val field_counts : t -> int array
(** {!Clazz.field_count} of every class, by class id. Immutable once
    sealed; the VM reads it on every [New]. *)

val implementations : t -> Ids.Selector.t -> Ids.Method_id.t list
(** Class-hierarchy analysis: every method a virtual call on this selector
    could reach in the sealed universe (distinct dispatch targets). *)

val cone : t -> Ids.Class_id.t -> Clazz.t array
(** The class and every subclass, in class-id order. Like
    {!implementations}, computed once at sealing. *)

val monomorphic_target : t -> Ids.Selector.t -> Ids.Method_id.t option
(** [Some m] when CHA proves the selector has a single possible target. *)

val is_subclass : t -> sub:Ids.Class_id.t -> super:Ids.Class_id.t -> bool

val find_class : t -> string -> Clazz.t
(** Raises [Not_found]. *)

val find_method : t -> cls:string -> name:string -> Meth.t
(** Find a method declared on class [cls] (not inherited) by name.
    Raises [Not_found]. *)

val class_count : t -> int
val method_count : t -> int

val total_bytecodes : t -> int
(** Sum of body sizes over all methods, in instruction units. *)

val pp : Format.formatter -> t -> unit
(** Full disassembly listing. *)

module Builder : sig
  type program := t
  type t

  val create : unit -> t
  val intern_selector : t -> string -> Ids.Selector.t

  val declare_class :
    t ->
    name:string ->
    parent:Ids.Class_id.t option ->
    fields:string list ->
    Ids.Class_id.t
  (** Parents must be declared before children; the field layout places
      inherited slots first. Raises [Invalid_argument] on duplicate class
      names. *)

  val declare_global : t -> string -> int
  (** Returns the global's slot. Re-declaring a name returns its slot. *)

  val declare_method :
    t ->
    owner:Ids.Class_id.t ->
    name:string ->
    kind:Meth.kind ->
    arity:int ->
    returns:bool ->
    Ids.Method_id.t
  (** Raises [Invalid_argument] if the owner already declares an instance
      method with the same name. *)

  val set_body : t -> Ids.Method_id.t -> max_locals:int -> Instr.t array -> unit

  val seal : t -> main:Ids.Method_id.t -> program
  (** Raises [Invalid_argument] if any declared method lacks a body or
      [main] is not a parameterless static method. The program is not
      verified yet: the VM takes it only after {!Verify.program}. *)
end
