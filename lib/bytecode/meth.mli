(** Methods of the bytecode IR.

    An instance method receives its receiver in local 0 and its declared
    parameters in locals 1..arity; a static method receives its parameters
    in locals 0..arity-1. [max_stack] is [-1] until the verifier computes
    it ({!Verify.meth}). *)

type kind = Static | Instance

type t = {
  id : Ids.Method_id.t;
  owner : Ids.Class_id.t;
  name : string;  (** unqualified name, e.g. ["get"] *)
  selector : Ids.Selector.t;
  kind : kind;
  arity : int;  (** declared parameters, excluding the receiver *)
  returns : bool;  (** whether the method pushes a result for its caller *)
  body : Instr.t array;
  max_locals : int;
  mutable max_stack : int;
}

val param_slots : t -> int
(** Number of locals consumed by parameters, including the receiver. *)

val is_instance : t -> bool
val is_parameterless : t -> bool
(** True when the method declares no parameters besides the receiver. *)

val size_units : t -> int
(** Size of the method body in instruction units (the unit of all code-size
    estimates in this system). *)

(** Method size classes (paper §3.1). Jikes RVM buckets inline
    candidates by the estimated machine-code size of the inlined body,
    measured in multiples of the code a method call occupies (4 units). *)
type size_class =
  | Tiny  (** < 2x a call: inlined unconditionally when statically bound *)
  | Small  (** 2-5x: inlined subject to code-expansion and depth limits *)
  | Medium  (** 5-25x: candidates for profile-directed inlining only *)
  | Large  (** >= 25x: never inlined *)

val classify : units:int -> size_class
(** The class of a body of [units] instruction units. *)

val size_class : t -> size_class
(** The class of the method's unadjusted body ({!size_units}). *)

val pp : Format.formatter -> t -> unit
val pp_body : Format.formatter -> t -> unit
