(** The kind lattice of the typed verifier.

    {v
                 Top
                  |
               Conflict
              /        \
            Int       Any_ref
                     /       \
                   Arr      Ref c   (classes ordered by the hierarchy)
                     \       /
                       Null
                          \
                          Bot
    v}

    [Top] is "no information" — parameters, fields, globals and call
    results are untyped, so anything flowing from them stays [Top] and
    is never reported. [Conflict] sits strictly below [Top] and records
    a {e provable} int/reference mix at a join: joining [Int] with any
    reference kind yields [Conflict], and {e using} a [Conflict] value
    where an int or a reference is required is a definite error the
    checker reports. The split is what keeps the verifier
    definite-error-only: imprecision (Top) is permissive, contradiction
    (Conflict) is not. *)

open Acsi_bytecode

type t =
  | Bot  (** unreachable / no value *)
  | Int
  | Null
  | Ref of Ids.Class_id.t  (** object of this class or a subclass *)
  | Arr
  | Any_ref  (** some reference: object, array or null *)
  | Conflict  (** int on one path, reference on another *)
  | Top

val equal : t -> t -> bool

val join : Program.t -> t -> t -> t
(** Least upper bound; [Ref a ⊔ Ref b] is the least common ancestor
    class when one exists, else [Any_ref]. *)

val compatible : t -> t -> bool
(** Whether the two types can describe the same runtime value (used by
    the OSR compatibility check — reference kinds all share [Null], so
    only a definite int/reference disagreement is incompatible). *)

val cone_max_fields : Program.t -> Ids.Class_id.t -> int
(** Max field count over the class and all its subclasses. A field
    index is definitely out of bounds for [Ref c] only when it exceeds
    this — [c] is an upper bound, the runtime class may be any
    subclass (inlined bodies read subclass fields through
    supertype-typed receivers). *)

val cone_implements : Program.t -> Ids.Class_id.t -> Ids.Selector.t -> bool
(** Whether any class in the subclass cone dispatches the selector —
    a virtual call on [Ref c] is definitely wrong only when none
    does. *)

val related : Program.t -> Ids.Class_id.t -> Ids.Class_id.t -> bool
(** Subclass in either direction; a [Call_direct] receiver class
    unrelated to the callee's owner is a definite error. *)

val pp : Program.t -> Format.formatter -> t -> unit
val to_string : Program.t -> t -> string
