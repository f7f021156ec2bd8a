(** Call-graph strongly connected components.

    The static call graph of a sealed program: direct edges from
    [Call_static]/[Call_direct] sites (and guard expectations), and one
    edge per CHA implementation of each [Call_virtual] selector — the
    closed-world over-approximation of every call the method could make.
    Tarjan's condensation numbers components in pop order, which is
    bottom-up (every component's callees live in lower-numbered
    components), so an interprocedural summary pass can run a single
    bottom-up sweep with fixpoint iteration confined to each component.

    Everything here is a pure function of the program: construction
    visits methods in id order and successors in ascending id order, so
    component numbering and member order are deterministic. *)

open Acsi_bytecode

type t

val of_program : Program.t -> t

val call_targets : Program.t -> Instr.t -> Ids.Method_id.t list
(** Possible callees of one instruction: the single target of a static
    or direct call (or a guard's expected method), every CHA
    implementation of a virtual call's selector, [[]] for non-calls. *)

val count : t -> int
(** Number of components; ids are [0 .. count - 1] in bottom-up order. *)

val component_of : t -> Ids.Method_id.t -> int

val members : t -> int -> Ids.Method_id.t array
(** Methods of one component, ascending id order. *)

val cyclic : t -> int -> bool
(** The component is a cycle of the call graph: more than one member, or
    one member that calls itself. Only a cycle needs fixpoint iteration. *)
