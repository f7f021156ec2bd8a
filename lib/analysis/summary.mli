(** Compositional interprocedural method summaries.

    A bottom-up pass over the call graph's SCC condensation ({!Scc})
    computing, for every method, facts derivable from bytecode alone —
    no profile, no execution:

    - {e size after inlining}: the method's size in classification units
      once every statically bound Tiny/Small callee is expanded into it
      (the static analogue of the JIT's expansion estimate);
    - {e side-effect kind}: whether the method (transitively) reads or
      writes heap/global state, allocates, or emits output — [pure]
      means none of writes/allocations/output, so executing the method
      can only observe state and burn cycles;
    - {e parameter escape}: which parameter slots may (transitively)
      flow into a heap object, a global, or a caller via return;
    - {e return-constness}: a method that returns the same compile-time
      constant on every normal path;
    - {e always-throws}: no normal return is reachable — every path
      traps (division by a constant zero, a definitely-null
      dereference, a negative constant array size, a call to an
      always-throwing method) or loops forever;
    - {e monomorphic dispatch}: per virtual call site, the CHA proof
      that the sealed class universe admits exactly one target.

    Only a cyclic SCC (several methods, or one that calls itself)
    iterates to a fixpoint from optimistic assumptions (effect and
    escape flags only grow); every other component is analyzed once.
    Calls that stay inside the component are treated as opaque for
    constness, size and always-throws — matching the oracle, which never
    inlines recursive edges. Per method, constness and parameter escape
    run as one forward problem over the method's one {!Cfg}, on mutable
    int-array block states, and every fact is read off one run of each
    block from its converged entry state.

    The whole table is a pure, deterministic function of the sealed
    program: same program, same table, independent of parallelism. It
    is computed eagerly, with no cache or state kept between calls. *)

open Acsi_bytecode

type effects = {
  reads_heap : bool;  (** [Get_field]/[Array_get]/[Array_len]/[Get_global] *)
  writes_heap : bool;  (** [Put_field]/[Array_set]/[Put_global] *)
  allocates : bool;  (** [New]/[Array_new] *)
  io : bool;  (** [Print_int] *)
}

type meth_summary = {
  meth : Ids.Method_id.t;
  units : int;  (** own body size in classification units *)
  size_est : int;  (** size after inlining statically bound small callees *)
  effects : effects;  (** transitive, over every CHA-reachable callee *)
  pure : bool;  (** no writes, no allocations, no output *)
  escapes : bool array;
      (** per parameter slot (receiver first for instance methods):
          may the argument flow into the heap or a global? *)
  returns_param : bool array;
      (** per parameter slot: may the argument be the returned value? *)
  return_const : int option;
      (** [Some k] when every reachable normal return yields [k] *)
  always_throws : bool;  (** no normal return is reachable *)
  mono_sites : (int * Ids.Method_id.t) list;
      (** virtual call sites proven monomorphic by CHA: [(pc, the one
          target)], ascending pc *)
  virtual_sites : int;  (** total virtual call sites in the body *)
  seed_sites : int;
      (** call sites the static oracle would provably inline: unique
          non-recursive target, Tiny/Small after its own inlining, and
          not always-throwing *)
}

type table

val analyze : Program.t -> table
(** A method whose body defeats the analysis — an operand-stack
    underflow, a local index out of range, or two paths joining at
    different stack depths, none of which a verified program has — gets
    a fully conservative row. *)

val get : table -> Ids.Method_id.t -> meth_summary

val seed_worthy : table -> Ids.Method_id.t -> bool
(** [seed_sites > 0]: the method is a provably-good static compilation
    candidate — optimizing it at install time is guaranteed to inline
    something. *)

val print : Format.formatter -> Program.t -> table -> unit
(** The deterministic per-method summary table ([acsi-run analyze]). *)
