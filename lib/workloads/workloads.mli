(** The benchmark suite: eight synthetic workloads shaped after SPECjvm98 +
    SPECjbb2000 (see each module's header comment and DESIGN.md for the
    correspondence). Every workload shares the {!Javalib} class library,
    which is how collection-class context sensitivity (paper Figure 1)
    arises. *)

type spec = {
  name : string;  (** paper benchmark name: compress, jess, db, ... *)
  description : string;
  default_scale : int;
      (** scale giving a run long enough for the adaptive system to go
          through its full pipeline (~tens of millions of cycles) *)
  build : scale:int -> Acsi_bytecode.Program.t;
}

val all : spec list
(** The paper's suite, in Table 1 order. *)

val extended : spec list
(** Extension workloads beyond the paper's suite (its §7 anticipates
    "larger and more object-oriented programs"): the classic Richards
    scheduler benchmark, cross-validated against the canonical
    implementation's expected counters; [session] — one short
    polymorphic server request, the unit of load the sharded server
    multiplies into millions; and [dispatch] — a handler pipeline that
    loads an overriding subclass from inside its hot loop, the stress
    case for guard-free speculative inlining and deoptimization. *)

val find : string -> spec
(** Looks in {!all} and then {!extended}. Raises [Not_found]. *)

val scaled : spec -> scale_factor:float -> int
(** The spec's default scale multiplied by [scale_factor], truncated, and
    at least 1: the one rule every scaled run (the bench's [--quick] and
    [--scale-factor], the sweeps) follows. *)

val build_all : ?scale_factor:float -> unit -> (string * Acsi_bytecode.Program.t) list
(** Compile every benchmark of {!all} at {!scaled} [~scale_factor]
    (default 1.0; tests use small factors). *)
