(** Per-run observability configuration and the live bundle of stores.

    Everything defaults to off; {!disabled} is allocation-free and every
    probe through it is a branch on a [false] flag, so untraced runs —
    including all goldens — are byte-identical to pre-observability
    builds. *)

type config = {
  trace : bool;  (** record tracer spans/counters/instants *)
  provenance : bool;  (** record oracle decision provenance *)
  cprof : bool;  (** build the CCT profile from timer samples *)
  capacity : int;
      (** most events the tracer holds (oldest dropped first beyond it);
          an upper bound, not a preallocation: the tracer's buffer grows
          with the events recorded *)
  probe_on_clock : bool;
      (** charge [Cost.probe] virtual cycles to the clock per recorded
          event, modelling a paid software probe; never charged to
          [Accounting], so span/accounting reconciliation is unaffected *)
}

val off : config
(** All faces disabled; [capacity = 65536]. *)

val enabled : config -> bool
(** Any face on. *)

type t = {
  tracer : Tracer.t;
  prov : Provenance.t option;
  cprof : Cprof.t option;
}

val create :
  config -> probe:int -> charge:(int -> unit) -> now:(unit -> int) -> t
(** [probe] is the per-event probe cost from the run's cost model
    (applied only when [probe_on_clock]); [charge] advances the virtual
    clock; [now] reads it (stamps provenance records). *)
