(** The structured event tracer: a bounded buffer of spans, counters and
    instants, timestamped in virtual cycles. The buffer grows on demand
    up to its capacity and then drops the oldest events first, so its
    memory is proportional to the events it holds, not to the capacity.

    Every AOS component charge, scheduler slice and server request can be
    recorded here and exported ({!Export}) as a Chrome trace-event file
    (Perfetto-loadable) or a JSONL event log. Two contracts matter:

    - {b Determinism}: the event stream is a pure function of the run.
      Emitting events never perturbs the virtual clock or any decision —
      unless the probe-cost model is explicitly enabled (below).
    - {b Reconciliation}: a span is emitted for every cycle charged to an
      AOS component, with the component's name as its track, so summed
      span durations per track equal the {!Acsi_aos.Accounting} totals
      exactly (see {!Export.track_totals}).

    A disabled tracer ({!null}, or [enabled = false]) allocates nothing:
    every emit function checks {!enabled} first and returns immediately.
    Callers that would allocate arguments for an event (labels, arg
    lists) should guard on {!enabled} themselves.

    {b Probe-cost model}: real tracing is not free. When the tracer is
    created with [probe > 0], every recorded event charges [probe]
    cycles to the virtual clock through the [charge] callback — the
    modeled cost of the probe itself, visible to the timer and therefore
    to sampling and compilation decisions. The default probe cost lives
    in {!Acsi_vm.Cost.t} ([probe]) and is only applied when explicitly
    requested, so tracing is a zero-cost observer unless the experiment
    asks to measure its own overhead. Probe cycles are deliberately NOT
    charged to any AOS component: they would otherwise break the
    reconciliation contract above. *)

type flow_dir =
  | Out  (** the originating half of a flow arrow *)
  | In  (** the receiving half *)

type event =
  | Span of { track : string; name : string; t0 : int; t1 : int }
      (** [cycles t0 <= t1]; duration [t1 - t0] on [track]. *)
  | Counter of { track : string; name : string; t : int; value : int }
  | Instant of {
      track : string;
      name : string;
      t : int;
      args : (string * string) list;
    }
  | Flow of { track : string; name : string; t : int; id : int; dir : flow_dir }
      (** Half of a cross-track flow arrow (Perfetto [ph:"s"]/[ph:"f"]):
          the two halves share [id] and render as an arrow from the [Out]
          track/time to the [In] track/time — how cross-shard steal,
          adopt and deopt hand-offs are linked in the fleet export. The
          conservation witness in the test suite demands exactly one
          [Out] and one [In] per id. *)

type t

val null : t
(** The disabled tracer: never records, never allocates. *)

val create : ?probe:int -> ?charge:(int -> unit) -> capacity:int -> unit -> t
(** An enabled tracer holding at most [capacity] events (oldest dropped
    first once full — see {!dropped}). [capacity] is an upper bound, not
    a preallocation: the buffer starts small and doubles as events
    arrive until it reaches [capacity]. [probe] (default 0) is the
    on-clock cost charged through [charge] per recorded event. Raises
    [Invalid_argument] if [capacity <= 0]. *)

val enabled : t -> bool

val span : t -> track:string -> name:string -> t0:int -> t1:int -> unit
(** Record a complete span. No-op when disabled or [t1 <= t0] — zero
    durations would only clutter the export and contribute nothing to
    reconciliation. *)

val counter : t -> track:string -> name:string -> t:int -> value:int -> unit

val instant :
  t -> track:string -> name:string -> t:int -> ?args:(string * string) list ->
  unit -> unit

val flow :
  t -> track:string -> name:string -> t:int -> id:int -> dir:flow_dir -> unit
(** Record one half of a flow arrow (see {!event}). *)

val length : t -> int
(** Events currently held (<= capacity). *)

val dropped : t -> int
(** Events evicted because the buffer was full. A non-zero value voids the
    reconciliation contract for this run; raise the capacity. *)

val iter : t -> f:(event -> unit) -> unit
(** Oldest first. *)
