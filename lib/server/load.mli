(** Deterministic load generation and latency statistics.

    Everything is seeded integer arithmetic on the virtual clock — no
    wall clock, no floats in the schedule itself — so identical seeds
    produce identical arrival schedules on every host. *)

val next_rand : int -> int
(** One step of the (splitmix-style) deterministic PRNG: maps a state to
    the next state. Exposed so schedules can be reproduced in tests. *)

val open_loop_arrivals : seed:int -> period:int -> n:int -> int array
(** [n] request arrival cycles for an open-loop (arrival-driven) load:
    inter-arrival gaps are drawn uniformly from [[period/2 + 1,
    period/2 + period]], so the mean inter-arrival is about [period]
    and arrivals are strictly increasing. *)

val percentiles : int array -> float array -> int array
(** [percentiles xs ps] is the nearest-rank percentile of the (unsorted)
    sample [xs] for each [p] in [ps], in order; 0 for every [p] on an
    empty sample. Exact: one copy of [xs] is partitioned in place by
    quickselect at each rank, in ascending rank order, so asking for
    p50/p95/p99/max together costs a few linear passes, not a sort.
    This is the reference spec the log-bucketed
    {!Acsi_obs.Hist.quantile} is differentially tested against, and it
    computes the pinned summary percentiles; histograms serve the
    telemetry surfaces. *)

val percentile : int array -> float -> int
(** [percentile xs p] is [(percentiles xs [| p |]).(0)];
    [percentile xs 50.0] is the median. *)

val mean : int array -> float
(** Arithmetic mean; 0 on an empty sample. *)

val warmup_requests : int array -> int
(** Time-to-steady-state over latencies in completion order: the number
    of leading requests before the rolling window mean (window =
    [max 1 (n/8)]) first settles within 25% of the steady-state mean
    (the mean of the final window). Returns [n] when the run never
    settles. *)
