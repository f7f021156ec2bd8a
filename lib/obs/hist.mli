(** Log-bucketed integer histograms (HDR-style power-of-two sub-bucketing).

    The fleet-telemetry workhorse: session latencies, steal distances,
    compile-queue waits and deopt-to-recompile gaps are all recorded into
    these. Values below [2^sub_bits] get exact unit-width buckets; above
    that every power-of-two range is split into [2^sub_bits] equal
    sub-buckets, bounding the bucket width by [value / 2^sub_bits].

    Determinism contract: a histogram is a pure function of the multiset
    of recorded values — insertion order, host parallelism and merge
    order never change any observable (count, sum, quantiles, buckets).
    Recording is allocation-free after {!create}.

    Accuracy contract (pinned by the QCheck differential in
    [test/test_obs.ml]): for any recorded multiset and percentile [p],
    {!quantile} brackets the exact nearest-rank reference spec
    [Acsi_server.Load.percentile]:
    [exact <= quantile <= exact + exact/2^sub_bits + 1]. *)

type t

val create : ?sub_bits:int -> unit -> t
(** Fresh empty histogram. [sub_bits] (default 5, i.e. 32 sub-buckets,
    ~3% worst-case relative error) must be in [[1,16]]. *)

val sub_bits : t -> int

val record : t -> int -> unit
(** Record one value. Negative values clamp to 0. *)

val count : t -> int
(** Exact number of recorded values. *)

val sum : t -> int
(** Exact sum of recorded (clamped) values — not bucket-approximated. *)

val max_value : t -> int
(** Exact largest recorded value (0 when empty). *)

val min_value : t -> int
(** Exact smallest recorded value (0 when empty). *)

val merge : into:t -> t -> unit
(** Add every bucket of the source into [into]. The two histograms must
    share [sub_bits]. Equivalent to replaying the source's recordings. *)

val quantile : t -> float -> int
(** [quantile t p] for [p] in [[0,100]]: nearest-rank quantile over the
    cumulative bucket counts, returning the owning bucket's upper edge
    clamped to {!max_value} (so [quantile t 100.0 = max_value t]).
    0 when empty. *)

val iter_buckets : t -> f:(lo:int -> hi:int -> count:int -> unit) -> unit
(** Visit non-empty buckets in ascending value order with their
    inclusive [lo..hi] value range — the export surface for OpenMetrics
    and JSONL rendering in {!Export}. *)

val checksum : t -> int
(** Order-insensitive fingerprint of (buckets, sum) for determinism
    checks in [BENCH_results.json]. *)
