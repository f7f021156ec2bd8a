(** The profiled dynamic call graph.

    Stores weighted call traces of arbitrary depth (a depth-1 trace is a
    context-insensitive call edge). Following the paper's hybrid approach
    (§3.3, "Partial Context Matches"), samples are *never* merged across
    different depths at collection time — a trace and its sub-traces are
    separate entries; only the oracle combines them through partial
    matching at query time.

    Weights are decayed periodically by the decay organizer so that hot-edge
    detection favours recently sampled edges (program phase adaptation). *)

open Acsi_bytecode

type t

val create : unit -> t

val add_sample : t -> Trace.t -> unit
(** Add one sample (weight 1.0). *)

val add_weight : t -> Trace.t -> float -> unit
(** Add [w] (> 0, else a no-op) to one trace's weight, inserting the
    trace — and indexing its site — when new. [add_sample t tr] is
    [add_weight t tr 1.0]. *)

val merge : into:t -> t -> unit
(** Fold every trace of the source graph into [into], adding weights
    trace by trace. Totals are additive: afterwards [into]'s total has
    grown by exactly the source's total. The source is not modified.
    This is the organizer-side flush of per-shard DCGs into the global
    view (the paper's per-virtual-processor sample buffers). *)

val weight : t -> Trace.t -> float
(** 0 when the trace was never sampled. *)

val total_weight : t -> float
val size : t -> int

val decay : t -> factor:float -> prune_below:float -> unit
(** Multiply every weight (and the total) by [factor], dropping entries
    whose weight falls below [prune_below]. *)

val hot : t -> threshold:float -> (Trace.t * float) list
(** Traces contributing more than [threshold] (a fraction, e.g. the
    paper's 0.015) of the total profile weight, heaviest first. *)

val iter : t -> f:(Trace.t -> float -> unit) -> unit

val site_distribution :
  t -> caller:Ids.Method_id.t -> callsite:int -> (Ids.Method_id.t * float) list
(** Callee distribution of one call site, aggregated over every recorded
    trace whose innermost entry is [(caller, callsite)], heaviest first.
    Used by the adaptive-resolution policy to find polymorphic sites with
    non-skewed distributions. Served from an incremental per-site index:
    cost is proportional to the traces recorded at the site, not to the
    size of the whole graph. *)

val edge_weight : t -> caller:Ids.Method_id.t -> callsite:int -> callee:Ids.Method_id.t -> float
(** Aggregated weight of a call edge over all trace depths. Served from
    the per-site index, like {!site_distribution}. *)

val site_entry_count : t -> caller:Ids.Method_id.t -> callsite:int -> int
(** Number of distinct traces currently indexed under the site
    [(caller, callsite)] — 0 once every trace of the site has been pruned
    (the index drops empty sites). For tests/inspection. *)

val site_count : t -> int
(** Number of distinct call sites with at least one live trace. *)

(** {2 Site views}

    A view over everything recorded at one call site: per-callee weight
    (aggregated over all trace depths) and per-deep-context weight (one
    bucket per distinct chain of length >= 2). Views are maintained
    incrementally on {!add_sample} and {!decay}-pruning and share the
    main table's weight refs, so reading one never scans the whole graph;
    weight sums are recomputed from the bucket at query time, so a view
    cannot drift from the table. The adaptive-resolution organizer
    ({!Acsi_aos.System}) is the main consumer. *)

type site_view

val iter_sites :
  t -> f:(caller:Ids.Method_id.t -> callsite:int -> site_view -> unit) -> unit
(** One call per live site, in no particular order. *)

val site_view :
  t -> caller:Ids.Method_id.t -> callsite:int -> site_view option

val view_callee_count : site_view -> int
(** Distinct callees recorded at the site (over all depths). *)

val view_total : site_view -> float
(** Total weight at the site (all depths). *)

val view_top_callee_weight : site_view -> float
(** The heaviest callee's aggregated weight; 0 for an empty view. *)

val view_deep_exists :
  site_view -> f:(total:float -> top:float -> bool) -> bool
(** Whether some deep context (chain length >= 2) rooted at this site
    satisfies [f], given the context's total weight and its heaviest
    single callee's weight. Short-circuits on the first hit. *)

