(** Virtual-clock time-series.

    Gauges and cumulative counters sampled on a fixed column schema at
    points of the virtual clock — the round barriers of the sharded fleet
    ({!Acsi_server.Shards}). Because every timestamp is virtual, a
    series is a pure function of (program, config, seed): byte-identical
    across [--jobs] and across repeated runs. Rendering to JSONL and
    OpenMetrics text lives in {!Export}; the sparkline renderer here
    backs the [bench --serve] warmup-curve panel. *)

type t

val create : columns:string list -> t
(** Fresh, empty series over the given non-empty column schema. *)

val columns : t -> string list

val length : t -> int
(** Number of rows sampled so far. *)

val sample : t -> now:int -> int array -> unit
(** Append one row stamped at virtual time [now]. The value array must
    match the column schema's arity; callers sample in ascending time
    order. *)

val row : t -> int -> int * int array
(** [row t i] is the [(time, values)] pair of row [i] (a fresh copy). *)

val iter : t -> f:(now:int -> int array -> unit) -> unit
(** Visit rows oldest-first. *)

val column : t -> string -> int array
(** One column's values over time. Raises on unknown names. *)

val last : t -> string -> int
(** Final value of a column (0 when the series is empty) — how callers
    read end-of-run totals out of cumulative counter columns. *)

val checksum : t -> int
(** Order-sensitive fingerprint over (time, values) rows for the
    determinism checks in [BENCH_results.json]. *)

val spark : int array -> string
(** Render values as one UTF-8 block character each ([▁]..[█]), scaled
    so the maximum maps to the full block; all-zero input flatlines at
    [▁]. *)

val sparkline : t -> string -> string
(** {!spark} over {!column}. *)
