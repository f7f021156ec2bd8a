(** Text rendering of the paper's tables and figures from sweep data. *)

val table1 : Format.formatter -> Experiment.sweep -> unit
(** Benchmark characteristics: classes loaded, methods and bytecodes
    dynamically compiled (paper Table 1). *)

val figure4 : Format.formatter -> Experiment.sweep -> unit
(** Wall-clock speedup over context-insensitive inlining, six policy
    panels x max 2..5 (paper Figure 4). *)

val figure5 : Format.formatter -> Experiment.sweep -> unit
(** Optimized code size change (paper Figure 5). *)

val figure6 : Format.formatter -> Experiment.sweep -> unit
(** Percent of execution time per AOS component, averaged over
    benchmarks, for cins and each policy x depth (paper Figure 6). *)

val summary : Format.formatter -> Experiment.sweep -> unit
(** The abstract's headline numbers, paper vs measured. *)
