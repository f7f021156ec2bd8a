(** The AOS database (paper §3.2): a central repository of compilation
    decisions and events.

    Its load-bearing use here is recording the optimizing compiler's
    refusals to inline particular call edges, so the missing-edge organizer
    does not keep recommending a recompilation the compiler will reject
    again. It also keeps a log of compilation events for reporting. *)

open Acsi_bytecode

type compilation_event = {
  ce_method : Ids.Method_id.t;
  ce_version : int;
  ce_units : int;
  ce_bytes : int;
  ce_cycles : int;
  ce_inlines : int;
  ce_guards : int;
}

type t

val create : unit -> t

val record_refusal :
  t ->
  caller:Ids.Method_id.t ->
  callsite:int ->
  callee:Ids.Method_id.t ->
  stamp:int ->
  Acsi_jit.Oracle.refusal_reason ->
  unit
(** [stamp] is the rules version current when the compiler refused; the
    refusal expires once the profile has moved far enough past it. *)

val refused :
  t ->
  caller:Ids.Method_id.t ->
  callsite:int ->
  callee:Ids.Method_id.t ->
  now:int ->
  ttl:int ->
  bool
(** Whether an unexpired refusal is on record: one stamped within [ttl]
    rules versions of [now]. Expiry is what lets the system revisit a
    refusal after the profile shifts (e.g. a program phase change). *)

val refusal_count : t -> int

val refusal_reasons : t -> (Acsi_jit.Oracle.refusal_reason * int) list
(** Recorded refusals broken down by reason, one entry per reason in
    {!Acsi_jit.Oracle.all_refusal_reasons} order (zero counts included).
    An edge refused more than once counts once, under its latest
    reason; the counts sum to {!refusal_count}. *)

val record_compilation : t -> compilation_event -> unit
val compilations : t -> compilation_event list
(** Oldest first. *)

