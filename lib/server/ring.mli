(** Growable FIFO over one array, for the serving path's run and steal
    queues.

    Unlike [Stdlib.Queue], a pop leaves nothing behind: the slot it
    empties is overwritten with an immediate, and a drained ring drops
    back to its initial capacity. A [Queue] cell keeps a pointer to the
    cell added after it, so once one cell is promoted every later cell
    (and everything it holds) is reachable from the remembered set at the
    next minor collection, dead or not. A ring holds exactly its live
    elements. *)

type 'a t

val create : unit -> 'a t
(** An empty ring of the initial capacity (16 slots). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail, doubling the array when it is full. *)

val peek : 'a t -> 'a
(** The head, left in place. Raises [Invalid_argument] if empty. *)

val pop : 'a t -> 'a
(** Remove and return the head. Raises [Invalid_argument] if empty. *)
