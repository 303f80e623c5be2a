(** A growable FIFO ring over one array.

    [pop] overwrites the slot it read with the ring's empty value, so a
    ring never keeps a dequeued element reachable. That is the point of
    it on the serving path: a scheduler or shard outlives thousands of
    sessions, and a [Stdlib.Queue] there keeps each taken cell linked to
    the next one (see "Round-robin scheduler" in DESIGN.md). *)

type 'a t

val create : empty:'a -> 'a t
(** An empty ring. [empty] fills unused slots and is what {!peek} and
    {!pop} return when the ring is empty. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append at the back; doubles the array when full. *)

val peek : 'a t -> 'a
(** The front element, or [empty]. *)

val pop : 'a t -> 'a
(** Remove and return the front element, or return [empty]. *)
