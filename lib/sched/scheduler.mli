(** Per-drive dispatch queues.

    One queue holds the requests pending on one drive; {!take} decides
    which of them the arm services next, given the cylinder the head is
    parked on.  Payloads are opaque to the scheduler — it sequences on
    cylinder numbers only.  The policy is chosen at {!create}:

    - {b FCFS}: arrival order, ignoring geometry entirely.
    - {b SSTF}: nearest pending cylinder to the head; equidistant ties
      go to the lower cylinder.
    - {b SCAN} (elevator): the arm starts sweeping toward higher
      cylinders; each take serves the nearest request at or beyond the
      head in the sweep direction, and the direction reverses when
      nothing (more) is pending that way.  Wait is bounded: a request is
      served within two sweeps of its arrival.
    - {b C-LOOK} (circular LOOK): always sweeps upward; serves the
      nearest pending cylinder at or above the head, and when there is
      none, wraps to the lowest pending cylinder.  Wait is bounded by
      one full sweep.

    Every policy is deterministic: requests on the same cylinder are
    served in arrival order, and every remaining tie is broken the same
    way on every run.  None of them preempts — a choice is made only
    when the drive falls idle, which is exactly when the simulation
    engine consults the queue.

    Under SSTF, SCAN and C-LOOK a queue keeps one FIFO per cylinder and
    a bitset of the cylinders with requests pending, so each choice is
    one or two bitset scans from the head; FCFS keeps a single arrival
    FIFO.  A queue is plain closure-free data, so a checkpoint marshals
    it whole. *)

type 'a t

val create : Policy.t -> cylinders:int -> 'a t
(** An empty queue for a drive with [cylinders] cylinders, numbered
    from [0].  Requires [cylinders > 0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> cylinder:int -> 'a -> unit
(** Enqueue a request whose first byte lives on [cylinder].
    Requires [0 <= cylinder < cylinders]. *)

val take : 'a t -> head:int -> 'a
(** Remove and return the payload of the request the policy services
    next with the arm at cylinder [head].  Raises [Invalid_argument]
    when the queue is empty. *)

val clear : 'a t -> unit
(** Drop every pending request; SCAN's next sweep starts upward again. *)
