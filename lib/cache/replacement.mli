(** Page-frame replacement, one closure-free value per cache.

    A policy orders the cache's page frames (dense ints in
    [0, capacity)); the cache proper owns the frame contents and the
    page index and only asks the policy three questions: a frame was
    just filled ({!on_insert}), a resident frame was just referenced
    ({!on_hit}), and which frame to sacrifice ({!victim}).
    {!on_remove} withdraws a frame whose page was invalidated
    (truncate / delete), so it stops being a victim candidate until it
    is re-inserted.  The policy is chosen at {!make}:

    - {b LRU}: exact least-recently-used order, an intrusive
      doubly-linked list over frame indices; every operation is O(1).
    - {b CLOCK} (second chance): per-frame reference bits and a sweeping
      hand; {!victim} clears bits until it finds one already clear.
    - {b 2Q}, simplified (no ghost list): first-touch frames queue FIFO
      in the probation queue A1in (target size = capacity / 4); a hit
      while in A1in promotes to the LRU-managed protected queue Am.
      Victims come from A1in whenever it is over target, so a one-shot
      scan evicts its own pages and never flushes Am.  LRU is this
      structure with every insert going straight to Am.

    Contract: a frame is {e tracked} between [on_insert] and the
    [victim] / [on_remove] that takes it out; [on_hit] and [on_remove]
    are only called on tracked frames, [on_insert] only on untracked
    ones.  [victim] is only called when at least one frame is tracked.
    Every policy is deterministic — same call sequence, same victims —
    which the QCheck reference-model and determinism properties pin.
    A value holds no closure, so a checkpoint marshals it whole. *)

type t

val make : Policy.t -> capacity:int -> t
(** [capacity] frames, none tracked.  Raises [Invalid_argument] if
    [capacity <= 0]. *)

val on_insert : t -> int -> unit
val on_hit : t -> int -> unit

val victim : t -> int
(** Chooses, untracks and returns the sacrificial frame.  Raises
    [Invalid_argument] when no frame is tracked. *)

val on_remove : t -> int -> unit
