(* LRU and 2Q share one structure: two intrusive doubly-linked lists over
   the same prev/next arrays, distinguished by a per-frame tag, with -1
   terminating every end, so no sentinel frames and no allocation per
   operation.  A1in is FIFO (insert at head, victims from tail); Am is
   LRU.  LRU inserts straight into Am, so its A1in stays empty and
   [victim] always takes Am's tail.  No ghost list (A1out): a hit while
   still resident in A1in is promotion enough for this simulator. *)
type queue = Untracked | A1in | Am

type lists = {
  prev : int array;
  next : int array;
  where : queue array;
  mutable a1_head : int;
  mutable a1_tail : int;
  mutable a1_len : int;
  mutable am_head : int;
  mutable am_tail : int;
  a1_target : int;
}

type clock = {
  tracked : bool array;
  referenced : bool array;
  mutable hand : int;
  capacity : int;
}

type t = Lru of lists | Two_q of lists | Clock of clock

let make policy ~capacity =
  if capacity <= 0 then invalid_arg "Replacement.make: capacity must be positive";
  let lists () =
    {
      prev = Array.make capacity (-1);
      next = Array.make capacity (-1);
      where = Array.make capacity Untracked;
      a1_head = -1;
      a1_tail = -1;
      a1_len = 0;
      am_head = -1;
      am_tail = -1;
      a1_target = max 1 (capacity / 4);
    }
  in
  match policy with
  | Policy.Lru -> Lru (lists ())
  | Policy.Two_q -> Two_q (lists ())
  | Policy.Clock ->
      Clock
        {
          tracked = Array.make capacity false;
          referenced = Array.make capacity false;
          hand = 0;
          capacity;
        }

let unlink t f =
  let p = t.prev.(f) and n = t.next.(f) in
  (match t.where.(f) with
  | A1in ->
      if p >= 0 then t.next.(p) <- n else t.a1_head <- n;
      if n >= 0 then t.prev.(n) <- p else t.a1_tail <- p;
      t.a1_len <- t.a1_len - 1
  | Am ->
      if p >= 0 then t.next.(p) <- n else t.am_head <- n;
      if n >= 0 then t.prev.(n) <- p else t.am_tail <- p
  | Untracked -> ());
  t.prev.(f) <- -1;
  t.next.(f) <- -1;
  t.where.(f) <- Untracked

let push_a1 t f =
  t.prev.(f) <- -1;
  t.next.(f) <- t.a1_head;
  if t.a1_head >= 0 then t.prev.(t.a1_head) <- f;
  t.a1_head <- f;
  if t.a1_tail < 0 then t.a1_tail <- f;
  t.a1_len <- t.a1_len + 1;
  t.where.(f) <- A1in

let push_am t f =
  t.prev.(f) <- -1;
  t.next.(f) <- t.am_head;
  if t.am_head >= 0 then t.prev.(t.am_head) <- f;
  t.am_head <- f;
  if t.am_tail < 0 then t.am_tail <- f;
  t.where.(f) <- Am

(* Inserted CLOCK frames start with their reference bit set, so a
   brand-new page survives the hand's first pass (classic second
   chance). *)
let on_insert t f =
  match t with
  | Lru l -> push_am l f
  | Two_q l -> push_a1 l f
  | Clock c ->
      c.tracked.(f) <- true;
      c.referenced.(f) <- true

let on_hit t f =
  match t with
  | Lru l | Two_q l -> (
      match l.where.(f) with
      | A1in ->
          unlink l f;
          push_am l f
      | Am ->
          if l.am_head <> f then begin
            unlink l f;
            push_am l f
          end
      | Untracked -> ())
  | Clock c -> c.referenced.(f) <- true

let no_victim () = invalid_arg "Replacement.victim: no tracked frame"

(* Two full sweeps suffice: the first clears every reference bit in the
   worst case, the second must then stop at a tracked frame. *)
let rec sweep c steps =
  if steps > 2 * c.capacity then no_victim ()
  else begin
    let f = c.hand in
    c.hand <- (c.hand + 1) mod c.capacity;
    if not c.tracked.(f) then sweep c (steps + 1)
    else if c.referenced.(f) then begin
      c.referenced.(f) <- false;
      sweep c (steps + 1)
    end
    else begin
      c.tracked.(f) <- false;
      f
    end
  end

let victim t =
  match t with
  | Lru l | Two_q l ->
      let f =
        if l.a1_tail >= 0 && (l.a1_len > l.a1_target || l.am_tail < 0) then l.a1_tail
        else if l.am_tail >= 0 then l.am_tail
        else no_victim ()
      in
      unlink l f;
      f
  | Clock c -> sweep c 0

let on_remove t f =
  match t with
  | Lru l | Two_q l -> unlink l f
  | Clock c ->
      c.tracked.(f) <- false;
      c.referenced.(f) <- false
