module Fifo = Stdlib.Queue
module Bitset = Rofs_util.Bitset

(* FCFS keeps its requests in one arrival FIFO.  The three
   seek-sequencing policies keep one FIFO per cylinder (so requests on
   the same cylinder keep arrival order) and a bitset of the cylinders
   where requests are pending, so the nearest pending cylinder at or
   above the head is one [Bitset.first_set_in] scan and the nearest at
   or below one [Bitset.last_set_in] scan, with no closure or option
   built per dispatch.  A cylinder gets its own FIFO when a request
   first waits there and gives it up when it empties; [none], an empty
   FIFO that never holds a request, stands in for the rest, so the
   queue holds about what is pending.  FCFS builds no per-cylinder
   table at all. *)
type 'a t = {
  policy : Policy.t;
  cylinders : int;
  arrivals : 'a Fifo.t;  (** FCFS's queue; empty under the others *)
  buckets : 'a Fifo.t array;  (** the others' per-cylinder FIFOs; [||] under FCFS *)
  none : 'a Fifo.t;  (** the FIFO of every cylinder with nothing pending *)
  pending : Bitset.t;  (** cylinders whose FIFO is non-empty *)
  mutable size : int;
  mutable up : bool;  (** SCAN's sweep direction *)
}

let create policy ~cylinders =
  if cylinders <= 0 then invalid_arg "Scheduler.create: need at least one cylinder";
  let none = Fifo.create () in
  let table =
    match policy with Policy.Fcfs -> 0 | Policy.Sstf | Policy.Scan | Policy.Clook -> cylinders
  in
  {
    policy;
    cylinders;
    arrivals = Fifo.create ();
    buckets = Array.make table none;
    none;
    pending = Bitset.create table;
    size = 0;
    up = true;
  }

let length t = t.size
let is_empty t = t.size = 0

let add t ~cylinder v =
  if cylinder < 0 || cylinder >= t.cylinders then
    invalid_arg "Scheduler.add: cylinder out of range";
  (match t.policy with
  | Policy.Fcfs -> Fifo.add v t.arrivals
  | Policy.Sstf | Policy.Scan | Policy.Clook ->
      let bucket = t.buckets.(cylinder) in
      if bucket == t.none then begin
        let fresh = Fifo.create () in
        Fifo.add v fresh;
        t.buckets.(cylinder) <- fresh;
        Bitset.set t.pending cylinder
      end
      else Fifo.add v bucket);
  t.size <- t.size + 1

let at_or_above t head = Bitset.first_set_in t.pending ~lo:head ~hi:t.cylinders
let at_or_below t head = Bitset.last_set_in t.pending ~lo:0 ~hi:(head + 1)

(* Pop the oldest request at pending cylinder [cyl]. *)
let take_at t cyl =
  let bucket = t.buckets.(cyl) in
  let v = Fifo.take bucket in
  if Fifo.is_empty bucket then begin
    t.buckets.(cyl) <- t.none;
    Bitset.clear t.pending cyl
  end;
  v

let take t ~head =
  if t.size = 0 then invalid_arg "Scheduler.take: empty queue";
  t.size <- t.size - 1;
  match t.policy with
  | Policy.Fcfs -> Fifo.take t.arrivals
  | Policy.Sstf ->
      (* Equidistant ties go to the lower cylinder. *)
      let lo = at_or_below t head and hi = at_or_above t head in
      take_at t (if lo < 0 then hi else if hi < 0 || head - lo <= hi - head then lo else hi)
  | Policy.Scan ->
      (* Nearest request in the sweep direction; nothing there means
         the sweep is over — reverse.  A request at the head cylinder
         itself is served regardless of direction. *)
      let ahead = if t.up then at_or_above t head else at_or_below t head in
      if ahead >= 0 then take_at t ahead
      else begin
        t.up <- not t.up;
        take_at t (if t.up then at_or_above t head else at_or_below t head)
      end
  | Policy.Clook ->
      let c = at_or_above t head in
      take_at t (if c >= 0 then c else Bitset.first_set_from t.pending 0)

let clear t =
  Fifo.clear t.arrivals;
  let rec drop c =
    if c >= 0 then begin
      t.buckets.(c) <- t.none;
      Bitset.clear t.pending c;
      drop (Bitset.first_set_from t.pending c)
    end
  in
  drop (Bitset.first_set_from t.pending 0);
  t.size <- 0;
  t.up <- true
