module Fifo = Stdlib.Queue

(* The three seek-sequencing policies keep a map from cylinder to the
   FIFO of requests pending there (so same-cylinder requests keep
   arrival order), plus a size counter.  Map ordering gives the
   nearest-at-or-{above,below} lookups in O(log n), which matters when a
   whole-file transfer floods one drive with thousands of chunks.  FCFS
   needs none of that: its requests wait in one arrival FIFO. *)
module Cylmap = Map.Make (Int)

type 'a t = {
  policy : Policy.t;
  arrivals : (int * 'a) Fifo.t;  (** FCFS's queue; empty under the others *)
  mutable map : 'a Fifo.t Cylmap.t;  (** the others' store; empty under FCFS *)
  mutable size : int;
  mutable up : bool;  (** SCAN's sweep direction *)
}

let create policy =
  { policy; arrivals = Fifo.create (); map = Cylmap.empty; size = 0; up = true }

let length t = t.size
let is_empty t = t.size = 0

let add t ~cylinder v =
  if cylinder < 0 then invalid_arg "Scheduler.add: negative cylinder";
  (match t.policy with
  | Policy.Fcfs -> Fifo.add (cylinder, v) t.arrivals
  | Policy.Sstf | Policy.Scan | Policy.Clook ->
      let bucket =
        match Cylmap.find_opt cylinder t.map with
        | Some b -> b
        | None ->
            let b = Fifo.create () in
            t.map <- Cylmap.add cylinder b t.map;
            b
      in
      Fifo.add v bucket);
  t.size <- t.size + 1

let at_or_above t head = Cylmap.find_first_opt (fun c -> c >= head) t.map
let at_or_below t head = Cylmap.find_last_opt (fun c -> c <= head) t.map

(* Pop the oldest request at [cyl]; requires the bucket to exist. *)
let take_at t cyl =
  let bucket = Cylmap.find cyl t.map in
  let v = Fifo.take bucket in
  if Fifo.is_empty bucket then t.map <- Cylmap.remove cyl t.map;
  Some (cyl, v)

let take t ~head =
  if t.size = 0 then None
  else begin
    t.size <- t.size - 1;
    match t.policy with
    | Policy.Fcfs -> Some (Fifo.take t.arrivals)
    | Policy.Sstf ->
        take_at t
          (match (at_or_below t head, at_or_above t head) with
          | Some (lo, _), Some (hi, _) ->
              (* Equidistant ties go to the lower cylinder. *)
              if head - lo <= hi - head then lo else hi
          | Some (lo, _), None -> lo
          | None, Some (hi, _) -> hi
          | None, None -> assert false)
    | Policy.Scan ->
        (* Nearest request in the sweep direction; nothing there means
           the sweep is over — reverse.  A request at the head cylinder
           itself is served regardless of direction. *)
        take_at t
          (if t.up then begin
             match at_or_above t head with
             | Some (c, _) -> c
             | None ->
                 t.up <- false;
                 fst (Option.get (at_or_below t head))
           end
           else begin
             match at_or_below t head with
             | Some (c, _) -> c
             | None ->
                 t.up <- true;
                 fst (Option.get (at_or_above t head))
           end)
    | Policy.Clook ->
        take_at t
          (match at_or_above t head with
          | Some (c, _) -> c
          | None -> fst (Cylmap.min_binding t.map))
  end

let clear t =
  Fifo.clear t.arrivals;
  t.map <- Cylmap.empty;
  t.size <- 0;
  t.up <- true
