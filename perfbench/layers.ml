(* Layer boundaries as the benchmark sees them: per-call timers, spans,
   and the allocation-policy wrappers handed to [Engine.create].

   Untraced runs use [counting]: one integer increment per mutating
   allocator call, so minor words per operation can be computed without
   timing anything, and one clock read per [chunk_calls] calls, which
   cuts the timed phases into chunks.  Traced runs use [timed], which
   records every call's host duration into a [Hist] per (phase,
   operation) and forwards it. *)

module C = Core

(* One layer boundary: call durations in microseconds plus the total
   host time spent inside it. *)
type timer = { hist : C.Hist.t; mutable calls : int; mutable ns : int }

let timer () = { hist = C.Hist.create (); calls = 0; ns = 0 }

let stop tm t0 =
  let d = Clock.ns () - t0 in
  tm.calls <- tm.calls + 1;
  tm.ns <- tm.ns + d;
  C.Hist.add tm.hist (float_of_int d /. 1000.)

let time tm f =
  let t0 = Clock.ns () in
  let r = f () in
  stop tm t0;
  r

let merge_timers = function
  | [] -> timer ()
  | first :: rest ->
      List.fold_left
        (fun acc tm ->
          { hist = C.Hist.merge acc.hist tm.hist; calls = acc.calls + tm.calls; ns = acc.ns + tm.ns })
        { first with hist = C.Hist.copy first.hist }
        rest

(* A timing summary as the benchmark reports it: the median and the
   highest of p90/p99/p999 that still has at least ten samples beyond
   it, with the sample count. *)
let summary tm =
  let n = tm.calls in
  let tail =
    List.fold_left
      (fun acc (name, q) ->
        if float_of_int n *. (1. -. q) >= 10. then Some (name, C.Hist.quantile tm.hist q) else acc)
      None
      [ ("p90", 0.90); ("p99", 0.99); ("p999", 0.999) ]
  in
  (C.Hist.p50 tm.hist, tail, n)

(* Simulation phases, in order.  Allocator calls are attributed to the
   phase the engine is in when they happen; [post] is the work after
   the sequential test (exports, trace replay) and [bench] the
   benchmark's own hooks and checks, which no metric counts. *)
let phases = [| "setup"; "fill"; "aging"; "app"; "seq"; "post"; "bench" |]
let setup_phase = 0
let fill_phase = 1
let aging_phase = 2
let app_phase = 3
let seq_phase = 4
let post_phase = 5
let bench_phase = 6
let timed_phases = [ fill_phase; aging_phase; app_phase; seq_phase; post_phase ]

(* Phases whose allocator calls the per-call timings include. *)
let call_phases = setup_phase :: timed_phases

(* Allocator operations.  [probe] groups the free-space queries
   (free_units, largest_free, free_hist); [other] the remaining
   read-only lookups. *)
let alloc_ops = [| "create_file"; "ensure"; "shrink_to"; "delete"; "slice"; "probe"; "other" |]
let op_create = 0
let op_ensure = 1
let op_shrink = 2
let op_delete = 3
let op_slice = 4
let op_probe = 5
let op_other = 6
let mutating op = op <= op_delete

type alloc_probe = { timers : timer array array;  (** phase x op *) mutable phase : int }

let alloc_probe () =
  {
    timers = Array.init (Array.length phases) (fun _ -> Array.init (Array.length alloc_ops) (fun _ -> timer ()));
    phase = setup_phase;
  }

let op_timer probe ~phases:ps op = merge_timers (List.map (fun ph -> probe.timers.(ph).(op)) ps)

(* Chunks of a timed phase: while [active], the clock is read once every
   [chunk_calls] allocator calls, so every iteration of one seed splits
   a phase into the same pieces of work. *)
type chunker = { mutable active : bool; mutable pending : int; mutable last : int; mutable chunks : int list }

let chunk_calls = 200
let chunker () = { active = false; pending = 0; last = 0; chunks = [] }

let cut c =
  let now = Clock.ns () in
  c.chunks <- (now - c.last) :: c.chunks;
  c.last <- now;
  c.pending <- 0

let tick c =
  if c.active then begin
    c.pending <- c.pending + 1;
    if c.pending = chunk_calls then cut c
  end

let chunked c f =
  c.active <- true;
  c.pending <- 0;
  c.last <- Clock.ns ();
  let r = f () in
  cut c;
  c.active <- false;
  r

let counting (p : C.Policy.t) (count : int ref) chunks =
  {
    p with
    C.Policy.create_file =
      (fun ~file ~hint ->
        incr count;
        tick chunks;
        p.C.Policy.create_file ~file ~hint);
    ensure =
      (fun ~file ~target ->
        incr count;
        tick chunks;
        p.C.Policy.ensure ~file ~target);
    shrink_to =
      (fun ~file ~target ->
        incr count;
        tick chunks;
        p.C.Policy.shrink_to ~file ~target);
    delete =
      (fun ~file ->
        incr count;
        tick chunks;
        p.C.Policy.delete ~file);
    slice =
      (fun ~file ~off ~len ->
        tick chunks;
        p.C.Policy.slice ~file ~off ~len);
  }

let timed (p : C.Policy.t) probe =
  let t op f =
    let t0 = Clock.ns () in
    let r = f () in
    stop probe.timers.(probe.phase).(op) t0;
    r
  in
  {
    p with
    C.Policy.create_file = (fun ~file ~hint -> t op_create (fun () -> p.C.Policy.create_file ~file ~hint));
    file_exists = (fun ~file -> t op_other (fun () -> p.C.Policy.file_exists ~file));
    ensure = (fun ~file ~target -> t op_ensure (fun () -> p.C.Policy.ensure ~file ~target));
    shrink_to = (fun ~file ~target -> t op_shrink (fun () -> p.C.Policy.shrink_to ~file ~target));
    delete = (fun ~file -> t op_delete (fun () -> p.C.Policy.delete ~file));
    allocated_units = (fun ~file -> t op_other (fun () -> p.C.Policy.allocated_units ~file));
    extent_count = (fun ~file -> t op_other (fun () -> p.C.Policy.extent_count ~file));
    extents = (fun ~file -> t op_other (fun () -> p.C.Policy.extents ~file));
    slice = (fun ~file ~off ~len -> t op_slice (fun () -> p.C.Policy.slice ~file ~off ~len));
    free_units = (fun () -> t op_probe p.C.Policy.free_units);
    largest_free = (fun () -> t op_probe p.C.Policy.largest_free);
    free_hist = (fun () -> t op_probe p.C.Policy.free_hist);
    churn_stats = (fun () -> t op_other p.C.Policy.churn_stats);
  }

(* Spans: one per call the benchmark makes into a layer, kept in memory
   and written out when the run ends.  Disabled (and free) unless the
   run is traced. *)
type span = { id : int; name : string; parent : int; start_ns : int; mutable end_ns : int }

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let s = { id = !next_id; name; parent; start_ns = Clock.ns (); end_ns = 0 } in
    stack := s.id :: !stack;
    spans := s :: !spans;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Clock.ns ();
        stack := List.tl !stack)
      f
  end

let spans_json () =
  let open C.Obs.Json in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int !spans in
  Arr
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", Str s.name);
             ("parent", Int s.parent);
             ("start_us", Float (float_of_int (s.start_ns - origin) /. 1000.));
             ("end_us", Float (float_of_int (s.end_ns - origin) /. 1000.));
           ])
       !spans)
