type write_mode = Write_through | Write_back

let write_mode_name = function Write_through -> "through" | Write_back -> "back"

type config = {
  pages : int;
  page_bytes : int;
  policy : Policy.t;
  write_mode : write_mode;
  flush_interval_ms : float;
  prefetch_pages : int;
  prefetch_factor : int;
}

let default_page_bytes = 8 * 1024

let config ?(page_bytes = default_page_bytes) ?(policy = Policy.Lru)
    ?(write_mode = Write_through) ?(flush_interval_ms = 1_000.) ?(prefetch_pages = 8)
    ?(prefetch_factor = 4) ~mb () =
  {
    pages = (if page_bytes > 0 then mb * 1024 * 1024 / page_bytes else 0);
    page_bytes;
    policy;
    write_mode;
    flush_interval_ms;
    prefetch_pages;
    prefetch_factor;
  }

let validate c =
  let fail msg = invalid_arg ("Cache.config: " ^ msg) in
  if c.page_bytes <= 0 then fail "page_bytes must be positive";
  if c.pages <= 0 then fail "capacity must be at least one page";
  if c.flush_interval_ms <= 0. then fail "flush_interval_ms must be positive";
  if c.prefetch_pages < 0 then fail "prefetch_pages must be >= 0";
  if c.prefetch_factor < 1 then fail "prefetch_factor must be >= 1"

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  hit_bytes : int;
  insertions : int;
  evictions : int;
  dirty_evictions : int;
  flushes : int;
  writeback_bytes : int;
  prefetched_pages : int;
  invalidations : int;
}

(* Everything the cache checkpoints apart from its replacement policy,
   in one closure-free record behind one mutable slot: a snapshot
   marshals it beside the policy's own save, and a restore swaps it
   in. *)
type state = {
  frame_file : int array;  (** -1 = frame free *)
  frame_page : int array;
  frame_dirty : bool array;
  index : (int * int, int) Hashtbl.t;  (** (file, page) -> frame *)
  resident : (int, int) Hashtbl.t;  (** file -> resident page count *)
  seq_next : (int, int) Hashtbl.t;  (** file -> page a sequential scan reads next *)
  mutable unused : int;  (** frames [unused, pages) were never filled *)
  mutable free : int list;  (** frames freed by invalidation *)
  mutable dirty : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_hit_bytes : int;
  mutable s_insertions : int;
  mutable s_evictions : int;
  mutable s_dirty_evictions : int;
  mutable s_flushes : int;
  mutable s_writeback_bytes : int;
  mutable s_prefetched : int;
  mutable s_invalidations : int;
  type_hits : int array;
  type_misses : int array;
}

type t = { cfg : config; repl : Replacement.t; mutable st : state }

let create ?(ntypes = 0) cfg =
  validate cfg;
  {
    cfg;
    repl = Replacement.make cfg.policy ~capacity:cfg.pages;
    st =
      {
        frame_file = Array.make cfg.pages (-1);
        frame_page = Array.make cfg.pages (-1);
        frame_dirty = Array.make cfg.pages false;
        index = Hashtbl.create (min cfg.pages 4096);
        resident = Hashtbl.create 64;
        seq_next = Hashtbl.create 64;
        unused = 0;
        free = [];
        dirty = 0;
        s_hits = 0;
        s_misses = 0;
        s_hit_bytes = 0;
        s_insertions = 0;
        s_evictions = 0;
        s_dirty_evictions = 0;
        s_flushes = 0;
        s_writeback_bytes = 0;
        s_prefetched = 0;
        s_invalidations = 0;
        type_hits = Array.make (max ntypes 0) 0;
        type_misses = Array.make (max ntypes 0) 0;
      };
  }

let write_back t = t.cfg.write_mode = Write_back
let flush_interval_ms t = t.cfg.flush_interval_ms

type run = { r_file : int; r_off : int; r_len : int }

type outcome = {
  o_fetch : (int * int) option;
  o_writebacks : run list;
  o_hit_bytes : int;
  o_page_hits : int;
  o_page_misses : int;
  o_prefetched : int;
  o_evictions : int;
}

let incr_resident t file =
  Hashtbl.replace t.st.resident file
    (match Hashtbl.find_opt t.st.resident file with Some n -> n + 1 | None -> 1)

let decr_resident t file =
  match Hashtbl.find_opt t.st.resident file with
  | Some n when n > 1 -> Hashtbl.replace t.st.resident file (n - 1)
  | Some _ -> Hashtbl.remove t.st.resident file
  | None -> ()

(* Coalesce (file, page) pairs into maximal page-aligned runs.  The
   sort makes the result a function of the set alone, not of eviction
   or slot-scan order. *)
let coalesce t pairs =
  let pb = t.cfg.page_bytes in
  match List.sort compare pairs with
  | [] -> []
  | (f0, p0) :: rest ->
      let runs = ref [] in
      let file = ref f0 and first = ref p0 and last = ref p0 in
      let emit () =
        let len = (!last - !first + 1) * pb in
        runs := { r_file = !file; r_off = !first * pb; r_len = len } :: !runs;
        t.st.s_writeback_bytes <- t.st.s_writeback_bytes + len
      in
      List.iter
        (fun (f, p) ->
          if f = !file && p = !last + 1 then last := p
          else begin
            emit ();
            file := f;
            first := p;
            last := p
          end)
        rest;
      emit ();
      List.rev !runs

(* Claim a frame: a never-used one, an invalidated one, or the
   policy's victim (whose dirty page joins [evicted]). *)
let take_frame t evicted =
  match t.st.free with
  | f :: rest ->
      t.st.free <- rest;
      f
  | [] ->
      if t.st.unused < t.cfg.pages then begin
        let f = t.st.unused in
        t.st.unused <- f + 1;
        f
      end
      else begin
        let f = Replacement.victim t.repl in
        let file = t.st.frame_file.(f) and page = t.st.frame_page.(f) in
        Hashtbl.remove t.st.index (file, page);
        decr_resident t file;
        t.st.s_evictions <- t.st.s_evictions + 1;
        if t.st.frame_dirty.(f) then begin
          t.st.frame_dirty.(f) <- false;
          t.st.dirty <- t.st.dirty - 1;
          t.st.s_dirty_evictions <- t.st.s_dirty_evictions + 1;
          evicted := (file, page) :: !evicted
        end;
        f
      end

let insert_page t ~file ~page ~dirty evicted =
  let f = take_frame t evicted in
  t.st.frame_file.(f) <- file;
  t.st.frame_page.(f) <- page;
  t.st.frame_dirty.(f) <- dirty;
  if dirty then t.st.dirty <- t.st.dirty + 1;
  Hashtbl.replace t.st.index (file, page) f;
  incr_resident t file;
  Replacement.on_insert t.repl f;
  t.st.s_insertions <- t.st.s_insertions + 1

let count_access t ~type_idx ~hits ~misses =
  t.st.s_hits <- t.st.s_hits + hits;
  t.st.s_misses <- t.st.s_misses + misses;
  if type_idx >= 0 && type_idx < Array.length t.st.type_hits then begin
    t.st.type_hits.(type_idx) <- t.st.type_hits.(type_idx) + hits;
    t.st.type_misses.(type_idx) <- t.st.type_misses.(type_idx) + misses
  end

let read t ~type_idx ~file ~off ~len ~logical =
  let pb = t.cfg.page_bytes in
  let p0 = off / pb and p1 = (off + len - 1) / pb in
  (* An access that resumes where the file's last one stopped is a
     sequential scan: stage the prefetch window beyond it (never past
     end of file).  The recorded position is the page holding the next
     unread byte — a burst ending mid-page resumes in that same page. *)
  let seq =
    match Hashtbl.find_opt t.st.seq_next file with Some next -> next = p0 | None -> false
  in
  Hashtbl.replace t.st.seq_next file ((off + len) / pb);
  let last_page = (logical - 1) / pb in
  let hit_bytes = ref 0 and page_hits = ref 0 and page_misses = ref 0 in
  let prefetched = ref 0 in
  let fetch_lo = ref (-1) and fetch_hi = ref (-1) in
  for p = p0 to p1 do
    match Hashtbl.find_opt t.st.index (file, p) with
    | Some f ->
        Replacement.on_hit t.repl f;
        incr page_hits;
        let lo = max off (p * pb) and hi = min (off + len) ((p + 1) * pb) in
        hit_bytes := !hit_bytes + (hi - lo)
    | None ->
        incr page_misses;
        if !fetch_lo < 0 then fetch_lo := p;
        fetch_hi := p
  done;
  (* Prefetch refills the window only when the access itself missed —
     hysteresis that mirrors the read-ahead staging this replaces: one
     big fetch stages [prefetch_factor] accesses' worth of pages
     (never less than the [prefetch_pages] floor, never past end of
     file), then the following accesses ride the window for free
     instead of each topping it up with a small I/O. *)
  if seq && t.cfg.prefetch_pages > 0 && !page_misses > 0 then begin
    let ahead = max t.cfg.prefetch_pages ((t.cfg.prefetch_factor - 1) * (p1 - p0 + 1)) in
    let want_hi = min last_page (p1 + ahead) in
    for p = p1 + 1 to want_hi do
      if not (Hashtbl.mem t.st.index (file, p)) then begin
        incr prefetched;
        fetch_hi := p
      end
    done
  end;
  let evicted = ref [] in
  let evictions_before = t.st.s_evictions in
  if !fetch_lo >= 0 then
    for p = !fetch_lo to !fetch_hi do
      if not (Hashtbl.mem t.st.index (file, p)) then insert_page t ~file ~page:p ~dirty:false evicted
    done;
  count_access t ~type_idx ~hits:!page_hits ~misses:!page_misses;
  t.st.s_hit_bytes <- t.st.s_hit_bytes + !hit_bytes;
  t.st.s_prefetched <- t.st.s_prefetched + !prefetched;
  {
    o_fetch =
      (match !fetch_lo with
      | -1 -> None
      | lo ->
          let foff = lo * pb in
          Some (foff, min ((!fetch_hi + 1) * pb) logical - foff));
    o_writebacks = coalesce t !evicted;
    o_hit_bytes = !hit_bytes;
    o_page_hits = !page_hits;
    o_page_misses = !page_misses;
    o_prefetched = !prefetched;
    o_evictions = t.st.s_evictions - evictions_before;
  }

let write t ~type_idx ~file ~off ~len =
  let pb = t.cfg.page_bytes in
  let p0 = off / pb and p1 = (off + len - 1) / pb in
  let dirty = t.cfg.write_mode = Write_back in
  let page_hits = ref 0 and page_misses = ref 0 in
  let evicted = ref [] in
  let evictions_before = t.st.s_evictions in
  for p = p0 to p1 do
    match Hashtbl.find_opt t.st.index (file, p) with
    | Some f ->
        Replacement.on_hit t.repl f;
        incr page_hits;
        if dirty && not t.st.frame_dirty.(f) then begin
          t.st.frame_dirty.(f) <- true;
          t.st.dirty <- t.st.dirty + 1
        end
    | None ->
        incr page_misses;
        insert_page t ~file ~page:p ~dirty evicted
  done;
  (* Writes advance the scan position too, so an alternating
     sequential read/write stream keeps its prefetch. *)
  Hashtbl.replace t.st.seq_next file ((off + len) / pb);
  count_access t ~type_idx ~hits:!page_hits ~misses:!page_misses;
  {
    o_fetch = None;
    o_writebacks = coalesce t !evicted;
    o_hit_bytes = 0;
    o_page_hits = !page_hits;
    o_page_misses = !page_misses;
    o_prefetched = 0;
    o_evictions = t.st.s_evictions - evictions_before;
  }

let flush t =
  if t.st.dirty = 0 then []
  else begin
    let pairs = ref [] in
    for f = 0 to t.st.unused - 1 do
      if t.st.frame_file.(f) >= 0 && t.st.frame_dirty.(f) then begin
        t.st.frame_dirty.(f) <- false;
        pairs := (t.st.frame_file.(f), t.st.frame_page.(f)) :: !pairs
      end
    done;
    t.st.dirty <- 0;
    t.st.s_flushes <- t.st.s_flushes + 1;
    coalesce t !pairs
  end

let drop_frame t f =
  let file = t.st.frame_file.(f) and page = t.st.frame_page.(f) in
  Hashtbl.remove t.st.index (file, page);
  decr_resident t file;
  if t.st.frame_dirty.(f) then begin
    t.st.frame_dirty.(f) <- false;
    t.st.dirty <- t.st.dirty - 1
  end;
  t.st.frame_file.(f) <- -1;
  t.st.frame_page.(f) <- -1;
  Replacement.on_remove t.repl f;
  t.st.free <- f :: t.st.free;
  t.st.s_invalidations <- t.st.s_invalidations + 1

let invalidate_file t ~file =
  Hashtbl.remove t.st.seq_next file;
  if Hashtbl.mem t.st.resident file then
    for f = 0 to t.st.unused - 1 do
      if t.st.frame_file.(f) = file then drop_frame t f
    done

let truncate_file t ~file ~logical =
  let pb = t.cfg.page_bytes in
  if Hashtbl.mem t.st.resident file then
    for f = 0 to t.st.unused - 1 do
      if t.st.frame_file.(f) = file && t.st.frame_page.(f) * pb >= logical then drop_frame t f
    done;
  match Hashtbl.find_opt t.st.seq_next file with
  | Some next when next * pb > logical -> Hashtbl.remove t.st.seq_next file
  | _ -> ()

(* Checkpoint: the replacement policy snapshots itself; the rest is
   [st], marshalled whole.  No result path iterates a hash table
   (coalesce sorts; flush scans frames), and [free] is a LIFO list
   whose order IS the frame-claim order. *)
let ckpt_save t = Marshal.to_string (Replacement.save t.repl, t.st) []

let ckpt_load t blob =
  let repl, st = (Marshal.from_string blob 0 : string * state) in
  Replacement.load t.repl repl;
  t.st <- st

let stats t =
  {
    lookups = t.st.s_hits + t.st.s_misses;
    hits = t.st.s_hits;
    misses = t.st.s_misses;
    hit_bytes = t.st.s_hit_bytes;
    insertions = t.st.s_insertions;
    evictions = t.st.s_evictions;
    dirty_evictions = t.st.s_dirty_evictions;
    flushes = t.st.s_flushes;
    writeback_bytes = t.st.s_writeback_bytes;
    prefetched_pages = t.st.s_prefetched;
    invalidations = t.st.s_invalidations;
  }

let dirty_pages t = t.st.dirty
let resident_pages t = Hashtbl.length t.st.index

let per_type t =
  Array.init (Array.length t.st.type_hits) (fun i -> (t.st.type_hits.(i), t.st.type_misses.(i)))
