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

(* A cache key packs (file, page) into one int, the file in the high
   bits, so packed order is (file, page) order and a sort of keys is a
   sort of pages. *)
let page_bits = 31
let max_page = (1 lsl page_bits) - 1
let max_file = max_int lsr page_bits
let key file page = (file lsl page_bits) lor page
let key_file k = k lsr page_bits
let key_page k = k land max_page

(* Files are keyed by their id through a table specialised to [int], so
   a lookup neither boxes an option nor calls polymorphic compare. *)
module Int_tbl = Hashtbl.Make (Int)

(* Everything the cache checkpoints apart from its replacement policy,
   in one closure-free record behind one mutable slot: a snapshot
   marshals it beside the policy's own save, and a restore swaps it
   in.  The page index is intrusive: [heads] maps a hash bucket to the
   first frame whose page hashes there, and [chain] links each frame
   to the next one in its bucket, with -1 ending both.  A lookup
   compares [frame_file] / [frame_page] along one short chain and
   allocates nothing, like [Replacement.Lru]'s list. *)
type state = {
  frame_file : int array;  (** -1 = frame free *)
  frame_page : int array;
  frame_dirty : bool array;
  heads : int array;  (** bucket -> first frame of its chain; a power-of-two count *)
  chain : int array;  (** frame -> next frame in its bucket *)
  shift : int;  (** a key's bucket is the top [63 - shift] bits of its hash *)
  resident : int Int_tbl.t;  (** file -> resident page count *)
  seq_next : int Int_tbl.t;  (** file -> page a sequential scan reads next *)
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

(* [keys.(0 .. nkeys - 1)] collects the dirty pages one operation
   evicts, or one flush cleans, for [coalesce]; it is empty between
   operations, so it is scratch and no part of a snapshot. *)
type t = {
  cfg : config;
  repl : Replacement.t;
  mutable st : state;
  mutable keys : int array;
  mutable nkeys : int;
}

let create ?(ntypes = 0) cfg =
  validate cfg;
  (* At least as many buckets as frames, so a chain holds one frame on
     average. *)
  let bits =
    let rec go b = if 1 lsl b >= cfg.pages then b else go (b + 1) in
    go 1
  in
  {
    cfg;
    repl = Replacement.make cfg.policy ~capacity:cfg.pages;
    st =
      {
        frame_file = Array.make cfg.pages (-1);
        frame_page = Array.make cfg.pages (-1);
        frame_dirty = Array.make cfg.pages false;
        heads = Array.make (1 lsl bits) (-1);
        chain = Array.make cfg.pages (-1);
        shift = 63 - bits;
        resident = Int_tbl.create 64;
        seq_next = Int_tbl.create 64;
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
    keys = [||];
    nkeys = 0;
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
  match Int_tbl.find t.st.resident file with
  | n -> Int_tbl.replace t.st.resident file (n + 1)
  | exception Not_found -> Int_tbl.replace t.st.resident file 1

let decr_resident t file =
  match Int_tbl.find t.st.resident file with
  | n ->
      if n > 1 then Int_tbl.replace t.st.resident file (n - 1)
      else Int_tbl.remove t.st.resident file
  | exception Not_found -> ()

let check_pages ~file ~lo ~hi =
  if file < 0 || file > max_file || lo < 0 || hi > max_page then
    invalid_arg
      (Printf.sprintf "Cache: file %d, pages %d-%d outside the packable range [0, %d]" file lo hi
         max_file)

(* Multiplicative hashing: the top bits of [key * odd constant] depend
   on every bit of the key. *)
let bucket st k = (k * 0x2545F4914F6CDD1D) lsr st.shift

let rec walk st file page f =
  if f < 0 || (st.frame_page.(f) = page && st.frame_file.(f) = file) then f
  else walk st file page st.chain.(f)

(* The frame holding (file, page), or -1. *)
let find st file page = walk st file page st.heads.(bucket st (key file page))

let link st f =
  let b = bucket st (key st.frame_file.(f) st.frame_page.(f)) in
  st.chain.(f) <- st.heads.(b);
  st.heads.(b) <- f

let rec unlink_after st f p =
  let n = st.chain.(p) in
  if n = f then st.chain.(p) <- st.chain.(f) else unlink_after st f n

let unlink st f =
  let b = bucket st (key st.frame_file.(f) st.frame_page.(f)) in
  if st.heads.(b) = f then st.heads.(b) <- st.chain.(f) else unlink_after st f st.heads.(b);
  st.chain.(f) <- -1

let push_key t k =
  if t.nkeys = Array.length t.keys then begin
    let grown = Array.make (max 16 (2 * t.nkeys)) 0 in
    Array.blit t.keys 0 grown 0 t.nkeys;
    t.keys <- grown
  end;
  t.keys.(t.nkeys) <- k;
  t.nkeys <- t.nkeys + 1

(* In-place heapsort of [keys.(0 .. n - 1)], ascending. *)
let rec sift (keys : int array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && keys.(l + 1) > keys.(l) then l + 1 else l in
    let x = keys.(i) in
    if keys.(c) > x then begin
      keys.(i) <- keys.(c);
      keys.(c) <- x;
      sift keys n c
    end
  end

let sort_keys keys n =
  for i = (n / 2) - 1 downto 0 do
    sift keys n i
  done;
  for last = n - 1 downto 1 do
    let x = keys.(0) in
    keys.(0) <- keys.(last);
    keys.(last) <- x;
    sift keys last 0
  done

(* Coalesce the collected keys into maximal page-aligned runs and empty
   the buffer.  The sort makes the result a function of the set alone,
   not of eviction or frame-scan order; runs are built from the highest
   key down, so the list comes out ascending. *)
let coalesce t =
  let n = t.nkeys and keys = t.keys and pb = t.cfg.page_bytes in
  t.nkeys <- 0;
  sort_keys keys n;
  let runs = ref [] and i = ref (n - 1) in
  while !i >= 0 do
    let last = keys.(!i) in
    let first = ref last in
    decr i;
    while !i >= 0 && keys.(!i) = !first - 1 && key_file keys.(!i) = key_file last do
      first := keys.(!i);
      decr i
    done;
    let len = (last - !first + 1) * pb in
    runs := { r_file = key_file last; r_off = key_page !first * pb; r_len = len } :: !runs;
    t.st.s_writeback_bytes <- t.st.s_writeback_bytes + len
  done;
  !runs

(* Claim a frame: a never-used one, an invalidated one, or the
   policy's victim (whose dirty page joins the key buffer). *)
let take_frame t =
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
        let st = t.st in
        let f = Replacement.victim t.repl in
        unlink st f;
        decr_resident t st.frame_file.(f);
        st.s_evictions <- st.s_evictions + 1;
        if st.frame_dirty.(f) then begin
          st.frame_dirty.(f) <- false;
          st.dirty <- st.dirty - 1;
          st.s_dirty_evictions <- st.s_dirty_evictions + 1;
          push_key t (key st.frame_file.(f) st.frame_page.(f))
        end;
        f
      end

let insert_page t ~file ~page ~dirty =
  let f = take_frame t in
  let st = t.st in
  st.frame_file.(f) <- file;
  st.frame_page.(f) <- page;
  st.frame_dirty.(f) <- dirty;
  if dirty then st.dirty <- st.dirty + 1;
  link st f;
  incr_resident t file;
  Replacement.on_insert t.repl f;
  st.s_insertions <- st.s_insertions + 1

let count_access t ~type_idx ~hits ~misses =
  t.st.s_hits <- t.st.s_hits + hits;
  t.st.s_misses <- t.st.s_misses + misses;
  if type_idx >= 0 && type_idx < Array.length t.st.type_hits then begin
    t.st.type_hits.(type_idx) <- t.st.type_hits.(type_idx) + hits;
    t.st.type_misses.(type_idx) <- t.st.type_misses.(type_idx) + misses
  end

let read t ~type_idx ~file ~off ~len ~logical =
  let st = t.st and pb = t.cfg.page_bytes in
  let p0 = off / pb and p1 = (off + len - 1) / pb in
  (* An access that resumes where the file's last one stopped is a
     sequential scan: stage the prefetch window beyond it (never past
     end of file).  The recorded position is the page holding the next
     unread byte — a burst ending mid-page resumes in that same page. *)
  let seq =
    match Int_tbl.find st.seq_next file with next -> next = p0 | exception Not_found -> false
  in
  let want_hi =
    if seq && t.cfg.prefetch_pages > 0 then
      min ((logical - 1) / pb)
        (p1 + max t.cfg.prefetch_pages ((t.cfg.prefetch_factor - 1) * (p1 - p0 + 1)))
    else p1
  in
  check_pages ~file ~lo:p0 ~hi:(max p1 want_hi);
  Int_tbl.replace st.seq_next file ((off + len) / pb);
  let hit_bytes = ref 0 and page_hits = ref 0 and page_misses = ref 0 in
  let prefetched = ref 0 in
  let fetch_lo = ref (-1) and fetch_hi = ref (-1) in
  for p = p0 to p1 do
    let f = find st file p in
    if f >= 0 then begin
      Replacement.on_hit t.repl f;
      incr page_hits;
      let lo = max off (p * pb) and hi = min (off + len) ((p + 1) * pb) in
      hit_bytes := !hit_bytes + (hi - lo)
    end
    else begin
      incr page_misses;
      if !fetch_lo < 0 then fetch_lo := p;
      fetch_hi := p
    end
  done;
  (* Prefetch refills the window only when the access itself missed —
     hysteresis that mirrors the read-ahead staging this replaces: one
     big fetch stages [prefetch_factor] accesses' worth of pages
     (never less than the [prefetch_pages] floor, never past end of
     file), then the following accesses ride the window for free
     instead of each topping it up with a small I/O. *)
  if !page_misses > 0 then
    for p = p1 + 1 to want_hi do
      if find st file p < 0 then begin
        incr prefetched;
        fetch_hi := p
      end
    done;
  let evictions_before = st.s_evictions in
  if !fetch_lo >= 0 then
    for p = !fetch_lo to !fetch_hi do
      if find st file p < 0 then insert_page t ~file ~page:p ~dirty:false
    done;
  count_access t ~type_idx ~hits:!page_hits ~misses:!page_misses;
  st.s_hit_bytes <- st.s_hit_bytes + !hit_bytes;
  st.s_prefetched <- st.s_prefetched + !prefetched;
  {
    o_fetch =
      (match !fetch_lo with
      | -1 -> None
      | lo ->
          let foff = lo * pb in
          Some (foff, min ((!fetch_hi + 1) * pb) logical - foff));
    o_writebacks = coalesce t;
    o_hit_bytes = !hit_bytes;
    o_page_hits = !page_hits;
    o_page_misses = !page_misses;
    o_prefetched = !prefetched;
    o_evictions = st.s_evictions - evictions_before;
  }

let write t ~type_idx ~file ~off ~len =
  let st = t.st and pb = t.cfg.page_bytes in
  let p0 = off / pb and p1 = (off + len - 1) / pb in
  check_pages ~file ~lo:p0 ~hi:p1;
  let dirty = t.cfg.write_mode = Write_back in
  let page_hits = ref 0 and page_misses = ref 0 in
  let evictions_before = st.s_evictions in
  for p = p0 to p1 do
    let f = find st file p in
    if f >= 0 then begin
      Replacement.on_hit t.repl f;
      incr page_hits;
      if dirty && not st.frame_dirty.(f) then begin
        st.frame_dirty.(f) <- true;
        st.dirty <- st.dirty + 1
      end
    end
    else begin
      incr page_misses;
      insert_page t ~file ~page:p ~dirty
    end
  done;
  (* Writes advance the scan position too, so an alternating
     sequential read/write stream keeps its prefetch. *)
  Int_tbl.replace st.seq_next file ((off + len) / pb);
  count_access t ~type_idx ~hits:!page_hits ~misses:!page_misses;
  {
    o_fetch = None;
    o_writebacks = coalesce t;
    o_hit_bytes = 0;
    o_page_hits = !page_hits;
    o_page_misses = !page_misses;
    o_prefetched = 0;
    o_evictions = st.s_evictions - evictions_before;
  }

let flush t =
  let st = t.st in
  if st.dirty = 0 then []
  else begin
    for f = 0 to st.unused - 1 do
      if st.frame_file.(f) >= 0 && st.frame_dirty.(f) then begin
        st.frame_dirty.(f) <- false;
        push_key t (key st.frame_file.(f) st.frame_page.(f))
      end
    done;
    st.dirty <- 0;
    st.s_flushes <- st.s_flushes + 1;
    coalesce t
  end

let drop_frame t f =
  let st = t.st in
  unlink st f;
  decr_resident t st.frame_file.(f);
  if st.frame_dirty.(f) then begin
    st.frame_dirty.(f) <- false;
    st.dirty <- st.dirty - 1
  end;
  st.frame_file.(f) <- -1;
  st.frame_page.(f) <- -1;
  Replacement.on_remove t.repl f;
  st.free <- f :: st.free;
  st.s_invalidations <- st.s_invalidations + 1

let invalidate_file t ~file =
  Int_tbl.remove t.st.seq_next file;
  if Int_tbl.mem t.st.resident file then
    for f = 0 to t.st.unused - 1 do
      if t.st.frame_file.(f) = file then drop_frame t f
    done

let truncate_file t ~file ~logical =
  let pb = t.cfg.page_bytes in
  if Int_tbl.mem t.st.resident file then
    for f = 0 to t.st.unused - 1 do
      if t.st.frame_file.(f) = file && t.st.frame_page.(f) * pb >= logical then drop_frame t f
    done;
  match Int_tbl.find t.st.seq_next file with
  | next -> if next * pb > logical then Int_tbl.remove t.st.seq_next file
  | exception Not_found -> ()

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
let resident_pages t = t.st.unused - List.length t.st.free

let per_type t =
  Array.init (Array.length t.st.type_hits) (fun i -> (t.st.type_hits.(i), t.st.type_misses.(i)))
