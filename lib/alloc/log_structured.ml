module Bitset = Rofs_util.Bitset

type config = {
  unit_bytes : int;
  segment_bytes : int;
  clean_threshold : int;
  clean_target : int;
}

let config ?(unit_bytes = 1024) ?(segment_bytes = 1024 * 1024) ?(clean_threshold = 2)
    ?(clean_target = 8) () =
  { unit_bytes; segment_bytes; clean_threshold; clean_target }

type segment = {
  mutable live : int;  (** units belonging to live extents *)
  mutable dead : int;  (** units of freed (garbage) extents *)
  mutable filled : int;  (** units ever appended (live + dead); the bump pointer *)
  residents : (int, unit) Hashtbl.t;  (** files that may own live extents here *)
}

(* Both segment indices are bitsets, updated in place.  [clean] has one
   bit per clean segment: the lowest clean segment is its first set bit
   and the clean count its cardinal.  [dirty] ranks the segments that
   hold garbage: segment s with d dead units sets bit [d * nsegs + s],
   so the highest set bit names the segment with the most garbage, ties
   going to the highest index, which is the cleaner's victim order. *)
type space = {
  cfg : config;
  seg_units : int;
  segments : segment array;
  mutable head : int;  (** index of the active (log head) segment; -1 before first use *)
  clean : Bitset.t;  (** segments that are clean, by index *)
  dirty : Bitset.t;  (** segments with any garbage, keyed [dead * nsegs + index] *)
  mutable moved_units : int;  (** live units the cleaner relocated *)
  mutable cleaner_passes : int;  (** successful [clean_one] passes *)
}

let fresh_segment () = { live = 0; dead = 0; filled = 0; residents = Hashtbl.create 4 }

let reindex_dirty t s ~old_dead =
  let seg = t.segments.(s) and nsegs = Array.length t.segments in
  if old_dead > 0 then Bitset.clear t.dirty ((old_dead * nsegs) + s);
  if seg.dead > 0 then Bitset.set t.dirty ((seg.dead * nsegs) + s)

let segment_of t addr = addr / t.seg_units

let nclean t = Bitset.cardinal t.clean

let clean_space t = nclean t * t.seg_units

let head_space t =
  if t.head < 0 then 0 else t.seg_units - t.segments.(t.head).filled

let free_units t = clean_space t + head_space t

(* Reclaim a fully dead, non-head segment. *)
let maybe_reclaim t s =
  let seg = t.segments.(s) in
  if s <> t.head && seg.live = 0 && seg.filled > 0 then begin
    let old_dead = seg.dead in
    seg.dead <- 0;
    seg.filled <- 0;
    Hashtbl.reset seg.residents;
    reindex_dirty t s ~old_dead;
    Bitset.set t.clean s
  end

let retire_extent t () ~addr ~len =
  let s = segment_of t addr in
  let seg = t.segments.(s) in
  let old_dead = seg.dead in
  seg.live <- seg.live - len;
  seg.dead <- seg.dead + len;
  assert (seg.live >= 0);
  reindex_dirty t s ~old_dead;
  maybe_reclaim t s

(* Advance the log head to a clean segment; returns false when none is
   available. *)
let switch_head t =
  let s = Bitset.first_set_from t.clean 0 in
  if s < 0 then false
  else begin
    Bitset.clear t.clean s;
    let old = t.head in
    t.head <- s;
    if old >= 0 then begin
      (* The abandoned head's unfilled tail is unreachable by the
         bump pointer; account it as garbage so the cleaner can
         recover it and the space bookkeeping stays exact. *)
      let seg = t.segments.(old) in
      let old_dead = seg.dead in
      seg.dead <- seg.dead + (t.seg_units - seg.filled);
      seg.filled <- t.seg_units;
      reindex_dirty t old ~old_dead;
      maybe_reclaim t old
    end;
    true
  end

(* Append [len] units (len <= segment size) as one extent for [file]
   and return its address, or -1 when no segment can take it. *)
let append_whole t ~file len =
  assert (len > 0 && len <= t.seg_units);
  let ok = if head_space t < len then switch_head t else true in
  if not ok then -1
  else begin
    let seg = t.segments.(t.head) in
    let addr = (t.head * t.seg_units) + seg.filled in
    seg.filled <- seg.filled + len;
    seg.live <- seg.live + len;
    Hashtbl.replace seg.residents file ();
    addr
  end

(* The dirtiest segment keyed in [lo, hi) of [t.dirty] that is not the
   head and still holds live data, or -1.  A passed-over key stays set:
   the walk only steps down past it. *)
let rec victim t ~lo hi =
  let k = Bitset.last_set_in t.dirty ~lo ~hi in
  if k < 0 then -1
  else begin
    let s = k mod Array.length t.segments in
    if s <> t.head && t.segments.(s).live > 0 then s else victim t ~lo k
  end

(* Copy one dirty segment's live extents to the log head.  Returns false
   when no suitable candidate exists or space would not permit. *)
let clean_one t (files : (int, unit Policy.file) Hashtbl.t) =
  (* The victim is the dirtiest non-head segment; cleaning is only
     worthwhile when at least a quarter of it is garbage (reclaiming
     less copies almost a whole segment of live data for nothing, and
     near-full disks would otherwise thrash the cleaner). *)
  let quarter = (t.seg_units + 3) / 4 in
  let s = victim t ~lo:(quarter * Array.length t.segments) (Bitset.length t.dirty) in
  if s < 0 then false
  else begin
    let seg = t.segments.(s) in
    (* Two conditions gate a clean.  Safety: the victim's live data must
       fit the current head, or a whole clean segment must stand ready
       (a head switch may strand the old head's tail, but a fresh
       segment always holds a victim's worth of live data).  Progress:
       the garbage reclaimed must exceed the tail a head switch could
       strand — otherwise cleaning can cycle forever, manufacturing as
       much garbage as it collects. *)
    let safe = head_space t >= seg.live || nclean t > 0 in
    let progress = head_space t >= seg.live || seg.dead > head_space t in
    if not (safe && progress) then false
    else begin
      let lo = s * t.seg_units and hi = (s + 1) * t.seg_units in
      let movers = Hashtbl.fold (fun f () acc -> f :: acc) seg.residents [] in
      List.iter
        (fun f ->
          match Hashtbl.find_opt files f with
          | None -> ()
          | Some { Policy.fx; _ } ->
              for i = 0 to File_extents.count fx - 1 do
                let addr = File_extents.addr fx i in
                if addr >= lo && addr < hi then begin
                  let len = File_extents.len fx i in
                  let fresh = append_whole t ~file:f len in
                  (* free_units was checked above; appends of
                     segment-bounded extents cannot fail here *)
                  assert (fresh >= 0);
                  seg.live <- seg.live - len;
                  t.moved_units <- t.moved_units + len;
                  File_extents.set_addr fx i fresh
                end
              done)
        movers;
      assert (seg.live = 0);
      (* everything left behind is garbage *)
      let old_dead = seg.dead in
      seg.dead <- seg.filled;
      Hashtbl.reset seg.residents;
      reindex_dirty t s ~old_dead;
      maybe_reclaim t s;
      t.cleaner_passes <- t.cleaner_passes + 1;
      true
    end
  end

let maybe_clean (st : (unit, space) Policy.state) =
  let t = st.space in
  if nclean t <= t.cfg.clean_threshold then begin
    let continue_ = ref true in
    while !continue_ && nclean t < t.cfg.clean_target do
      continue_ := clean_one t st.files
    done
  end

(* Append the next extent for a file still short of [target] units: as
   much of the request as the head segment holds. *)
let rec take (st : (unit, space) Policy.state) ~file (f : unit Policy.file) ~target =
  let t = st.space in
  (* Keep the clean-segment reserve topped up as we consume it: once
     the log runs out of clean segments, cleaning itself has nowhere to
     copy survivors (the classic LFS deadlock). *)
  if nclean t <= t.cfg.clean_threshold then ignore (clean_one t st.files : bool);
  let remaining = target - File_extents.allocated_units f.fx in
  let room = if head_space t > 0 then head_space t else t.seg_units in
  let len = min remaining room in
  if free_units t < len then
    (* one more cleaning attempt before giving up *)
    clean_one t st.files && take st ~file f ~target
  else begin
    let addr = append_whole t ~file len in
    if addr < 0 then false
    else begin
      File_extents.push f.fx ~addr ~len;
      true
    end
  end

let free_hist t =
  (* Clean segments are seg-sized free extents; the head's unfilled
     tail is one more (possibly seg-sized when the head is empty). *)
  let clean = nclean t in
  let head = head_space t in
  if head = 0 then if clean = 0 then [] else [ (t.seg_units, clean) ]
  else if head = t.seg_units then [ (t.seg_units, clean + 1) ]
  else if clean = 0 then [ (head, 1) ]
  else [ (head, 1); (t.seg_units, clean) ]

let create cfg ~total_units =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Log_structured.create";
  if cfg.segment_bytes <= 0 || cfg.segment_bytes mod cfg.unit_bytes <> 0 then
    invalid_arg "Log_structured.create: segment size must be a multiple of the unit";
  if cfg.clean_threshold < 1 || cfg.clean_target <= cfg.clean_threshold then
    invalid_arg "Log_structured.create: need clean_target > clean_threshold >= 1";
  let seg_units = cfg.segment_bytes / cfg.unit_bytes in
  let nsegs = total_units / seg_units in
  if nsegs < 2 then invalid_arg "Log_structured.create: need at least two segments";
  let t =
    {
      cfg;
      seg_units;
      segments = Array.init nsegs (fun _ -> fresh_segment ());
      head = -1;
      clean = Bitset.create nsegs;
      dirty = Bitset.create ((seg_units + 1) * nsegs);
      moved_units = 0;
      cleaner_passes = 0;
    }
  in
  for s = 0 to nsegs - 1 do
    Bitset.set t.clean s
  done;
  ignore (switch_head t : bool);
  Policy.make
    ~name:(Printf.sprintf "log-structured(%s segments)" (Rofs_util.Units.to_string cfg.segment_bytes))
    ~unit_bytes:cfg.unit_bytes ~total_units:(nsegs * seg_units) ~prepare:maybe_clean
    ~moved:(fun t -> (t.moved_units, t.cleaner_passes))
    ~new_file:(fun _ ~hint:_ -> ())
    ~take ~give:retire_extent ~free_units
    ~largest_free:(fun t ->
      max (head_space t) (if nclean t = 0 then 0 else t.seg_units))
    ~free_hist t
