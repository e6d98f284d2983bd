module Rng = Rofs_util.Rng

exception Data_loss of { drive : int; offset : int; bytes : int }

type status = Healthy | Failed | Rebuilding of { mutable pos : int }

type counters = {
  media_errors : int;
  retries : int;
  remaps : int;
  remap_hits : int;
  reconstructed_reads : int;
  degraded_writes : int;
}

type t = {
  config : Plan.config;
  statuses : status array;
  mutable impaired : int;  (** drives not [Healthy] *)
  media_rng : Rng.t;
  remapped : int array array;  (** per drive: remapped sector indexes, ascending *)
  dirty : (int * int) list array;  (** per drive: (offset, bytes) missed by degraded writes *)
  mutable dirty_total : int;
  mutable media_errors : int;
  mutable retries : int;
  mutable remaps : int;
  mutable remap_hits : int;
  mutable reconstructed_reads : int;
  mutable degraded_writes : int;
}

let create config ~drives =
  Plan.validate config;
  if drives <= 0 then invalid_arg "Fault state: need at least one drive";
  {
    config;
    statuses = Array.make drives Healthy;
    impaired = 0;
    media_rng = Rng.create ~seed:(config.Plan.seed lxor 0x6d656469 (* "medi" *));
    remapped = Array.make drives [||];
    dirty = Array.make drives [];
    dirty_total = 0;
    media_errors = 0;
    retries = 0;
    remaps = 0;
    remap_hits = 0;
    reconstructed_reads = 0;
    degraded_writes = 0;
  }

let config t = t.config
let impaired t = t.impaired

let check_drive t d =
  if d < 0 || d >= Array.length t.statuses then
    invalid_arg (Printf.sprintf "Fault state: drive %d of %d" d (Array.length t.statuses))

let status t ~drive =
  check_drive t drive;
  t.statuses.(drive)

let readable t ~drive ~offset ~bytes =
  t.impaired = 0
  ||
  match t.statuses.(drive) with
  | Healthy -> true
  | Failed -> false
  | Rebuilding r -> offset + bytes <= r.pos

let writable t ~drive = t.impaired = 0 || t.statuses.(drive) <> Failed

let set_status t ~drive s =
  let was = t.statuses.(drive) in
  t.statuses.(drive) <- s;
  let weight = function Healthy -> 0 | Failed | Rebuilding _ -> 1 in
  t.impaired <- t.impaired - weight was + weight s

let fail t ~drive =
  check_drive t drive;
  set_status t ~drive Failed

let repair t ~drive ~rebuild =
  check_drive t drive;
  match t.statuses.(drive) with
  | Healthy | Rebuilding _ -> ()
  | Failed ->
      if rebuild then begin
        (* The sweep rewrites the whole drive, dirty regions included. *)
        t.dirty_total <-
          t.dirty_total - List.fold_left (fun acc (_, b) -> acc + b) 0 t.dirty.(drive);
        t.dirty.(drive) <- [];
        set_status t ~drive (Rebuilding { pos = 0 })
      end
      else set_status t ~drive Healthy

let rebuild_pos t ~drive =
  check_drive t drive;
  match t.statuses.(drive) with Rebuilding r -> Some r.pos | Healthy | Failed -> None

let rebuild_advance t ~drive ~bytes =
  check_drive t drive;
  match t.statuses.(drive) with
  | Rebuilding r -> r.pos <- r.pos + bytes
  | Healthy | Failed -> invalid_arg "Fault state: rebuild_advance on a drive not rebuilding"

let finish_rebuild t ~drive =
  check_drive t drive;
  match t.statuses.(drive) with
  | Rebuilding _ -> set_status t ~drive Healthy
  | Healthy | Failed -> ()

let log_dirty t ~drive ~offset ~bytes =
  check_drive t drive;
  if bytes > 0 then begin
    t.dirty.(drive) <- (offset, bytes) :: t.dirty.(drive);
    t.dirty_total <- t.dirty_total + bytes
  end

let dirty_bytes t = t.dirty_total

(* First index of ascending [a] whose value is >= [x] (or the length):
   a binary search over [lo, hi). *)
let rec lower_bound (a : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < x then lower_bound a x (mid + 1) hi else lower_bound a x lo mid

(* Remap one sector of [lo, hi], drawn uniformly.  The remap table is
   tiny (one entry per hard error), so inserting by copy is cheap. *)
let remap t ~drive ~lo ~hi =
  let victim = lo + Rng.int t.media_rng (hi - lo + 1) in
  let table = t.remapped.(drive) in
  let n = Array.length table in
  let i = lower_bound table victim 0 n in
  if i = n || table.(i) <> victim then begin
    let grown = Array.make (n + 1) victim in
    Array.blit table 0 grown 0 i;
    Array.blit table i grown (i + 1) (n - i);
    t.remapped.(drive) <- grown
  end;
  t.remaps <- t.remaps + 1

(* Bounded retries, one platter revolution each, from attempt [k]; when
   they are exhausted the failing sector is remapped to the spare
   region and the request finally completes from there.  Returns the
   number of attempts made. *)
let rec retry t c ~drive ~lo ~hi k =
  t.retries <- t.retries + 1;
  if Rng.float t.media_rng < c.Plan.retry_fail_prob then begin
    if k >= c.Plan.max_retries then begin
      remap t ~drive ~lo ~hi;
      k
    end
    else retry t c ~drive ~lo ~hi (k + 1)
  end
  else k

let media_extra_ms t ~drive ~rotation_ms ~sector_bytes ~offset ~bytes =
  let c = t.config in
  if c.Plan.media_error_rate <= 0. || bytes <= 0 then 0.
  else begin
    let lo = offset / sector_bytes and hi = (offset + bytes - 1) / sector_bytes in
    (* Relocation penalty for every already-remapped sector the request
       touches: the sorted table's entries in [lo, hi]. *)
    let table = t.remapped.(drive) in
    let n = Array.length table in
    let hits = lower_bound table (hi + 1) 0 n - lower_bound table lo 0 n in
    t.remap_hits <- t.remap_hits + hits;
    let extra = ref (float_of_int hits *. c.Plan.remap_penalty_ms) in
    if Rng.float t.media_rng < c.Plan.media_error_rate then begin
      t.media_errors <- t.media_errors + 1;
      if c.Plan.max_retries = 0 then begin
        (* No retry budget: straight to remap. *)
        remap t ~drive ~lo ~hi;
        extra := !extra +. c.Plan.remap_penalty_ms
      end
      else begin
        let remaps = t.remaps in
        (* Charge each revolution, then the relocation, in the order
           the attempts made them. *)
        for _ = 1 to retry t c ~drive ~lo ~hi 1 do
          extra := !extra +. rotation_ms
        done;
        if t.remaps > remaps then extra := !extra +. c.Plan.remap_penalty_ms
      end
    end;
    !extra
  end

let note_reconstructed_read t = t.reconstructed_reads <- t.reconstructed_reads + 1
let note_degraded_write t = t.degraded_writes <- t.degraded_writes + 1

let counters t =
  {
    media_errors = t.media_errors;
    retries = t.retries;
    remaps = t.remaps;
    remap_hits = t.remap_hits;
    reconstructed_reads = t.reconstructed_reads;
    degraded_writes = t.degraded_writes;
  }

let pp_status ppf = function
  | Healthy -> Format.pp_print_string ppf "healthy"
  | Failed -> Format.pp_print_string ppf "failed"
  | Rebuilding r -> Format.fprintf ppf "rebuilding@%d" r.pos
