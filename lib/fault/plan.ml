module Rng = Rofs_util.Rng
module Dist = Rofs_util.Dist

type action = Fail of int | Repair of int

type config = {
  seed : int;
  mttf_ms : float;
  mttr_ms : float;
  script : (float * action) list;
  media_error_rate : float;
  retry_fail_prob : float;
  max_retries : int;
  remap_penalty_ms : float;
  rebuild_chunk_bytes : int;
  rebuild_rate_bytes_per_ms : float;
}

let none =
  {
    seed = 0;
    mttf_ms = 0.;
    mttr_ms = 0.;
    script = [];
    media_error_rate = 0.;
    retry_fail_prob = 0.25;
    max_retries = 3;
    remap_penalty_ms = 20.;
    rebuild_chunk_bytes = 9 * 24 * 1024 (* one Wren IV cylinder *);
    rebuild_rate_bytes_per_ms = 0.;
  }

let drive_faults c = c.script <> [] || c.mttf_ms > 0.
let media_faults c = c.media_error_rate > 0.
let enabled c = drive_faults c || media_faults c

let validate c =
  let fail msg = invalid_arg ("Fault plan: " ^ msg) in
  (* every float must be finite; the range checks below reject NaN too *)
  let finite_nonneg v = Float.is_finite v && v >= 0. in
  if not (finite_nonneg c.mttf_ms) then
    fail "mttf_ms must be a finite number >= 0 (0 disables drive faults)";
  if not (Float.is_finite c.mttr_ms) || (c.mttf_ms > 0. && c.mttr_ms <= 0.) then
    fail "mttr_ms must be finite, and positive when mttf_ms is set";
  if not (c.media_error_rate >= 0. && c.media_error_rate <= 1.) then
    fail "media_error_rate must lie in [0, 1]";
  if not (c.retry_fail_prob >= 0. && c.retry_fail_prob <= 1.) then
    fail "retry_fail_prob must lie in [0, 1]";
  if c.max_retries < 0 then fail "max_retries must be >= 0";
  if not (finite_nonneg c.remap_penalty_ms) then fail "remap_penalty_ms must be a finite number >= 0";
  if c.rebuild_chunk_bytes <= 0 then fail "rebuild_chunk_bytes must be positive";
  if not (finite_nonneg c.rebuild_rate_bytes_per_ms) then
    fail "rebuild_rate_bytes_per_ms must be a finite number >= 0";
  List.iter
    (fun (at, _) ->
      if not (finite_nonneg at) then fail "scripted events must have finite non-negative times")
    c.script

let action_drive = function Fail d | Repair d -> d

(* Exponential plans hold, per drive, the time and kind of that drive's
   next event; consuming it draws the drive's following one, so failures
   and repairs alternate forever on each drive's own stream.  The
   cursor is one closure-free record behind one mutable slot: a
   snapshot marshals it whole, and a restore swaps it in. *)
type state = {
  mutable script : (float * action) list;  (** sorted, remaining *)
  rngs : Rng.t array;  (** one stream per drive (exponential plans) *)
  next : (float * action) array;  (** per-drive upcoming event *)
}

type t = { config : config; mutable st : state }

let create config ~drives =
  validate config;
  if drives <= 0 then invalid_arg "Fault plan: need at least one drive";
  List.iter
    (fun (_, a) ->
      let d = action_drive a in
      if d < 0 || d >= drives then
        invalid_arg (Printf.sprintf "Fault plan: scripted event names drive %d of %d" d drives))
    config.script;
  let scripted = config.script <> [] in
  let exponential = (not scripted) && config.mttf_ms > 0. in
  let rngs =
    if exponential then
      (* Mix the drive index through splitmix (via Rng.create) so
         per-drive streams are decorrelated even for adjacent seeds. *)
      Array.init drives (fun d -> Rng.create ~seed:(config.seed + (d * 0x9e3779b9)))
    else [||]
  in
  let next =
    if exponential then
      Array.init drives (fun d ->
          (Dist.exponential rngs.(d) ~mean:config.mttf_ms, Fail d))
    else [||]
  in
  {
    config;
    st =
      {
        script = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) config.script;
        rngs;
        next;
      };
  }

let pop t =
  let st = t.st in
  match st.script with
  | ev :: rest ->
      st.script <- rest;
      Some ev
  | [] ->
      if Array.length st.next = 0 then None
      else begin
        let best = ref 0 in
        Array.iteri (fun d (at, _) -> if at < fst st.next.(!best) then best := d) st.next;
        let d = !best in
        let (at, action) = st.next.(d) in
        (* Draw the drive's following event: a failure is followed by a
           repair after MTTR, a repair by the next failure after MTTF. *)
        let following =
          match action with
          | Fail _ -> (at +. Dist.exponential st.rngs.(d) ~mean:t.config.mttr_ms, Repair d)
          | Repair _ -> (at +. Dist.exponential st.rngs.(d) ~mean:t.config.mttf_ms, Fail d)
        in
        st.next.(d) <- following;
        Some (at, action)
      end

let ckpt_save t = Marshal.to_string t.st []
let ckpt_load t blob = t.st <- (Marshal.from_string blob 0 : state)
