type pattern = Random_access | Sequential | Whole_file

type t = {
  name : string;
  count : int;
  users : int;
  process_time_ms : float;
  hit_freq_ms : float;
  rw_mean_bytes : int;
  rw_dev_bytes : int;
  alloc_hint_bytes : int;
  truncate_bytes : int;
  initial_mean_bytes : int;
  initial_dev_bytes : int;
  read_pct : int;
  write_pct : int;
  extend_pct : int;
  delete_pct_of_deallocs : int;
  pattern : pattern;
}

type op = Read | Write | Extend | Truncate | Delete

let deallocate_pct t = 100 - t.read_pct - t.write_pct - t.extend_pct

let validate t =
  let fail msg = invalid_arg (Printf.sprintf "File_type %s: %s" t.name msg) in
  if t.count <= 0 then fail "count must be positive";
  if t.users <= 0 then fail "users must be positive";
  if t.process_time_ms <= 0. then fail "process time must be positive";
  if t.hit_freq_ms < 0. then fail "hit frequency must be non-negative";
  if t.rw_mean_bytes <= 0 then fail "rw size must be positive";
  if t.rw_dev_bytes < 0 || t.rw_dev_bytes > t.rw_mean_bytes then fail "bad rw deviation";
  if t.initial_mean_bytes < 0 then fail "initial size must be non-negative";
  if t.initial_dev_bytes < 0 || t.initial_dev_bytes > max 1 t.initial_mean_bytes then
    fail "bad initial deviation";
  if t.truncate_bytes <= 0 then fail "truncate size must be positive";
  if t.alloc_hint_bytes <= 0 then fail "allocation size must be positive";
  let pcts = [ t.read_pct; t.write_pct; t.extend_pct; t.delete_pct_of_deallocs ] in
  if List.exists (fun p -> p < 0 || p > 100) pcts then fail "percentages must be in 0..100";
  if deallocate_pct t < 0 then fail "read+write+extend exceeds 100"

let pick_op t rng =
  let roll = Rofs_util.Rng.int rng 100 in
  if roll < t.read_pct then Read
  else if roll < t.read_pct + t.write_pct then Write
  else if roll < t.read_pct + t.write_pct + t.extend_pct then Extend
  else if Rofs_util.Rng.int rng 100 < t.delete_pct_of_deallocs then Delete
  else Truncate

let pick_alloc_op t rng =
  let dealloc = deallocate_pct t in
  let total = t.extend_pct + dealloc in
  if total = 0 then Extend
  else if Rofs_util.Rng.int rng total < t.extend_pct then Extend
  else if Rofs_util.Rng.int rng 100 < t.delete_pct_of_deallocs then Delete
  else Truncate

let draw_rw_bytes t rng =
  let v =
    Rofs_util.Dist.uniform_mean_dev rng ~mean:(float_of_int t.rw_mean_bytes)
      ~dev:(float_of_int t.rw_dev_bytes)
  in
  max 1 (int_of_float v)

let draw_initial_bytes t rng =
  let v =
    Rofs_util.Dist.uniform_mean_dev rng ~mean:(float_of_int t.initial_mean_bytes)
      ~dev:(float_of_int t.initial_dev_bytes)
  in
  max 0 (int_of_float v)
