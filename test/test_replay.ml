(* Trace replay subsystem tests, four layers:

   - codec level: the binary encoding is an exact structural inverse of
     [encode] (QCheck property, plus empty-trace and huge-size edges),
     the text format is a fixed point under save/load/save, and decode
     rejects garbage, truncation and unknown versions;
   - importer level: SPC and blktrace text map onto files sized to
     their largest request, with foreign noise lines skipped;
   - replay semantics: writes past end of file grow the file first, a
     failed grow counts as an allocation failure and clips instead of
     crashing, stale file references are skipped and counted;
   - record/replay verification: a recorded stochastic run replays with
     zero stale references, and replaying a replay's own recording
     reproduces its report exactly (the normalization fixed point the
     CI smoke job checks end-to-end). *)

module C = Core
module Trace = C.Trace
module Codec = C.Trace_codec
module Import = C.Trace_import
module Replay = C.Trace_replay
module Engine = C.Engine
module Experiment = C.Experiment
module Volume = C.Volume
module Workload = C.Workload
module File_type = C.File_type

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)

(* Same scaled workload and config test_sim uses: tiny files keep event
   counts small on the full-size array. *)
let tiny_workload =
  {
    Workload.name = "TINY";
    description = "scaled test workload";
    types =
      [
        {
          File_type.name = "tiny-small";
          count = 50;
          users = 4;
          process_time_ms = 10.;
          hit_freq_ms = 10.;
          rw_mean_bytes = 4096;
          rw_dev_bytes = 1024;
          alloc_hint_bytes = 4096;
          truncate_bytes = 4096;
          initial_mean_bytes = 16 * 1024 * 1024;
          initial_dev_bytes = 4 * 1024 * 1024;
          read_pct = 50;
          write_pct = 20;
          extend_pct = 20;
          delete_pct_of_deallocs = 50;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "tiny-big";
          count = 4;
          users = 2;
          process_time_ms = 10.;
          hit_freq_ms = 10.;
          rw_mean_bytes = 128 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 128 * 1024;
          initial_mean_bytes = 220 * 1024 * 1024;
          initial_dev_bytes = 0;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let quick_config =
  {
    Engine.default_config with
    Engine.max_measure_ms = 120_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 300_000;
  }

let rb_spec =
  Experiment.Restricted
    (C.Restricted_buddy.config ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 3) ())

(* Huge fixed blocks keep the free list short, so an impossible grow
   hits [`Disk_full] after a few hundred pops instead of millions. *)
let coarse_fixed_spec =
  Experiment.Fixed (C.Fixed_block.config ~aged:false ~block_bytes:(16 * 1024 * 1024) ())

let ev time_ms file op = { Trace.time_ms; file; op }

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)

let test_codec_empty_trace () =
  let t = { Trace.name = "empty"; initial = []; events = [] } in
  (match Codec.decode (Codec.encode t) with
  | Ok t' -> check_bool "binary round trip" true (t = t')
  | Error e -> Alcotest.fail e);
  match Trace.load (Trace.save t) with
  | Ok t' -> check_bool "text round trip" true (t = t')
  | Error e -> Alcotest.fail e

let test_codec_edge_sizes () =
  (* Near the top of the 63-bit varint range, plus zeros and an exact
     non-representable-in-3-decimals time (binary stores the bits). *)
  let big = 1 lsl 55 in
  let t =
    {
      Trace.name = "edges";
      initial = [ (0, big, 1, 0); (7, 0, big, 3) ];
      events =
        [
          ev 0.1 0 (Trace.Read { off = big; bytes = big });
          ev 0.1 7 (Trace.Write { off = 0; bytes = 0 });
          ev 1e9 0 (Trace.Create { bytes = big; hint = big; ty = 200 });
        ];
    }
  in
  match Codec.decode (Codec.encode t) with
  | Ok t' -> check_bool "round trip" true (t = t')
  | Error e -> Alcotest.fail e

let test_codec_rejects_garbage () =
  let is_err = function Ok _ -> false | Error _ -> true in
  check_bool "not a trace" true (is_err (Codec.decode "junk that is not a trace"));
  check_bool "empty input" true (is_err (Codec.decode ""));
  let t = { Trace.name = "x"; initial = [ (0, 1, 1, 0) ]; events = [] } in
  let good = Codec.encode t in
  let truncated = String.sub good 0 (String.length good - 1) in
  check_bool "truncated" true (is_err (Codec.decode truncated));
  let bad_version = Bytes.of_string good in
  Bytes.set bad_version 4 '\xff';
  check_bool "unknown version" true (is_err (Codec.decode (Bytes.to_string bad_version)));
  let trailing = good ^ "x" in
  check_bool "trailing bytes" true (is_err (Codec.decode trailing))

(* An infinite (or NaN) event time compares as neither earlier nor
   later than its predecessor, so only an explicit finiteness check
   keeps it out; the text, binary and validate paths all refuse it. *)
let test_non_finite_event_time () =
  let text = "# rofs-trace v2 inf\nfile 0 4096 4096 0\nev inf 0 read 4096 4096\n" in
  check_bool "text load refuses inf" true (Result.is_error (Trace.load text));
  List.iter
    (fun time_ms ->
      let t =
        {
          Trace.name = "non-finite";
          initial = [ (0, 4096, 4096, 0) ];
          events = [ ev time_ms 0 (Trace.Read { off = 4096; bytes = 4096 }) ];
        }
      in
      let label = Printf.sprintf "%h" time_ms in
      check_bool (label ^ " fails validate") true (Result.is_error (Trace.validate t));
      check_bool (label ^ " binary refused") true (Result.is_error (Codec.decode (Codec.encode t))))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_codec_sniff_and_paths () =
  let t = { Trace.name = "sniff"; initial = []; events = [] } in
  List.iter
    (fun (ext, binary) ->
      let path = Filename.temp_file "rofs_sniff" ext in
      Codec.save_file path t;
      let data = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      check_bool (ext ^ " selects the format") binary (String.starts_with ~prefix:"ROFT" data);
      let text_path = Filename.temp_file "rofs_sniff" ".trace" in
      Out_channel.with_open_bin text_path (fun oc -> output_string oc data);
      check_bool (ext ^ " content is sniffed, not the extension") true
        (Codec.load_file text_path = Ok t);
      Sys.remove text_path)
    [ (".bin", true); (".rtb", true); (".trace", false) ]

(* Random structurally-valid traces: lowercase names, non-decreasing
   times, sizes mixing small values with the top of the varint range. *)
let trace_gen =
  let open QCheck.Gen in
  let size =
    frequency [ (8, int_bound 1_000_000); (1, return 0); (1, return (1 lsl 55)) ]
  in
  let hint = map (fun s -> max 1 s) size (* validate demands hint > 0 *) in
  let file_id = int_bound 15 in
  let ty = int_bound 3 in
  let op =
    frequency
      [
        (3, map2 (fun off bytes -> Trace.Read { off; bytes }) size size);
        (3, map2 (fun off bytes -> Trace.Write { off; bytes }) size size);
        (1, map (fun b -> Trace.Extend b) size);
        (1, map (fun b -> Trace.Grow b) size);
        (1, map (fun b -> Trace.Truncate b) size);
        (1, return Trace.Delete);
        (1, map3 (fun bytes hint ty -> Trace.Create { bytes; hint; ty }) size hint ty);
      ]
  in
  let name =
    string_size ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25))
      (int_range 1 10)
  in
  let initial_entry =
    map2 (fun (id, bytes) (hint, ty) -> (id, bytes, hint, ty)) (pair file_id size)
      (pair hint ty)
  in
  let raw_event = map3 (fun dt file op -> (dt, file, op)) (float_range 0. 50.) file_id op in
  map3
    (fun name initial raw ->
      (* prefix-sum the deltas so times never decrease *)
      let _, events =
        List.fold_left
          (fun (t, acc) (dt, file, op) ->
            let t = t +. dt in
            (t, ev t file op :: acc))
          (0., []) raw
      in
      { Trace.name; initial; events = List.rev events })
    name
    (list_size (int_bound 5) initial_entry)
    (list_size (int_bound 30) raw_event)

let trace_arb = QCheck.make ~print:Trace.save trace_gen

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"decode (encode t) = t" ~count:200 trace_arb (fun t ->
      Codec.decode (Codec.encode t) = Ok t)

let prop_text_fixed_point =
  (* The first save quantizes times to milliseconds-with-3-decimals;
     load then save must reproduce that text byte for byte. *)
  QCheck.Test.make ~name:"save (load (save t)) = save t" ~count:200 trace_arb (fun t ->
      let s = Trace.save t in
      match Trace.load s with Ok t' -> Trace.save t' = s | Error _ -> false)

let prop_binary_of_loaded_text_roundtrip =
  (* Once quantized by a text save, the trace converts between the two
     formats without further drift. *)
  QCheck.Test.make ~name:"text -> binary -> text is exact" ~count:100 trace_arb (fun t ->
      match Trace.load (Trace.save t) with
      | Error _ -> false
      | Ok q -> (
          match Codec.decode (Codec.encode q) with
          | Ok q' -> Trace.save q' = Trace.save q
          | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Importers                                                          *)

let test_import_spc () =
  let text =
    "# a comment\n0,0,4096,r,0.001\n0,8,8192,W,0.002\n1,0,512,w,0.003\n\n"
  in
  match Import.spc text with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_int "two streams, two files" 2 (List.length t.Trace.initial);
      check_int "three events" 3 (Trace.event_count t);
      (* asu 0 spans max(0+4096, 8*512+8192) = 12288; asu 1 spans 512 *)
      (match t.Trace.initial with
      | [ (0, b0, _, 0); (1, b1, _, 0) ] ->
          check_int "asu0 sized to span" 12288 b0;
          check_int "asu1 sized to span" 512 b1
      | _ -> Alcotest.fail "unexpected initial population");
      (match t.Trace.events with
      | e :: _ ->
          check_bool "seconds became ms" true (Float.abs (e.Trace.time_ms -. 1.0) < 1e-9);
          check_bool "r is a read" true
            (match e.Trace.op with Trace.Read _ -> true | _ -> false)
      | [] -> Alcotest.fail "no events");
      (match Trace.validate t with
      | Ok w -> check_int "no stale refs" 0 w.Trace.stale_refs
      | Error e -> Alcotest.fail e)

let line_error name = function
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error msg ->
      check_bool (name ^ ": " ^ msg) true (String.starts_with ~prefix:"line 2: " msg)

let test_import_spc_rejects_malformed () =
  check_bool "bad field count" true (Result.is_error (Import.spc "0,1,2\n"));
  check_bool "negative lba" true (Result.is_error (Import.spc "0,-1,512,r,0.5\n"));
  (* Each bad record follows a good one, so the error names line 2. *)
  List.iter
    (fun (name, record) -> line_error name (Import.spc ("0,0,4096,r,0.1\n" ^ record)))
    [
      ("lba * sector_bytes overflows", "0,18014398509481984,4096,r,0.5");
      ("offset + size overflows", "0,1,4611686018427387903,w,0.5");
      ("infinite timestamp", "0,0,4096,r,inf");
      ("NaN timestamp", "0,0,4096,r,nan");
      ("timestamp overflows to infinite ms", "0,0,4096,r,1e308");
    ];
  List.iter
    (fun sector_bytes ->
      check_bool
        (Printf.sprintf "sector_bytes %d refused" sector_bytes)
        true
        (Result.is_error (Import.spc ~sector_bytes "0,0,4096,r,0.1\n")))
    [ 0; -512 ]

let test_import_blktrace_rejects_overflow () =
  let good = "259,0 0 1 0.000001000 123 Q R 2048 + 8 [fio]\n" in
  List.iter
    (fun (name, record) -> line_error name (Import.blktrace (good ^ record)))
    [
      ("sector * sector_bytes overflows", "259,0 0 2 0.5 123 Q R 18014398509481984 + 8 [fio]");
      ("nsectors * sector_bytes overflows", "259,0 0 2 0.5 123 Q R 0 + 18014398509481984 [fio]");
      ( "offset + length overflows",
        "259,0 0 2 0.5 123 Q W 9007199254740990 + 9007199254740990 [fio]" );
      ("infinite timestamp", "259,0 0 2 inf 123 Q R 0 + 8 [fio]");
    ];
  check_bool "sector_bytes 0 refused" true (Result.is_error (Import.blktrace ~sector_bytes:0 good))

(* Every input path either refuses its input with an [Error] or returns
   a trace that validates; none raises.  Inputs are random bytes and
   valid records with tokens or bytes swapped for hostile ones. *)
let hostile_tokens =
  [| "inf"; "-inf"; "nan"; "1e308"; "-1"; "0"; "-0"; "4611686018427387903";
     "18014398509481984"; "9007199254740990"; "0x7fffffffffffffff"; ""; "+"; "Q"; "ev" |]

let flip_byte s =
  let open QCheck.Gen in
  if s = "" then return s
  else
    let* i = int_bound (String.length s - 1) and* c = char in
    return (String.mapi (fun j x -> if j = i then c else x) s)

(* Two lines of [base], the second with one field or one byte swapped. *)
let mutate_gen base =
  let open QCheck.Gen in
  let token_swap s =
    let* i = int_bound 7 and* tok = oneofa hostile_tokens in
    let sep = if String.contains s ',' then ',' else ' ' in
    let parts = String.split_on_char sep s in
    let n = List.length parts in
    let swapped = List.mapi (fun j p -> if j = i mod n then tok else p) parts in
    return (String.concat (String.make 1 sep) swapped)
  in
  let* line = oneofl base in
  let* mutated = frequency [ (3, token_swap line); (1, flip_byte line) ] in
  let* pre = oneofl base in
  return (pre ^ "\n" ^ mutated ^ "\n")

let spc_lines = [ "0,0,4096,r,0.001"; "0,8,8192,W,0.002"; "1,0,512,w,0.003" ]

let blk_lines =
  [
    "259,0 0 1 0.000001000 123 Q R 2048 + 8 [fio]";
    "259,0 1 3 0.000003000 123 Q WS 4096 + 16 [fio]";
  ]

let text_trace_lines =
  [ "# rofs-trace v2 fuzz"; "file 0 4096 4096 0"; "ev 1.5 0 read 4096 0";
    "ev 2 0 create 8192 4096 1"; "ev 3 0 truncate 512 -" ]

let binary_trace =
  Codec.encode
    {
      Trace.name = "fuzz";
      initial = [ (0, 4096, 4096, 0) ];
      events = [ ev 1.5 0 (Trace.Read { off = 0; bytes = 4096 }); ev 2. 0 Trace.Delete ];
    }

let validates = function
  | Error _ -> true
  | Ok t -> Result.is_ok (Trace.validate t)

let all_paths_hold ~sector_bytes text =
  validates (Import.spc ~sector_bytes text)
  && validates (Import.blktrace ~sector_bytes text)
  && validates (Codec.decode text)
  && validates (Trace.load text)

let prop_input_paths_never_raise_random =
  QCheck.Test.make ~name:"importers and decoders: random bytes never raise" ~count:2000
    QCheck.(pair (oneofl [ -1; 0; 1; 512; max_int ]) string)
    (fun (sector_bytes, text) -> all_paths_hold ~sector_bytes text)

let prop_input_paths_never_raise_mutated =
  let gen =
    let open QCheck.Gen in
    let* sector_bytes = oneofl [ 0; 1; 512; 4096; max_int ] in
    let+ text =
      frequency
        [
          (3, mutate_gen spc_lines);
          (3, mutate_gen blk_lines);
          (3, mutate_gen text_trace_lines);
          (2, flip_byte binary_trace);
        ]
    in
    (sector_bytes, text)
  in
  QCheck.Test.make ~name:"importers and decoders: mutated records validate or fail" ~count:3000
    (QCheck.make ~print:(fun (sb, text) -> Printf.sprintf "sector_bytes %d: %S" sb text) gen)
    (fun (sector_bytes, text) -> all_paths_hold ~sector_bytes text)

let test_import_blktrace () =
  let text =
    String.concat "\n"
      [
        "259,0 0 1 0.000001000 123 Q R 2048 + 8 [fio]";
        "259,0 0 2 0.000002000 123 D R 2048 + 8 [fio]" (* dispatch: skipped *);
        "259,0 1 3 0.000003000 123 Q WS 4096 + 16 [fio]";
        "CPU0 (fio): reads queued: 1" (* summary noise: skipped *);
      ]
  in
  match Import.blktrace text with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_int "one device, one file" 1 (List.length t.Trace.initial);
      check_int "queue records only" 2 (Trace.event_count t);
      (match t.Trace.initial with
      | [ (0, bytes, _, 0) ] ->
          (* span of the furthest request: (4096 + 16) * 512 *)
          check_int "sized to span" ((4096 + 16) * 512) bytes
      | _ -> Alcotest.fail "unexpected initial population");
      match t.Trace.events with
      | [ r; w ] ->
          check_bool "R queue is a read" true
            (match r.Trace.op with Trace.Read { off; bytes } -> off = 2048 * 512 && bytes = 8 * 512 | _ -> false);
          check_bool "WS queue is a write" true
            (match w.Trace.op with Trace.Write _ -> true | _ -> false)
      | _ -> Alcotest.fail "expected two events"

(* ------------------------------------------------------------------ *)
(* Replay semantics                                                   *)

let test_replay_write_past_eof_grows_file () =
  let trace =
    {
      Trace.name = "eof";
      initial = [ (0, 4096, 4096, 0) ];
      events =
        [
          (* past end of file: the file must grow to cover the write *)
          ev 0. 0 (Trace.Write { off = 1 lsl 20; bytes = 4096 });
          (* far past any plausible capacity: a counted failure, not a
             crash, and the file keeps its length *)
          ev 1. 0 (Trace.Write { off = 3 * (1 lsl 30); bytes = 4096 });
          (* reads never grow; out-of-range clips to nothing *)
          ev 2. 0 (Trace.Read { off = 1 lsl 40; bytes = 4096 });
        ];
    }
  in
  let o = Replay.run ~config:quick_config coarse_fixed_spec trace in
  check_int "all events applied" 3 o.Replay.report.Replay.events_applied;
  check_int "nothing stale" 0 o.Replay.report.Replay.skipped_stale;
  check_int "one allocation failure" 1 o.Replay.report.Replay.alloc_failures;
  check_int "file grew exactly to the write's end" ((1 lsl 20) + 4096)
    (Volume.logical_bytes (Engine.volume o.Replay.engine) ~file:0);
  check_bool "the in-range write moved bytes" true (o.Replay.report.Replay.bytes_moved >= 4096)

let test_replay_grow_failure_counted () =
  let trace =
    {
      Trace.name = "grow-fail";
      initial = [ (0, 4096, 4096, 0) ];
      events = [ ev 0. 0 (Trace.Grow (8 * (1 lsl 30))); ev 1. 0 (Trace.Extend (4 * (1 lsl 30))) ];
    }
  in
  let o = Replay.run ~config:quick_config coarse_fixed_spec trace in
  check_int "both growth attempts failed" 2 o.Replay.report.Replay.alloc_failures;
  check_int "logical untouched" 4096
    (Volume.logical_bytes (Engine.volume o.Replay.engine) ~file:0)

let test_replay_stale_refs_skipped () =
  let trace =
    {
      Trace.name = "stale";
      initial = [ (0, 8192, 4096, 0) ];
      events =
        [
          ev 0. 0 (Trace.Read { off = 0; bytes = 4096 });
          ev 1. 9 (Trace.Read { off = 0; bytes = 4096 }) (* unknown id *);
          ev 2. 9 (Trace.Write { off = 0; bytes = 4096 });
          ev 3. 9 Trace.Delete;
          ev 4. 9 (Trace.Create { bytes = 4096; hint = 4096; ty = 0 });
          ev 5. 9 (Trace.Read { off = 0; bytes = 4096 }) (* now live *);
          ev 6. 9 Trace.Delete;
          ev 7. 9 (Trace.Read { off = 0; bytes = 4096 }) (* dead again *);
        ];
    }
  in
  let o = Replay.run ~config:quick_config coarse_fixed_spec trace in
  check_int "stale events counted" 4 o.Replay.report.Replay.skipped_stale;
  check_int "live events applied" 4 o.Replay.report.Replay.events_applied

let test_replay_type_index_clamped () =
  (* A trace type beyond the workload table must clamp, not crash. *)
  let trace =
    {
      Trace.name = "clamp";
      initial = [ (0, 4096, 4096, 99) ];
      events = [ ev 0. 0 (Trace.Read { off = 0; bytes = 4096 }) ];
    }
  in
  let o = Replay.run ~config:quick_config ~workload:tiny_workload coarse_fixed_spec trace in
  check_int "applied" 1 o.Replay.report.Replay.events_applied

let test_replay_rejects_invalid_trace () =
  let trace =
    { Trace.name = "bad"; initial = [ (0, -1, 4096, 0) ]; events = [] }
  in
  check_bool "invalid trace raises" true
    (match Replay.run ~config:quick_config coarse_fixed_spec trace with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Record -> replay verification                                      *)

let test_record_replay_verification () =
  let trace, app, _src = Replay.record_run ~config:quick_config rb_spec tiny_workload in
  check_bool "recorded something" true (Trace.event_count trace > 0);
  (* the captured trace is structurally valid with no stale refs... *)
  (match Trace.validate trace with
  | Ok w -> check_int "recorded trace has no stale refs" 0 w.Trace.stale_refs
  | Error e -> Alcotest.fail e);
  (* ...and survives the binary codec unchanged *)
  check_bool "recorded trace round trips" true (Codec.decode (Codec.encode trace) = Ok trace);
  let o1 =
    Replay.run ~config:quick_config ~workload:tiny_workload ~record:true rb_spec trace
  in
  check_int "replay skips nothing" 0 o1.Replay.report.Replay.skipped_stale;
  check_int "replay applies every event" (Trace.event_count trace)
    o1.Replay.report.Replay.events_applied;
  check_bool "replay did I/O" true (o1.Replay.report.Replay.io_ops > 0);
  check_bool "replay moved bytes" true (o1.Replay.report.Replay.bytes_moved > 0);
  check_bool "source run did I/O too" true (app.Engine.io_ops > 0);
  (* the normalization fixed point: replaying the replay's own
     recording reproduces the report exactly *)
  let t2 = Option.get o1.Replay.recorded in
  let o2 = Replay.run ~config:quick_config ~workload:tiny_workload rb_spec t2 in
  check_bool "replay(record(replay(t))) = replay(t)" true
    (o2.Replay.report = o1.Replay.report)

let test_replay_reproduces_source_run () =
  (* The acceptance golden: a cached, instrumented stochastic run and
     the replay of its own recording must agree bit for bit — same I/O
     count, same cache counters, same latency/seek/rotation/transfer
     histograms.  This works because the recorder captures logical
     operations at their execution times and replay rebuilds the
     identical allocator layout (same policy seed derivation), so every
     transfer lands on the same physical blocks at the same clock. *)
  let config =
    { quick_config with Engine.cache = Some (C.Cache.config ~mb:4 ()) }
  in
  let src_sink = C.Sink.create () in
  let trace, app, src_engine =
    Replay.record_run ~config ~sink:src_sink rb_spec tiny_workload
  in
  let rep_sink = C.Sink.create () in
  let o =
    Replay.run ~config ~workload:tiny_workload ~sink:rep_sink rb_spec trace
  in
  check_int "same I/O count as the source run" app.C.Engine.io_ops
    o.Replay.report.Replay.io_ops;
  check_bool "same cache counters" true
    (C.Engine.cache_report o.Replay.engine = C.Engine.cache_report src_engine);
  Alcotest.(check string)
    "same metrics document (latency, seeks, queues, per-drive)"
    (C.Obs.Json.to_string (C.Sink.to_json src_sink))
    (C.Obs.Json.to_string (C.Sink.to_json rep_sink))

let test_replay_deterministic () =
  let trace = Trace.synthesize ~workload:tiny_workload ~duration_ms:10_000. ~seed:11 in
  let run () = (Replay.run ~config:quick_config rb_spec trace).Replay.report in
  check_bool "identical reports" true (run () = run ())

(* ------------------------------------------------------------------ *)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "replay"
    [
      ( "codec",
        [
          quick "empty trace" test_codec_empty_trace;
          quick "edge sizes" test_codec_edge_sizes;
          quick "rejects garbage" test_codec_rejects_garbage;
          quick "sniff and paths" test_codec_sniff_and_paths;
          quick "non-finite event time refused" test_non_finite_event_time;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
          QCheck_alcotest.to_alcotest prop_text_fixed_point;
          QCheck_alcotest.to_alcotest prop_binary_of_loaded_text_roundtrip;
        ] );
      ( "import",
        [
          quick "spc" test_import_spc;
          quick "spc rejects malformed" test_import_spc_rejects_malformed;
          quick "blktrace" test_import_blktrace;
          quick "blktrace rejects overflow" test_import_blktrace_rejects_overflow;
          QCheck_alcotest.to_alcotest prop_input_paths_never_raise_random;
          QCheck_alcotest.to_alcotest prop_input_paths_never_raise_mutated;
        ] );
      ( "semantics",
        [
          quick "write past eof grows" test_replay_write_past_eof_grows_file;
          quick "grow failure counted" test_replay_grow_failure_counted;
          quick "stale refs skipped" test_replay_stale_refs_skipped;
          quick "type index clamped" test_replay_type_index_clamped;
          quick "rejects invalid trace" test_replay_rejects_invalid_trace;
        ] );
      ( "verification",
        [
          quick "record then replay" test_record_replay_verification;
          quick "replay reproduces the source run" test_replay_reproduces_source_run;
          quick "replay deterministic" test_replay_deterministic;
        ] );
    ]
