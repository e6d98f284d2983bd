(* Validate rofs_sim observability output without external tooling.

   Usage: obs_check FILE...

   Each file must parse as JSON.  Documents are further checked by
   shape: a "traceEvents" member marks a Chrome trace (must be
   non-empty, with numeric non-decreasing "ts" fields on phase X/i
   events); a "schema" member marks a report/sweep/bench/timeline
   document — bench cells must be strictly typed (strings or finite
   numbers; a null row value is the serializer's stand-in for NaN/Inf
   and fails), timeline windows must be contiguous with well-formed
   quantiles and sub-objects, report metrics must expose latency
   p50/p99 and list as many drives as the report's "drives" member
   (when it has one); a bare metrics document (a "latency_ms" member) gets the
   same quantile check.  Exit status is 0 iff every file passes. *)

module J = Rofs_obs.Json

let fail = ref false

let problem file msg =
  Printf.eprintf "obs_check: %s: %s\n" file msg;
  fail := true

let number = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let check_hist file name doc =
  match J.member name doc with
  | Some (J.Obj _ as h) ->
      List.iter
        (fun q ->
          match number (J.member q h) with
          | Some v when v >= 0. -> ()
          | Some _ -> problem file (Printf.sprintf "%s.%s is negative" name q)
          | None -> problem file (Printf.sprintf "%s.%s missing or non-numeric" name q))
        [ "p50"; "p99" ]
  | _ -> problem file (Printf.sprintf "missing %s histogram" name)

(* A "cache" member (in a report or a metrics document) must carry
   consistent hit accounting: numeric hits/misses/lookups with
   hits + misses = lookups, and a hit_rate inside [0, 1]. *)
let check_cache file doc =
  match J.member "cache" doc with
  | None -> ()
  | Some c ->
      let count name =
        match number (J.member name c) with
        | Some v when v >= 0. -> v
        | Some _ ->
            problem file (Printf.sprintf "cache.%s is negative" name);
            0.
        | None ->
            problem file (Printf.sprintf "cache.%s missing or non-numeric" name);
            0.
      in
      let hits = count "hits" and misses = count "misses" and lookups = count "lookups" in
      if hits +. misses <> lookups then problem file "cache hits + misses <> lookups";
      (match number (J.member "hit_rate" c) with
      | Some r when r >= 0. && r <= 1. -> ()
      | Some _ -> problem file "cache.hit_rate outside [0, 1]"
      | None -> problem file "cache.hit_rate missing or non-numeric")

(* A "churn" member (report or timeline window) carries allocator
   write-cost accounting: non-negative counters and a write_cost >= 1
   (the cleaner can only add traffic on top of the user's own). *)
let check_churn file where doc =
  match J.member "churn" doc with
  | None -> ()
  | Some c ->
      List.iter
        (fun name ->
          match number (J.member name c) with
          | Some v when v >= 0. -> ()
          | Some _ -> problem file (where (Printf.sprintf "churn.%s is negative" name))
          | None ->
              problem file (where (Printf.sprintf "churn.%s missing or non-numeric" name)))
        [ "user_units"; "moved_units"; "cleaner_passes" ];
      (match number (J.member "write_cost" c) with
      | Some w when w >= 1. -> ()
      | Some _ -> problem file (where "churn.write_cost below 1")
      | None -> problem file (where "churn.write_cost missing or non-numeric"))

(* Bench documents carry typed table cells: every row value must be a
   string or a finite number.  A null row value is what the JSON
   emitter writes for NaN/Inf (and "1e999" parses to infinity), so
   both shapes mark a broken measurement, not a formatting choice. *)
let check_bench file doc =
  match J.member "cells" doc with
  | Some (J.Arr (_ :: _ as cells)) ->
      List.iteri
        (fun i cell ->
          let where what = Printf.sprintf "cells[%d]: %s" i what in
          (match J.member "bench" cell with
          | Some (J.Str _) -> ()
          | _ -> problem file (where "bench missing or not a string"));
          (match J.member "columns" cell with
          | Some (J.Arr (_ :: _ as cols))
            when List.for_all (function J.Str _ -> true | _ -> false) cols ->
              ()
          | _ -> problem file (where "columns missing, empty or non-string"));
          match J.member "rows" cell with
          | Some (J.Arr rows) ->
              List.iter
                (function
                  | J.Arr vs ->
                      List.iter
                        (function
                          | J.Str _ | J.Int _ -> ()
                          | J.Float f when Float.is_finite f -> ()
                          | J.Float _ | J.Null ->
                              problem file (where "row value is NaN or infinite")
                          | _ -> problem file (where "row value is not a string or number"))
                        vs
                  | _ -> problem file (where "row is not an array"))
                rows
          | _ -> problem file (where "rows missing or not an array"))
        cells
  | _ -> problem file "bench document has no cells"

(* rofs-timeline-v1: a positive window width and contiguous windows,
   each with non-negative counters, a well-formed latency histogram,
   the cache / fault / alloc sub-objects and a per-drive array. *)
let check_timeline file doc =
  (match number (J.member "every_ms" doc) with
  | Some v when v > 0. -> ()
  | _ -> problem file "every_ms missing or not positive");
  match J.member "windows" doc with
  | Some (J.Arr windows) ->
      List.iteri
        (fun i w ->
          let where what = Printf.sprintf "windows[%d]: %s" i what in
          (match J.member "index" w with
          | Some (J.Int idx) when idx = i -> ()
          | _ -> problem file (where "index missing or out of order"));
          List.iter
            (fun name ->
              match number (J.member name w) with
              | Some v when v >= 0. -> ()
              | _ -> problem file (where (name ^ " missing or negative")))
            [ "t_start_ms"; "t_end_ms"; "io_ops"; "alloc_ops"; "bytes"; "disk_fulls" ];
          check_hist file "latency_ms" w;
          let sub name fields =
            match J.member name w with
            | Some o ->
                List.iter
                  (fun field ->
                    match number (J.member field o) with
                    | Some v when v >= 0. -> ()
                    | _ ->
                        problem file
                          (where (Printf.sprintf "%s.%s missing or negative" name field)))
                  fields
            | None -> problem file (where (Printf.sprintf "missing %s object" name))
          in
          sub "cache" [ "lookups"; "hits"; "misses"; "writeback_bytes"; "prefetched_pages" ];
          sub "fault" [ "failed_drives"; "rebuilding_drives"; "rebuild_ios"; "data_loss" ];
          sub "alloc"
            [ "used_units"; "total_units"; "free_units"; "largest_free_units"; "free_extents" ];
          sub "churn"
            [ "user_units"; "moved_units"; "cleaner_passes"; "user_units_total";
              "moved_units_total" ];
          check_churn file where w;
          (match J.member "alloc" w with
          | Some a -> (
              match number (J.member "utilization" a) with
              | Some u when u >= 0. && u <= 1. -> ()
              | _ -> problem file (where "alloc.utilization outside [0, 1]"))
          | None -> ());
          match J.member "drives" w with
          | Some (J.Arr _) -> ()
          | _ -> problem file (where "missing drives array"))
        windows
  | _ -> problem file "missing windows array"

let check_metrics file doc =
  check_hist file "latency_ms" doc;
  check_cache file doc;
  match J.member "drives" doc with
  | Some (J.Arr _) -> ()
  | _ -> problem file "missing drives array"

(* A report's per-drive reports and its metrics' per-drive statistics
   describe the same array, so they must list the same drives. *)
let check_drive_counts file doc =
  match (J.member "drives" doc, Option.bind (J.member "metrics" doc) (J.member "drives")) with
  | Some (J.Arr reports), Some (J.Arr metrics) when List.length reports <> List.length metrics ->
      problem file
        (Printf.sprintf "drives has %d entries but metrics.drives has %d" (List.length reports)
           (List.length metrics))
  | _ -> ()

let check_trace file doc =
  match J.member "traceEvents" doc with
  | Some (J.Arr events) ->
      let timed = ref 0 and last = ref neg_infinity in
      List.iter
        (fun ev ->
          match J.member "ph" ev with
          | Some (J.Str ("X" | "i")) -> (
              incr timed;
              match number (J.member "ts" ev) with
              | Some ts when ts >= !last -> last := ts
              | Some _ -> problem file "trace timestamps decrease"
              | None -> problem file "trace event lacks numeric ts")
          | _ -> ())
        events;
      if !timed = 0 then problem file "trace has no timed events"
  | _ -> problem file "missing traceEvents array"

let check_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> problem file e
  | text -> (
      match J.parse text with
      | Error e -> problem file e
      | Ok doc ->
          if J.member "traceEvents" doc <> None then check_trace file doc
          else if J.member "latency_ms" doc <> None then check_metrics file doc
          else (
            (match J.member "schema" doc with
            | Some (J.Str _) -> ()
            | _ -> problem file "missing schema tag");
            (match J.member "schema" doc with
            | Some (J.Str "rofs-bench-v1") -> check_bench file doc
            | Some (J.Str "rofs-timeline-v1") -> check_timeline file doc
            | Some (J.Str "rofs-replay-v1") -> (
                (match J.member "replay" doc with
                | Some r ->
                    List.iter
                      (fun name ->
                        match number (J.member name r) with
                        | Some v when v >= 0. -> ()
                        | Some _ -> problem file (Printf.sprintf "replay.%s is negative" name)
                        | None ->
                            problem file
                              (Printf.sprintf "replay.%s missing or non-numeric" name))
                      [ "pct_of_max"; "bytes_moved"; "io_ops"; "elapsed_ms" ]
                | None -> problem file "replay document has no replay member");
                check_cache file doc;
                (* metrics are attached only in --json runs with a sink *)
                match J.member "metrics" doc with
                | Some m -> check_metrics file m
                | None -> ())
            | _ -> (
                check_cache file doc;
                check_churn file (fun s -> s) doc;
                check_drive_counts file doc;
                match J.member "metrics" doc with
                | Some m -> check_metrics file m
                | None -> problem file "missing metrics object")));
          if not !fail then Printf.printf "obs_check: %s: ok\n" file)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then (
    prerr_endline "usage: obs_check FILE...";
    exit 2);
  List.iter check_file files;
  exit (if !fail then 1 else 0)
