(* Shared plumbing for the reproduction benches: standard policy specs,
   result formatting, and one-line experiment runners.  Every bench
   prints measured values next to the paper's published number where the
   paper gives one (Tables 1, 3, 4), or next to the qualitative claim
   the figure supports. *)

module C = Core

let pct x = Printf.sprintf "%.1f%%" (100. *. x)
let pct_points x = Printf.sprintf "%.1f%%" x

(* Paper-standard policy specs ------------------------------------- *)

let buddy_spec = C.Experiment.Buddy C.Buddy.default_config

let rbuddy_spec ?(grow = 1) ?(clustered = true) nsizes =
  C.Experiment.Restricted
    (C.Restricted_buddy.config ~grow_factor:grow ~clustered
       ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes nsizes)
       ())

let extent_spec ?(fit = C.Extent_alloc.First_fit) workload nranges =
  C.Experiment.Extent
    (C.Extent_alloc.config ~fit ~range_means_bytes:(C.Workload.extent_ranges workload nranges) ())

(* The paper's Section 5 comparison baseline: 4K blocks for TS, 16K for
   TP and SC. *)
let fixed_spec (workload : C.Workload.t) =
  let block_bytes = if workload.C.Workload.name = "TS" then 4 * 1024 else 16 * 1024 in
  C.Experiment.Fixed (C.Fixed_block.config ~block_bytes ())

(* The configuration selected at the end of Section 4.2: five block
   sizes, grow factor 1, clustered. *)
let rbuddy_selected = rbuddy_spec ~grow:1 ~clustered:true 5

(* The configuration selected at the end of Section 4.3: first fit,
   three extent ranges. *)
let extent_selected workload = extent_spec ~fit:C.Extent_alloc.First_fit workload 3

(* Runners ----------------------------------------------------------- *)

let config = ref C.Engine.default_config

(* Parallelism: bench --jobs N (or ROFS_JOBS=N) fans independent
   simulation cells across that many domains.  Cells are isolated —
   each builds its own RNG, policy and engine — and [par_map] returns
   results in input order, so tables are identical at every job count;
   only the wall clock changes. *)
let jobs = ref (C.Pool.default_jobs ())
let par_map f xs = C.Pool.map_list ~jobs:!jobs f xs

let run_alloc spec workload = C.Experiment.run_allocation ~config:!config spec workload

let run_pair spec workload = C.Experiment.run_throughput ~config:!config spec workload

let workloads = C.Workload.all

(* CSV side-channel: when [csv_dir] is set (bench --csv <dir>), every
   emitted table is also written as a numbered CSV file. *)
let csv_dir : string option ref = ref None
let csv_count = ref 0

(* JSON side-channel: when [json_out] is set (bench --out <file>), every
   emitted table is also captured as a typed cell — bench id, title,
   columns and rows, with numeric-looking cells coerced to numbers — and
   the whole run is written as one document at exit. *)
let json_out : string option ref = ref None
let current_bench = ref ""
let json_cells : C.Obs.Json.t list ref = ref [] (* newest first *)

(* "16.3%" and "4.2" become numbers (percent sign stripped); anything
   else stays a string.  Only finite values coerce: float_of_string
   accepts "nan" and "inf", which have no JSON representation, and a
   NaN cell must surface as the string it printed as, not as a token
   that breaks every downstream parser. *)
let cell_json s =
  let trimmed = String.trim s in
  let numeric =
    let n = String.length trimmed in
    if n > 1 && trimmed.[n - 1] = '%' then String.sub trimmed 0 (n - 1) else trimmed
  in
  match float_of_string_opt numeric with
  | Some f when trimmed <> "" && Float.is_finite f -> C.Obs.Json.Float f
  | _ -> C.Obs.Json.Str s

let capture_json ?title table =
  match !json_out with
  | None -> ()
  | Some _ ->
      let open C.Obs.Json in
      json_cells :=
        Obj
          [
            ("bench", Str !current_bench);
            ("title", match title with Some t -> Str t | None -> Null);
            ("columns", Arr (List.map (fun c -> Str c) (C.Table.columns table)));
            ( "rows",
              Arr
                (List.map
                   (fun row -> Arr (List.map cell_json row))
                   (C.Table.rows table)) );
          ]
        :: !json_cells

let write_json_out () =
  match !json_out with
  | None -> ()
  | Some path ->
      let open C.Obs.Json in
      let doc = Obj [ ("schema", Str "rofs-bench-v1"); ("cells", Arr (List.rev !json_cells)) ] in
      let oc = open_out path in
      to_channel oc doc;
      output_char oc '\n';
      close_out oc

let slugify title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title

let emit ?title table =
  C.Table.print ?title table;
  capture_json ?title table;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_count;
      let slug = match title with Some t -> slugify t | None -> "table" in
      let path = Filename.concat dir (Printf.sprintf "%02d-%s.csv" !csv_count (if String.length slug > 60 then String.sub slug 0 60 else slug)) in
      let oc = open_out path in
      output_string oc (C.Table.to_csv table);
      close_out oc

let heading title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')

let note lines = List.iter print_endline lines

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.eprintf "[bench] %s finished in %.1fs\n%!" name (Unix.gettimeofday () -. t0);
  r
