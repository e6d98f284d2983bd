let kib = 1024
let mib = 1024 * kib

type t = { name : string; description : string; types : File_type.t list }

(* Values the paper leaves unspecified (user counts, think times, the TP
   request size, truncate sizes, initial-size deviations) are chosen here
   and recorded in DESIGN.md.  File counts size each workload's initial
   population at roughly 78-81% of the 2.6G eight-disk array so that the
   utilization governor's 90% lower bound is reachable by net growth. *)

let ts =
  {
    name = "TS";
    description = "time sharing / software development";
    types =
      [
        {
          File_type.name = "ts-small";
          count = 24_000;
          users = 16;
          process_time_ms = 50.;
          hit_freq_ms = 100.;
          rw_mean_bytes = 4 * kib;
          rw_dev_bytes = 2 * kib;
          alloc_hint_bytes = 4 * kib;
          truncate_bytes = 4 * kib;
          initial_mean_bytes = 8 * kib;
          initial_dev_bytes = 4 * kib;
          read_pct = 45;
          write_pct = 15;
          extend_pct = 25;
          delete_pct_of_deallocs = 90;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "ts-large";
          count = 16_000;
          users = 8;
          process_time_ms = 50.;
          hit_freq_ms = 100.;
          rw_mean_bytes = 8 * kib;
          rw_dev_bytes = 4 * kib;
          alloc_hint_bytes = 8 * kib;
          truncate_bytes = 16 * kib;
          initial_mean_bytes = 96 * kib;
          initial_dev_bytes = 48 * kib;
          read_pct = 60;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 50;
          pattern = File_type.Random_access;
        };
      ];
  }

let tp =
  {
    name = "TP";
    description = "large transaction processing";
    types =
      [
        {
          File_type.name = "tp-relation";
          count = 10;
          users = 32;
          process_time_ms = 10.;
          hit_freq_ms = 20.;
          rw_mean_bytes = 16 * kib;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * mib;
          truncate_bytes = 32 * kib;
          initial_mean_bytes = 210 * mib;
          initial_dev_bytes = 10 * mib;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 7;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
        {
          File_type.name = "tp-app-log";
          count = 5;
          users = 5;
          process_time_ms = 20.;
          hit_freq_ms = 20.;
          rw_mean_bytes = 4 * kib;
          rw_dev_bytes = 2 * kib;
          alloc_hint_bytes = 512 * kib;
          truncate_bytes = 64 * kib;
          initial_mean_bytes = 5 * mib;
          initial_dev_bytes = mib;
          read_pct = 2;
          write_pct = 0;
          extend_pct = 93;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
        {
          File_type.name = "tp-txn-log";
          count = 1;
          users = 1;
          process_time_ms = 10.;
          hit_freq_ms = 20.;
          rw_mean_bytes = 4 * kib;
          rw_dev_bytes = 2 * kib;
          alloc_hint_bytes = 512 * kib;
          truncate_bytes = 256 * kib;
          initial_mean_bytes = 10 * mib;
          initial_dev_bytes = 2 * mib;
          read_pct = 5;
          write_pct = 0;
          extend_pct = 94;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let sc =
  {
    name = "SC";
    description = "supercomputer / complex query processing";
    types =
      [
        {
          File_type.name = "sc-large";
          count = 1;
          users = 2;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * kib;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * mib;
          truncate_bytes = 512 * kib;
          initial_mean_bytes = 500 * mib;
          initial_dev_bytes = 0;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
        {
          File_type.name = "sc-medium";
          count = 15;
          users = 6;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * kib;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * mib;
          truncate_bytes = 512 * kib;
          initial_mean_bytes = 100 * mib;
          initial_dev_bytes = 20 * mib;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
        {
          File_type.name = "sc-small";
          count = 10;
          users = 2;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 32 * kib;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 512 * kib;
          truncate_bytes = mib;
          initial_mean_bytes = 10 * mib;
          initial_dev_bytes = 2 * mib;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 5;
          delete_pct_of_deallocs = 100;
          pattern = File_type.Sequential;
        };
      ];
  }

let all = [ ts; tp; sc ]

let by_name name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun w -> String.lowercase_ascii w.name = target) all

let initial_bytes t =
  List.fold_left (fun acc ft -> acc + (ft.File_type.count * ft.File_type.initial_mean_bytes)) 0 t.types

let total_users t = List.fold_left (fun acc ft -> acc + ft.File_type.users) 0 t.types

let extent_ranges t n =
  (* The paper's range tables: TS has its own; TP and SC share one. *)
  let k = kib and m = mib in
  if t.name = "TS" then
    match n with
    | 1 -> [ 4 * k ]
    | 2 -> [ k; 8 * k ]
    | 3 -> [ k; 8 * k; m ]
    | 4 -> [ k; 4 * k; 8 * k; m ]
    | 5 -> [ k; 4 * k; 8 * k; 16 * k; m ]
    | _ -> invalid_arg "Workload.extent_ranges: expected 1..5"
  else
    match n with
    | 1 -> [ 512 * k ]
    | 2 -> [ 512 * k; 16 * m ]
    | 3 -> [ 512 * k; m; 16 * m ]
    | 4 -> [ 512 * k; m; 10 * m; 16 * m ]
    | 5 -> [ 10 * k; 512 * k; m; 10 * m; 16 * m ]
    | _ -> invalid_arg "Workload.extent_ranges: expected 1..5"

let map_types t ~f = { t with types = List.map f t.types }

let with_counts t ~f =
  map_types t ~f:(fun ft -> { ft with File_type.count = f ft })

let scaled t ~factor =
  if not (Float.is_finite factor && factor > 0.) then
    invalid_arg "Workload.scaled: factor must be a finite positive number";
  with_counts t ~f:(fun ft ->
      max 1 (int_of_float (Float.round (float_of_int ft.File_type.count *. factor))))

let validate t =
  if t.types = [] then invalid_arg "Workload.validate: no file types";
  List.iter File_type.validate t.types

(* Sharding support: split a workload into per-slice sub-workloads whose
   file counts and user counts sum back to the original.  The split is a
   pure function of the workload and the weight vector — the sharded
   engine depends on that to produce identical decompositions (hence
   identical results) at every execution width.

   Files are placed byte-greedily, LPT style: types in descending mean
   file size, each file onto the slice with the least assigned bytes
   normalized by its weight (the slice's disk count).  Users follow
   their type's files by largest-remainder apportionment, with two
   deterministic fixups because [File_type.validate] requires every
   emitted type to have both files and users: a slice holding files but
   no users steals one from the slice richest in that type's users, and
   when no slice can spare one (every holder has exactly one user) the
   orphaned files fold into the lightest user-holding slice instead. *)
let partition t ~weights =
  let slices = Array.length weights in
  if slices <= 0 then invalid_arg "Workload.partition: need at least one slice";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Workload.partition: weights must be positive")
    weights;
  if slices = 1 then [| t |]
  else begin
    validate t;
    let types = Array.of_list t.types in
    let n = Array.length types in
    let counts = Array.make_matrix n slices 0 in
    let users = Array.make_matrix n slices 0 in
    let loads = Array.make slices 0 in
    (* Strictly lighter under per-weight normalization: loads.(i)/w_i <
       loads.(j)/w_j, compared by cross-multiplication to stay exact. *)
    let lighter i j = loads.(i) * weights.(j) < loads.(j) * weights.(i) in
    (* Lowest-indexed minimal-load slice satisfying [pred], or -1. *)
    let lightest_such pred =
      let best = ref (-1) in
      for i = slices - 1 downto 0 do
        if pred i && (!best < 0 || not (lighter !best i)) then best := i
      done;
      !best
    in
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let ba = types.(a).File_type.initial_mean_bytes
        and bb = types.(b).File_type.initial_mean_bytes in
        if ba <> bb then compare bb ba else compare a b)
      order;
    Array.iter
      (fun ti ->
        let ft = types.(ti) in
        let mean = ft.File_type.initial_mean_bytes in
        for _f = 1 to ft.File_type.count do
          let s = lightest_such (fun _ -> true) in
          counts.(ti).(s) <- counts.(ti).(s) + 1;
          loads.(s) <- loads.(s) + mean
        done;
        (* Largest-remainder user apportionment over the file shares. *)
        let ctot = ft.File_type.count in
        let placed = ref 0 in
        let rems = Array.make slices (-1) in
        for s = 0 to slices - 1 do
          if counts.(ti).(s) > 0 then begin
            let q = ft.File_type.users * counts.(ti).(s) in
            users.(ti).(s) <- q / ctot;
            rems.(s) <- q mod ctot;
            placed := !placed + (q / ctot)
          end
        done;
        for _grant = 1 to ft.File_type.users - !placed do
          let best = ref (-1) in
          for s = slices - 1 downto 0 do
            if rems.(s) >= 0 && (!best < 0 || rems.(s) >= rems.(!best)) then best := s
          done;
          if !best < 0 then begin
            (* more grants than slices holding files (users >> count):
               pile the rest onto the slice with the most files *)
            let most = ref 0 in
            for s = slices - 1 downto 0 do
              if counts.(ti).(s) >= counts.(ti).(!most) then most := s
            done;
            users.(ti).(!most) <- users.(ti).(!most) + 1
          end
          else begin
            users.(ti).(!best) <- users.(ti).(!best) + 1;
            rems.(!best) <- -1
          end
        done;
        (* Fixups, one ascending pass (neither repair can create a new
           violation at a lower index). *)
        for s = 0 to slices - 1 do
          if counts.(ti).(s) > 0 && users.(ti).(s) = 0 then begin
            let donor = ref 0 in
            for d = slices - 1 downto 0 do
              if users.(ti).(d) >= users.(ti).(!donor) then donor := d
            done;
            if users.(ti).(!donor) >= 2 then begin
              users.(ti).(!donor) <- users.(ti).(!donor) - 1;
              users.(ti).(s) <- users.(ti).(s) + 1
            end
            else begin
              let tgt = lightest_such (fun k -> users.(ti).(k) > 0) in
              if tgt < 0 then
                invalid_arg "Workload.partition: type with files but no users";
              let moved = counts.(ti).(s) * mean in
              counts.(ti).(tgt) <- counts.(ti).(tgt) + counts.(ti).(s);
              loads.(tgt) <- loads.(tgt) + moved;
              loads.(s) <- loads.(s) - moved;
              counts.(ti).(s) <- 0
            end
          end
        done)
      order;
    let result =
      Array.init slices (fun s ->
          let tys = ref [] in
          for ti = n - 1 downto 0 do
            if counts.(ti).(s) > 0 then
              tys :=
                { (types.(ti)) with File_type.count = counts.(ti).(s); users = users.(ti).(s) }
                :: !tys
          done;
          { t with types = !tys })
    in
    Array.iteri
      (fun s w ->
        if w.types = [] then
          invalid_arg
            (Printf.sprintf
               "Workload.partition: workload %s is too small to populate %d slices (slice %d empty)"
               t.name slices s);
        validate w)
      result;
    result
  end
