module Rng = Rofs_util.Rng
module Dist = Rofs_util.Dist
module Heap = Rofs_util.Heap

type op =
  | Read of { off : int; bytes : int }
  | Write of { off : int; bytes : int }
  | Extend of int
  | Grow of int
  | Truncate of int
  | Delete
  | Create of { bytes : int; hint : int; ty : int }

type event = { time_ms : float; file : int; op : op }

type t = { name : string; initial : (int * int * int * int) list; events : event list }

type warnings = { stale_refs : int }

let event_count t = List.length t.events

let duration_ms t =
  List.fold_left (fun acc e -> Float.max acc e.time_ms) 0. t.events

let validate t =
  let check_size what n = if n < 0 then Error (what ^ ": negative size") else Ok () in
  (* Ids the trace has introduced so far; events referencing anything
     else are stale (legal to skip at replay, but worth surfacing). *)
  let known : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let stale = ref 0 in
  let rec events last = function
    | [] -> Ok { stale_refs = !stale }
    | e :: rest ->
        if not (Float.is_finite e.time_ms) then Error "non-finite event time"
        else if e.time_ms < last then Error "events out of time order"
        else if e.file < 0 then Error "negative file id"
        else begin
          let sized =
            match e.op with
            | Read { off; bytes } | Write { off; bytes } ->
                if off < 0 then Error "negative offset" else check_size "read/write" bytes
            | Extend n -> check_size "extend" n
            | Grow n -> check_size "grow" n
            | Truncate n -> check_size "truncate" n
            | Delete -> Ok ()
            | Create { bytes; hint; ty } ->
                if hint <= 0 then Error "create: non-positive hint"
                else if ty < 0 then Error "create: negative type"
                else check_size "create" bytes
          in
          match sized with
          | Error _ as err -> err
          | Ok () ->
              (match e.op with
              | Create _ -> Hashtbl.replace known e.file ()
              | Delete ->
                  if Hashtbl.mem known e.file then Hashtbl.remove known e.file else incr stale
              | Read _ | Write _ | Extend _ | Grow _ | Truncate _ ->
                  if not (Hashtbl.mem known e.file) then incr stale);
              events e.time_ms rest
        end
  in
  let rec initial = function
    | [] -> events 0. t.events
    | (id, bytes, hint, ty) :: rest ->
        if id < 0 || bytes < 0 || hint <= 0 || ty < 0 then Error "bad initial file"
        else begin
          Hashtbl.replace known id ();
          initial rest
        end
  in
  initial t.initial

(* ------------------------------------------------------------------ *)
(* Synthesis: the Section 2.2 stochastic model rendered to a trace.    *)

type sim_user = {
  ft : File_type.t;
  type_idx : int;
  rng : Rng.t;
  mutable current : int;  (** sequential-pattern file binding *)
  mutable seq_offset : int;
}

let synthesize ~workload ~duration_ms ~seed =
  Workload.validate workload;
  let rng = Rng.create ~seed in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let by_type : int array array ref = ref [||] in
  let next_id = ref 0 in
  let initial = ref [] in
  let types = Array.of_list workload.Workload.types in
  (* population *)
  let live = Array.map (fun _ -> ref []) types in
  Array.iteri
    (fun type_idx ft ->
      for _ = 1 to ft.File_type.count do
        let id = !next_id in
        incr next_id;
        let bytes = File_type.draw_initial_bytes ft rng in
        Hashtbl.replace sizes id bytes;
        initial := (id, bytes, ft.File_type.alloc_hint_bytes, type_idx) :: !initial;
        live.(type_idx) := id :: !(live.(type_idx))
      done)
    types;
  by_type := Array.map (fun l -> Array.of_list !l) live;
  let pick_live u =
    let pool = !by_type.(u.type_idx) in
    if Array.length pool = 0 then None
    else begin
      (* skip ids whose size entry vanished (deleted) by rejection;
         deletions are immediately followed by creations of a fresh id,
         which replaces the slot. *)
      let idx = Rng.int u.rng (Array.length pool) in
      Some (idx, pool.(idx))
    end
  in
  let heap = Heap.create () in
  Array.iteri
    (fun type_idx ft ->
      for _ = 1 to ft.File_type.users do
        let user =
          { ft; type_idx; rng = Rng.split rng; current = -1; seq_offset = 0 }
        in
        let spread = float_of_int ft.File_type.users *. ft.File_type.hit_freq_ms in
        Heap.push heap ~prio:(Dist.uniform rng ~lo:0. ~hi:(Float.max spread 1.)) user
      done)
    types;
  let events = ref [] in
  let emit time_ms file op = events := { time_ms; file; op } :: !events in
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (time, u) when time <= duration_ms -> begin
        (match pick_live u with
        | None -> ()
        | Some (slot, file) -> begin
            let size = Hashtbl.find sizes file in
            let rw_bytes () = File_type.draw_rw_bytes u.ft u.rng in
            let positioned () =
              match u.ft.File_type.pattern with
              | File_type.Whole_file -> (0, size)
              | File_type.Random_access ->
                  let bytes = min (rw_bytes ()) size in
                  let span = size - bytes in
                  ((if span = 0 then 0 else Rng.int u.rng (span + 1)), bytes)
              | File_type.Sequential ->
                  if u.current <> file then begin
                    u.current <- file;
                    u.seq_offset <- 0
                  end;
                  let off = if u.seq_offset >= size then 0 else u.seq_offset in
                  let bytes = min (rw_bytes ()) (size - off) in
                  u.seq_offset <- off + bytes;
                  (off, bytes)
            in
            match File_type.pick_op u.ft u.rng with
            | File_type.Read ->
                if size > 0 then begin
                  let off, bytes = positioned () in
                  emit time file (Read { off; bytes })
                end
            | File_type.Write ->
                if size > 0 then begin
                  let off, bytes = positioned () in
                  emit time file (Write { off; bytes })
                end
            | File_type.Extend ->
                let bytes = rw_bytes () in
                Hashtbl.replace sizes file (size + bytes);
                emit time file (Extend bytes)
            | File_type.Truncate ->
                let bytes = min u.ft.File_type.truncate_bytes size in
                Hashtbl.replace sizes file (size - bytes);
                emit time file (Truncate bytes)
            | File_type.Delete ->
                emit time file Delete;
                Hashtbl.remove sizes file;
                let fresh = !next_id in
                incr next_id;
                Hashtbl.replace sizes fresh size;
                !by_type.(u.type_idx).(slot) <- fresh;
                emit time fresh
                  (Create
                     { bytes = size; hint = u.ft.File_type.alloc_hint_bytes; ty = u.type_idx })
          end);
        let think = Dist.exponential u.rng ~mean:u.ft.File_type.process_time_ms in
        Heap.push heap ~prio:(time +. think) u;
        loop ()
      end
    | Some _ -> ()
  in
  loop ();
  { name = workload.Workload.name; initial = List.rev !initial; events = List.rev !events }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let op_to_string = function
  | Read { off; bytes } -> Printf.sprintf "read %d %d" bytes off
  | Write { off; bytes } -> Printf.sprintf "write %d %d" bytes off
  | Extend n -> Printf.sprintf "extend %d -" n
  | Grow n -> Printf.sprintf "grow %d -" n
  | Truncate n -> Printf.sprintf "truncate %d -" n
  | Delete -> "delete 0 -"
  | Create { bytes; hint; ty } -> Printf.sprintf "create %d %d %d" bytes hint ty

let save t =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer (Printf.sprintf "# rofs-trace v2 %s\n" t.name);
  List.iter
    (fun (id, bytes, hint, ty) ->
      Buffer.add_string buffer (Printf.sprintf "file %d %d %d %d\n" id bytes hint ty))
    t.initial;
  List.iter
    (fun e ->
      Buffer.add_string buffer
        (Printf.sprintf "ev %.3f %d %s\n" e.time_ms e.file (op_to_string e.op)))
    t.events;
  Buffer.contents buffer

let load text =
  let lines = String.split_on_char '\n' text in
  let int_args args = List.map int_of_string_opt args in
  let parse_op kind args =
    match (kind, int_args args) with
    | "read", [ Some bytes; Some off ] -> Ok (Read { bytes; off })
    | "write", [ Some bytes; Some off ] -> Ok (Write { bytes; off })
    | "extend", Some n :: _ -> Ok (Extend n)
    | "grow", Some n :: _ -> Ok (Grow n)
    | "truncate", Some n :: _ -> Ok (Truncate n)
    | "delete", _ -> Ok Delete
    (* v1 create lines carry no type; default to type 0. *)
    | "create", [ Some bytes; Some hint ] -> Ok (Create { bytes; hint; ty = 0 })
    | "create", [ Some bytes; Some hint; Some ty ] -> Ok (Create { bytes; hint; ty })
    | ("read" | "write" | "extend" | "grow" | "truncate" | "create"), _ ->
        Error (Printf.sprintf "malformed %s arguments" kind)
    | other, _ -> Error (Printf.sprintf "unknown op %S" other)
  in
  let rec go lineno name initial events = function
    | [] -> begin
        let t = { name; initial = List.rev initial; events = List.rev events } in
        match validate t with Ok _ -> Ok t | Error e -> Error e
      end
    | line :: rest -> begin
        let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
        match String.split_on_char ' ' (String.trim line) with
        | [ "" ] -> go (lineno + 1) name initial events rest
        | "#" :: "rofs-trace" :: ("v1" | "v2") :: name_parts ->
            go (lineno + 1) (String.concat " " name_parts) initial events rest
        | "#" :: _ -> go (lineno + 1) name initial events rest
        (* v1 file lines carry no type; default to type 0. *)
        | "file" :: ([ _; _; _ ] | [ _; _; _; _ ]) as fields -> begin
            match int_args (List.tl fields) with
            | [ Some id; Some bytes; Some hint ] ->
                go (lineno + 1) name ((id, bytes, hint, 0) :: initial) events rest
            | [ Some id; Some bytes; Some hint; Some ty ] ->
                go (lineno + 1) name ((id, bytes, hint, ty) :: initial) events rest
            | _ -> fail "malformed file line"
          end
        | "ev" :: time :: file :: kind :: args -> begin
            match (float_of_string_opt time, int_of_string_opt file) with
            | Some time_ms, Some file -> begin
                match parse_op kind args with
                | Ok op -> go (lineno + 1) name initial ({ time_ms; file; op } :: events) rest
                | Error msg -> fail msg
              end
            | _ -> fail "malformed event line"
          end
        | _ -> fail "unrecognized line"
      end
  in
  go 1 "trace" [] [] lines
