module Trace = Rofs_workload.Trace

(* Shared assembly: requests arrive as (time_ms, stream_key, kind, off,
   len); streams become files sized to cover every request, so the
   trace validates cleanly and replays without clipping. *)
let assemble ~name ~hint_bytes requests =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let spans : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let file_of key =
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.replace ids key id;
        id
  in
  let events =
    List.map
      (fun (time_ms, key, kind, off, len) ->
        let file = file_of key in
        let span = off + len in
        (match Hashtbl.find_opt spans file with
        | Some s when s >= span -> ()
        | _ -> Hashtbl.replace spans file span);
        let op =
          match kind with
          | `Read -> Trace.Read { off; bytes = len }
          | `Write -> Trace.Write { off; bytes = len }
        in
        { Trace.time_ms; file; op })
      requests
  in
  (* Stable sort: equal-time requests keep their source order. *)
  let events =
    List.stable_sort (fun a b -> Float.compare a.Trace.time_ms b.Trace.time_ms) events
  in
  let initial =
    List.init !next (fun id ->
        let bytes = match Hashtbl.find_opt spans id with Some s -> s | None -> 0 in
        (id, bytes, hint_bytes, 0))
  in
  { Trace.name; initial; events }

let foreach_line text f =
  let lineno = ref 0 in
  let err = ref None in
  List.iter
    (fun line ->
      incr lineno;
      if !err = None then
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then
          match f line with
          | Ok () -> ()
          | Error msg -> err := Some (Printf.sprintf "line %d: %s" !lineno msg))
    (String.split_on_char '\n' text);
  !err

(* One request's time and byte range, refused when the time is not
   finite or the offset or end of the range overflows an [int]. *)
let request ~sector_bytes ~seconds ~sector ~len =
  let time_ms = seconds *. 1000. in
  if not (Float.is_finite time_ms) then Error "non-finite timestamp"
  else if sector > max_int / sector_bytes then Error "byte offset overflows"
  else
    let off = sector * sector_bytes in
    if len > max_int - off then Error "request end overflows" else Ok (time_ms, off)

(* Parse every line of [text] into [requests], then assemble.  A
   non-positive sector or hint size would give the trace invalid
   offsets or hints, so it is refused first. *)
let import ~name ~sector_bytes ~hint_bytes text parse requests =
  if sector_bytes <= 0 then Error "sector_bytes must be positive"
  else if hint_bytes <= 0 then Error "hint_bytes must be positive"
  else
    match foreach_line text parse with
    | Some msg -> Error msg
    | None -> Ok (assemble ~name ~hint_bytes (List.rev !requests))

let kind_of_rwbs rwbs = if String.contains rwbs 'R' || String.contains rwbs 'r' then `Read else `Write

let spc ?(name = "spc-import") ?(sector_bytes = 512) ?(hint_bytes = 64 * 1024) text =
  let requests = ref [] in
  let parse line =
    match String.split_on_char ',' line with
    | asu :: lba :: size :: opcode :: timestamp :: _ -> begin
        match
          ( int_of_string_opt (String.trim lba),
            int_of_string_opt (String.trim size),
            float_of_string_opt (String.trim timestamp) )
        with
        | Some lba, Some size, Some seconds when lba >= 0 && size >= 0 && seconds >= 0. ->
            Result.map
              (fun (time_ms, off) ->
                let kind = kind_of_rwbs (String.trim opcode) in
                requests := (time_ms, String.trim asu, kind, off, size) :: !requests)
              (request ~sector_bytes ~seconds ~sector:lba ~len:size)
        | _ -> Error "malformed SPC record"
      end
    | _ -> Error "expected asu,lba,size,opcode,timestamp"
  in
  import ~name ~sector_bytes ~hint_bytes text parse requests

let blktrace ?(name = "blktrace-import") ?(sector_bytes = 512) ?(hint_bytes = 64 * 1024) text
    =
  let requests = ref [] in
  let parse line =
    let fields = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
    match fields with
    | dev :: _cpu :: _seq :: time :: _pid :: action :: rwbs :: sector :: "+" :: nsectors :: _
      -> begin
        if action <> "Q" then Ok ()
        else
          match
            (float_of_string_opt time, int_of_string_opt sector, int_of_string_opt nsectors)
          with
          | Some seconds, Some sector, Some nsectors
            when seconds >= 0. && sector >= 0 && nsectors >= 0 ->
              if nsectors > max_int / sector_bytes then Error "request length overflows"
              else
                let len = nsectors * sector_bytes in
                Result.map
                  (fun (time_ms, off) ->
                    requests := (time_ms, dev, kind_of_rwbs rwbs, off, len) :: !requests)
                  (request ~sector_bytes ~seconds ~sector ~len)
          | _ -> Error "malformed blktrace record"
      end
    (* blkparse output interleaves message and summary lines with other
       shapes; anything that is not a "sector + nsectors" record is
       noise to us. *)
    | _ -> Ok ()
  in
  import ~name ~sector_bytes ~hint_bytes text parse requests
