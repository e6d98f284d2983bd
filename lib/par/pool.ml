(* Domain pool over a shared work counter.  Workers claim task indices
   with [Atomic.fetch_and_add] and write results into the slot of the
   task they ran, so the result array is ordered by input position no
   matter which domain ran what.  [Domain.join] provides the
   happens-before edge that makes those writes visible to the caller. *)

let default_jobs () =
  match Sys.getenv_opt "ROFS_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "ROFS_JOBS=%S: expected a positive integer" s))

let map ?jobs f tasks =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs <= 1 || n <= 1 then Array.map f tasks
  else begin
    let jobs = min jobs n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let cell =
            match f tasks.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some cell;
          loop ()
        end
      in
      loop ()
    in
    (* The calling domain is worker zero; every spawned domain is joined
       before any result (or failure) surfaces. *)
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map_list ?jobs f tasks = Array.to_list (map ?jobs f (Array.of_list tasks))
