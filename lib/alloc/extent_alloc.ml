module Free_tree = Rofs_util.Free_tree

(* Best fit's by-size index: free extents ordered by (len, addr), so the
   first element with len >= want is the smallest adequate extent,
   lowest-addressed among equals.  First fit needs no such index. *)
module Size_set = Set.Make (struct
  type t = int * int

  let compare (l1, a1) (l2, a2) =
    let c = Int.compare l1 l2 in
    if c <> 0 then c else Int.compare a1 a2
end)

type fit = First_fit | Best_fit

type config = { unit_bytes : int; fit : fit; range_means_bytes : int list }

let config ?(unit_bytes = 1024) ?(fit = First_fit) ~range_means_bytes () =
  { unit_bytes; fit; range_means_bytes }

type space = {
  cfg : config;
  tree : Free_tree.t;  (** updated in place *)
  mutable by_size : Size_set.t;  (** best fit only; empty under first fit *)
  rng : Rofs_util.Rng.t;  (** per-file extent-size draws *)
}

let index t ~addr ~len =
  match t.cfg.fit with
  | Best_fit -> t.by_size <- Size_set.add (len, addr) t.by_size
  | First_fit -> ()

let unindex t ~addr ~len =
  match t.cfg.fit with
  | Best_fit -> t.by_size <- Size_set.remove (len, addr) t.by_size
  | First_fit -> ()

(* The free extent [(addr, len)] becomes [(new_addr, new_len)]; no other
   free extent starts between the two addresses. *)
let reshape t ~addr ~len ~new_addr ~new_len =
  unindex t ~addr ~len;
  Free_tree.replace t.tree ~addr ~new_addr ~len:new_len;
  index t ~addr:new_addr ~len:new_len

(* Free with immediate coalescing against both neighbours: extend the
   predecessor, move the successor's key down over the freed run, or
   both (the successor folds into the predecessor).  Only an isolated
   run is a new extent.  The run [addr, stop) was allocated, so a
   successor that touches it starts exactly at [stop]. *)
let release t ~addr ~len =
  let stop = addr + len in
  let paddr = Free_tree.pred t.tree ~addr in
  let plen = if paddr < 0 then 0 else Free_tree.length t.tree ~addr:paddr in
  let slen = Free_tree.length t.tree ~addr:stop in
  if paddr >= 0 && paddr + plen = addr then begin
    if slen > 0 then begin
      unindex t ~addr:stop ~len:slen;
      Free_tree.remove t.tree ~addr:stop
    end;
    reshape t ~addr:paddr ~len:plen ~new_addr:paddr ~new_len:(plen + len + slen)
  end
  else if slen > 0 then reshape t ~addr:stop ~len:slen ~new_addr:addr ~new_len:(len + slen)
  else begin
    Free_tree.insert t.tree ~addr ~len;
    index t ~addr ~len
  end

(* Address of the extent the fit rule picks for [want] units, or -1. *)
let find_fit t want =
  match t.cfg.fit with
  | First_fit -> Free_tree.first_fit t.tree ~want
  | Best_fit -> begin
      match Size_set.find_first_opt (fun (l, _) -> l >= want) t.by_size with
      | Some (_, addr) -> addr
      | None -> -1
    end

(* Carve as many [want]-unit pieces off the front of one fit as the file
   still needs and the fit holds, in a single update.  This is exactly
   that many successive one-piece claims: under first fit no lower
   extent has changed, and under best fit no free extent is as short as
   [len] yet at least [want], so each remainder is the next fit. *)
let claim t fx ~want ~target =
  let addr = find_fit t want in
  if addr < 0 then false
  else begin
    let len = Free_tree.length t.tree ~addr in
    let needed = target - File_extents.allocated_units fx in
    let k = min (len / want) ((needed + want - 1) / want) in
    let used = k * want in
    if used = len then begin
      unindex t ~addr ~len;
      Free_tree.remove t.tree ~addr
    end
    else reshape t ~addr ~len ~new_addr:(addr + used) ~new_len:(len - used);
    for i = 0 to k - 1 do
      File_extents.push fx ~addr:(addr + (i * want)) ~len:want
    done;
    true
  end

(* A file's extent size: a draw from the range whose mean is nearest its
   allocation hint, std 10% of the mean, rounded to whole units. *)
let draw_extent_units t ~hint =
  let hint_bytes = float_of_int (hint * t.cfg.unit_bytes) in
  let nearest =
    List.fold_left
      (fun best mean ->
        match best with
        | None -> Some mean
        | Some b ->
            if Float.abs (float_of_int mean -. hint_bytes) < Float.abs (float_of_int b -. hint_bytes)
            then Some mean
            else best)
      None t.cfg.range_means_bytes
  in
  let mean = float_of_int (Option.get nearest) in
  let bytes = Rofs_util.Dist.normal_positive t.rng ~mean ~std:(0.1 *. mean) in
  max 1 (int_of_float (Float.round (bytes /. float_of_int t.cfg.unit_bytes)))

(* Sorted free lengths, grouped into (size, count). *)
let free_hist t =
  Free_tree.fold t.tree ~init:[] ~f:(fun acc ~addr:_ ~len -> len :: acc)
  |> List.sort (fun a b -> Int.compare b a)
  |> List.fold_left
       (fun acc len ->
         match acc with (l, c) :: rest when l = len -> (l, c + 1) :: rest | _ -> (len, 1) :: acc)
       []

let create cfg ~total_units ~rng =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Extent_alloc.create";
  if cfg.range_means_bytes = [] then invalid_arg "Extent_alloc.create: no extent ranges";
  let t = { cfg; tree = Free_tree.create (); by_size = Size_set.empty; rng } in
  release t ~addr:0 ~len:total_units;
  let name =
    Printf.sprintf "extent(%s, %d ranges)"
      (match cfg.fit with First_fit -> "first-fit" | Best_fit -> "best-fit")
      (List.length cfg.range_means_bytes)
  in
  Policy.make ~name ~unit_bytes:cfg.unit_bytes ~total_units ~new_file:draw_extent_units
    ~take:(fun st ~file:_ f ~target -> claim st.Policy.space f.Policy.fx ~want:f.Policy.data ~target)
    ~give:(fun t _ ~addr ~len -> release t ~addr ~len)
    ~give_run:(fun t _ ~addr ~len -> release t ~addr ~len)
    ~free_units:(fun t -> Free_tree.total_len t.tree)
    ~largest_free:(fun t -> Free_tree.max_len t.tree)
    ~free_hist t
