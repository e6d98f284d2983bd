module Free_tree = Rofs_util.Free_tree

(* Secondary index for best fit: free extents ordered by (len, addr), so
   the first element with len >= want is the smallest adequate extent,
   lowest-addressed among equals. *)
module Size_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type fit = First_fit | Best_fit

type config = { unit_bytes : int; fit : fit; range_means_bytes : int list }

let config ?(unit_bytes = 1024) ?(fit = First_fit) ~range_means_bytes () =
  { unit_bytes; fit; range_means_bytes }

type space = {
  cfg : config;
  mutable tree : Free_tree.t;
  mutable by_size : Size_set.t;
  rng : Rofs_util.Rng.t;  (** per-file extent-size draws *)
}

let insert_free t ~addr ~len =
  t.tree <- Free_tree.insert t.tree ~addr ~len;
  t.by_size <- Size_set.add (len, addr) t.by_size

let remove_free t ~addr ~len =
  t.tree <- Free_tree.remove t.tree ~addr;
  t.by_size <- Size_set.remove (len, addr) t.by_size

(* Free with immediate coalescing against both neighbours. *)
let release t ~addr ~len =
  let addr, len =
    match Free_tree.pred t.tree ~addr with
    | Some (paddr, plen) when paddr + plen = addr ->
        remove_free t ~addr:paddr ~len:plen;
        (paddr, plen + len)
    | Some _ | None -> (addr, len)
  in
  let len =
    match Free_tree.succ t.tree ~addr with
    | Some (saddr, slen) when addr + len = saddr ->
        remove_free t ~addr:saddr ~len:slen;
        len + slen
    | Some _ | None -> len
  in
  insert_free t ~addr ~len

let find_fit t want =
  match t.cfg.fit with
  | First_fit -> Free_tree.first_fit t.tree ~want
  | Best_fit -> begin
      match Size_set.find_first_opt (fun (l, _) -> l >= want) t.by_size with
      | Some (len, addr) -> Some (addr, len)
      | None -> None
    end

let claim t want =
  match find_fit t want with
  | None -> None
  | Some (addr, len) ->
      remove_free t ~addr ~len;
      if len > want then insert_free t ~addr:(addr + want) ~len:(len - want);
      Some (Extent.make ~addr ~len:want)

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

let free_hist t =
  (* [by_size] iterates in (len, addr) order, so runs of equal lengths
     are consecutive — group them into (size, count). *)
  let pairs =
    Size_set.fold
      (fun (len, _addr) acc ->
        match acc with
        | (l, c) :: rest when l = len -> (l, c + 1) :: rest
        | _ -> (len, 1) :: acc)
      t.by_size []
  in
  List.rev pairs

let create cfg ~total_units ~rng =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Extent_alloc.create";
  if cfg.range_means_bytes = [] then invalid_arg "Extent_alloc.create: no extent ranges";
  let t = { cfg; tree = Free_tree.empty; by_size = Size_set.empty; rng } in
  insert_free t ~addr:0 ~len:total_units;
  let name =
    Printf.sprintf "extent(%s, %d ranges)"
      (match cfg.fit with First_fit -> "first-fit" | Best_fit -> "best-fit")
      (List.length cfg.range_means_bytes)
  in
  Policy.make ~name ~unit_bytes:cfg.unit_bytes ~total_units ~new_file:draw_extent_units
    ~take:(fun st ~file:_ f ~target:_ -> claim st.Policy.space f.Policy.data)
    ~give:(fun t _ e -> release t ~addr:e.Extent.addr ~len:e.Extent.len)
    ~free_units:(fun t -> Free_tree.total_len t.tree)
    ~largest_free:(fun t -> Free_tree.max_len t.tree)
    ~free_hist t
