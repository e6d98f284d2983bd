(* AVL tree with per-node augmentation: height, subtree extent count,
   subtree total length, subtree maximum length.  Rebalancing recomputes
   augmented fields bottom-up in [node]. *)

type t =
  | Leaf
  | Node of {
      left : t;
      addr : int;
      len : int;
      right : t;
      height : int;
      count : int;
      total : int;
      max_len : int;
    }

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let height = function Leaf -> 0 | Node { height; _ } -> height
let cardinal = function Leaf -> 0 | Node { count; _ } -> count
let total_len = function Leaf -> 0 | Node { total; _ } -> total
let max_len = function Leaf -> 0 | Node { max_len; _ } -> max_len

let node left addr len right =
  Node
    {
      left;
      addr;
      len;
      right;
      height = 1 + max (height left) (height right);
      count = 1 + cardinal left + cardinal right;
      total = len + total_len left + total_len right;
      max_len = max len (max (max_len left) (max_len right));
    }

let balance_factor = function Leaf -> 0 | Node { left; right; _ } -> height left - height right

let rotate_left = function
  | Node { left; addr; len; right = Node { left = rl; addr = raddr; len = rlen; right = rr; _ }; _ }
    ->
      node (node left addr len rl) raddr rlen rr
  | t -> t

let rotate_right = function
  | Node { left = Node { left = ll; addr = laddr; len = llen; right = lr; _ }; addr; len; right; _ }
    ->
      node ll laddr llen (node lr addr len right)
  | t -> t

let rebalance t =
  match t with
  | Leaf -> t
  | Node { left; addr; len; right; _ } ->
      let bf = balance_factor t in
      if bf > 1 then
        let left = if balance_factor left < 0 then rotate_left left else left in
        rotate_right (node left addr len right)
      else if bf < -1 then
        let right = if balance_factor right > 0 then rotate_right right else right in
        rotate_left (node left addr len right)
      else t

let rec mem t ~addr =
  match t with
  | Leaf -> false
  | Node n -> if addr = n.addr then true else if addr < n.addr then mem n.left ~addr else mem n.right ~addr

let rec find t ~addr =
  match t with
  | Leaf -> None
  | Node n ->
      if addr = n.addr then Some n.len
      else if addr < n.addr then find n.left ~addr
      else find n.right ~addr

let rec insert t ~addr ~len =
  if len <= 0 then invalid_arg "Free_tree.insert: non-positive length";
  match t with
  | Leaf -> node Leaf addr len Leaf
  | Node n ->
      if addr = n.addr then invalid_arg "Free_tree.insert: duplicate address"
      else if addr < n.addr then rebalance (node (insert n.left ~addr ~len) n.addr n.len n.right)
      else rebalance (node n.left n.addr n.len (insert n.right ~addr ~len))

let rec min_extent = function
  | Leaf -> None
  | Node { left = Leaf; addr; len; _ } -> Some (addr, len)
  | Node { left; _ } -> min_extent left

let rec remove_min = function
  | Leaf -> Leaf
  | Node { left = Leaf; right; _ } -> right
  | Node { left; addr; len; right; _ } -> rebalance (node (remove_min left) addr len right)

let rec remove t ~addr =
  match t with
  | Leaf -> Leaf
  | Node n ->
      if addr < n.addr then rebalance (node (remove n.left ~addr) n.addr n.len n.right)
      else if addr > n.addr then rebalance (node n.left n.addr n.len (remove n.right ~addr))
      else begin
        match (n.left, n.right) with
        | Leaf, r -> r
        | l, Leaf -> l
        | l, r -> begin
            match min_extent r with
            | None -> assert false
            | Some (saddr, slen) -> rebalance (node l saddr slen (remove_min r))
          end
      end

(* [pred]/[succ] carry the best node seen so far, not an option, so the
   descent allocates only the one result. *)
let found = function Leaf -> None | Node n -> Some (n.addr, n.len)

let rec pred_below t ~addr best =
  match t with
  | Leaf -> found best
  | Node n -> if n.addr < addr then pred_below n.right ~addr t else pred_below n.left ~addr best

let rec succ_above t ~addr best =
  match t with
  | Leaf -> found best
  | Node n -> if n.addr > addr then succ_above n.left ~addr t else succ_above n.right ~addr best

let pred t ~addr = pred_below t ~addr Leaf
let succ t ~addr = succ_above t ~addr Leaf

let rec max_key = function
  | Leaf -> min_int
  | Node { right = Leaf; addr; _ } -> addr
  | Node { right; _ } -> max_key right

let rec min_key = function
  | Leaf -> max_int
  | Node { left = Leaf; addr; _ } -> addr
  | Node { left; _ } -> min_key left

(* One path copy: every node keeps its height, so no rotation.  [lo] and
   [hi] are the nearest ancestor keys on either side of the path; with
   the target's own subtrees they bound where its new key may go. *)
let rec replace_in t ~addr ~new_addr ~len ~lo ~hi =
  match t with
  | Leaf -> invalid_arg "Free_tree.replace: absent address"
  | Node n ->
      if addr < n.addr then
        node (replace_in n.left ~addr ~new_addr ~len ~lo ~hi:n.addr) n.addr n.len n.right
      else if addr > n.addr then
        node n.left n.addr n.len (replace_in n.right ~addr ~new_addr ~len ~lo:n.addr ~hi)
      else if
        (new_addr < addr && new_addr <= max lo (max_key n.left))
        || (new_addr > addr && new_addr >= min hi (min_key n.right))
      then invalid_arg "Free_tree.replace: new address out of order"
      else node n.left new_addr len n.right

let replace t ~addr ~new_addr ~len =
  if len <= 0 then invalid_arg "Free_tree.replace: non-positive length";
  replace_in t ~addr ~new_addr ~len ~lo:min_int ~hi:max_int

(* Lowest-addressed node with len >= want: explore left subtree first if
   it can contain a fit, then the node, then the right subtree.  The
   max_len pruning makes the walk follow a single root-to-leaf corridor,
   so it is O(log n). *)
let rec first_fit t ~want =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < want then None
      else if max_len n.left >= want then first_fit n.left ~want
      else if n.len >= want then Some (n.addr, n.len)
      else first_fit n.right ~want

let rec first_fit_from t ~min_addr ~want =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < want then None
      else if n.addr < min_addr then first_fit_from n.right ~min_addr ~want
      else begin
        (* Node key qualifies by address; the left subtree may still hold
           a lower-addressed qualifying extent. *)
        match first_fit_from n.left ~min_addr ~want with
        | Some _ as hit -> hit
        | None -> if n.len >= want then Some (n.addr, n.len) else first_fit_from n.right ~min_addr ~want
      end

let rec iter t f =
  match t with
  | Leaf -> ()
  | Node n ->
      iter n.left f;
      f ~addr:n.addr ~len:n.len;
      iter n.right f

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~addr ~len -> acc := f !acc ~addr ~len);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc ~addr ~len -> (addr, len) :: acc))

let check_invariants t =
  let rec go t =
    match t with
    | Leaf -> Ok (0, 0, 0, 0, None, None)
    | Node n -> begin
        match go n.left with
        | Error _ as e -> e
        | Ok (lh, lc, lt, lm, lmin, lmax) -> begin
            match go n.right with
            | Error _ as e -> e
            | Ok (rh, rc, rt, rm, rmin, rmax) ->
                if abs (lh - rh) > 1 then Error (Printf.sprintf "unbalanced at %d" n.addr)
                else if n.height <> 1 + max lh rh then Error "bad height"
                else if n.count <> 1 + lc + rc then Error "bad count"
                else if n.total <> n.len + lt + rt then Error "bad total"
                else if n.max_len <> max n.len (max lm rm) then Error "bad max_len"
                else if (match lmax with Some a -> a >= n.addr | None -> false) then
                  Error "left key >= node"
                else if (match rmin with Some a -> a <= n.addr | None -> false) then
                  Error "right key <= node"
                else begin
                  let mn = match lmin with Some _ -> lmin | None -> Some n.addr in
                  let mx = match rmax with Some _ -> rmax | None -> Some n.addr in
                  Ok (n.height, n.count, n.total, n.max_len, mn, mx)
                end
          end
      end
  in
  match go t with Ok _ -> Ok () | Error e -> Error e
