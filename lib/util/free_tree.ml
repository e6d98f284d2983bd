(* AVL tree with per-node augmentation: height, subtree extent count,
   subtree total length, subtree maximum length.  Nodes are updated in
   place: an update walks down, mutates, and on the way back up each
   node on the path recomputes its augmented fields from its children
   ([fix]) after they have been fixed.  Every walk is a top-level
   function, so none builds a closure. *)

type node =
  | Leaf
  | Node of {
      mutable left : node;
      mutable addr : int;
      mutable len : int;
      mutable right : node;
      mutable height : int;
      mutable count : int;
      mutable total : int;
      mutable max_len : int;
    }

type t = { mutable root : node }

let create () = { root = Leaf }

let height = function Leaf -> 0 | Node n -> n.height
let count = function Leaf -> 0 | Node n -> n.count
let total = function Leaf -> 0 | Node n -> n.total
let max_of = function Leaf -> 0 | Node n -> n.max_len

let cardinal t = count t.root
let total_len t = total t.root
let max_len t = max_of t.root

let fix = function
  | Leaf -> ()
  | Node n ->
      n.height <- 1 + Int.max (height n.left) (height n.right);
      n.count <- 1 + count n.left + count n.right;
      n.total <- n.len + total n.left + total n.right;
      n.max_len <- Int.max n.len (Int.max (max_of n.left) (max_of n.right))

let balance_factor = function Leaf -> 0 | Node n -> height n.left - height n.right

(* Rotations relink the two nodes, fix them lowest first, and return the
   subtree's new root. *)
let rotate_left t =
  match t with
  | Node n -> begin
      match n.right with
      | Node r as rt ->
          n.right <- r.left;
          fix t;
          r.left <- t;
          fix rt;
          rt
      | Leaf -> t
    end
  | Leaf -> t

let rotate_right t =
  match t with
  | Node n -> begin
      match n.left with
      | Node l as lt ->
          n.left <- l.right;
          fix t;
          l.right <- t;
          fix lt;
          lt
      | Leaf -> t
    end
  | Leaf -> t

(* [t]'s children are balanced and fixed; fix [t] and return the root of
   the rebalanced subtree. *)
let rebalance t =
  match t with
  | Leaf -> t
  | Node n ->
      let bf = height n.left - height n.right in
      if bf > 1 then begin
        if balance_factor n.left < 0 then n.left <- rotate_left n.left;
        rotate_right t
      end
      else if bf < -1 then begin
        if balance_factor n.right > 0 then n.right <- rotate_right n.right;
        rotate_left t
      end
      else begin
        fix t;
        t
      end

let rec length_in t ~addr =
  match t with
  | Leaf -> 0
  | Node n ->
      if addr = n.addr then n.len
      else if addr < n.addr then length_in n.left ~addr
      else length_in n.right ~addr

let length t ~addr = length_in t.root ~addr

(* The duplicate check raises on the way down, before any node changes. *)
let rec insert_in t ~addr ~len =
  match t with
  | Leaf -> Node { left = Leaf; addr; len; right = Leaf; height = 1; count = 1; total = len; max_len = len }
  | Node n ->
      if addr = n.addr then invalid_arg "Free_tree.insert: duplicate address"
      else if addr < n.addr then n.left <- insert_in n.left ~addr ~len
      else n.right <- insert_in n.right ~addr ~len;
      rebalance t

let insert t ~addr ~len =
  if len <= 0 then invalid_arg "Free_tree.insert: non-positive length";
  t.root <- insert_in t.root ~addr ~len

(* Unlink the minimum of a non-empty subtree after copying its extent
   into [into], and return what is left of the subtree. *)
let rec remove_min t ~into =
  match t with
  | Leaf -> Leaf
  | Node n -> begin
      match n.left with
      | Leaf ->
          (match into with
          | Node d ->
              d.addr <- n.addr;
              d.len <- n.len
          | Leaf -> ());
          n.right
      | l ->
          n.left <- remove_min l ~into;
          rebalance t
    end

let rec remove_in t ~addr =
  match t with
  | Leaf -> Leaf
  | Node n ->
      if addr < n.addr then begin
        n.left <- remove_in n.left ~addr;
        rebalance t
      end
      else if addr > n.addr then begin
        n.right <- remove_in n.right ~addr;
        rebalance t
      end
      else begin
        match (n.left, n.right) with
        | Leaf, r -> r
        | l, Leaf -> l
        | _, r ->
            (* The successor's extent moves into this node. *)
            n.right <- remove_min r ~into:t;
            rebalance t
      end

let remove t ~addr = t.root <- remove_in t.root ~addr

let rec max_key = function
  | Leaf -> min_int
  | Node { right = Leaf; addr; _ } -> addr
  | Node n -> max_key n.right

let rec min_key = function
  | Leaf -> max_int
  | Node { left = Leaf; addr; _ } -> addr
  | Node n -> min_key n.left

(* Every node keeps its height, so no rotation.  [lo] and [hi] are the
   nearest ancestor keys on either side of the path; with the target's
   own subtrees they bound where its new key may go.  Both checks raise
   on the way down, before any node changes. *)
let rec replace_in t ~addr ~new_addr ~len ~lo ~hi =
  match t with
  | Leaf -> invalid_arg "Free_tree.replace: absent address"
  | Node n ->
      if addr < n.addr then replace_in n.left ~addr ~new_addr ~len ~lo ~hi:n.addr
      else if addr > n.addr then replace_in n.right ~addr ~new_addr ~len ~lo:n.addr ~hi
      else if
        (new_addr < addr && new_addr <= Int.max lo (max_key n.left))
        || (new_addr > addr && new_addr >= Int.min hi (min_key n.right))
      then invalid_arg "Free_tree.replace: new address out of order"
      else begin
        n.addr <- new_addr;
        n.len <- len
      end;
      fix t

let replace t ~addr ~new_addr ~len =
  if len <= 0 then invalid_arg "Free_tree.replace: non-positive length";
  replace_in t.root ~addr ~new_addr ~len ~lo:min_int ~hi:max_int

let rec pred_below t ~addr best =
  match t with
  | Leaf -> best
  | Node n -> if n.addr < addr then pred_below n.right ~addr n.addr else pred_below n.left ~addr best

let pred t ~addr = pred_below t.root ~addr (-1)

(* Lowest-addressed node with len >= want: explore left subtree first if
   it can contain a fit, then the node, then the right subtree.  The
   max_len pruning makes the walk follow a single root-to-leaf corridor,
   so it is O(log n). *)
let rec first_fit_in t ~want =
  match t with
  | Leaf -> -1
  | Node n ->
      if n.max_len < want then -1
      else if max_of n.left >= want then first_fit_in n.left ~want
      else if n.len >= want then n.addr
      else first_fit_in n.right ~want

let first_fit t ~want = first_fit_in t.root ~want

let rec fold_in t acc f =
  match t with
  | Leaf -> acc
  | Node n ->
      let acc = fold_in n.left acc f in
      fold_in n.right (f acc ~addr:n.addr ~len:n.len) f

let fold t ~init ~f = fold_in t.root init f

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
                else if n.len <= 0 then Error (Printf.sprintf "non-positive length at %d" n.addr)
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
  match go t.root with Ok _ -> Ok () | Error e -> Error e
