module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Dart_csr
module Obs = Ld_obs.Obs

type t = { tag : int; branches : (int * t) list }

let c_cons_hits = Obs.Counter.make "cover.view.cons_hits"

(* ------------------------------------------------------------------ *)
(* Global hash-cons arena. A view's identity is its branch list with
   children taken by tag; because branches are built in ascending key
   order with distinct keys, the list is canonical and two isomorphic
   views always cons to the same node. The arena is shared across
   graphs, levels and deltas for the lifetime of the process, so
   equality is a single tag comparison. A mutex serialises consing —
   views are built off the refinement hot path, sharing matters more
   than lock-free speed here. *)

module Key = struct
  type t = int array

  let equal a b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i =
      i >= la || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0

  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193
    done;
    !h land max_int
end

module Arena = Hashtbl.Make (Key)

let arena : t Arena.t = Arena.create 4096
let arena_mutex = Mutex.create ()
let next_tag = ref 0

let cons branches =
  let key = Array.make (2 * List.length branches) 0 in
  List.iteri
    (fun i (k, child) ->
      key.(2 * i) <- k;
      key.((2 * i) + 1) <- child.tag)
    branches;
  Mutex.protect arena_mutex (fun () ->
      match Arena.find_opt arena key with
      | Some v ->
        Obs.Counter.incr c_cons_hits;
        v
      | None ->
        let v = { tag = !next_tag; branches } in
        incr next_tag;
        Arena.add arena key v;
        v)

(* Crossing dart [d] from [v] lands on [other.(d)], where the way back
   has key [reverse key.(d)]: that dart is banned one level down. The
   subtree is a function of the entry dart and the remaining depth, so
   the memo is keyed on exactly that — the universal cover repeats
   subtrees massively, and the tree of size Δ^t is built in
   O(n · Δ · t) cons operations. *)
let unfold ~reverse (dc : Darts.t) root ~radius =
  if radius < 0 then invalid_arg "View: negative radius";
  let { Darts.row; key; other } = dc in
  let m = Array.length key in
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  (* [slot] is the entry dart, or [m + v] at the root. *)
  let rec go v banned slot depth =
    if depth = 0 then cons []
    else begin
      let mk = (slot * (radius + 1)) + depth in
      match Hashtbl.find_opt memo mk with
      | Some t -> t
      | None ->
        let branches = ref [] in
        for d = row.(v) to row.(v + 1) - 1 do
          let k = key.(d) in
          if k <> banned then
            branches := (k, go other.(d) (reverse k) d (depth - 1)) :: !branches
        done;
        let t = cons (List.rev !branches) in
        Hashtbl.add memo mk t;
        t
    end
  in
  (* Keys are >= 1, so -1 bans nothing. *)
  go root (-1) (m + root) radius

let of_ec g root ~radius = unfold ~reverse:Fun.id (Ec.dart_csr g) root ~radius

let of_po g root ~radius =
  unfold ~reverse:Po.reverse_key (Po.dart_csr g) root ~radius

(* Hash-consing makes equality a tag comparison: same arena node iff
   structurally equal. *)
let equal a b = a.tag = b.tag

(* Ordering stays structural: tags are assigned in arena insertion
   order, which depends on evaluation history — using them for ordering
   would be a run-to-run determinism hazard. *)
let rec compare_branches ba bb =
  match (ba, bb) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ka, ta) :: ra, (kb, tb) :: rb ->
    let c = Int.compare ka kb in
    if c <> 0 then c
    else begin
      let c = if ta.tag = tb.tag then 0 else compare_branches ta.branches tb.branches in
      if c <> 0 then c else compare_branches ra rb
    end

let compare a b = if a.tag = b.tag then 0 else compare_branches a.branches b.branches

let rec size v = 1 + List.fold_left (fun acc (_, t) -> acc + size t) 0 v.branches

let rec depth v =
  List.fold_left (fun acc (_, t) -> Stdlib.max acc (1 + depth t)) 0 v.branches

let branch v k = List.assoc_opt k v.branches

(* Materialise a view depth-first, numbering nodes in visit order from
   the root (0) and handing each tree edge (parent, child, key) to
   [edge]. [order] fixes the visiting order of a node's branches;
   returns the node count and each node's step word from the root. *)
let materialise ~order ~edge view =
  let counter = ref 1 in
  let index = ref [ ([], 0) ] in
  let rec walk prefix v id =
    List.iter
      (fun (k, sub) ->
        let child = !counter in
        incr counter;
        edge id child k;
        index := (List.rev (k :: prefix), child) :: !index;
        walk (k :: prefix) sub child)
      (order v.branches)
  in
  walk [] view 0;
  (!counter, List.rev !index)

let to_ec view =
  let edges = ref [] in
  let n, _ =
    materialise ~order:Fun.id
      ~edge:(fun u v colour -> edges := (u, v, colour) :: !edges)
      view
  in
  Ec.create ~n ~edges:!edges ~loops:[]

let pp_with ~order ~pp_key fmt view =
  let rec pp fmt v =
    if v.branches = [] then Format.pp_print_string fmt "."
    else begin
      Format.fprintf fmt "(";
      List.iteri
        (fun i (k, sub) ->
          if i > 0 then Format.fprintf fmt " ";
          Format.fprintf fmt "%a:%a" pp_key k pp sub)
        (order v.branches);
      Format.fprintf fmt ")"
    end
  in
  pp fmt view

let pp = pp_with ~order:Fun.id ~pp_key:Format.pp_print_int

(* PO views walk in-darts before out-darts, each by colour. *)
let in_first branches =
  let outs, ins = List.partition (fun (k, _) -> Po.key_is_out k) branches in
  ins @ outs

let paths view =
  snd (materialise ~order:in_first ~edge:(fun _ _ _ -> ()) view)
  |> List.map fst

let to_po view =
  let arcs = ref [] in
  let n, index =
    materialise ~order:in_first
      ~edge:(fun parent child k ->
        let colour = Po.key_colour k in
        if Po.key_is_out k then arcs := (parent, child, colour) :: !arcs
        else arcs := (child, parent, colour) :: !arcs)
      view
  in
  (Po.create ~n ~arcs:(List.rev !arcs) ~loops:[], index)

let pp_po =
  pp_with ~order:in_first ~pp_key:(fun fmt k ->
      Format.fprintf fmt "%s%d"
        (if Po.key_is_out k then "+" else "-")
        (Po.key_colour k))
