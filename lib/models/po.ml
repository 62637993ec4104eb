type arc = { tail : int; head : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | Out of { neighbour : int; arc_id : int; colour : int }
  | In of { neighbour : int; arc_id : int; colour : int }
  | Loop_out of { loop_id : int; colour : int }
  | Loop_in of { loop_id : int; colour : int }

(* Dart keys: the colour, with [in_flag] set on in-darts. Colours stay
   below [in_flag], so out-keys (by colour) sort before in-keys (by
   colour) — exactly the [darts] order. *)
type key = int

let in_flag = 1 lsl 30
let key ~out colour = if out then colour else colour lor in_flag
let key_is_out k = k land in_flag = 0
let key_colour k = k land (in_flag - 1)
let reverse_key k = k lxor in_flag

type t = {
  n : int;
  arcs : arc array;
  loops : loop array;
  darts : dart list array; (* out darts by colour, then in darts by colour *)
  keyed : Dart_csr.t;
}

let dart_colour = function
  | Out { colour; _ } | In { colour; _ } -> colour
  | Loop_out { colour; _ } | Loop_in { colour; _ } -> colour

let dart_is_out = function
  | Out _ | Loop_out _ -> true
  | In _ | Loop_in _ -> false

let dart_key d = key ~out:(dart_is_out d) (dart_colour d)

(* Built once per graph and cached in the value. Segments follow the
   [darts] lists, so keys ascend within each node. *)
let keyed_of_darts n (darts : dart list array) =
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + List.length darts.(v)
  done;
  let m = row.(n) in
  let key = Array.make m 0 in
  let other = Array.make m 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i dart ->
        let d = row.(v) + i in
        key.(d) <- dart_key dart;
        other.(d) <-
          (match dart with
          | Out { neighbour; _ } | In { neighbour; _ } -> neighbour
          | Loop_out _ | Loop_in _ -> v))
      darts.(v)
  done;
  { Dart_csr.row; key; other }

let build n arcs loops =
  let outs = Array.make n [] and ins = Array.make n [] in
  Array.iteri
    (fun id a ->
      outs.(a.tail) <-
        Out { neighbour = a.head; arc_id = id; colour = a.colour } :: outs.(a.tail);
      ins.(a.head) <-
        In { neighbour = a.tail; arc_id = id; colour = a.colour } :: ins.(a.head))
    arcs;
  Array.iteri
    (fun id l ->
      outs.(l.node) <- Loop_out { loop_id = id; colour = l.colour } :: outs.(l.node);
      ins.(l.node) <- Loop_in { loop_id = id; colour = l.colour } :: ins.(l.node))
    loops;
  let darts = Array.make n [] in
  let by_colour side v ds =
    let sorted = List.sort (fun a b -> Int.compare (dart_colour a) (dart_colour b)) ds in
    let rec check = function
      | a :: (b :: _ as rest) ->
        if dart_colour a = dart_colour b then
          invalid_arg
            (Printf.sprintf "Po.create: node %d has two %s darts of colour %d" v side
               (dart_colour a));
        check rest
      | _ -> ()
    in
    check sorted;
    sorted
  in
  for v = 0 to n - 1 do
    darts.(v) <- by_colour "outgoing" v outs.(v) @ by_colour "incoming" v ins.(v)
  done;
  { n; arcs; loops; darts; keyed = keyed_of_darts n darts }

let create ~n ~arcs ~loops =
  if n < 0 then invalid_arg "Po.create: negative n";
  let check_node v = if v < 0 || v >= n then invalid_arg "Po.create: node out of range" in
  let check_colour c =
    if c < 1 || c >= in_flag then
      invalid_arg "Po.create: colours must be in [1, 2^30)"
  in
  let arcs =
    Array.of_list
      (List.map
         (fun (tail, head, colour) ->
           check_node tail;
           check_node head;
           check_colour colour;
           if tail = head then invalid_arg "Po.create: self-arc; use ~loops";
           { tail; head; colour })
         arcs)
  in
  let loops =
    Array.of_list
      (List.map
         (fun (node, colour) ->
           check_node node;
           check_colour colour;
           { node; colour })
         loops)
  in
  build n arcs loops

let n g = g.n
let num_arcs g = Array.length g.arcs
let num_loops g = Array.length g.loops
let arc g id = g.arcs.(id)
let loop g id = g.loops.(id)
let arcs g = Array.to_list g.arcs
let loops g = Array.to_list g.loops
let darts g v = g.darts.(v)
let dart_csr g = g.keyed
let degree g v = g.keyed.row.(v + 1) - g.keyed.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  let c = ref 0 in
  Array.iter (fun (a : arc) -> c := Stdlib.max !c a.colour) g.arcs;
  Array.iter (fun (l : loop) -> c := Stdlib.max !c l.colour) g.loops;
  !c

let ports g v = Array.of_list g.darts.(v)

let of_ports ~n ~connections =
  let max_port =
    List.fold_left
      (fun acc (_, i, _, j) -> Stdlib.max acc (Stdlib.max i j))
      0 connections
  in
  let encode i j = ((i - 1) * max_port) + j in
  let used : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let claim v p =
    if p < 1 then invalid_arg "Po.of_ports: ports are 1-based";
    if Hashtbl.mem used (v, p) then
      invalid_arg (Printf.sprintf "Po.of_ports: port %d of node %d used twice" p v);
    Hashtbl.add used (v, p) ()
  in
  let arcs = ref [] and loops = ref [] in
  List.iter
    (fun (u, i, v, j) ->
      claim u i;
      claim v j;
      if u = v then loops := (u, encode i j) :: !loops
      else arcs := (u, v, encode i j) :: !arcs)
    connections;
  create ~n ~arcs:(List.rev !arcs) ~loops:(List.rev !loops)

let of_ec ec =
  let arcs =
    List.concat_map
      (fun (e : Ec.edge) -> [ (e.u, e.v, e.colour); (e.v, e.u, e.colour) ])
      (Ec.edges ec)
  in
  let loops = List.map (fun (l : Ec.loop) -> (l.node, l.colour)) (Ec.loops ec) in
  create ~n:(Ec.n ec) ~arcs ~loops

(* Lexicographic on int triples/pairs: same order as polymorphic compare. *)
let triple_compare (a1, a2, a3) (b1, b2, b3) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else Int.compare a3 b3

let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let equal a b =
  a.n = b.n
  && List.equal
       (fun x y -> triple_compare x y = 0)
       (List.sort triple_compare (List.map (fun x -> (x.tail, x.head, x.colour)) (arcs a)))
       (List.sort triple_compare (List.map (fun x -> (x.tail, x.head, x.colour)) (arcs b)))
  && List.equal
       (fun x y -> pair_compare x y = 0)
       (List.sort pair_compare (List.map (fun (l : loop) -> (l.node, l.colour)) (loops a)))
       (List.sort pair_compare (List.map (fun (l : loop) -> (l.node, l.colour)) (loops b)))

let pp fmt g =
  Format.fprintf fmt "@[<v>po-graph n=%d@," g.n;
  Array.iter
    (fun a -> Format.fprintf fmt "  arc %d->%d colour %d@," a.tail a.head a.colour)
    g.arcs;
  Array.iter
    (fun l -> Format.fprintf fmt "  loop @@%d colour %d@," l.node l.colour)
    g.loops;
  Format.fprintf fmt "@]"
