type edge = { u : int; v : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | To_neighbour of { neighbour : int; edge_id : int; colour : int }
  | Into_loop of { loop_id : int; colour : int }

(* Flat CSR dart view, built once per graph (in [build]) and cached in
   the value. Dart [d] of node [v] lives at indices [row.(v) .. row.(v+1)-1],
   in ascending colour order (the same order as the [darts] lists):
   [colour.(d)] is its colour, [other.(d)] the node at the far end (the
   node itself for a loop — the loop-reflection convention), and
   [code.(d)] is the edge id, or [-loop_id - 1] for a loop. The arrays
   must never be mutated by consumers. *)
type csr = {
  row : int array;
  colour : int array;
  other : int array;
  code : int array;
}

(* The CSR is the primary representation: it is what every hot path
   iterates, and at mega-scale (10^6..10^7 nodes, built by
   [of_csr] from a streamed [Ld_graph.Csr.t]) it is the only part we
   can afford to materialise eagerly. The record/list views — [edges],
   [loops], [darts] — are derived lazily; graphs built through the
   classic constructors wrap their eager arrays in [Lazy.from_val], so
   nothing changes for the adversary paths. *)
type t = {
  n : int;
  n_edges : int;
  n_loops : int;
  edges : edge array Lazy.t;
  loops : loop array Lazy.t;
  darts : dart list array Lazy.t; (* per node, sorted by colour *)
  csr : csr;
  keyed : Dart_csr.t; (* shares [csr]'s arrays: the key is the colour *)
}

let keyed_of (c : csr) = { Dart_csr.row = c.row; key = c.colour; other = c.other }

let dart_colour = function
  | To_neighbour { colour; _ } -> colour
  | Into_loop { colour; _ } -> colour

let csr_of_darts n (darts : dart list array) =
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + List.length darts.(v)
  done;
  let m = row.(n) in
  let colour = Array.make m 0 in
  let other = Array.make m 0 in
  let code = Array.make m 0 in
  for v = 0 to n - 1 do
    let d = ref row.(v) in
    List.iter
      (fun dart ->
        (match dart with
        | To_neighbour { neighbour; edge_id; colour = c } ->
          colour.(!d) <- c;
          other.(!d) <- neighbour;
          code.(!d) <- edge_id
        | Into_loop { loop_id; colour = c } ->
          colour.(!d) <- c;
          other.(!d) <- v;
          code.(!d) <- -loop_id - 1);
        incr d)
      darts.(v)
  done;
  { row; colour; other; code }

let build n edges loops =
  let darts = Array.make n [] in
  Array.iteri
    (fun id e ->
      darts.(e.u) <-
        To_neighbour { neighbour = e.v; edge_id = id; colour = e.colour }
        :: darts.(e.u);
      darts.(e.v) <-
        To_neighbour { neighbour = e.u; edge_id = id; colour = e.colour }
        :: darts.(e.v))
    edges;
  Array.iteri
    (fun id l ->
      darts.(l.node) <- Into_loop { loop_id = id; colour = l.colour } :: darts.(l.node))
    loops;
  Array.iteri
    (fun v ds ->
      let sorted = List.sort (fun a b -> Int.compare (dart_colour a) (dart_colour b)) ds in
      let rec check = function
        | a :: (b :: _ as rest) ->
          if dart_colour a = dart_colour b then
            invalid_arg
              (Printf.sprintf
                 "Ec.create: node %d has two darts of colour %d (colouring not proper)"
                 v (dart_colour a));
          check rest
        | _ -> ()
      in
      check sorted;
      darts.(v) <- sorted)
    darts;
  let csr = csr_of_darts n darts in
  {
    n;
    n_edges = Array.length edges;
    n_loops = Array.length loops;
    edges = Lazy.from_val edges;
    loops = Lazy.from_val loops;
    darts = Lazy.from_val darts;
    csr;
    keyed = keyed_of csr;
  }

let validated n edges loops =
  if n < 0 then invalid_arg "Ec.create: negative n";
  let check_node v = if v < 0 || v >= n then invalid_arg "Ec.create: node out of range" in
  let check_colour c = if c < 1 then invalid_arg "Ec.create: colours must be >= 1" in
  Array.iter
    (fun e ->
      check_node e.u;
      check_node e.v;
      check_colour e.colour;
      if e.u = e.v then invalid_arg "Ec.create: self-edge; use ~loops")
    edges;
  Array.iter
    (fun l ->
      check_node l.node;
      check_colour l.colour)
    loops;
  build n edges loops

let create ~n ~edges ~loops =
  validated n
    (Array.of_list (List.map (fun (u, v, colour) -> { u; v; colour }) edges))
    (Array.of_list (List.map (fun (node, colour) -> { node; colour }) loops))

let create_arrays ~n ~edges ~loops =
  (* Defensive copies: [build] keeps the arrays in the value. *)
  validated n (Array.copy edges) (Array.copy loops)

let n g = g.n
let num_edges g = g.n_edges
let num_loops g = g.n_loops
let edge g id = (Lazy.force g.edges).(id)
let loop g id = (Lazy.force g.loops).(id)
let edges g = Array.to_list (Lazy.force g.edges)
let loops g = Array.to_list (Lazy.force g.loops)
let darts g v = (Lazy.force g.darts).(v)
let csr g = g.csr
let dart_csr g = g.keyed

(* Reconstruct the dart at CSR index [d]. *)
let dart_at g d =
  let { colour; other; code; _ } = g.csr in
  if code.(d) >= 0 then
    To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = colour.(d) }
  else Into_loop { loop_id = -code.(d) - 1; colour = colour.(d) }
  [@@inline]

let dart_by_colour g v c =
  (* Darts of a node are sorted by colour: binary search the segment. *)
  let { row; colour; _ } = g.csr in
  let lo = ref row.(v) and hi = ref (row.(v + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = colour.(mid) in
    if cm = c then found := mid
    else if cm < c then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some (dart_at g !found)

let degree g v = g.csr.row.(v + 1) - g.csr.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  (* Every edge and loop contributes at least one dart, so the CSR
     colour array covers all colours in use — no need to force the
     record views. *)
  let c = ref 0 in
  Array.iter (fun dc -> c := Stdlib.max !c dc) g.csr.colour;
  !c

let loops_at g v =
  List.filter_map
    (function Into_loop { loop_id; _ } -> Some loop_id | To_neighbour _ -> None)
    (Lazy.force g.darts).(v)

let min_loops g =
  if g.n = 0 then 0
  else begin
    let { row; code; _ } = g.csr in
    let best = ref max_int in
    for v = 0 to g.n - 1 do
      let count = ref 0 in
      for d = row.(v) to row.(v + 1) - 1 do
        if code.(d) < 0 then incr count
      done;
      best := Stdlib.min !best !count
    done;
    !best
  end

let remove_loop g id =
  if id < 0 || id >= g.n_loops then invalid_arg "Ec.remove_loop";
  let gl = Lazy.force g.loops in
  let loops =
    Array.init (g.n_loops - 1) (fun i -> if i < id then gl.(i) else gl.(i + 1))
  in
  build g.n (Lazy.force g.edges) loops

let disjoint_union a b =
  let shift = a.n in
  let edges =
    Array.append (Lazy.force a.edges)
      (Array.map
         (fun e -> { e with u = e.u + shift; v = e.v + shift })
         (Lazy.force b.edges))
  in
  let loops =
    Array.append (Lazy.force a.loops)
      (Array.map (fun l -> { l with node = l.node + shift }) (Lazy.force b.loops))
  in
  build (a.n + b.n) edges loops

let add_edge g (u, v, colour) =
  if u = v then invalid_arg "Ec.add_edge: self-edge";
  build g.n
    (Array.append (Lazy.force g.edges) [| { u; v; colour } |])
    (Lazy.force g.loops)

let of_simple sg ~colour =
  let module G = Ld_graph.Graph in
  let edges =
    List.map (fun (u, v) -> (u, v, colour (u, v))) (G.edges sg)
  in
  create ~n:(G.n sg) ~edges ~loops:[]

let to_simple g =
  if g.n_loops > 0 then invalid_arg "Ec.to_simple: graph has loops";
  Ld_graph.Graph.create g.n
    (Array.to_list
       (Array.map
          (fun e -> (Stdlib.min e.u e.v, Stdlib.max e.u e.v))
          (Lazy.force g.edges)))

let canonical_edge e =
  (Stdlib.min e.u e.v, Stdlib.max e.u e.v, e.colour)

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
  a == b
  || a.n = b.n
  && List.equal
       (fun x y -> triple_compare x y = 0)
       (List.sort triple_compare (List.map canonical_edge (edges a)))
       (List.sort triple_compare (List.map canonical_edge (edges b)))
  && List.equal
       (fun x y -> pair_compare x y = 0)
       (List.sort pair_compare (List.map (fun l -> (l.node, l.colour)) (loops a)))
       (List.sort pair_compare (List.map (fun l -> (l.node, l.colour)) (loops b)))

let pp fmt g =
  Format.fprintf fmt "@[<v>ec-graph n=%d@," g.n;
  Array.iter
    (fun e -> Format.fprintf fmt "  edge %d-%d colour %d@," e.u e.v e.colour)
    (Lazy.force g.edges);
  Array.iter
    (fun l -> Format.fprintf fmt "  loop @@%d colour %d@," l.node l.colour)
    (Lazy.force g.loops);
  Format.fprintf fmt "@]"

(* ---------- streaming constructor ----------

   Lift a streamed simple-graph CSR ([Ld_graph.Csr.t], endpoint-sorted
   segments, proper colouring) into the EC model without building any
   edge records, tuple lists, or dart lists: only the four CSR arrays
   are materialised. Edge ids are assigned in sorted-(u, v) order —
   the same ids [of_simple] would produce via [Graph.edges] — and each
   segment is permuted to ascending colour order, which is the
   invariant every runner and the refinement core relies on. The
   record/list views stay lazy; forcing them on a 10^7-node graph is a
   programming error the memory profile will surface quickly. *)
let of_csr (c : Ld_graph.Csr.t) =
  let n = c.Ld_graph.Csr.n in
  let srow = c.Ld_graph.Csr.row in
  let send = c.Ld_graph.Csr.endpoint in
  let scol = c.Ld_graph.Csr.colour in
  let nd = srow.(n) in
  let back = Ld_graph.Csr.back c in
  (* Pass 1: edge ids in [Graph.edges] order — ascending [u] but
     {e descending} [v] within each block (its downto-and-cons
     construction), which is the id order [of_simple] assigns. Hence
     the inner walk runs each segment in reverse, taking the darts
     with [v < w] (each edge's first occurrence). *)
  let code = Array.make (Stdlib.max 1 nd) 0 in
  let next_id = ref 0 in
  for v = 0 to n - 1 do
    for d = srow.(v + 1) - 1 downto srow.(v) do
      let w = send.(d) in
      if v < w then begin
        code.(d) <- !next_id;
        code.(srow.(w) + back.(d)) <- !next_id;
        incr next_id
      end
    done
  done;
  (* Pass 2: permute every segment to ascending colour order
     (insertion sort on <= Δ entries), checking properness. *)
  let colour = Array.make (Stdlib.max 1 nd) 0 in
  let other = Array.make (Stdlib.max 1 nd) 0 in
  for v = 0 to n - 1 do
    let lo = srow.(v) and hi = srow.(v + 1) in
    for d = lo to hi - 1 do
      let cd = scol.(d) and od = send.(d) and ed = code.(d) in
      if cd < 1 then invalid_arg "Ec.of_csr: colours must be >= 1";
      let j = ref d in
      while !j > lo && colour.(!j - 1) > cd do
        colour.(!j) <- colour.(!j - 1);
        other.(!j) <- other.(!j - 1);
        code.(!j) <- code.(!j - 1);
        decr j
      done;
      colour.(!j) <- cd;
      other.(!j) <- od;
      code.(!j) <- ed
    done;
    for d = lo + 1 to hi - 1 do
      if colour.(d - 1) = colour.(d) then
        invalid_arg
          (Printf.sprintf
             "Ec.of_csr: node %d has two darts of colour %d (colouring not \
              proper)"
             v colour.(d))
    done
  done;
  let n_edges = c.Ld_graph.Csr.m in
  (* Edgeless graphs carry empty dart arrays (matching [of_simple]),
     not the length-1 scratch allocation. *)
  let colour = if nd = 0 then [||] else colour in
  let other = if nd = 0 then [||] else other in
  let code = if nd = 0 then [||] else code in
  let csr = { row = srow; colour; other; code } in
  let edges =
    lazy
      (let es = Array.make n_edges { u = 0; v = 0; colour = 0 } in
       for v = 0 to n - 1 do
         for d = srow.(v) to srow.(v + 1) - 1 do
           if v < other.(d) then
             es.(code.(d)) <- { u = v; v = other.(d); colour = colour.(d) }
         done
       done;
       es)
  in
  let darts =
    lazy
      (Array.init n (fun v ->
           List.init
             (srow.(v + 1) - srow.(v))
             (fun i ->
               let d = srow.(v) + i in
               To_neighbour
                 {
                   neighbour = other.(d);
                   edge_id = code.(d);
                   colour = colour.(d);
                 })))
  in
  {
    n;
    n_edges;
    n_loops = 0;
    edges;
    loops = Lazy.from_val [||];
    darts;
    csr;
    keyed = keyed_of csr;
  }
