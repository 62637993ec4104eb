module Ec = Ld_models.Ec
module Anon = Ld_runtime.Anon

type state = {
  phase : int;
  matched : int option; (* colour matched through *)
  last : int;
}

type result = {
  matched_edges : int list;
  matched_loops : int list;
  matched_colour : int option array;
  rounds : int;
}

let machine : (state, bool) Anon.machine =
  {
    init =
      (fun ~keys ->
        { phase = 1; matched = None; last = List.fold_left Stdlib.max 0 keys });
    (* A node announces whether it is still unmatched. *)
    send = (fun s -> s.matched = None);
    recv =
      (fun s inbox ->
        let s =
          match (s.matched, Anon.Inbox.find inbox ~key:s.phase) with
          | None, Some true -> { s with matched = Some s.phase }
          | _ -> s
        in
        { s with phase = s.phase + 1 });
    halted = (fun s -> s.phase > s.last);
  }

let greedy ?truncate g =
  let rounds =
    match truncate with
    | None -> Ec.max_colour g
    | Some r ->
      if r < 0 then invalid_arg "Mm_ec.greedy: negative truncation";
      Stdlib.min r (Ec.max_colour g)
  in
  let states = Anon.run machine ~rounds (Anon.Ec g) in
  let matched_colour = Array.map (fun s -> s.matched) states in
  let matched_with v c =
    match matched_colour.(v) with Some c' -> c' = c | None -> false
  in
  let matched_edges =
    List.concat
      (List.mapi
         (fun id (e : Ec.edge) ->
           if matched_with e.u e.colour && matched_with e.v e.colour then [ id ]
           else [])
         (Ec.edges g))
  in
  let matched_loops =
    List.concat
      (List.mapi
         (fun id (l : Ec.loop) ->
           if matched_with l.node l.colour then [ id ] else [])
         (Ec.loops g))
  in
  { matched_edges; matched_loops; matched_colour; rounds }

let to_fm g r =
  let module Q = Ld_arith.Q in
  let edge_w = Array.make (Ec.num_edges g) Q.zero in
  let loop_w = Array.make (Ec.num_loops g) Q.zero in
  List.iter (fun id -> edge_w.(id) <- Q.one) r.matched_edges;
  List.iter (fun id -> loop_w.(id) <- Q.one) r.matched_loops;
  Ld_fm.Fm.create g ~edge_w ~loop_w

let as_packing_algorithm ?truncate () : Packing.algorithm =
  Algorithm.executor_backed
    ~name:
      (match truncate with
      | None -> "greedy-maximal-matching"
      | Some r -> Printf.sprintf "greedy-maximal-matching[%d rounds]" r)
    (fun g -> to_fm g (greedy ?truncate g))

let is_maximal g r =
  (* Each matched node is matched through exactly one dart, and the dart
     colours pair up along edges. *)
  let claims = Array.make (Ec.n g) 0 in
  List.iter
    (fun id ->
      let e = Ec.edge g id in
      claims.(e.u) <- claims.(e.u) + 1;
      claims.(e.v) <- claims.(e.v) + 1)
    r.matched_edges;
  List.iter
    (fun id ->
      let l = Ec.loop g id in
      claims.(l.node) <- claims.(l.node) + 1)
    r.matched_loops;
  let is_matching =
    Array.for_all (fun c -> c <= 1) claims
    && Array.for_all2
         (fun c m -> (c = 1) = (m <> None))
         claims r.matched_colour
  in
  let covered =
    List.for_all
      (fun (e : Ec.edge) ->
        r.matched_colour.(e.u) <> None || r.matched_colour.(e.v) <> None)
      (Ec.edges g)
    && List.for_all
         (fun (l : Ec.loop) -> r.matched_colour.(l.node) <> None)
         (Ec.loops g)
  in
  is_matching && covered
