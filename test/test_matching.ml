(* Distributed maximal edge packing — the O(Δ) upper bound side. *)

module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Packing = Ld_matching.Packing
module Gen = Ld_graph.Generators
module G = Ld_graph.Graph
module Colouring = Ld_models.Edge_colouring
module Lift = Ld_cover.Lift

let loopy_of_tree ~seed n =
  let tree = Gen.random_tree ~seed n in
  let base = Colouring.ec_of_simple tree in
  let next = Ec.max_colour base in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops:(List.init n (fun v -> (v, next + 1 + (v mod 2))))

let greedy_maximal_on_simple =
  QCheck.Test.make ~count:80 ~name:"greedy-by-colour: maximal FM on simple graphs"
    (QCheck.triple (QCheck.int_range 2 24) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      Fm.is_maximal_fm (Packing.greedy_by_colour ec))

let greedy_maximal_on_loopy =
  QCheck.Test.make ~count:60 ~name:"greedy-by-colour: maximal + saturating on loopy graphs"
    (QCheck.pair (QCheck.int_range 1 15) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_of_tree ~seed n in
      let y = Packing.greedy_by_colour g in
      Fm.is_maximal_fm y && Fm.is_fully_saturated y)

let proposal_maximal =
  QCheck.Test.make ~count:60 ~name:"proposal: maximal FM, at most n+2 rounds"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 5)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      let y, rounds = Packing.proposal ec in
      Fm.is_maximal_fm y && rounds <= n + 2)

let proposal_maximal_on_loopy =
  QCheck.Test.make ~count:40 ~name:"proposal: maximal + saturating on loopy graphs"
    (QCheck.pair (QCheck.int_range 1 12) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_of_tree ~seed n in
      let y, _ = Packing.proposal g in
      Fm.is_maximal_fm y && Fm.is_fully_saturated y)

(* Random loopy EC multigraphs: a properly coloured bounded-degree graph
   plus up to two loops per node in fresh colours (node 0 always has
   one, so there is a loop to unfold). *)
let random_loopy ~seed n d =
  let base = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
  let next = Ec.max_colour base in
  let rng = Random.State.make [| seed |] in
  let loops =
    List.concat
      (List.init n (fun v ->
           List.filter_map
             (fun k ->
               if (v = 0 && k = 1) || Random.State.bool rng then
                 Some (v, next + k)
               else None)
             [ 1; 2 ]))
  in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops

(* Every executor-backed algorithm: both bases, the greedy matching, and
   their truncations at r = 0 .. Δ+1. *)
let executor_backed ~delta =
  let rs = List.init (delta + 2) Fun.id in
  [ Packing.greedy_algorithm; Packing.proposal_algorithm;
    Ld_matching.Mm_ec.as_packing_algorithm () ]
  @ List.concat_map
      (fun r ->
        [ Packing.truncated `Greedy r; Packing.truncated `Proposal r;
          Ld_matching.Mm_ec.as_packing_algorithm ~truncate:r () ])
      rs

(* Condition (2) of the EC model. The lower-bound engine answers an
   executor-backed algorithm's output on a 2-lift by pull-back instead
   of running it; this is the check that licenses doing so. Half the
   cases are loopy trees (a loop at every node), as in the adversary. *)
let executor_backed_outputs_pull_back =
  QCheck.Test.make ~count:40
    ~name:"executor-backed output on every loop unfolding = pull-back"
    (QCheck.triple (QCheck.int_range 1 9) (QCheck.int_range 1 3)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g =
        if seed mod 2 = 0 then loopy_of_tree ~seed n else random_loopy ~seed n d
      in
      let lifts =
        List.init (Ec.num_loops g) (fun loop_id -> Lift.unfold_loop g ~loop_id)
      in
      List.for_all
        (fun (algo : Packing.algorithm) ->
          let y = algo.run g in
          (match algo.kind with
          | Packing.Executor_backed -> true
          | Packing.Opaque -> false)
          && List.for_all
               (fun (cov : Lift.covering) ->
                 Fm.equal (algo.run cov.total) (Fm.pull_back cov y))
               lifts)
        (executor_backed ~delta:(Ec.max_degree g)))

let greedy_round_count () =
  (* Exactly k = number of colours communication rounds; on a greedily
     coloured star that is Δ. *)
  let star = Colouring.ec_of_simple (Gen.star 7) in
  Alcotest.(check int) "star colours" 7 (Packing.greedy_rounds star);
  let p = Colouring.ec_of_simple (Gen.path 9) in
  Alcotest.(check int) "path colours" 2 (Packing.greedy_rounds p)

let truncation_is_partial () =
  (* Two independent edges of colours 1 and 2: after one phase the
     colour-2 edge has both endpoints unsaturated, so maximality fails;
     after two phases it holds. *)
  let g = Ec.create ~n:4 ~edges:[ (0, 1, 1); (2, 3, 2) ] ~loops:[] in
  let y1 = Packing.greedy_by_colour ~truncate:1 g in
  Alcotest.(check bool) "feasible" true (Fm.is_fm y1);
  Alcotest.(check bool) "not maximal after 1 phase" false (Fm.is_maximal_fm y1);
  Alcotest.(check bool) "maximal after 2 phases" true
    (Fm.is_maximal_fm (Packing.greedy_by_colour ~truncate:2 g));
  let p = Colouring.ec_of_simple (Gen.path 9) in
  let y0 = Packing.greedy_by_colour ~truncate:0 p in
  Alcotest.(check bool) "zero rounds = zero output" true
    (Q.is_zero (Fm.total y0))

let truncation_prefix_consistent =
  QCheck.Test.make ~count:40
    ~name:"truncating more rounds only extends the processed colours"
    (QCheck.pair (QCheck.int_range 2 14) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n 4) in
      let full = Packing.greedy_by_colour ec in
      let r = 1 + (seed mod 3) in
      let part = Packing.greedy_by_colour ~truncate:r ec in
      (* Every colour <= r edge agrees with the full run. *)
      List.for_all2
        (fun (e : Ec.edge) (w_part, w_full) ->
          if e.colour <= r then Q.equal w_part w_full else true)
        (Ec.edges ec)
        (List.mapi
           (fun i _ -> (Fm.edge_weight part i, Fm.edge_weight full i))
           (Ec.edges ec)))

let proposal_rounds_track_delta () =
  (* On spiders (the hard family), the proposal dynamics finish within a
     small multiple of Δ — recorded as the UPPER experiment's shape. *)
  List.iter
    (fun delta ->
      let g = Colouring.ec_of_simple (Gen.spider ~delta ~tail:3) in
      let y, rounds = Packing.proposal g in
      Alcotest.(check bool)
        (Printf.sprintf "spider delta=%d maximal" delta)
        true (Fm.is_maximal_fm y);
      Alcotest.(check bool)
        (Printf.sprintf "rounds %d <= 3*delta" rounds)
        true
        (rounds <= 3 * delta))
    [ 2; 4; 6; 8 ]

(* ---- O(log Δ) approximate packing (the §1.2 contrast class) ---- *)

let approx_quality =
  QCheck.Test.make ~count:60
    ~name:"doubling scheme: feasible, half-covering, >= nu_f/4, O(log delta) rounds"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = Gen.random_bounded_degree ~seed n d in
      QCheck.assume (G.m g > 0);
      let ec = Colouring.ec_of_simple g in
      let delta = max 1 (G.max_degree g) in
      let y, rounds = Ld_matching.Approx_packing.run ~delta ec in
      let half_covered =
        List.for_all
          (fun (e : Ec.edge) ->
            Q.compare (Fm.node_weight y e.u) Q.half >= 0
            || Q.compare (Fm.node_weight y e.v) Q.half >= 0)
          (Ec.edges ec)
      in
      let rec log2_ceil k = if 1 lsl k >= delta then k else log2_ceil (k + 1) in
      Fm.is_fm y && half_covered
      && Q.compare (Ld_fm.Maximum.ratio y) Ld_matching.Approx_packing.approximation_bound >= 0
      && rounds = log2_ceil 0 + 1)

let approx_rounds_logarithmic () =
  (* The §1.2 contrast: approximation in log Δ rounds, maximality in Δ. *)
  List.iter
    (fun delta ->
      let ec = Colouring.ec_of_simple (Gen.spider ~delta ~tail:2) in
      let _, r_approx = Ld_matching.Approx_packing.run ~delta ec in
      let r_maximal = Packing.greedy_rounds ec in
      Alcotest.(check bool)
        (Printf.sprintf "delta=%d: %d (approx) << %d (maximal)" delta r_approx
           r_maximal)
        true
        (r_approx <= 2 + (delta |> float_of_int |> log |> ( *. ) 1.5 |> ceil |> int_of_float)
        && r_maximal = delta))
    [ 4; 8; 16; 32; 64 ]

(* ---- PO-model packing ---- *)

let po_proposal_maximal =
  QCheck.Test.make ~count:40 ~name:"PO proposal: maximal FM on doubled EC inputs"
    (QCheck.triple (QCheck.int_range 2 16) (QCheck.int_range 1 4)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      let po = Ld_models.Po.of_ec ec in
      let y, rounds = Ld_matching.Po_packing.proposal po in
      Ld_fm.Po_fm.is_maximal_fm y && rounds <= n + 2)

let po_proposal_on_ports () =
  (* A hand-built port-numbered graph (Fig. 2 style). *)
  let po =
    Ld_models.Po.of_ports ~n:4
      ~connections:[ (0, 1, 1, 1); (1, 2, 2, 1); (2, 2, 3, 1); (3, 2, 0, 2) ]
  in
  let y, _ = Ld_matching.Po_packing.proposal po in
  Alcotest.(check bool) "maximal" true (Ld_fm.Po_fm.is_maximal_fm y)

let po_proposal_with_loops () =
  let po = Ld_models.Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ] in
  let y, _ = Ld_matching.Po_packing.proposal po in
  Alcotest.(check bool) "maximal" true (Ld_fm.Po_fm.is_maximal_fm y);
  (* every node saturated: loops force it (Lemma 2 in PO) *)
  Alcotest.(check bool) "saturated" true
    (Ld_fm.Po_fm.is_saturated y 0 && Ld_fm.Po_fm.is_saturated y 1)

let po_truncated_partial () =
  let po =
    Ld_models.Po.of_ec (Colouring.ec_of_simple (Gen.spider ~delta:5 ~tail:3))
  in
  let y0, _ = Ld_matching.Po_packing.proposal ~truncate:0 po in
  Alcotest.(check bool) "0 rounds: nothing" true
    (Ld_fm.Po_fm.is_fm y0 && not (Ld_fm.Po_fm.is_maximal_fm y0))

let () =
  Alcotest.run "matching"
    [
      ( "greedy-by-colour",
        [
          QCheck_alcotest.to_alcotest greedy_maximal_on_simple;
          QCheck_alcotest.to_alcotest greedy_maximal_on_loopy;
          Alcotest.test_case "round count" `Quick greedy_round_count;
          Alcotest.test_case "truncation partial" `Quick truncation_is_partial;
          QCheck_alcotest.to_alcotest truncation_prefix_consistent;
        ] );
      ( "proposal",
        [
          QCheck_alcotest.to_alcotest proposal_maximal;
          QCheck_alcotest.to_alcotest proposal_maximal_on_loopy;
          Alcotest.test_case "rounds vs delta" `Quick proposal_rounds_track_delta;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest executor_backed_outputs_pull_back ]);
      ( "approx-packing",
        [
          QCheck_alcotest.to_alcotest approx_quality;
          Alcotest.test_case "log-delta contrast" `Quick approx_rounds_logarithmic;
        ] );
      ( "po-packing",
        [
          QCheck_alcotest.to_alcotest po_proposal_maximal;
          Alcotest.test_case "port-numbered input" `Quick po_proposal_on_ports;
          Alcotest.test_case "with loops" `Quick po_proposal_with_loops;
          Alcotest.test_case "truncated" `Quick po_truncated_partial;
        ] );
    ]
