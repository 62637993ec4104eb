(* Differential tests for the packed-state runtime: every packed
   machine must agree exactly with its boxed oracle — same outputs,
   same halting rounds — at 1 domain and at a forced multi-domain
   split (par_threshold 0 so even tiny inputs get partitioned). *)

module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Gen = Ld_graph.Generators
module Colouring = Ld_models.Edge_colouring
module Id = Ld_models.Labelled.Id
module Packed = Ld_runtime.Packed
module Packed_ii = Ld_matching.Packed_ii
module Packed_pr = Ld_matching.Packed_pr
module Davies_peck = Ld_matching.Davies_peck
module Pr = Ld_matching.Panconesi_rizzi

let graph_gen = QCheck.triple (QCheck.int_range 0 25) (QCheck.int_range 0 6) (QCheck.int_range 0 1000)

let make_graph (n, d, seed) = Gen.random_bounded_degree ~seed n d
let csr_of g = Csr.of_graph g ~colour:(Colouring.greedy g)

(* Both split modes the executors distinguish: the sequential path and
   a forced 4-way parallel split. *)
let domain_legs = [ (1, None); (4, Some 0) ]

(* ---- Israeli–Itai (Port, shared coin stream) ---- *)

(* The boxed twin of every propose/respond run is
   [Ld_check.propose_respond_run] on the same schedule and seed. *)
let class_free = { Davies_peck.delta = 0; iters_per_class = 1 }

let ii_matches_twin =
  QCheck.Test.make ~count:50 ~name:"packed II = boxed twin (all domains)"
    graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let oracle =
        Ld_check.propose_respond_run ~sched:class_free ~seed:7
          ~max_rounds:10_000 g
      in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ =
            Packed_ii.run ?par_threshold ~domains ~seed:7 ~max_rounds:10_000
              csr
          in
          r.Packed_ii.mate = oracle.Packed_ii.mate
          && r.Packed_ii.rounds = oracle.Packed_ii.rounds
          && Packed_ii.is_maximal csr r)
        domain_legs)

(* ---- Panconesi–Rizzi (Port, deterministic) ---- *)

let pr_matches_boxed =
  QCheck.Test.make ~count:50
    ~name:"packed PR = Panconesi_rizzi.run (all domains)" graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let oracle = Pr.run (Id.trivial g) in
      let expect =
        Array.map (function Some w -> w | None -> -1) oracle.Pr.mate
      in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ = Packed_pr.run ?par_threshold ~domains csr in
          r.Packed_pr.mate = expect
          && r.Packed_pr.rounds = oracle.Pr.rounds
          && r.Packed_pr.cv_iterations = oracle.Pr.cv_iterations)
        domain_legs)

(* ---- Davies–Peck schedule (Port, shared coin stream) ---- *)

let dp_matches_twin =
  QCheck.Test.make ~count:50
    ~name:"packed Davies-Peck = boxed twin, covers" graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let sched =
        { Davies_peck.delta = Stdlib.max 1 (G.max_degree g); iters_per_class = 2 }
      in
      let oracle =
        Ld_check.propose_respond_run ~sched ~seed:11 ~max_rounds:10_000 g
      in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ =
            Davies_peck.run ?par_threshold ~domains ~seed:11
              ~max_rounds:10_000 csr
          in
          r.Davies_peck.mate = oracle.Davies_peck.mate
          && r.Davies_peck.rounds = oracle.Davies_peck.rounds
          && Davies_peck.is_vertex_cover csr r)
        domain_legs)

(* Explicit schedules, including class-free ones and ones whose delta
   is below the graph's max degree. *)
let sched_gen =
  QCheck.map
    (fun (delta, iters_per_class) -> { Davies_peck.delta; iters_per_class })
    (QCheck.pair (QCheck.int_range 0 8) (QCheck.int_range 1 3))

let random_sched_matches_twin =
  QCheck.Test.make ~count:100
    ~name:"packed Davies-Peck = boxed twin, random schedule"
    (QCheck.pair graph_gen sched_gen)
    (fun (((_, _, seed) as input), sched) ->
      let g = make_graph input in
      let csr = csr_of g in
      let max_rounds = 10_000 in
      let oracle = Ld_check.propose_respond_run ~sched ~seed ~max_rounds g in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ =
            Davies_peck.run ?par_threshold ~domains ~sched ~seed ~max_rounds
              csr
          in
          r.Davies_peck.mate = oracle.Davies_peck.mate
          && r.Davies_peck.rounds = oracle.Davies_peck.rounds
          && Packed_ii.is_maximal csr r)
        domain_legs)

(* Rounds, sends and matched nodes on a fixed 10^4-node (3, 8)-biregular
   tree: pins the protocol itself, not just packed = boxed. *)
let pinned_tree () =
  let g = Gen.stream_biregular_tree ~d:3 ~delta:8 10_000 in
  let observe (r, (s : Packed.stats)) =
    ( r.Davies_peck.rounds,
      s.Packed.sends,
      Array.fold_left (fun k w -> if w >= 0 then k + 1 else k) 0 r.Davies_peck.mate )
  in
  let max_rounds = 100_000 in
  Alcotest.(check (triple int int int))
    "Israeli-Itai" (20, 96_402, 5_680)
    (observe (Packed_ii.run ~domains:1 ~seed:42 ~max_rounds g));
  Alcotest.(check (triple int int int))
    "Davies-Peck" (30, 188_414, 5_588)
    (observe (Davies_peck.run ~domains:1 ~seed:42 ~max_rounds g))

let bad_schedules_rejected () =
  let g = make_graph (10, 3, 1) in
  let csr = csr_of g in
  let err =
    Invalid_argument
      "Davies_peck: schedule needs delta >= 0 and iters_per_class >= 1"
  in
  List.iter
    (fun sched ->
      Alcotest.check_raises "packed" err (fun () ->
          ignore (Davies_peck.run ~sched ~seed:1 ~max_rounds:100 csr));
      Alcotest.check_raises "twin" err (fun () ->
          ignore (Ld_check.propose_respond_run ~sched ~seed:1 ~max_rounds:100 g)))
    [
      { Davies_peck.delta = 8; iters_per_class = 0 };
      { Davies_peck.delta = -1; iters_per_class = 1 };
    ]

let () =
  Alcotest.run "packed"
    [
      ( "port",
        [
          QCheck_alcotest.to_alcotest ii_matches_twin;
          QCheck_alcotest.to_alcotest pr_matches_boxed;
          QCheck_alcotest.to_alcotest dp_matches_twin;
          Alcotest.test_case "propose/respond pinned on a 10^4 tree" `Quick
            pinned_tree;
        ] );
      ( "schedules",
        [
          QCheck_alcotest.to_alcotest random_sched_matches_twin;
          Alcotest.test_case "propose/respond rejects bad schedules" `Quick
            bad_schedules_rejected;
        ] );
    ]
