module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Dart_csr
module Anon = Ld_runtime.Anon
module Sync = Ld_runtime.Sync
module Dp = Ld_matching.Davies_peck

(* ---- dense executor ---- *)

let exec machine ~limit g =
  let dc = Anon.dart_csr g in
  let row = dc.Darts.row in
  let states =
    ref
      (Array.init (Darts.n dc) (fun v ->
           machine.Anon.init
             ~keys:(List.init (row.(v + 1) - row.(v)) (fun i -> dc.key.(row.(v) + i)))))
  in
  let rounds = ref 0 in
  while !rounds < limit && not (Array.for_all machine.halted !states) do
    let prev = !states in
    let ib = Anon.Inbox.make dc (Array.map machine.send prev) in
    states :=
      Array.mapi
        (fun v s ->
          if machine.halted s then s
          else begin
            Anon.Inbox.at ib v;
            machine.recv s ib
          end)
        prev;
    incr rounds
  done;
  (!states, !rounds)

let run machine ~rounds g =
  if rounds < 0 then invalid_arg "Ld_check.run: negative rounds";
  fst (exec machine ~limit:rounds g)

let run_until machine ~max_rounds g = exec machine ~limit:max_rounds g

(* ---- boxed propose/respond twin ---- *)

let propose_respond_run ~sched ~seed ~max_rounds g =
  Dp.check_schedule sched;
  let machine : (int array, int, int) Sync.machine =
    {
      init =
        (fun ~id ~degree ~rng:_ ->
          let state = Array.make Dp.state_words 0 in
          Dp.init sched ~seed ~node:id ~degree state;
          state);
      send = (fun state ~port -> Some (Dp.message state ~port));
      recv =
        (fun state inbox ->
          let state = Array.copy state in
          (* Every neighbour sends on every round (frozen ones via the
             cache), so the inbox has exactly one entry per port. *)
          let msgs = Array.make 64 0 in
          List.iter (fun (p, m) -> msgs.(p) <- m) inbox;
          Dp.step sched ~degree:(List.length inbox) ~msg:(fun p -> msgs.(p)) state;
          state);
      output =
        (fun state -> if Dp.halted state then Some (Dp.matched_port state) else None);
    }
  in
  let res = Sync.run machine ~seed ~max_rounds (Ld_models.Labelled.Id.trivial g) in
  let mate =
    Array.mapi
      (fun v port -> if port < 0 then -1 else List.nth (Ld_graph.Graph.neighbours g v) port)
      res.Sync.outputs
  in
  { Dp.mate; rounds = res.Sync.rounds }

(* ---- list-based refinement ----

   Labels are interned per round, so equal labels mean structurally
   identical descriptors. *)

let c_descriptors = Ld_obs.Obs.Counter.make "cover.refine.descriptors_sorted"

(* Lexicographic on int pairs: the order the polymorphic compare gives. *)
let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let refine_lists ~n ~(darts : int -> (int * int) list) ~rounds =
  let history = Array.make (rounds + 1) [||] in
  history.(0) <- Array.make n 0;
  for r = 1 to rounds do
    let prev = history.(r - 1) in
    let intern : (int * (int * int) list, int) Hashtbl.t = Hashtbl.create (2 * n) in
    let next = Array.make n 0 in
    for v = 0 to n - 1 do
      let descriptor =
        ( prev.(v),
          List.sort pair_compare (List.map (fun (k, u) -> (k, prev.(u))) (darts v)) )
      in
      let label =
        match Hashtbl.find_opt intern descriptor with
        | Some l -> l
        | None ->
          let l = Hashtbl.length intern in
          Hashtbl.add intern descriptor l;
          l
      in
      next.(v) <- label
    done;
    history.(r) <- next;
    Ld_obs.Obs.Counter.add c_descriptors n
  done;
  history

let ec_darts g v =
  List.map
    (function
      | Ec.To_neighbour { neighbour; colour; _ } -> (colour, neighbour)
      | Ec.Into_loop { colour; _ } -> (colour, v))
    (Ec.darts g v)

let po_darts g v =
  List.map
    (function
      | Po.Out { neighbour; colour; _ } -> ((colour * 2) + 0, neighbour)
      | Po.In { neighbour; colour; _ } -> ((colour * 2) + 1, neighbour)
      | Po.Loop_out { colour; _ } -> ((colour * 2) + 0, v)
      | Po.Loop_in { colour; _ } -> ((colour * 2) + 1, v))
    (Po.darts g v)

let refine_ec g ~rounds = refine_lists ~n:(Ec.n g) ~darts:(ec_darts g) ~rounds
let refine_po g ~rounds = refine_lists ~n:(Po.n g) ~darts:(po_darts g) ~rounds

let equivalent_radius g u h v ~radius =
  let labels = (refine_ec (Ec.disjoint_union g h) ~rounds:radius).(radius) in
  labels.(u) = labels.(Ec.n g + v)

(* ---- structure ---- *)

let is_tree_plus_loops g =
  let module Gr = Ld_graph.Graph in
  match
    Gr.create (Ec.n g)
      (List.map (fun (x : Ec.edge) -> (Stdlib.min x.u x.v, Stdlib.max x.u x.v))
         (Ec.edges g))
  with
  | exception Invalid_argument _ -> false (* parallel edges: not a tree *)
  | sg -> Gr.m sg = Gr.n sg - 1 && Gr.is_connected sg
