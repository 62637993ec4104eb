module Po = Ld_models.Po
module Q = Ld_arith.Q
module Po_fm = Ld_fm.Po_fm
module Anon = Ld_runtime.Anon

type msg = { m_offer : Q.t; m_sat : bool }

type state = {
  slack : Q.t;
  offer : Q.t; (* cached [my_offer] of this state — see [with_offer] *)
  dead : Po.key list;
  weights : (Po.key * Q.t) list; (* cumulative, per dart *)
  keys : Po.key list;
}

let live_keys s = List.filter (fun k -> not (List.mem k s.dead)) s.keys

let my_offer s =
  let live = live_keys s in
  if live = [] || Q.is_zero s.slack then Q.zero
  else Q.div s.slack (Q.of_int (List.length live))

(* Exact-rational division per state transition, not per send — the
   same send-side collapse as Packing.proposal_machine. *)
let with_offer s = { s with offer = my_offer s }

let machine : (state, msg) Anon.machine =
  {
    init =
      (fun ~keys ->
        with_offer { slack = Q.one; offer = Q.zero; dead = []; weights = []; keys });
    send = (fun s -> { m_offer = s.offer; m_sat = Q.is_zero s.slack });
    recv =
      (fun s inbox ->
        let offer = s.offer in
        let i_am_sat = Q.is_zero s.slack in
        let increments =
          (* Walk dart indices so dead keys cost a key peek, not a
             message read. *)
          let d = Anon.Inbox.degree inbox in
          let rec go i acc =
            if i >= d then List.rev acc
            else begin
              let k = Anon.Inbox.key inbox i in
              if List.mem k s.dead then go (i + 1) acc
              else
                go (i + 1)
                  ((k, Q.min offer (Anon.Inbox.msg inbox i).m_offer) :: acc)
            end
          in
          go 0 []
        in
        let gained = Q.sum (List.map snd increments) in
        let weights =
          List.fold_left
            (fun acc (k, inc) ->
              if Q.is_zero inc then acc
              else begin
                let prev = Option.value ~default:Q.zero (List.assoc_opt k acc) in
                (k, Q.add prev inc) :: List.remove_assoc k acc
              end)
            s.weights increments
        in
        let slack = Q.sub s.slack gained in
        let now_sat = Q.is_zero slack in
        let dead =
          List.filter
            (fun k ->
              (not (List.mem k s.dead))
              && (i_am_sat || now_sat
                 ||
                 match Anon.Inbox.find inbox ~key:k with
                 | Some m -> m.m_sat
                 | None -> false))
            s.keys
          @ s.dead
        in
        with_offer { s with slack; dead; weights });
    halted = (fun s -> List.for_all (fun k -> List.mem k s.dead) s.keys);
  }

let proposal ?truncate g =
  let states, rounds =
    match truncate with
    | None -> Anon.run_until machine ~max_rounds:(Po.n g + 2) (Anon.Po g)
    | Some r ->
      if r < 0 then invalid_arg "Po_packing.proposal: negative truncation";
      (Anon.run machine ~rounds:r (Anon.Po g), r)
  in
  let weight_at v key =
    Option.value ~default:Q.zero (List.assoc_opt key states.(v).weights)
  in
  let arc_w =
    Array.of_list
      (List.map
         (fun (a : Po.arc) ->
           let wt = weight_at a.tail (Po.key ~out:true a.colour) in
           let wh = weight_at a.head (Po.key ~out:false a.colour) in
           assert (Q.equal wt wh);
           wt)
         (Po.arcs g))
  in
  let loop_w =
    Array.of_list
      (List.map
         (fun (l : Po.loop) ->
           let wo = weight_at l.node (Po.key ~out:true l.colour) in
           let wi = weight_at l.node (Po.key ~out:false l.colour) in
           assert (Q.equal wo wi);
           wo)
         (Po.loops g))
  in
  (Po_fm.create g ~arc_w ~loop_w, rounds)

type algorithm = { name : string; run : Po.t -> Po_fm.t }

let proposal_algorithm =
  { name = "po-proposal"; run = (fun g -> fst (proposal g)) }

let truncated_proposal r =
  {
    name = Printf.sprintf "po-proposal[%d rounds]" r;
    run = (fun g -> fst (proposal ~truncate:r g));
  }
