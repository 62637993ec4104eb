(* runtime-1m: Israeli–Itai maximal matching and the Davies–Peck
   vertex cover on the packed runtime, over a 10^6-node
   (3, 8)-biregular tree. Its working set is on the scale of a shared
   last-level cache, so the graph / runtime / matching data layout
   shows here and nowhere else. The tree is fixed; the seed drives
   both algorithms' coin streams. *)

open Common
module Gen = Ld_graph.Generators
module Packed = Ld_runtime.Packed
module Packed_ii = Ld_matching.Packed_ii
module Davies_peck = Ld_matching.Davies_peck

let max_rounds = 100_000

type state = {
  graph : Ld_graph.Csr.t;
  mutable rounds : (int * int) option;  (** II and DP rounds of the warm-up op *)
}

let setup cfg ~layers () =
  let n = if cfg.tiny then 10_000 else 1_000_000 in
  let gen () = Gen.stream_biregular_tree ~d:3 ~delta:8 n in
  let graph =
    match layers with None -> gen () | Some a -> timed a "graph.generate_ms" gen
  in
  { graph; rounds = None }

(* One op: both runs, single domain. The output checks run after the
   op's clock stops. *)
let op cfg st ~layers () =
  let seed = cfg.seed in
  let g = st.graph in
  let (ii, s_ii), t_ii =
    time_ms (fun () -> Packed_ii.run ~domains:1 ~seed ~max_rounds g)
  in
  let (dp, s_dp), t_dp =
    time_ms (fun () -> Davies_peck.run ~domains:1 ~seed ~max_rounds g)
  in
  (match layers with
  | None -> ()
  | Some a ->
    add a "runtime.ii_ms" t_ii;
    add a "runtime.dp_ms" t_dp;
    add a "runtime.sends" (float_of_int (s_ii.Packed.sends + s_dp.Packed.sends));
    add a "runtime.rounds" (float_of_int (s_ii.Packed.rounds + s_dp.Packed.rounds)));
  let rounds = (ii.Packed_ii.rounds, dp.Davies_peck.rounds) in
  let check =
    if not (Packed_ii.is_maximal g ii) then Error "Israeli-Itai matching is not maximal"
    else if not (Davies_peck.is_vertex_cover g dp) then Error "Davies-Peck output is not a vertex cover"
    else
      match st.rounds with
      | None ->
        st.rounds <- Some rounds;
        Ok ()
      | Some (a, b) when a = fst rounds && b = snd rounds -> Ok ()
      | Some (a, b) ->
        Error
          (Printf.sprintf "rounds changed from (%d, %d) to (%d, %d)" a b (fst rounds)
             (snd rounds))
  in
  (t_ii +. t_dp, check)
