module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Coin = Ld_runtime.Packed.Coin

(* Davies–Peck-style degree-class decomposition schedule over the
   Israeli–Itai propose/respond dynamics, for approximate maximum
   matching / 2-approximate vertex cover at mega scale.

   The round schedule splits nodes into degree classes: in phase [j]
   (lasting [iters_per_class] propose/respond iterations) only nodes
   whose *live* degree lies in (Δ/2^{j+1}, Δ/2^j] draw proposals —
   the densest residual nodes are matched off first, halving the
   relevant degree scale each phase, which is the decomposition
   strategy behind Davies–Peck-style matching/cover rounds. Everyone
   always responds, so progress is never blocked. After the [log Δ]
   classes an unrestricted Israeli–Itai cleanup runs until the
   matching is maximal; matched endpoints then form a 2-approximate
   vertex cover. With [delta = 0] there are no classes and the whole
   run is that cleanup: plain Israeli–Itai ([Packed_ii]).

   Eligibility is a function of purely local state (live-port count
   and the iteration counter), so the packed machine and the boxed
   twin in [Ld_check] — driving the same transition and drawing from
   the same {!Packed.Coin} stream — remain exactly comparable:
   identical mates and rounds at any [LD_DOMAINS].

   State slice (6 words): coin, live-port bitmask (degree <= 62),
   matched port (-1), step counter (phase = [s land 1], 0 = propose,
   1 = respond; iteration = [s lsr 1]), proposal port (-1), accept
   port (-1). Message (1 word): matched / propose / accept bits. *)

type schedule = { delta : int; iters_per_class : int }

(* Number of degree classes: bit length of delta, so the classes
   (Δ/2, Δ], (Δ/4, Δ/2], ... cover 1..Δ. *)
let classes delta =
  let c = ref 0 in
  let d = ref delta in
  while !d > 0 do
    incr c;
    d := !d lsr 1
  done;
  !c

let check_schedule sched =
  if sched.delta < 0 || sched.iters_per_class < 1 then
    invalid_arg "Davies_peck: schedule needs delta >= 0 and iters_per_class >= 1"

let state_words = 6
let off_coin = 0
let off_live = 1
let off_matched = 2
let off_step = 3
let off_proposal = 4
let off_accept = 5
let bit_matched = 1
let bit_propose = 2
let bit_accept = 4

type result = { mate : int array; rounds : int }

(* k-th set bit (0-based) of a nonempty mask — the packed analogue of
   [List.nth live k] on the ascending live-port list. *)
let nth_set_bit mask k =
  let m = ref mask and left = ref k and p = ref 0 in
  while !left > 0 || !m land 1 = 0 do
    if !m land 1 = 1 then decr left;
    m := !m lsr 1;
    incr p
  done;
  !p

let popcount x =
  let c = ref 0 in
  let y = ref x in
  while !y <> 0 do
    y := !y land (!y - 1);
    incr c
  done;
  !c

let eligible sched ~iter live =
  let j = iter / sched.iters_per_class in
  j >= classes sched.delta
  ||
  let c = popcount live in
  c > sched.delta lsr (j + 1) && c <= sched.delta lsr j

(* Draw order: a bool draw only if the node has a live port and is
   eligible, then an int draw only for proposers. *)
let draw_proposal sched state =
  let live = state.(off_live) in
  if live = 0 || not (eligible sched ~iter:(state.(off_step) lsr 1) live) then
    state.(off_proposal) <- -1
  else begin
    let c = Coin.next state.(off_coin) in
    state.(off_coin) <- c;
    if Coin.bool c then begin
      let c = Coin.next state.(off_coin) in
      state.(off_coin) <- c;
      let k = Coin.int c (popcount live) in
      state.(off_proposal) <- nth_set_bit live k
    end
    else state.(off_proposal) <- -1
  end

let init sched ~seed ~node ~degree state =
  if degree > 62 then invalid_arg "Davies_peck: degree > 62";
  state.(off_coin) <- Coin.seed ~seed ~node;
  state.(off_live) <- (if degree = 0 then 0 else (1 lsl degree) - 1);
  state.(off_matched) <- -1;
  state.(off_step) <- 0;
  state.(off_proposal) <- -1;
  state.(off_accept) <- -1;
  draw_proposal sched state

let message state ~port =
  let phase = state.(off_step) land 1 in
  (if state.(off_matched) >= 0 then bit_matched else 0)
  lor (if phase = 0 && state.(off_proposal) = port then bit_propose else 0)
  lor (if phase = 1 && state.(off_accept) = port then bit_accept else 0)

let step sched ~degree ~msg state =
  let live = ref state.(off_live) in
  for p = 0 to degree - 1 do
    if !live land (1 lsl p) <> 0 && msg p land bit_matched <> 0 then
      live := !live land lnot (1 lsl p)
  done;
  if state.(off_step) land 1 = 0 then begin
    (* Propose phase: responders accept the lowest live proposal from
       a still-unmatched proposer. *)
    let accept = ref (-1) in
    if state.(off_matched) < 0 && state.(off_proposal) < 0 then begin
      let p = ref 0 in
      while !accept < 0 && !p < degree do
        if
          !live land (1 lsl !p) <> 0
          && msg !p land bit_propose <> 0
          && msg !p land bit_matched = 0
        then accept := !p;
        incr p
      done
    end;
    state.(off_live) <- !live;
    state.(off_step) <- state.(off_step) + 1;
    state.(off_accept) <- !accept
  end
  else begin
    let matched =
      if state.(off_matched) >= 0 then state.(off_matched)
      else if state.(off_accept) >= 0 then state.(off_accept)
      else if
        state.(off_proposal) >= 0
        && msg state.(off_proposal) land bit_accept <> 0
      then state.(off_proposal)
      else -1
    in
    if matched >= 0 then live := 0;
    state.(off_live) <- !live;
    state.(off_matched) <- matched;
    state.(off_step) <- state.(off_step) + 1;
    state.(off_accept) <- -1;
    draw_proposal sched state
  end

let halted state =
  state.(off_matched) >= 0
  || (state.(off_live) = 0 && state.(off_step) land 1 = 0)

let matched_port state = state.(off_matched)

(* ---------- packed machine ---------- *)

(* The wrappers copy the node's 6-word slice into a scratch, run the
   transition above, and copy back — 12 word moves per transition,
   noise next to the message traffic, and one source of truth for the
   packed machine and the boxed twin. *)
let machine ~seed ~sched : Packed.Port.machine =
  let sw = state_words in
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let scratch = Array.make sw 0 in
        init sched ~seed ~node
          ~degree:(g.Csr.row.(node + 1) - g.Csr.row.(node))
          scratch;
        Array.blit scratch 0 st (node * sw) sw);
    send =
      (fun ~g ~st ~out ~node ->
        let scratch = Array.sub st (node * sw) sw in
        let lo = g.Csr.row.(node) and hi = g.Csr.row.(node + 1) in
        for d = lo to hi - 1 do
          out.(d) <- message scratch ~port:(d - lo)
        done);
    recv =
      (fun ~g ~back ~st ~out ~node ->
        let b = node * sw in
        let scratch = Array.sub st b sw in
        let lo = g.Csr.row.(node) in
        let degree = g.Csr.row.(node + 1) - lo in
        let msg p =
          let d = lo + p in
          out.(g.Csr.row.(g.Csr.endpoint.(d)) + back.(d))
        in
        step sched ~degree ~msg scratch;
        Array.blit scratch 0 st b sw);
    halted =
      (fun ~st ~node ->
        let b = node * sw in
        st.(b + off_matched) >= 0
        || (st.(b + off_live) = 0 && st.(b + off_step) land 1 = 0));
  }

let default_schedule g =
  { delta = Stdlib.max 1 (Csr.max_degree g); iters_per_class = 2 }

let run ?par_threshold ?domains ?sched ~seed ~max_rounds g =
  let sched = match sched with Some s -> s | None -> default_schedule g in
  check_schedule sched;
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains (machine ~seed ~sched)
      ~max_rounds g
  in
  if not all_halted then
    failwith
      (Printf.sprintf
         "Davies_peck.run: not all nodes halted within %d rounds" max_rounds);
  let n = g.Csr.n in
  let mate =
    Array.init n (fun v ->
        let p = st.((v * state_words) + off_matched) in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith "Davies_peck: asymmetric matching (protocol bug)")
    mate;
  ({ mate; rounds = stats.Packed.rounds }, stats)

(* ---------- vertex cover view ---------- *)

let is_vertex_cover g r =
  let ok = ref true in
  let { Csr.row; endpoint; _ } = g in
  for v = 0 to g.Csr.n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      if r.mate.(v) < 0 && r.mate.(endpoint.(d)) < 0 then ok := false
    done
  done;
  !ok
