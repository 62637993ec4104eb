module Ec = Ld_models.Ec
module Packed = Ld_runtime.Packed

(* Packed port of the greedy-by-colour maximal matching ([Mm_ec]):
   phase c matches through the colour-c edge iff both endpoints are
   still unmatched. State is three words — current phase, largest own
   colour, matched colour (-1) — and the broadcast is the single
   "still unmatched" bit. [Mm_ec.greedy] on the boxed engine is the
   differential oracle (see test_packed.ml). *)

let sw = 3
let off_phase = 0
let off_last = 1
let off_matched = 2

type result = { matched_colour : int array; rounds : int }

let machine : Packed.Broadcast.machine =
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~csr ~st ~node ->
        let b = node * sw in
        let lo = csr.Ec.row.(node) and hi = csr.Ec.row.(node + 1) in
        (* Colour-sorted segment: the largest own colour is the last. *)
        let last = if hi > lo then csr.Ec.colour.(hi - 1) else 0 in
        st.(b + off_phase) <- 1;
        st.(b + off_last) <- last;
        st.(b + off_matched) <- -1);
    send =
      (fun ~st ~out ~node ->
        out.(node) <- (if st.((node * sw) + off_matched) < 0 then 1 else 0));
    recv =
      (fun ~csr ~st ~out ~node ->
        let b = node * sw in
        let phase = st.(b + off_phase) in
        if st.(b + off_matched) < 0 then begin
          (* Binary search the colour-sorted segment for the phase
             colour, as [Anon.Inbox.find] does. *)
          let lo = ref csr.Ec.row.(node) and hi = ref csr.Ec.row.(node + 1) in
          let found = ref (-1) in
          while !found < 0 && !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            let c = csr.Ec.colour.(mid) in
            if c = phase then found := mid
            else if c < phase then lo := mid + 1
            else hi := mid
          done;
          if !found >= 0 && out.(csr.Ec.other.(!found)) = 1 then
            st.(b + off_matched) <- phase
        end;
        st.(b + off_phase) <- phase + 1);
    halted = (fun ~st ~node -> st.((node * sw) + off_phase) > st.((node * sw) + off_last));
  }

let greedy ?par_threshold ?domains g =
  let st, stats, _all_halted =
    Packed.Broadcast.run_until ?par_threshold ?domains machine
      ~max_rounds:(Ec.max_colour g) g
  in
  let matched_colour =
    Array.init (Ec.n g) (fun v -> st.((v * sw) + off_matched))
  in
  ({ matched_colour; rounds = stats.Packed.rounds }, stats)
